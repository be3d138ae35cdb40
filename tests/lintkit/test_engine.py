"""Engine-level behaviour: pragmas, scoping, severity, CLI plumbing."""

from __future__ import annotations

import pytest

from tools.lintkit.engine import (
    SEVERITY_WARNING,
    Rule,
    SourceFile,
    Violation,
    lint_sources,
    run_cli,
)


class AlwaysFire(Rule):
    """Test rule: one violation per module node."""

    rule_id = "TST001"
    description = "fires on every file"

    def check(self, src):
        yield self.violation(src, src.tree.body[0], "fired")


class ScopedRule(AlwaysFire):
    rule_id = "TST002"
    paths = ("src/repro/des/*",)
    exclude = ("src/repro/des/rng.py",)


class WarningRule(AlwaysFire):
    rule_id = "TST003"
    severity = SEVERITY_WARNING


def test_violation_render_is_editor_clickable():
    v = Violation("TST001", "src/x.py", 3, 7, "boom")
    assert v.render() == "src/x.py:3:7: error TST001: boom"


def test_path_scoping_include_exclude():
    rule = ScopedRule()
    assert rule.applies_to("src/repro/des/engine.py")
    assert not rule.applies_to("src/repro/des/rng.py")  # excluded
    assert not rule.applies_to("src/repro/core/bundle.py")  # out of scope


def test_unscoped_rule_applies_everywhere():
    assert AlwaysFire().applies_to("anything/at/all.py")


def test_line_pragma_suppresses_exactly_that_rule():
    src = "x = 1  # lint: disable=TST001\n"
    assert lint_sources([("f.py", src)], [AlwaysFire()]) == []
    # a different rule id on the pragma does not suppress
    src2 = "x = 1  # lint: disable=TST999\n"
    assert len(lint_sources([("f.py", src2)], [AlwaysFire()])) == 1


def test_line_pragma_multiple_ids_and_all_wildcard():
    src = "x = 1  # lint: disable=TST999,TST001\n"
    assert lint_sources([("f.py", src)], [AlwaysFire()]) == []
    src_all = "x = 1  # lint: disable=ALL\n"
    assert lint_sources([("f.py", src_all)], [AlwaysFire()]) == []


def test_file_pragma_suppresses_whole_file():
    src = "# lint: disable-file=TST001\nx = 1\ny = 2\n"
    assert lint_sources([("f.py", src)], [AlwaysFire()]) == []


def test_pragma_only_suppresses_its_line():
    parsed = SourceFile("f.py", "x = 1  # lint: disable=TST001\ny = 2\n")
    assert parsed.suppressed("TST001", 1)
    assert not parsed.suppressed("TST001", 2)


def test_violations_sorted_by_location():
    class TwoSites(Rule):
        rule_id = "TST010"

        def check(self, src):
            yield Violation(self.rule_id, src.rel_path, 5, 1, "later")
            yield Violation(self.rule_id, src.rel_path, 2, 1, "earlier")

    out = lint_sources([("f.py", "x = 1\n")], [TwoSites()])
    assert [v.line for v in out] == [2, 5]


def test_syntax_error_propagates():
    with pytest.raises(SyntaxError):
        lint_sources([("bad.py", "def broken(:\n")], [AlwaysFire()])


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert run_cli([str(tmp_path)]) == 0
    assert "reprolint: clean" in capsys.readouterr().out


def test_cli_error_violation_exits_nonzero(tmp_path, capsys):
    # DET003 fires anywhere under src/repro — build that layout
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import time\nt = time.time()\n")
    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run_cli(["src"])
    finally:
        os.chdir(cwd)
    assert code == 1
    out = capsys.readouterr().out
    assert "DET003" in out


def test_cli_list_rules_names_every_rule(capsys):
    assert run_cli(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("DET001", "DET002", "DET003", "HOT001", "HOT002", "HOT003", "API001"):
        assert rid in out


def test_cli_unknown_rule_id_rejected():
    with pytest.raises(SystemExit):
        run_cli(["--rule", "NOPE999", "."])


def test_cli_json_format(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert run_cli([str(tmp_path), "--format", "json"]) == 0
    assert capsys.readouterr().out.strip() == "[]"
