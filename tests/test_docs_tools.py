"""The documentation toolchain: protocol-docs generator, link checker,
and the CLI commands the docs show."""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from tools.check_docs import check_file, github_slug, heading_slugs, main as check_main
from tools.gen_protocol_docs import (
    SURROGATE_SUPPORTED,
    render_protocol_docs,
    run_cli,
)


class TestProtocolDocsGenerator:
    def test_renders_every_registered_protocol(self):
        from repro.core.protocols.registry import iter_registry

        text = render_protocol_docs()
        for name, cls in iter_registry():
            assert f"## `{name}` — {cls.__name__}" in text

    def test_deterministic(self):
        assert render_protocol_docs() == render_protocol_docs()

    def test_surrogate_markers_match_the_engine(self):
        """The *(surrogate-supported)* markers must track the surrogate's
        actual capability, not a hand-maintained list."""
        from repro.analytic.surrogate import SUPPORTED_PROTOCOLS

        assert set(SURROGATE_SUPPORTED) == set(SUPPORTED_PROTOCOLS)
        text = render_protocol_docs()
        assert text.count("*(surrogate-supported)*") == len(SURROGATE_SUPPORTED)

    def test_parameter_tables_present(self):
        text = render_protocol_docs()
        assert "| parameter | type | default |" in text
        assert "| `ttl` |" in text

    def test_check_mode_detects_staleness(self, tmp_path, capsys):
        out = tmp_path / "protocols.md"
        assert run_cli(["--out", str(out)]) == 0
        assert run_cli(["--check", "--out", str(out)]) == 0
        out.write_text(out.read_text() + "\ndrift\n")
        assert run_cli(["--check", "--out", str(out)]) == 1

    def test_check_mode_on_missing_file(self, tmp_path):
        assert run_cli(["--check", "--out", str(tmp_path / "absent.md")]) == 1

    def test_committed_reference_is_fresh(self):
        """The same invariant the CI docs job enforces."""
        assert run_cli(["--check"]) == 0


class TestGithubSlugs:
    @pytest.mark.parametrize(
        "heading,slug",
        [
            ("Simple Title", "simple-title"),
            ("The `ScenarioSpec` JSON reference", "the-scenariospec-json-reference"),
            ("What's *this*?", "whats-this"),
            ("engine=\"ode\" / engine=\"des\"", "engineode--enginedes"),
        ],
    )
    def test_slugification(self, heading, slug):
        assert github_slug(heading) == slug

    def test_heading_slugs_skip_code_fences(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("# Real\n```sh\n# not a heading\n```\n## Also real\n")
        assert heading_slugs(doc) == {"real", "also-real"}


class TestLinkChecker:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_resolving_links_pass(self, tmp_path):
        self.write(tmp_path, "other.md", "# Target Section\n")
        doc = self.write(
            tmp_path,
            "doc.md",
            "[ok](other.md) [anchor](other.md#target-section) "
            "[ext](https://example.com) [self](#local)\n\n# Local\n",
        )
        assert check_file(doc) == []

    def test_missing_file_reported(self, tmp_path):
        doc = self.write(tmp_path, "doc.md", "[bad](absent.md)\n")
        problems = check_file(doc)
        assert len(problems) == 1 and "missing file" in problems[0]

    def test_broken_anchor_reported(self, tmp_path):
        self.write(tmp_path, "other.md", "# Only Section\n")
        doc = self.write(tmp_path, "doc.md", "[bad](other.md#nope)\n")
        problems = check_file(doc)
        assert len(problems) == 1 and "anchor" in problems[0]

    def test_links_inside_code_fences_ignored(self, tmp_path):
        doc = self.write(tmp_path, "doc.md", "```md\n[bad](absent.md)\n```\n")
        assert check_file(doc) == []

    def test_cli_over_explicit_files(self, tmp_path, capsys):
        good = self.write(tmp_path, "good.md", "# A\n[x](#a)\n")
        assert check_main([str(good)]) == 0
        bad = self.write(tmp_path, "bad.md", "[x](gone.md)\n")
        assert check_main([str(bad)]) == 1
        assert "broken link" in capsys.readouterr().out

    def test_repo_docs_all_resolve(self):
        """The same invariant the CI docs job enforces on the real suite."""
        assert check_main([]) == 0


ROOT = Path(__file__).resolve().parents[1]
SHELL_FENCES = ("sh", "bash", "shell", "console")


def repro_commands(text: str) -> list[list[str]]:
    """The arguments of every ``python -m repro …`` command in the fenced
    shell blocks of a markdown text: ``\\`` continuations joined, comments
    stripped, and the command cut at a pipe, list operator or redirect."""
    lines: list[str] = []
    fence = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            fence = stripped[3:].strip() if fence is None else None
        elif fence in SHELL_FENCES:
            lines.append(stripped)
    commands = []
    for line in "\n".join(lines).replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        starts = [i + 2 for i in range(len(argv) - 1) if argv[i : i + 2] == ["-m", "repro"]]
        if starts:
            command = argv[starts[0] :]
            ends = [i for i, tok in enumerate(command) if tok in ("|", "||", "&&", ";", ">")]
            commands.append(command[: ends[0]] if ends else command)
    return commands


class TestDocumentedCommands:
    def test_extraction_joins_continuations_and_strips_comments(self):
        text = (
            "```sh\n"
            "PYTHONPATH=src python -m repro run fig14 \\\n"
            "    --scale smoke   # a figure\n"
            "python -m repro list | head\n"
            "```\n"
            "```python\n"
            "python -m repro never-parsed\n"
            "```\n"
        )
        assert repro_commands(text) == [["run", "fig14", "--scale", "smoke"], ["list"]]
        assert ["list"] in repro_commands((ROOT / "README.md").read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "doc",
        ["README.md", *sorted(p.relative_to(ROOT).as_posix() for p in ROOT.glob("docs/*.md"))],
    )
    def test_every_documented_command_parses(self, doc):
        """A flag deleted from the CLI but left in the docs fails here;
        nothing is run."""
        parser = build_parser()
        bad = []
        for argv in repro_commands((ROOT / doc).read_text(encoding="utf-8")):
            try:
                parser.parse_args(argv)
            except SystemExit:
                bad.append(shlex.join(argv))
        assert bad == [], f"{doc}: commands the CLI refuses: {bad}"
