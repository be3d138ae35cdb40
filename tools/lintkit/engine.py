"""The ``reprolint`` rule engine.

``reprolint`` is this repo's project-specific static analyzer: an
AST-walking rule engine whose rules encode the invariants the golden-pin
methodology depends on (seeded randomness, ordered iteration on the event
path, ``__slots__`` hot-path classes, serialisation round-trips). The
engine is deliberately small:

* **One parse per file.** Every applicable rule visits the same
  :class:`SourceFile` (AST + raw lines + pragma maps).
* **Per-rule severity.** ``error`` violations fail the build;
  ``warning`` violations are reported but exit 0 unless ``--strict``.
* **Path-scoped rule sets.** Each rule declares ``paths`` / ``exclude``
  fnmatch patterns over posix-style relative paths, so an invariant can
  be enforced exactly where it holds (e.g. ordered iteration only on the
  event-scheduling modules) without a central config file.
* **Inline suppression.** ``# lint: disable=RULE[,RULE...]`` on the
  offending line suppresses those rules for that line;
  ``# lint: disable-file=RULE`` anywhere in the file suppresses the rule
  for the whole file. ``ALL`` is accepted as a wildcard. Suppressions
  are for *reviewed* sites — the pragma is grep-able on purpose.

Rules subclass :class:`Rule` and yield :class:`Violation` objects from
:meth:`Rule.check`, one source file at a time.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# lint: disable=DET001`` / ``# lint: disable=DET001,HOT002``
_LINE_PRAGMA = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")
#: ``# lint: disable-file=DET001`` — whole-file suppression
_FILE_PRAGMA = re.compile(r"#\s*lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule finding, anchored at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = SEVERITY_ERROR

    def render(self) -> str:
        """``path:line:col: SEVERITY RULE: message`` (editor-clickable)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule_id}: {self.message}"
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready rendering for ``--format json``."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


def _parse_pragma_ids(match: re.Match[str]) -> set[str]:
    return {tok.strip().upper() for tok in match.group(1).split(",") if tok.strip()}


class SourceFile:
    """One parsed source file: AST, raw lines, and suppression pragmas."""

    def __init__(self, rel_path: str, text: str) -> None:
        self.rel_path = rel_path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=rel_path)
        #: line number -> rule ids suppressed on that line
        self.line_pragmas: dict[int, set[str]] = {}
        #: rule ids suppressed for the whole file
        self.file_pragmas: set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            if "lint:" not in line:
                continue
            m = _FILE_PRAGMA.search(line)
            if m:
                self.file_pragmas |= _parse_pragma_ids(m)
                continue
            m = _LINE_PRAGMA.search(line)
            if m:
                self.line_pragmas[lineno] = _parse_pragma_ids(m)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True if ``rule_id`` is pragma-disabled at ``line``."""
        rid = rule_id.upper()
        if rid in self.file_pragmas or "ALL" in self.file_pragmas:
            return True
        ids = self.line_pragmas.get(line)
        return ids is not None and (rid in ids or "ALL" in ids)


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    """

    #: Stable identifier used in reports and pragmas (e.g. ``DET001``).
    rule_id = "RULE000"
    #: ``error`` fails the build; ``warning`` reports without failing.
    severity = SEVERITY_ERROR
    #: One-line summary shown by ``--list-rules``.
    description = ""
    #: fnmatch patterns over posix relative paths; empty = every file.
    paths: tuple[str, ...] = ()
    #: fnmatch patterns removed from scope even when ``paths`` matches.
    exclude: tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        """True when this rule is in scope for ``rel_path``."""
        if any(fnmatch.fnmatch(rel_path, pat) for pat in self.exclude):
            return False
        if not self.paths:
            return True
        return any(fnmatch.fnmatch(rel_path, pat) for pat in self.paths)

    def check(self, src: SourceFile) -> Iterable[Violation]:
        """Yield this rule's violations for one source file."""
        raise NotImplementedError

    def violation(
        self, src: SourceFile, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        return Violation(
            rule_id=self.rule_id,
            path=src.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


def iter_python_files(roots: Sequence[str | Path]) -> Iterator[Path]:
    """Yield ``*.py`` files under ``roots`` (files or directories), sorted.

    Hidden directories (``.git``, ``.pytest_cache``, ...) and
    ``__pycache__`` are skipped.
    """
    seen: set[Path] = set()
    for root in roots:
        root = Path(root)
        if root.is_file():
            candidates: Iterable[Path] = [root] if root.suffix == ".py" else []
        else:
            candidates = sorted(root.rglob("*.py"))
        for path in candidates:
            parts = path.parts
            if any(p.startswith(".") or p == "__pycache__" for p in parts):
                continue
            if path not in seen:
                seen.add(path)
                yield path


def _relative_posix(path: Path, base: Path) -> str:
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_sources(
    sources: Iterable[tuple[str, str]], rules: Sequence[Rule]
) -> list[Violation]:
    """Lint in-memory ``(rel_path, text)`` pairs (the unit-test entry).

    Violations are pragma-filtered and sorted by (path, line, rule).

    Raises:
        SyntaxError: if a source does not parse.
    """
    out: list[Violation] = []
    for rel_path, text in sources:
        src = SourceFile(rel_path, text)
        for rule in rules:
            if not rule.applies_to(rel_path):
                continue
            for v in rule.check(src):
                if not src.suppressed(v.rule_id, v.line):
                    out.append(v)
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return out


def lint_paths(
    roots: Sequence[str | Path],
    rules: Sequence[Rule],
    *,
    base: Path | None = None,
) -> list[Violation]:
    """Lint every python file under ``roots`` against ``rules``.

    Paths are reported relative to ``base`` (default: the current
    directory), which is also what rule scoping patterns match against —
    run from the repo root so ``src/repro/...`` patterns line up.
    """
    base = base or Path.cwd()

    def _sources() -> Iterator[tuple[str, str]]:
        for path in iter_python_files(roots):
            yield _relative_posix(path, base), path.read_text(encoding="utf-8")

    return lint_sources(_sources(), rules)


def run_cli(argv: Sequence[str] | None = None) -> int:
    """``python -m tools.lintkit`` — returns the process exit code."""
    import argparse

    from tools.lintkit.rules import default_rules

    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Project static analyzer: determinism & hot-path invariants "
            "behind the golden-pin methodology."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tools"],
        help="files or directories to lint (default: src tools)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    parser.add_argument(
        "--strict", action="store_true", help="warnings also fail the build"
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only these rule ids (repeatable)",
    )
    args = parser.parse_args(argv)

    rules: Sequence[Rule] = default_rules()
    if args.list_rules:
        for rule in rules:
            scope = ", ".join(rule.paths) if rule.paths else "all files"
            print(f"{rule.rule_id}  [{rule.severity}]  {rule.description}")
            print(f"        scope: {scope}")
        return 0
    if args.rule:
        wanted = {r.upper() for r in args.rule}
        rules = [r for r in rules if r.rule_id in wanted]
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    violations = lint_paths(args.paths, rules)
    if args.format == "json":
        print(json.dumps([v.as_dict() for v in violations], indent=2))
    else:
        for v in violations:
            print(v.render())
    errors = sum(1 for v in violations if v.severity == SEVERITY_ERROR)
    warnings = len(violations) - errors
    if args.format == "text":
        if violations:
            print(f"reprolint: {errors} error(s), {warnings} warning(s)")
        else:
            print("reprolint: clean")
    failing = errors + (warnings if args.strict else 0)
    return 1 if failing else 0
