"""No test-only code in ``src/``: every public function, method and
property of ``src/repro`` has a user outside the test suite, and every
instance attribute a class of ``src/repro`` writes is read there too.

The scan parses ``src/repro`` with :mod:`ast` and collects each public
(not ``_``-prefixed) module-level function, and each public method and
property of a class. A name counts as used when it occurs outside its own
definition anywhere in ``src/``, ``tools/``, ``bench/``, ``examples/`` or
``benchmarks/``: as an attribute, an imported name, or a string constant
that spells it (``__all__`` entries, ``getattr`` and monkeypatch
targets), and for a module-level function also as a bare name. A bare
name never uses a method or property: a local variable or parameter of
the same spelling is another binding. Names are matched by spelling, not
resolved, so a method is used when any ``.name`` occurs; the check is a
ratchet against names that nothing but a test calls, not a call graph.

A name that only tests use belongs in ``tests/helpers.py`` or
``tests/oracles/``, or goes. A name kept on purpose goes on
:data:`ALLOWLIST` with its reason.

The attribute scan collects each attribute a method assigns through
``self`` (plainly, augmented, or as a subscript target) and asks the same
question of it: is it read anywhere in those trees? An assignment to an
attribute is no read, nor is its entry in a ``__slots__`` declaration.
State that only tests read is write-only in the program, and goes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Trees whose references count as uses.
USER_DIRS = ("src", "tools", "bench", "examples", "benchmarks")

#: Public names with no user in the program, kept on purpose: qualified
#: name -> why it stays.
ALLOWLIST = {
    "SimulationServices.count_control_units": (
        "the protocol-facing service a custom protocol calls to charge "
        "control-plane units; the stock protocols account theirs in bulk"
    ),
    "Simulation.count_control_units": (
        "the simulation's implementation of that service"
    ),
}


def public_definitions(tree: ast.Module) -> Iterator[tuple[str, str, int, int]]:
    """``(qualified name, name, first line, last line)`` of each public
    module-level function and each public method or property of a class
    (nested classes included; functions nested in functions are not API)."""

    def visit(node: ast.AST, owner: str) -> Iterator[tuple[str, str, int, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    qualname = f"{owner}.{child.name}" if owner else child.name
                    yield qualname, child.name, child.lineno, child.end_lineno or child.lineno
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{owner}.{child.name}" if owner else child.name)
            elif isinstance(child, (ast.If, ast.Try)):
                yield from visit(child, owner)

    yield from visit(tree, "")


def assigned_attributes(tree: ast.AST) -> Iterator[ast.Attribute]:
    """Each attribute node written by an assignment under ``tree``: a
    plain, augmented or annotated target, unpacked or under subscripts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, (ast.Starred, ast.Subscript)):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute):
                yield target


def referenced_names(
    tree: ast.Module, *, reads: bool = False
) -> Iterator[tuple[str, int, bool]]:
    """``(name, line, bare)`` of every identifier the module refers to;
    ``bare`` marks a plain name, as opposed to an attribute, an imported
    name or an identifier string.

    With ``reads``, an attribute is counted only where it is read: its
    assignments and the string entries of ``__slots__`` are left out.
    """
    skip: set[int] = set()
    if reads:
        skip = {id(node) for node in assigned_attributes(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets
            ):
                skip.update(id(entry) for entry in ast.walk(node.value))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno, False


def unused_public_names(root: Path) -> list[str]:
    """``path:line qualified.name`` of each public definition under
    ``root/src/repro`` that nothing under the user trees references
    outside the definition itself (a method or property not by a bare
    name)."""
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for directory in USER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for name, line, bare in referenced_names(tree):
                uses.setdefault(name, []).append((path, line, bare))
    unused = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualname, name, first, last in public_definitions(tree):
            method = "." in qualname
            if all(
                (p == path and first <= line <= last) or (method and bare)
                for p, line, bare in uses.get(name, ())
            ):
                unused.append(f"{path.relative_to(root)}:{first} {qualname}")
    return unused


def self_attributes(tree: ast.Module) -> Iterator[tuple[str, str, int]]:
    """``(qualified name, name, line)`` of each assignment to an attribute
    of ``self`` in a method of a class (nested classes included)."""

    def visit(node: ast.AST, owner: str) -> Iterator[tuple[str, str, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{owner}.{child.name}" if owner else child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner:
                for target in assigned_attributes(child):
                    if isinstance(target.value, ast.Name) and target.value.id == "self":
                        yield f"{owner}.{target.attr}", target.attr, target.lineno
            elif isinstance(child, (ast.If, ast.Try)):
                yield from visit(child, owner)

    yield from visit(tree, "")


def write_only_attributes(root: Path) -> list[str]:
    """``path:line qualified.name`` of each attribute of ``self`` under
    ``root/src/repro`` that nothing under the user trees reads, at its
    first assignment."""
    read: set[str] = set()
    for directory in USER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            read.update(name for name, _, _ in referenced_names(tree, reads=True))
    found: dict[str, tuple[Path, int]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualname, name, line in self_attributes(tree):
            if name not in read:
                found[qualname] = min(found.get(qualname, (path, line)), (path, line))
    return [
        f"{path.relative_to(root)}:{line} {qualname}"
        for qualname, (path, line) in sorted(found.items(), key=lambda item: item[1])
    ]


def test_every_public_name_has_a_user_outside_the_tests():
    unused = [
        entry for entry in unused_public_names(ROOT) if entry.split()[-1] not in ALLOWLIST
    ]
    assert not unused, (
        "public names that only tests use; move them to tests/helpers.py or "
        "tests/oracles/, delete them, or allowlist them with a reason:\n  "
        + "\n  ".join(unused)
    )


def test_every_assigned_attribute_is_read_outside_the_tests():
    write_only = write_only_attributes(ROOT)
    assert not write_only, (
        "attributes that src/ assigns and nothing outside the tests reads; "
        "delete them:\n  " + "\n  ".join(write_only)
    )


def test_allowlist_entries_are_still_unused():
    """An entry whose name gained a user, or was deleted, must leave the list."""
    unused = {entry.split()[-1] for entry in unused_public_names(ROOT)}
    assert sorted(set(ALLOWLIST) - unused) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_a_planted_test_only_method_is_caught(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "store.py").write_text(
        "class Store:\n"
        "    def put(self, item):\n"
        "        self.items.append(item)\n"
        "\n"
        "    def count(self):\n"
        "        return len(self.count_items())\n"
        "\n"
        "    def count_items(self):\n"
        "        return self.items\n"
        "\n"
        "    def _private(self):\n"
        "        return None\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return len(self.items)\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return helper\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.store import Store\n\nStore().put(1)\nprint(Store().size)\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_store.py").write_text("def test_count():\n    assert Store().count()\n")
    # count is called only by a test, and helper only by itself
    assert unused_public_names(tmp_path) == [
        "src/repro/store.py:5 Store.count",
        "src/repro/store.py:19 helper",
    ]


def test_a_same_named_local_does_not_hide_a_test_only_method(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "ledger.py").write_text(
        "class Ledger:\n"
        "    def __init__(self):\n"
        "        self.rows = []\n"
        "\n"
        "    def total(self):\n"
        "        return len(self.rows)\n"
        "\n"
        "    def flush(self):\n"
        "        self.rows.clear()\n"
        "\n"
        "\n"
        "def summarize(rows):\n"
        "    total = len(rows)\n"
        "    return total\n"
        "\n"
        "\n"
        "def report(ledger):\n"
        "    getattr(ledger, 'flush')()\n"
        "    return summarize(ledger.rows)\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.ledger import Ledger, report\n\nprint(report(Ledger()))\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_ledger.py").write_text(
        "def test_total(ledger):\n    assert ledger.total() == 0\n"
    )
    # the local total in summarize is another binding, so only the test
    # calls Ledger.total; flush is used through its string, and summarize,
    # a module-level function, through its bare name in report
    assert unused_public_names(tmp_path) == ["src/repro/ledger.py:5 Ledger.total"]


def test_a_planted_write_only_attribute_is_caught(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "session.py").write_text(
        "class Session:\n"
        "    __slots__ = ('idle', 'count', 'log', 'budget')\n"
        "\n"
        "    def __init__(self):\n"
        "        self.idle = False\n"
        "        self.count = 0\n"
        "        self.log = {}\n"
        "        self.budget = 3\n"
        "\n"
        "    def step(self, key):\n"
        "        self.count += 1\n"
        "        self.log[key] = self.budget\n"
        "        self.idle, self.budget = True, self.budget - 1\n"
    )
    (tmp_path / "tools").mkdir()
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_session.py").write_text("def test_idle(s):\n    assert s.idle and s.log\n")
    # budget is read in step; idle, count and log are only ever written
    assert write_only_attributes(tmp_path) == [
        "src/repro/session.py:5 Session.idle",
        "src/repro/session.py:6 Session.count",
        "src/repro/session.py:7 Session.log",
    ]
