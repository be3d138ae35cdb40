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
attribute is no read, nor is its entry in a ``__slots__`` declaration,
nor a bare name of the same spelling. A read is resolved to its class
where the scan can type the object it reads from: ``self`` in a method,
a parameter annotated with a class of ``src/repro``, a local or an
attribute of ``self`` assigned from such an object or from a call of the
class, and attributes of those through the typed attributes of their
class. A resolved read counts for the class it resolves to, its
ancestors and the ancestors of its subclasses (the classes an instance
of it can be). An unresolved read counts only for a name that no other
class of ``src/repro`` owns (assigns through ``self``, declares in its
body or defines as a method). State that only tests read is write-only
in the program, and goes; an attribute kept on purpose goes on
:data:`ATTRIBUTE_ALLOWLIST` with its reason.
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


#: Attributes of ``self`` that nothing in the program reads, kept on
#: purpose: qualified name -> why it stays.
ATTRIBUTE_ALLOWLIST = {
    "CellExecutionError.failure": (
        "the structured failure a caller that catches the error reads; the "
        "message carries the same facts"
    ),
    "IncompleteReferenceGridError.engine": (
        "which pass of the gate failed, for a caller that catches the error"
    ),
    "IncompleteReferenceGridError.failures": (
        "the failed reference cells, for a caller that catches the error"
    ),
    "TraceFormatError.line_no": (
        "the offending line, for a caller that catches the error; the "
        "message carries it too"
    ),
    "EncounterHistory.encounter_count": (
        "the tally of noted encounters that the differential ladder compares "
        "between the reference schedule and both paths of the sweep"
    ),
    "RemovalCounters.other": (
        "the bucket RemovalCounters.add charges a removal reason outside "
        "the fixed set to (a custom protocol's own); no result field reads it"
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
    skip = _writes(tree) if reads else set()
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


def _writes(tree: ast.Module) -> set[int]:
    """The ids of the nodes under ``tree`` that name an attribute without
    reading it: assignment targets and the entries of ``__slots__``."""
    skip = {id(node) for node in assigned_attributes(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in node.targets
        ):
            skip.update(id(entry) for entry in ast.walk(node.value))
    return skip


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


class ClassInfo:
    """One class of ``src/repro``: its base names, the names it owns and
    the classes of its typed attributes."""

    def __init__(self, bases: list[str]) -> None:
        self.bases = bases
        self.owned: set[str] = set()
        self.typed: dict[str, str] = {}


def _annotation_class(node: ast.expr | None, classes: dict[str, ClassInfo]) -> str | None:
    """The class of ``src/repro`` an annotation names (``K``, ``"K"``,
    ``K | None``), or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [
            side
            for side in (node.left, node.right)
            if not (isinstance(side, ast.Constant) and side.value is None)
        ]
        return _annotation_class(sides[0], classes) if len(sides) == 1 else None
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in classes else None


class _Typer:
    """Types the objects a module's attribute reads go through (see the
    module docstring), scope by scope."""

    def __init__(self, classes: dict[str, ClassInfo]) -> None:
        self.classes = classes

    def resolve(self, node: ast.expr, env: dict[str, str]) -> str | None:
        classes = self.classes
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name if name in classes else None
        if isinstance(node, (ast.BoolOp, ast.IfExp)):
            values = node.values if isinstance(node, ast.BoolOp) else [node.body, node.orelse]
            found = {
                self.resolve(value, env)
                for value in values
                if not (isinstance(value, ast.Constant) and value.value is None)
            }
            return found.pop() if len(found) == 1 else None
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value, env)
            while owner is not None:
                info = classes[owner]
                if node.attr in info.typed:
                    return info.typed[node.attr]
                owner = next((base for base in info.bases if base in classes), None)
        return None

    def scopes(
        self, tree: ast.AST
    ) -> Iterator[tuple[ast.AST, str | None, dict[str, str]]]:
        """Each function (and the module) with its enclosing class and the
        types of its parameters and locals."""

        def visit(node: ast.AST, owner: str | None, outer: dict[str, str]):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    inner = child.name if child.name in self.classes else None
                    yield from visit(child, inner, {})
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    env = dict(outer)
                    args = child.args
                    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                    for arg in params:
                        kind = _annotation_class(arg.annotation, self.classes)
                        if kind is None:
                            env.pop(arg.arg, None)
                        else:
                            env[arg.arg] = kind
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list
                    )
                    if owner is not None and params and not static:
                        env[params[0].arg] = owner
                    self._locals(child, env)
                    yield child, owner, env
                    yield from visit(child, None, env)
                else:
                    yield from visit(child, owner, outer)

        env: dict[str, str] = {}
        self._locals(tree, env)
        yield tree, None, env
        yield from visit(tree, None, env)

    def _locals(self, scope: ast.AST, env: dict[str, str]) -> None:
        """Type each plain local assigned in ``scope``'s own body from a
        typed object; a name assigned two types is left untyped."""
        untyped: set[str] = set()
        for node in _own_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                kind = _annotation_class(node.annotation, self.classes)
                if isinstance(target, ast.Name) and kind is not None:
                    env[target.id] = kind
                    continue
            else:
                continue
            if not isinstance(target, ast.Name) or value is None:
                continue
            kind = self.resolve(value, env)
            if kind is None or env.get(target.id, kind) != kind:
                untyped.add(target.id)
            else:
                env[target.id] = kind
        for name in untyped:
            env.pop(name, None)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``scope``'s own body, class bodies included, but not
    the bodies of the functions nested in it (their decorators, defaults
    and annotations are ``scope``'s)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(ast.iter_child_nodes(node.args))
            if node.returns is not None:
                stack.append(node.returns)
        else:
            stack.extend(ast.iter_child_nodes(node))


def class_table(root: Path) -> dict[str, ClassInfo]:
    """Every class of ``root/src/repro`` by name, with the names it owns
    and the classes of its typed attributes: an annotated field of its
    body, or an attribute of ``self`` one of its methods assigns from a
    typed object."""
    trees = [
        ast.parse(path.read_text(), str(path))
        for path in sorted((root / "src" / "repro").rglob("*.py"))
    ]
    classes: dict[str, ClassInfo] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                ]
                classes[node.name] = ClassInfo(bases)
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = classes[node.name]
            for child in node.body:
                if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                    info.owned.add(child.target.id)
                    kind = _annotation_class(child.annotation, classes)
                    if kind is not None:
                        info.typed[child.target.id] = kind
                elif isinstance(child, ast.Assign):
                    info.owned.update(t.id for t in child.targets if isinstance(t, ast.Name))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.owned.add(child.name)
                    info.owned.update(
                        t.attr
                        for t in assigned_attributes(child)
                        if isinstance(t.value, ast.Name) and t.value.id == "self"
                    )
    typer = _Typer(classes)
    for tree in trees:
        for scope, owner, env in typer.scopes(tree):
            if owner is None:
                continue
            for node in _own_nodes(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        kind = typer.resolve(node.value, env)
                        if kind is not None:
                            classes[owner].typed.setdefault(target.attr, kind)
    return classes


def _reach(classes: dict[str, ClassInfo]) -> dict[str, set[str]]:
    """Per class, the classes an instance of it can be an instance of: its
    subclasses' ancestors, its own included."""
    ancestors: dict[str, set[str]] = {}

    def up(name: str) -> set[str]:
        if name not in ancestors:
            ancestors[name] = {name}
            for base in classes[name].bases:
                if base in classes:
                    ancestors[name] |= up(base)
        return ancestors[name]

    reach = {name: set() for name in classes}
    for name in classes:
        for ancestor in up(name):
            reach[ancestor] |= up(name)
    return reach


def attribute_reads(
    root: Path, classes: dict[str, ClassInfo]
) -> tuple[dict[str, set[str]], set[str]]:
    """Every attribute read under the user trees: by the class it resolves
    to (``class -> names``), and the names of the reads that do not
    resolve, identifier strings and imported names included."""
    typer = _Typer(classes)
    resolved: dict[str, set[str]] = {}
    unresolved: set[str] = set()
    for directory in USER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            skip = _writes(tree)
            for scope, _, env in typer.scopes(tree):
                for node in _own_nodes(scope):
                    if id(node) in skip:
                        continue
                    if isinstance(node, ast.Attribute):
                        kind = typer.resolve(node.value, env)
                        if kind is None:
                            unresolved.add(node.attr)
                        else:
                            resolved.setdefault(kind, set()).add(node.attr)
                    elif isinstance(node, ast.ImportFrom):
                        unresolved.update(alias.name for alias in node.names)
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        if node.value.isidentifier():
                            unresolved.add(node.value)
    return resolved, unresolved


def write_only_attributes(root: Path) -> list[str]:
    """``path:line qualified.name`` of each attribute of ``self`` under
    ``root/src/repro`` that nothing under the user trees reads (see the
    module docstring), at its first assignment."""
    classes = class_table(root)
    reach = _reach(classes)
    resolved, unresolved = attribute_reads(root, classes)
    owners: dict[str, set[str]] = {}
    for name, info in classes.items():
        for attr in info.owned:
            owners.setdefault(attr, set()).add(name)
    found: dict[str, tuple[Path, int]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualname, name, line in self_attributes(tree):
            owner = qualname.split(".")[-2]
            related = {kind for kind in classes if owner in reach.get(kind, ())}
            if any(name in resolved.get(kind, ()) for kind in related):
                continue
            if name in unresolved and owners.get(name, set()) <= related:
                continue
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
    write_only = [
        entry
        for entry in write_only_attributes(ROOT)
        if entry.split()[-1] not in ATTRIBUTE_ALLOWLIST
    ]
    assert not write_only, (
        "attributes that src/ assigns and nothing outside the tests reads; "
        "delete them, or allowlist them with a reason:\n  " + "\n  ".join(write_only)
    )


def test_attribute_allowlist_entries_are_still_unread():
    """An entry that gained a reader, or was deleted, must leave the list."""
    unread = {entry.split()[-1] for entry in write_only_attributes(ROOT)}
    assert sorted(set(ATTRIBUTE_ALLOWLIST) - unread) == []
    assert all(reason.strip() for reason in ATTRIBUTE_ALLOWLIST.values())


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


def test_a_same_named_attribute_of_another_class_does_not_hide_a_write_only_one(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "metrics.py").write_text(
        "class Metrics:\n"
        "    def __init__(self, capacity):\n"
        "        self.buffer_capacity = capacity\n"
        "        self.total = capacity\n"
        "\n"
        "    def fill(self):\n"
        "        return 1 / self.total\n"
    )
    (package / "config.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Config:\n"
        "    buffer_capacity: int = 10\n"
    )
    (package / "sim.py").write_text(
        "from repro.config import Config\n"
        "from repro.metrics import Metrics\n"
        "\n"
        "\n"
        "class Sim:\n"
        "    def __init__(self, config: Config):\n"
        "        self.config = config\n"
        "        self.metrics = Metrics(config.buffer_capacity)\n"
        "\n"
        "    def capacity(self):\n"
        "        return self.config.buffer_capacity * self.metrics.fill()\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.config import Config\n"
        "from repro.sim import Sim\n"
        "\n"
        "\n"
        "def report(cfg):\n"
        "    return cfg.buffer_capacity\n"
        "\n"
        "\n"
        "print(Sim(Config()).capacity(), report(Config()))\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_metrics.py").write_text(
        "def test_capacity(metrics):\n    assert metrics.buffer_capacity == 10\n"
    )
    # Config.buffer_capacity is read: through the annotated parameter and
    # the attribute of self it types, and by report, whose untyped cfg
    # the scan cannot resolve. None of those reads reaches Metrics, and
    # an unresolved read of a name two classes own counts for neither:
    # only the test reads Metrics.buffer_capacity
    assert write_only_attributes(tmp_path) == [
        "src/repro/metrics.py:3 Metrics.buffer_capacity"
    ]


def test_a_read_through_a_mixin_reaches_its_subclasses_bases(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "proto.py").write_text(
        "class Base:\n"
        "    def __init__(self, rng):\n"
        "        self.rng = rng\n"
        "        self.other = rng\n"
        "\n"
        "\n"
        "class CoinMixin:\n"
        "    def flip(self):\n"
        "        return self.rng.random()\n"
        "\n"
        "\n"
        "class Coin(CoinMixin, Base):\n"
        "    pass\n"
        "\n"
        "\n"
        "def compare(other):\n"
        "    return other\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "use.py").write_text(
        "from repro.proto import Coin, compare\n\nprint(Coin(1).flip(), compare(2))\n"
    )
    # self in the mixin can be a Coin, so its read reaches Base.rng; the
    # bare name other is another binding, no read of Base.other
    assert write_only_attributes(tmp_path) == ["src/repro/proto.py:4 Base.other"]
