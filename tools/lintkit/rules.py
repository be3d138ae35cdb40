"""The reprolint rule set — this repo's machine-checked invariants.

Every performance PR in this repo is shippable only because the suite can
prove bit-identical results against golden pins. That guarantee dies
silently the moment someone iterates an unordered ``set`` into the event
queue, draws from an unseeded RNG, or slips an attribute-dict class into
the DES hot path. Each rule below encodes one such invariant; the README
section "Static analysis & determinism guarantees" documents the why in
detail and ties each rule to the golden-pin methodology.

Rule inventory:

========  ========================================================
DET001    no unseeded ``random`` / ``np.random`` draws outside
          ``des/rng.py`` (every stream derives from the master seed)
DET002    no iteration over ``set``/``frozenset`` (or ``.keys()`` /
          ``.items()`` without ``sorted(...)``) in the event-path
          modules that schedule events, pick transfer candidates, or
          feed RNG streams
DET003    no wall-clock reads (``time.time`` etc.) inside
          ``src/repro`` — simulation results must be functions of the
          seed, never of when they ran
HOT001    classes in ``des/`` and ``core/bundle.py`` must declare
          ``__slots__`` (the per-event allocation path)
HOT002    no per-event closure allocation: lambdas /
          ``functools.partial`` must not be passed to ``schedule*`` /
          ``at`` / ``after`` / ``push``
HOT003    no Python-level per-contact ``for`` loops (incl.
          comprehensions) over the contact columns inside the SoA
          sweep kernel, or over the window columns of the contact
          fold — contact streams are swept with ``while`` + vectorized
          chunk scans and windows are folded by array operations,
          never element-wise Python iteration
SPEC001   every serialisable spec/config dataclass field must appear
          in its JSON round-trip (``to_dict`` *and* ``from_dict``),
          and every ``SimulationConfig`` knob must be mirrored by
          ``ScenarioSpec``
API001    public registry-facing classes/functions must carry a
          docstring
========  ========================================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from tools.lintkit.engine import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Rule,
    SourceFile,
    Violation,
)

# ---------------------------------------------------------------------------
# DET001 — unseeded randomness


class UnseededRandomRule(Rule):
    """Randomness must flow through :mod:`repro.des.rng` seed derivation."""

    rule_id = "DET001"
    severity = SEVERITY_ERROR
    description = (
        "unseeded random draw: use repro.des.rng streams (master-seed "
        "derived), never stdlib random or numpy's global/unseeded RNG"
    )
    paths = ("src/repro/*",)
    exclude = ("src/repro/des/rng.py",)

    #: ``numpy.random`` module-level draw functions (the legacy global
    #: RandomState surface) — all of them bypass seed derivation.
    _NP_DRAWS = frozenset(
        {
            "seed", "random", "rand", "randn", "randint", "random_sample",
            "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
            "normal", "standard_normal", "exponential", "poisson", "binomial",
            "beta", "gamma", "bytes", "integers", "get_state", "set_state",
        }
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        random_aliases: set[str] = set()  # names bound to stdlib random
        numpy_aliases: set[str] = set()  # names bound to numpy
        npr_aliases: set[str] = set()  # names bound to numpy.random
        default_rng_aliases: set[str] = set()  # from numpy.random import default_rng
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        random_aliases.add(bound)
                    elif alias.name == "numpy":
                        numpy_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            npr_aliases.add(alias.asname)
                        else:
                            numpy_aliases.add("numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    yield self.violation(
                        src,
                        node,
                        "import from stdlib random: draws bypass the "
                        "master-seed derivation in repro.des.rng",
                    )
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            npr_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            default_rng_aliases.add(alias.asname or "default_rng")
                        elif alias.name in self._NP_DRAWS:
                            yield self.violation(
                                src,
                                node,
                                f"numpy.random.{alias.name} is a global-state "
                                "draw; derive a Generator via repro.des.rng",
                            )

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                # random.<anything>(...)
                if isinstance(value, ast.Name) and value.id in random_aliases:
                    yield self.violation(
                        src,
                        node,
                        f"random.{func.attr}() draws from the process-global "
                        "stdlib RNG; use a repro.des.rng stream",
                    )
                    continue
                # np.random.<draw>(...) / numpy.random.<draw>(...)
                is_np_random = (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in numpy_aliases
                ) or (isinstance(value, ast.Name) and value.id in npr_aliases)
                if is_np_random:
                    if func.attr in self._NP_DRAWS:
                        yield self.violation(
                            src,
                            node,
                            f"np.random.{func.attr}() uses numpy's global "
                            "RNG state; derive a Generator via repro.des.rng",
                        )
                    elif func.attr == "default_rng" and not (
                        node.args or node.keywords
                    ):
                        yield self.violation(
                            src,
                            node,
                            "np.random.default_rng() without a seed is "
                            "entropy-seeded; derive the seed via repro.des.rng",
                        )
            elif isinstance(func, ast.Name) and func.id in default_rng_aliases:
                if not (node.args or node.keywords):
                    yield self.violation(
                        src,
                        node,
                        "default_rng() without a seed is entropy-seeded; "
                        "derive the seed via repro.des.rng",
                    )


# ---------------------------------------------------------------------------
# DET002 — unordered iteration on the event path


def _annotation_names_set(node: ast.expr | None) -> bool:
    """True when an annotation is (a union of) ``set`` / ``frozenset``."""
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_names_set(node.left) or _annotation_names_set(node.right)
    if isinstance(node, ast.Subscript):
        return _annotation_names_set(node.value)
    return isinstance(node, ast.Name) and node.id in ("set", "frozenset")


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """True when ``node`` statically evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # set algebra (a | b, a & b, a - b) on known sets
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    return False


class UnorderedIterationRule(Rule):
    """Set/dict iteration order must never feed the event path.

    Python ``set``/``frozenset`` iteration order is a function of element
    hashes and insertion history — not of program semantics. On the
    modules that schedule events, pick transfer candidates, or feed RNG
    streams, iterating one unsorted is exactly the class of bug the
    golden pins cannot catch until it has already shipped (the pins
    themselves are recorded under one hash layout). ``dict.keys()`` /
    ``dict.items()`` are insertion-ordered, but on these modules the
    insertion order is itself contact-processing order, so they must be
    ``sorted(...)`` before feeding anything order-sensitive.
    """

    rule_id = "DET002"
    severity = SEVERITY_ERROR
    description = (
        "iteration over set/frozenset (or .keys()/.items() without "
        "sorted(...)) in event-scheduling / candidate-selection code"
    )
    paths = (
        "src/repro/des/*",
        "src/repro/core/simulation.py",
        "src/repro/core/planner.py",
        "src/repro/core/session.py",
        "src/repro/core/knowledge.py",
        "src/repro/core/sweepkernel.py",
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        # Collect names with set-typed annotations (params and AnnAssign)
        # and names assigned from set-valued expressions, per enclosing
        # function scope; module scope is one more "function".
        scopes: list[ast.AST] = [src.tree]
        scopes.extend(
            n
            for n in ast.walk(src.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )
        for scope in scopes:
            yield from self._check_scope(src, scope)

    def _scope_set_names(self, scope: ast.AST) -> set[str]:
        names: set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = scope.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *((args.vararg,) if args.vararg else ()),
                *((args.kwarg,) if args.kwarg else ()),
            ):
                if _annotation_names_set(arg.annotation):
                    names.add(arg.arg)
        for node in self._scope_body_walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_set_expr(node.value, names):
                    names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _annotation_names_set(node.annotation):
                    names.add(node.target.id)
        return names

    def _scope_body_walk(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without descending into nested function scopes."""
        body = scope.body if not isinstance(scope, ast.Lambda) else [scope.body]
        stack: list[ast.AST] = list(body) if isinstance(body, list) else [body]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, src: SourceFile, scope: ast.AST) -> Iterator[Violation]:
        set_names = self._scope_set_names(scope)
        for node in self._scope_body_walk(scope):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                yield from self._check_iter(src, it, set_names)

    def _check_iter(
        self, src: SourceFile, it: ast.expr, set_names: set[str]
    ) -> Iterator[Violation]:
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in ("keys", "items")
            and not it.args
        ):
            yield self.violation(
                src,
                it,
                f".{it.func.attr}() iterated without sorted(...): insertion "
                "order is contact-processing order here and must not feed "
                "the event path",
            )
        elif _is_set_expr(it, set_names):
            yield self.violation(
                src,
                it,
                "iteration over a set/frozenset: ordering follows element "
                "hashes, not semantics — sort first (or restructure)",
            )


# ---------------------------------------------------------------------------
# DET003 — wall-clock reads


class WallClockRule(Rule):
    """Simulation results must be functions of the seed, not the clock.

    ``time.perf_counter`` / ``time.monotonic`` are allowed: they measure
    durations and cannot leak absolute wall time into results (the bench
    tools under ``tools/`` use them; they are outside this rule's scope
    anyway).
    """

    rule_id = "DET003"
    severity = SEVERITY_ERROR
    description = "wall-clock read (time.time / datetime.now / ...) in src/repro"
    paths = ("src/repro/*",)

    _TIME_BANNED = frozenset(
        {"time", "time_ns", "localtime", "gmtime", "ctime", "asctime", "strftime"}
    )
    _DATETIME_BANNED = frozenset({"now", "utcnow", "today"})

    def check(self, src: SourceFile) -> Iterator[Violation]:
        time_aliases: set[str] = set()
        datetime_mod_aliases: set[str] = set()
        datetime_cls_aliases: set[str] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
                    elif alias.name == "datetime":
                        datetime_mod_aliases.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self._TIME_BANNED:
                            yield self.violation(
                                src,
                                node,
                                f"from time import {alias.name}: wall-clock "
                                "reads make runs irreproducible",
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_cls_aliases.add(alias.asname or alias.name)
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id in time_aliases
                and func.attr in self._TIME_BANNED
            ):
                yield self.violation(
                    src,
                    node,
                    f"time.{func.attr}() reads the wall clock; simulation "
                    "state must depend only on the seed (for elapsed-time "
                    "display use time.perf_counter())",
                )
            elif func.attr in self._DATETIME_BANNED and (
                (isinstance(value, ast.Name) and value.id in datetime_cls_aliases)
                or (
                    isinstance(value, ast.Attribute)
                    and value.attr in ("datetime", "date")
                    and isinstance(value.value, ast.Name)
                    and value.value.id in datetime_mod_aliases
                )
            ):
                yield self.violation(
                    src,
                    node,
                    f"datetime {func.attr}() reads the wall clock; results "
                    "must not depend on when the run happened",
                )


# ---------------------------------------------------------------------------
# HOT001 — __slots__ on hot-path classes


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Subscript):
        return _base_name(node.value)
    return ""


class SlotsRule(Rule):
    """Hot-path classes must not carry a per-instance ``__dict__``.

    ``des/`` and ``core/bundle.py`` allocate one object per scheduled
    event / stored copy — 10⁴–10⁶ per run. A class without ``__slots__``
    adds a dict allocation per instance and defeats the PR 4 hot-path
    work. Exempt: Enums, exceptions, dataclasses declared with
    ``slots=True``, and typing constructs (Protocol/NamedTuple/TypedDict).
    """

    rule_id = "HOT001"
    severity = SEVERITY_ERROR
    description = "class on the DES hot path must declare __slots__"
    paths = ("src/repro/des/*", "src/repro/core/bundle.py")

    _EXEMPT_BASES = frozenset(
        {
            "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
            "Protocol", "TypingProtocol", "NamedTuple", "TypedDict",
            "Exception", "BaseException",
        }
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self._exempt(node) or self._declares_slots(node):
                continue
            yield self.violation(
                src,
                node,
                f"class {node.name} is on the DES hot path but declares no "
                "__slots__ (per-instance __dict__ costs an allocation per "
                "event/copy)",
            )

    def _exempt(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = _base_name(base)
            if name in self._EXEMPT_BASES or name.endswith(("Error", "Exception", "Warning")):
                return True
        for dec in node.decorator_list:
            if _decorator_name(dec) == "dataclass" and isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        return False

    def _declares_slots(self, node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id == "__slots__":
                    return True
        return False


# ---------------------------------------------------------------------------
# HOT002 — per-event closure allocation


class ScheduleClosureRule(Rule):
    """Schedulers take ``action, *args`` — never a per-event closure.

    The PR 4 event layout passes callback arguments positionally exactly
    so hot schedulers allocate no closure per event; a ``lambda`` (or
    ``functools.partial``) handed to ``at`` / ``after`` / ``push`` /
    ``schedule*`` silently reintroduces one allocation per scheduled
    event plus a cell-variable late-binding hazard.
    """

    rule_id = "HOT002"
    severity = SEVERITY_ERROR
    description = (
        "lambda/functools.partial passed to a schedule call "
        "(at/after/push/schedule*) allocates a closure per event"
    )
    paths = (
        "src/repro/des/*",
        "src/repro/core/simulation.py",
        "src/repro/core/session.py",
    )

    _SCHEDULERS = ("at", "after", "push", "schedule", "schedule_sorted")

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in self._SCHEDULERS:
                continue
            args: list[ast.expr] = list(node.args)
            args.extend(kw.value for kw in node.keywords)
            for arg in args:
                # Walk the whole argument expression: a lambda fed through a
                # generator into schedule_sorted allocates one closure per
                # yielded event, same as passing it directly.
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Lambda):
                        yield self.violation(
                            src,
                            sub,
                            f"lambda passed to .{node.func.attr}(): pass the "
                            "callable and its arguments positionally instead "
                            "(action, *args) — no closure per event",
                        )
                    elif (
                        isinstance(sub, ast.Call)
                        and _decorator_name(sub.func) == "partial"
                    ):
                        yield self.violation(
                            src,
                            sub,
                            f"functools.partial passed to .{node.func.attr}(): "
                            "pass (action, *args) positionally instead",
                        )


# ---------------------------------------------------------------------------
# HOT003 — per-contact Python loops in the sweep kernel


class KernelContactLoopRule(Rule):
    """The sweep kernel and the contact fold never iterate columns element-wise.

    ``repro.core.sweepkernel`` exists to replace per-contact Python work
    with integer-mask probes and chunked NumPy scans; its hot loops are
    deliberately ``while``-based so the skip scan can jump the cursor in
    bulk. ``repro.mobility.fastcontact`` folds tens of thousands of
    contact windows per trace with array operations straight into a
    columnar trace. A ``for`` loop (or comprehension) whose iterable
    names one of these columns reintroduces exactly the per-element
    interpreter cost both were built to elide — and tends to sneak in
    via innocent-looking bookkeeping patches.
    """

    rule_id = "HOT003"
    severity = SEVERITY_ERROR
    description = (
        "Python-level for loop over a contact or window column inside the "
        "sweep kernel or the contact fold (use vectorized array operations)"
    )
    paths = ("src/repro/core/sweepkernel.py", "src/repro/mobility/fastcontact.py")

    #: identifiers that name the contact-stream columns of the kernel
    #: (module locals, attributes, and the columnar-arrays tuple elements)
    #: and the window and contact columns of the fold
    _CONTACT_NAMES = frozenset(
        {
            "contacts", "starts", "ends", "a_ids", "b_ids",
            "live", "live_starts", "live_ends", "live_a", "live_b",
            "_live_a", "_live_b", "starts_l", "ends_l", "a_l", "b_l",
            "zero_mask", "n_fire",
            "windows", "na", "nb", "ws", "we", "wa", "wb",
            "cs", "ce", "ca", "cb", "s_l", "e_l",
        }
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                named = {
                    sub.id for sub in ast.walk(it) if isinstance(sub, ast.Name)
                }
                named |= {
                    sub.attr for sub in ast.walk(it) if isinstance(sub, ast.Attribute)
                }
                hits = sorted(named & self._CONTACT_NAMES)
                if hits:
                    yield self.violation(
                        src,
                        it,
                        f"per-contact Python iteration over {hits[0]!r}: the "
                        "kernel sweeps contact columns with while-loops and "
                        "chunked NumPy scans, and the fold merges windows with "
                        "array operations, never element-wise for loops",
                    )


# ---------------------------------------------------------------------------
# SPEC001 — spec/config JSON round-trip completeness


class SpecRoundTripRule(Rule):
    """A knob that is not serialised is a knob the sweep silently drops.

    PR 3 and PR 5 both grew ``SimulationConfig`` knobs that initially
    missed the ScenarioSpec JSON round-trip ("added but not serialized"):
    a scenario file pinning the knob would parse, run, and quietly use
    the default. This rule checks, per serialisable dataclass, that every
    field name appears as a string literal in both ``to_dict`` and
    ``from_dict``; and cross-file, that every ``SimulationConfig`` field
    is mirrored as a ``ScenarioSpec`` field.
    """

    rule_id = "SPEC001"
    severity = SEVERITY_ERROR
    description = (
        "spec/config dataclass field missing from its JSON round-trip "
        "(to_dict/from_dict) or not mirrored by ScenarioSpec"
    )
    paths = ("src/repro/core/simulation.py", "src/repro/scenarios/spec.py")

    #: config class -> the spec class that must mirror its fields
    _MIRRORS = {"SimulationConfig": "ScenarioSpec"}

    def __init__(self) -> None:
        #: class name -> (path, line, field names) for cross-file checks
        self._classes: dict[str, tuple[str, int, list[str]]] = {}

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_decorator_name(d) == "dataclass" for d in node.decorator_list):
                continue
            fields = self._dataclass_fields(node)
            if not fields:
                continue
            self._classes[node.name] = (src.rel_path, node.lineno, fields)
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            to_dict = methods.get("to_dict")
            from_dict = methods.get("from_dict")
            if to_dict is None or from_dict is None:
                continue
            for label, method in (("to_dict", to_dict), ("from_dict", from_dict)):
                keys = self._string_constants(method)
                for field in fields:
                    if field not in keys:
                        yield self.violation(
                            src,
                            method,
                            f"{node.name}.{field} does not appear in "
                            f"{label}(): the knob would silently vanish "
                            "from scenario JSON round-trips",
                        )

    def finish(self) -> Iterable[Violation]:
        out: list[Violation] = []
        for config_name, spec_name in self._MIRRORS.items():
            config = self._classes.get(config_name)
            spec = self._classes.get(spec_name)
            if config is None or spec is None:
                continue
            path, line, config_fields = config
            spec_fields = set(spec[2])
            for field in config_fields:
                if field not in spec_fields:
                    out.append(
                        Violation(
                            rule_id=self.rule_id,
                            path=path,
                            line=line,
                            col=1,
                            message=(
                                f"{config_name}.{field} has no mirroring "
                                f"{spec_name} field: scenario files cannot "
                                "set it (the PR 3/PR 5 'knob added but not "
                                "serialized' bug class)"
                            ),
                            severity=self.severity,
                        )
                    )
        return out

    @staticmethod
    def _dataclass_fields(node: ast.ClassDef) -> list[str]:
        fields: list[str] = []
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            name = stmt.target.id
            if name.startswith("_"):
                continue
            if _base_name(stmt.annotation) == "ClassVar":
                continue
            fields.append(name)
        return fields

    @staticmethod
    def _string_constants(node: ast.AST) -> set[str]:
        return {
            n.value
            for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }


# ---------------------------------------------------------------------------
# API001 — registry-facing API docstrings


class RegistryDocstringRule(Rule):
    """Registry entries are the public extension surface — document them.

    Anything reachable through the protocol / drop-policy / mobility /
    experiment registries is an advertised extension point; a registry
    entry without a docstring is invisible to ``repro list`` style
    introspection and to downstream users.
    """

    rule_id = "API001"
    severity = SEVERITY_WARNING
    description = (
        "public class/function in a registry-facing module lacks a docstring"
    )
    paths = (
        "src/repro/core/protocols/*",
        "src/repro/core/policies.py",
        "src/repro/experiments/*",
        "src/repro/scenarios/*",
    )

    def check(self, src: SourceFile) -> Iterator[Violation]:
        for stmt in src.tree.body:
            if not isinstance(stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            if ast.get_docstring(stmt) is None:
                kind = "class" if isinstance(stmt, ast.ClassDef) else "function"
                yield self.violation(
                    src,
                    stmt,
                    f"public {kind} {stmt.name} in a registry-facing module "
                    "has no docstring (it is part of the extension surface)",
                )


# ---------------------------------------------------------------------------


def default_rules() -> list[Rule]:
    """The full reprolint rule set, in report order."""
    return [
        UnseededRandomRule(),
        UnorderedIterationRule(),
        WallClockRule(),
        SlotsRule(),
        ScheduleClosureRule(),
        KernelContactLoopRule(),
        SpecRoundTripRule(),
        RegistryDocstringRule(),
    ]
