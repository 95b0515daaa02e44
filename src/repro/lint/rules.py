"""The SIMxxx rule implementations.

Each rule is a small object with a ``code``, a one-line ``summary`` and a
``check(ctx)`` generator yielding :class:`~repro.lint.diagnostics.Diagnostic`
objects.  Rules are pure AST analyses — no imports of the linted code are
performed, so linting is safe to run on broken or hostile trees.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterator, Optional

from repro.lint.diagnostics import Diagnostic, is_suppressed, parse_suppressions
from repro.obs.registry import METRIC_NAME_RE as _METRIC_NAME_RE

#: Directory names whose files count as scheduling/forwarding hot paths.
HOT_PATH_DIRS = frozenset({"des", "mac", "net", "routing"})

#: Wall-clock functions of the :mod:`time` module (SIM002).
_WALL_CLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Wall-clock constructors on ``datetime.datetime`` / ``datetime.date``.
_WALL_CLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``random``-module attributes that are fine to touch: constructing an
#: explicit generator instance is exactly the discipline we enforce.
_RANDOM_ALLOWED_ATTRS = frozenset({"Random"})

#: Call names that build a mutable container (SIM004 defaults).
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)

#: Methods that mutate a pending-event heap (SIM006).
_QUEUE_MUTATORS = frozenset(
    {"append", "appendleft", "insert", "extend", "push", "add", "remove",
     "pop", "clear", "sort"}
)

#: ``heapq`` functions that write to the heap passed as first argument.
_HEAPQ_MUTATORS = frozenset(
    {"heappush", "heappop", "heapify", "heapreplace", "heappushpop"}
)


@dataclass
class LintContext:
    """Everything a rule needs to analyse one file."""

    path: str
    source: str
    tree: ast.Module
    #: True when the file lives under a des/mac/net/routing directory.
    hot_path: bool = field(init=False)
    #: True for the kernel core itself, which legitimately owns ``_queue``.
    kernel_core: bool = field(init=False)
    #: True under ``tests/``: deliberately-invalid inputs are the point there.
    in_tests: bool = field(init=False)

    def __post_init__(self) -> None:
        parts = PurePosixPath(self.path.replace("\\", "/")).parts
        self.hot_path = any(part in HOT_PATH_DIRS for part in parts[:-1])
        self.kernel_core = len(parts) >= 2 and parts[-2:] == ("des", "core.py")
        self.in_tests = "tests" in parts[:-1]


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield findings."""

    code: str = "SIM000"
    summary: str = ""

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def _diag(self, ctx: LintContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


# -- import-alias tracking (shared by SIM001/SIM002) ---------------------------


def _collect_aliases(
    tree: ast.Module, module: str, members: frozenset[str]
) -> tuple[set[str], dict[str, str]]:
    """Names bound to ``module`` itself, and local aliases of ``members``.

    Returns ``(module_aliases, member_aliases)`` where ``member_aliases``
    maps the local name to the original member name.
    """
    module_aliases: set[str] = set()
    member_aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    module_aliases.add(alias.asname or module)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name in members:
                    member_aliases[alias.asname or alias.name] = alias.name
    return module_aliases, member_aliases


# -- SIM001 --------------------------------------------------------------------


class ModuleLevelRandomRule(Rule):
    """SIM001: calls into the process-global ``random`` generator.

    The shared module-level generator makes event streams depend on *every*
    other consumer of randomness in the process — importing one new module
    that draws a number silently changes every simulation result.  All
    stochastic components must draw from an injected ``random.Random``.
    """

    code = "SIM001"
    summary = "module-level random.* call; inject a random.Random instead"

    _MEMBERS = frozenset(
        {
            "betavariate", "choice", "choices", "expovariate", "gammavariate",
            "gauss", "getrandbits", "lognormvariate", "normalvariate",
            "paretovariate", "randbytes", "randint", "random", "randrange",
            "sample", "seed", "setstate", "getstate", "shuffle", "triangular",
            "uniform", "vonmisesvariate", "weibullvariate",
        }
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        module_aliases, member_aliases = _collect_aliases(
            ctx.tree, "random", self._MEMBERS
        )
        if not module_aliases and not member_aliases:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases
                and func.attr not in _RANDOM_ALLOWED_ATTRS
            ):
                yield self._diag(
                    ctx,
                    node,
                    f"call to module-level random.{func.attr}(); draw from an "
                    "injected random.Random so streams are per-instance and "
                    "replayable",
                )
            elif isinstance(func, ast.Name) and func.id in member_aliases:
                original = member_aliases[func.id]
                yield self._diag(
                    ctx,
                    node,
                    f"call to random.{original}() imported at module level; "
                    "draw from an injected random.Random instead",
                )


# -- SIM002 --------------------------------------------------------------------


class WallClockRule(Rule):
    """SIM002: wall-clock reads inside simulation code.

    Simulated time only advances through the event loop; mixing in
    ``time.time()`` or ``datetime.now()`` produces values that differ on
    every host and destroy replay determinism.
    """

    code = "SIM002"
    summary = "wall-clock access in simulation code; use env.now"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        time_aliases, time_members = _collect_aliases(
            ctx.tree, "time", _WALL_CLOCK_TIME_FUNCS
        )
        dt_aliases, dt_members = _collect_aliases(
            ctx.tree, "datetime", frozenset({"datetime", "date"})
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
                and func.attr in _WALL_CLOCK_TIME_FUNCS
            ):
                yield self._diag(
                    ctx,
                    node,
                    f"wall-clock call time.{func.attr}(); simulation code must "
                    "derive time from Environment.now",
                )
            elif isinstance(func, ast.Name) and func.id in time_members:
                yield self._diag(
                    ctx,
                    node,
                    f"wall-clock call {time_members[func.id]}() imported from "
                    "time; use Environment.now",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _WALL_CLOCK_DATETIME_FUNCS
                and self._is_datetime_class(func.value, dt_aliases, dt_members)
            ):
                yield self._diag(
                    ctx,
                    node,
                    f"wall-clock call datetime {func.attr}(); simulation code "
                    "must derive time from Environment.now",
                )

    @staticmethod
    def _is_datetime_class(
        node: ast.expr, dt_aliases: set[str], dt_members: dict[str, str]
    ) -> bool:
        # ``datetime.datetime.now()`` / ``datetime.date.today()``
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("datetime", "date")
            and isinstance(node.value, ast.Name)
            and node.value.id in dt_aliases
        ):
            return True
        # ``from datetime import datetime; datetime.now()``
        return isinstance(node, ast.Name) and node.id in dt_members


# -- SIM003 --------------------------------------------------------------------


def _constant_float(node: ast.expr) -> Optional[float]:
    """Statically evaluate simple numeric expressions, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _constant_float(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, (str, int, float))
    ):
        try:
            return float(node.args[0].value)
        except ValueError:
            return None
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
        and node.attr in ("nan", "inf")
    ):
        return math.nan if node.attr == "nan" else math.inf
    return None


class ConstantBadDelayRule(Rule):
    """SIM003: a delay that can never be valid, written in the source.

    ``heapq`` silently tolerates NaN keys and corrupts its ordering; a
    negative delay schedules into the simulated past.  Both are always
    bugs when they appear as literals.
    """

    code = "SIM003"
    summary = "constant negative/NaN/inf delay passed to timeout()/schedule()"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.in_tests:
            # Tests pass invalid delays on purpose, asserting the kernel's
            # SchedulingError guard; flagging them would punish coverage.
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_name(node.func)
            if name == "timeout":
                delay = self._argument(node, position=0, keyword="delay")
            elif name == "schedule":
                delay = self._argument(node, position=2, keyword="delay")
            else:
                continue
            if delay is None:
                continue
            value = _constant_float(delay)
            if value is None:
                continue
            if math.isnan(value) or math.isinf(value) or value < 0:
                yield self._diag(
                    ctx,
                    delay,
                    f"{name}() called with constant delay {value!r}; delays "
                    "must be finite and >= 0 (the kernel now rejects these "
                    "at runtime too)",
                )

    @staticmethod
    def _call_name(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return None

    @staticmethod
    def _argument(
        call: ast.Call, position: int, keyword: str
    ) -> Optional[ast.expr]:
        for kw in call.keywords:
            if kw.arg == keyword:
                return kw.value
        if len(call.args) > position:
            return call.args[position]
        return None


# -- SIM004 --------------------------------------------------------------------


class MutableDefaultRule(Rule):
    """SIM004: mutable default arguments.

    A mutable default is shared by every call of the function — state leaks
    across nodes and across *runs* inside one process, which is exactly the
    cross-run coupling replication sweeps must never have.
    """

    code = "SIM004"
    summary = "mutable default argument"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self._diag(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}(); default "
                        "to None and construct inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES
        )


# -- SIM005 --------------------------------------------------------------------


class SetIterationRule(Rule):
    """SIM005: iterating a set (or ``.keys()`` view) in a hot path.

    Set iteration order depends on insertion history and element hashes —
    with ``PYTHONHASHSEED`` unset it can differ between processes, and even
    with hashing pinned it changes whenever an unrelated element is added.
    Event-adjacent loops (des/mac/net/routing) must iterate deterministic
    sequences: a list, or ``sorted(...)`` of the set.
    """

    code = "SIM005"
    summary = "iteration over a set/.keys() view in a hot path"

    _SET_CALLS = frozenset({"set", "frozenset"})

    #: Builtins whose result is independent of the argument's iteration
    #: order: a set iterated *inside* these is deterministic by
    #: construction (``sorted(x for x in s)``, ``min(s)``, ``len(s)``)
    #: and must not be flagged — see the sorted-set idiom audit in
    #: docs/STATIC_ANALYSIS.md.
    _ORDER_INSENSITIVE = frozenset(
        {"sorted", "min", "max", "sum", "len", "set", "frozenset", "any",
         "all"}
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if not ctx.hot_path:
            return
        yield from self._check_scope(ctx, ctx.tree, set())

    def _check_scope(
        self, ctx: LintContext, scope: ast.AST, outer_sets: set[str]
    ) -> Iterator[Diagnostic]:
        set_names = set(outer_sets)
        body = getattr(scope, "body", [])
        for node in body:
            yield from self._walk(ctx, node, set_names, sanitized=set())

    def _walk(
        self,
        ctx: LintContext,
        node: ast.AST,
        set_names: set[str],
        sanitized: set[int],
    ) -> Iterator[Diagnostic]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_scope(ctx, node, set_names)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is not None:
                produces_set = self._is_set_expr(value)
                for target in targets:
                    if isinstance(target, ast.Name):
                        if produces_set:
                            set_names.add(target.id)
                        else:
                            set_names.discard(target.id)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from self._check_iter(ctx, node.iter, set_names)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            if id(node) not in sanitized:
                for generator in node.generators:
                    yield from self._check_iter(ctx, generator.iter, set_names)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._ORDER_INSENSITIVE
        ):
            # The consumer discards iteration order, so a comprehension
            # passed straight in may iterate a set freely.  Everything
            # (including its nested comprehensions) is order-safe as long
            # as the element *multiset* is deterministic, which set
            # contents are.
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, (ast.ListComp, ast.SetComp,
                                        ast.DictComp, ast.GeneratorExp)):
                        sanitized.add(id(sub))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, child, set_names)
            else:
                yield from self._walk(ctx, child, set_names, sanitized)

    def _check_iter(
        self, ctx: LintContext, iter_node: ast.expr, set_names: set[str]
    ) -> Iterator[Diagnostic]:
        if self._is_set_expr(iter_node):
            yield self._diag(
                ctx,
                iter_node,
                "iterating a set in a hot path; order is hash-dependent — "
                "iterate a list or sorted(...) instead",
            )
        elif isinstance(iter_node, ast.Name) and iter_node.id in set_names:
            yield self._diag(
                ctx,
                iter_node,
                f"iterating set {iter_node.id!r} in a hot path; order is "
                "hash-dependent — iterate a list or sorted(...) instead",
            )
        elif (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr == "keys"
            and not iter_node.args
        ):
            yield self._diag(
                ctx,
                iter_node,
                "iterating .keys() in a hot path; iterate the dict directly "
                "(insertion-ordered) or sorted(...) for a canonical order",
            )

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._SET_CALLS
        )


# -- SIM006 --------------------------------------------------------------------


class QueueBypassRule(Rule):
    """SIM006: mutating ``Environment._queue`` without ``schedule()``.

    ``schedule()`` is where delay validation, FIFO tie-breaking and (in
    strict mode) past-scheduling detection live; pushing into the heap
    directly silently skips all three.
    """

    code = "SIM006"
    summary = "direct mutation of Environment._queue; use schedule()"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.kernel_core:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if self._is_queue_attr(target) or (
                        isinstance(target, ast.Subscript)
                        and self._is_queue_attr(target.value)
                    ):
                        yield self._diag(
                            ctx,
                            target,
                            "assignment into Environment._queue bypasses "
                            "schedule(); events must go through schedule()",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _QUEUE_MUTATORS
                    and self._is_queue_attr(func.value)
                ):
                    yield self._diag(
                        ctx,
                        node,
                        f"_queue.{func.attr}() bypasses schedule(); events "
                        "must go through schedule()",
                    )
                elif self._is_heapq_mutation(func) and any(
                    self._is_queue_attr(arg) for arg in node.args[:1]
                ):
                    yield self._diag(
                        ctx,
                        node,
                        "heapq mutation of Environment._queue bypasses "
                        "schedule(); events must go through schedule()",
                    )

    @staticmethod
    def _is_queue_attr(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "_queue"

    @staticmethod
    def _is_heapq_mutation(func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            return func.id in _HEAPQ_MUTATORS
        return isinstance(func, ast.Attribute) and func.attr in _HEAPQ_MUTATORS


# -- SIM007 --------------------------------------------------------------------


class SilentSwallowRule(Rule):
    """SIM007: a blanket ``except`` that silently discards the error.

    ``except:``/``except Exception:`` with a body of only ``pass`` (or
    ``continue``/``...``) hides every failure mode at once — including the
    kernel's own :class:`SchedulingError` determinism guards.  Robust code
    catches the narrow exception it expects, or at minimum records the
    failure before moving on.
    """

    code = "SIM007"
    summary = "blanket except that silently swallows the error"

    _BLANKET = frozenset({"Exception", "BaseException"})

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_blanket(node.type):
                continue
            if not all(self._is_silent(stmt) for stmt in node.body):
                continue
            caught = "bare except" if node.type is None else (
                f"except {ast.unparse(node.type)}"
            )
            yield self._diag(
                ctx,
                node,
                f"{caught} swallows every error silently; catch the specific "
                "exception you expect, or record the failure before "
                "continuing",
            )

    def _is_blanket(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True  # bare except
        if isinstance(type_node, ast.Tuple):
            return any(self._is_blanket(elt) for elt in type_node.elts)
        name = None
        if isinstance(type_node, ast.Name):
            name = type_node.id
        elif isinstance(type_node, ast.Attribute):
            name = type_node.attr
        return name in self._BLANKET

    @staticmethod
    def _is_silent(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


# -- SIM008 --------------------------------------------------------------------


class MetricNameRule(Rule):
    """SIM008: a metric registered under a malformed name.

    The observability registry accepts only lowercase dotted identifiers
    (``layer.component.thing``, underscores allowed) so that exported
    JSONL/CSV, the inspect tables, and cross-run diffs all sort and group
    stably.  A bad literal name would raise at the first instrumented run;
    this rule catches it at lint time, before a rarely-enabled telemetry
    path ever executes.
    """

    code = "SIM008"
    summary = "metric name is not a lowercase dotted identifier"

    #: Registry factory methods whose first argument is the metric name.
    _FACTORIES = frozenset({"counter", "gauge", "histogram"})

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name not in self._FACTORIES:
                continue
            arg = node.args[0] if node.args else None
            if not isinstance(arg, ast.Constant) or not isinstance(
                arg.value, str
            ):
                continue
            if not _METRIC_NAME_RE.match(arg.value):
                yield self._diag(
                    ctx,
                    arg,
                    f"metric name {arg.value!r} passed to {name}() is not a "
                    "lowercase dotted identifier (expected e.g. "
                    "'mac.dcf.retransmissions')",
                )


# -- SIM013 --------------------------------------------------------------------


class BareAssertRule(Rule):
    """SIM013: a bare ``assert`` guarding production simulation code.

    ``python -O`` compiles ``assert`` statements out wholesale, so an
    invariant written as an assert silently stops being checked the
    moment anyone runs the optimized interpreter — the exact failure
    mode the runtime sanitizer exists to close.  Production code should
    raise an explicit exception (:class:`SchedulingError` or
    ``ValueError`` with scenario context) that survives ``-O`` and
    carries a useful message.  Tests are exempt: pytest rewrites their
    asserts into rich failure reports and never runs under ``-O``.
    """

    code = "SIM013"
    summary = "bare assert in production code is stripped under python -O"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.in_tests:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assert):
                continue
            where = "hot-path " if ctx.hot_path else ""
            yield self._diag(
                ctx,
                node,
                f"assert is compiled out under 'python -O', so this "
                f"{where}invariant silently disappears; raise an explicit "
                "exception (e.g. SchedulingError or ValueError with "
                "scenario context) instead",
            )


# -- SIM014 --------------------------------------------------------------------


#: Packages where *no* host-clock read is acceptable, suppressed or not:
#: kernel and protocol layers must be wall-clock-free so traced and
#: observed runs stay bit-identical to plain ones.
_CLOCK_FREE_DIRS = frozenset(
    {"des", "mac", "net", "phy", "routing", "transport"}
)


class KernelWallClockRule(Rule):
    """SIM014: host-clock reads inside kernel/protocol packages.

    SIM002 polices wall-clock reads in simulation code generally, and a
    deliberate host-side read there is waved through with an inline
    suppression.  The kernel and the protocol stack get no such waiver:
    ``repro/{des,mac,net,phy,routing,transport}`` must never touch the
    host clock, so that traced and observed runs are digest-neutral by
    construction.  Host time is read only in ``repro.obs`` (the heartbeat
    introspector runs as its own simulation process and reads
    ``perf_counter`` there) and ``repro.perf``; per-layer host time is
    measured from outside the code by ``perfbench/``.  A separate code
    means an existing ``disable=SIM002`` comment cannot mask a clock read
    that creeps into these packages.
    """

    code = "SIM014"
    summary = "host-clock call in kernel/protocol code (repro.obs/repro.perf only)"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.in_tests:
            return
        parts = PurePosixPath(ctx.path.replace("\\", "/")).parts
        if "repro" not in parts:
            return
        after_repro = parts[parts.index("repro") + 1 : -1]
        if not any(part in _CLOCK_FREE_DIRS for part in after_repro):
            return
        time_aliases, time_members = _collect_aliases(
            ctx.tree, "time", _WALL_CLOCK_TIME_FUNCS
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
                and func.attr in _WALL_CLOCK_TIME_FUNCS
            ):
                called = f"time.{func.attr}()"
            elif isinstance(func, ast.Name) and func.id in time_members:
                called = f"{time_members[func.id]}()"
            else:
                continue
            yield self._diag(
                ctx,
                node,
                f"{called} inside a kernel/protocol package; only "
                "repro.obs and repro.perf may read the host clock — "
                "read it in repro.obs, as the heartbeat introspector does",
            )


#: The registry, in code order.
ALL_RULES: tuple[Rule, ...] = (
    ModuleLevelRandomRule(),
    WallClockRule(),
    ConstantBadDelayRule(),
    MutableDefaultRule(),
    SetIterationRule(),
    QueueBypassRule(),
    SilentSwallowRule(),
    MetricNameRule(),
    BareAssertRule(),
    KernelWallClockRule(),
)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[tuple[Rule, ...]] = None,
) -> list[Diagnostic]:
    """Lint one source string, honouring inline suppressions.

    Raises :class:`SyntaxError` if ``source`` does not parse; callers that
    lint files should catch it (see :func:`repro.lint.runner.lint_file`).
    """
    tree = ast.parse(source, filename=path)
    ctx = LintContext(path=path, source=source, tree=tree)
    suppressions = parse_suppressions(source)
    findings: list[Diagnostic] = []
    for rule in rules or ALL_RULES:
        for diagnostic in rule.check(ctx):
            if not is_suppressed(diagnostic, suppressions):
                findings.append(diagnostic)
    return sorted(findings)
