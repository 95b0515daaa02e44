"""Cross-module (whole-program) simlint rules: SIM009-SIM012.

These rules run over a :class:`~repro.lint.graph.Project` rather than a
single file, so they can resolve a call in one module against a signature
defined in another and classify values through the
:mod:`~repro.lint.dataflow` layer.  Each rule checks one module at a time
(``check_module``) with the whole project available for resolution, which
keeps diagnostics grouped per file and output order deterministic.

========  =====================================================================
SIM009    RNG not minted by ``repro.core.seeding`` injected into a component
SIM010    set/dict-order iteration reaching scheduling, heaps, or the trace
SIM011    float ``==``/``!=`` against simulated time
SIM012    literal whose unit contradicts the parameter's unit suffix
========  =====================================================================
"""

from __future__ import annotations

import ast
import math
from pathlib import PurePosixPath
from typing import Iterator, Optional

from repro.lint.dataflow import (
    RNG_RAW,
    FunctionFlow,
    _is_raw_random_call,
    iter_function_scopes,
    scope_nodes,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.graph import FunctionSymbol, ModuleInfo, Project
from repro.lint.rules import HOT_PATH_DIRS


def is_test_module(module: ModuleInfo) -> bool:
    """True for modules under a ``tests`` directory.

    Unit tests legitimately mint fixed raw ``Random`` streams to exercise
    one component in isolation, assert *exact* simulated times (that
    equality being the determinism contract itself), and feed the kernel
    deliberately-invalid inputs — so the rules encoding those simulation
    disciplines (SIM009, SIM011) do not apply there.
    """
    return (
        module.top_package == "tests"
        or "tests" in PurePosixPath(module.path).parts[:-1]
    )


class ProjectRule:
    """Base class for whole-program rules."""

    code: str = "SIM000"
    summary: str = ""

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def _diag(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


# -- SIM009 --------------------------------------------------------------------


class UnderivedRngInjectionRule(ProjectRule):
    """SIM009: a raw RNG crossing into a component or another layer.

    The seeding convention (docs/STATIC_ANALYSIS.md) exists so that adding
    a stochastic component never perturbs the streams of existing ones.
    A ``random.Random(seed * K + i)`` minted at a call site and handed to a
    constructor re-introduces exactly the affine-collision coupling the
    convention removed — and it does so *across a module boundary*, where
    the v1 per-file rules could not see it.  Fix: mint the stream with
    ``repro.core.seeding.derive_rng(root, "stream.name", index)``.
    """

    code = "SIM009"
    summary = "RNG not derived via repro.core.seeding injected into a component"

    #: Parameter names that receive a generator.
    _RNG_PARAMS = frozenset({"rng", "random", "generator"})

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Diagnostic]:
        if module.name.startswith("repro.core.seeding"):
            return
        if is_test_module(module):
            return
        for scope in iter_function_scopes(module.tree):
            flow = FunctionFlow.for_function(scope, module, project)
            for node in scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_call(module, project, flow, node)

    def _check_call(
        self,
        module: ModuleInfo,
        project: Project,
        flow: FunctionFlow,
        call: ast.Call,
    ) -> Iterator[Diagnostic]:
        resolved = project.callee_signature(module, call)
        for position, arg in enumerate(call.args):
            yield from self._check_arg(
                module, project, flow, call, resolved, arg, position, None
            )
        for kw in call.keywords:
            if kw.arg is not None:
                yield from self._check_arg(
                    module, project, flow, call, resolved, kw.value, -1, kw.arg
                )

    def _check_arg(
        self,
        module: ModuleInfo,
        project: Project,
        flow: FunctionFlow,
        call: ast.Call,
        resolved: Optional[tuple],
        arg: ast.expr,
        position: int,
        keyword: Optional[str],
    ) -> Iterator[Diagnostic]:
        raw = (
            _is_raw_random_call(arg, module)
            if isinstance(arg, ast.Call)
            else flow.rng_origin(arg) == RNG_RAW
        )
        if not raw:
            return
        param = keyword
        target: Optional[str] = None
        if resolved is not None:
            owner, signature, cls = resolved
            if param is None:
                param = signature.param_for_arg(position, None)
            target = (
                f"{owner.name}.{cls.name}" if cls is not None
                else f"{owner.name}.{signature.name}"
            )
        if param not in self._RNG_PARAMS and not (
            param is not None and param.endswith("_rng")
        ):
            return
        where = f" into {target}()" if target else ""
        yield self._diag(
            module,
            arg,
            f"raw random.Random passed as {param!r}{where}; mint the stream "
            "with repro.core.seeding.derive_rng(root, stream, index) so it "
            "stays independent of every other stream",
        )


# -- SIM010 --------------------------------------------------------------------


class UnorderedOrderToSchedulerRule(ProjectRule):
    """SIM010: hash-dependent iteration order reaching an ordering sink.

    SIM005 flags *any* set iteration inside the hot-path packages; this
    rule covers the rest of the program, and only fires when the unordered
    order actually *reaches* something order-sensitive — an event being
    scheduled, a heap being pushed, or a trace line being emitted — either
    directly in the loop body or laundered through a list that was filled
    from an unordered loop.
    """

    code = "SIM010"
    summary = "set/dict-order iteration reaches scheduling/heap/trace emission"

    _SINKS = frozenset(
        {"schedule", "schedule_at", "timeout", "record", "heappush",
         "heapify", "heapreplace", "heappushpop", "trace", "emit"}
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Diagnostic]:
        # Hot-path packages are SIM005 territory (any set iteration there
        # is already a finding); re-flagging would double-report.
        if module.layer in HOT_PATH_DIRS or module.top_package in HOT_PATH_DIRS:
            return
        for scope in iter_function_scopes(module.tree):
            flow = FunctionFlow.for_function(scope, module, project)
            for node in scope_nodes(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if not flow.is_unordered(node.iter):
                        continue
                    sink = self._first_sink(node)
                    if sink is not None:
                        yield self._diag(
                            module,
                            node.iter,
                            "iteration order of this set/dict view reaches "
                            f"{sink}() inside the loop; iterate sorted(...) "
                            "or an insertion-ordered list so event/trace "
                            "order is reproducible",
                        )
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)
                ):
                    unordered = any(
                        flow.is_unordered(gen.iter) for gen in node.generators
                    )
                    sink = self._first_sink(node) if unordered else None
                    if sink is not None:
                        yield self._diag(
                            module,
                            node,
                            f"comprehension calls {sink}() while iterating a "
                            "set/dict view; the call order is hash-dependent "
                            "— iterate sorted(...) instead",
                        )

    def _first_sink(self, scope: ast.AST) -> Optional[str]:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name in self._SINKS:
                    return name
        return None


# -- SIM011 --------------------------------------------------------------------


class SimTimeEqualityRule(ProjectRule):
    """SIM011: exact float equality against simulated time.

    ``env.now`` is a float accumulated by repeated addition; two paths to
    the "same" instant routinely differ in the last ulp, so ``==``/``!=``
    against sim-time silently becomes machine-dependent control flow.
    Compare with ``<=``/``>=`` and an epsilon, or restructure so the
    scheduler (which orders exactly) makes the decision.
    """

    code = "SIM011"
    summary = "float ==/!= comparison against simulated time"

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Diagnostic]:
        if is_test_module(module):
            # ``assert env.now == 5.0`` in a kernel test *is* the
            # determinism contract; only simulation code is flagged.
            return
        for scope in iter_function_scopes(module.tree):
            flow = FunctionFlow.for_function(scope, module, project)
            for node in scope_nodes(scope):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left] + list(node.comparators)
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    timeish = flow.is_sim_time(left) or flow.is_sim_time(right)
                    if not timeish:
                        continue
                    # ``x is None``-style sentinels use ``is``; an equality
                    # against None is a different bug, not this one.
                    if self._is_none(left) or self._is_none(right):
                        continue
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self._diag(
                        module,
                        node,
                        f"sim-time compared with {symbol}; float time from "
                        "repeated addition differs in the last ulp between "
                        "paths — use an ordered comparison or epsilon",
                    )
                    break  # one diagnostic per comparison chain

    @staticmethod
    def _is_none(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and node.value is None


# -- SIM012 --------------------------------------------------------------------


class UnitSuffixMismatchRule(ProjectRule):
    """SIM012: a literal whose magnitude contradicts the parameter's unit.

    The codebase's convention is that integer-unit parameters carry their
    unit in the name (``*_us``, ``*_ms``, ``*_ns``, ``*slots``).  A
    fractional literal like ``0.25`` or ``20e-6`` bound to such a
    parameter is almost certainly a *seconds* value that skipped the unit
    conversion — the classic silent 10^6 error.  Resolution is
    cross-module: the callee's signature comes from the import graph, so
    the mistake is caught at the call site even when the definition lives
    three packages away.
    """

    code = "SIM012"
    summary = "fractional literal passed to an integer-unit (_us/_ms/slots) parameter"

    _INT_UNIT_SUFFIXES = ("_us", "_ms", "_ns", "_slots")
    _INT_UNIT_NAMES = frozenset({"slots", "num_slots", "n_slots"})

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = project.callee_signature(module, node)
            if resolved is None:
                continue
            owner, signature, cls = resolved
            target = (
                f"{owner.name}.{cls.name}" if cls is not None
                else f"{owner.name}.{signature.name}"
            )
            for position, arg in enumerate(node.args):
                yield from self._check_binding(
                    module, signature, target, arg,
                    signature.param_for_arg(position, None),
                )
            for kw in node.keywords:
                if kw.arg is not None:
                    yield from self._check_binding(
                        module, signature, target, kw.value,
                        signature.param_for_arg(-1, kw.arg),
                    )

    def _check_binding(
        self,
        module: ModuleInfo,
        signature: FunctionSymbol,
        target: str,
        arg: ast.expr,
        param: Optional[str],
    ) -> Iterator[Diagnostic]:
        if param is None or not self._is_integer_unit_param(param):
            return
        value = self._fractional_literal(arg)
        if value is None:
            return
        yield self._diag(
            module,
            arg,
            f"literal {value!r} bound to integer-unit parameter {param!r} of "
            f"{target}(); this looks like a seconds value that skipped the "
            "unit conversion",
        )

    def _is_integer_unit_param(self, param: str) -> bool:
        return param in self._INT_UNIT_NAMES or param.endswith(
            self._INT_UNIT_SUFFIXES
        )

    @staticmethod
    def _fractional_literal(node: ast.expr) -> Optional[float]:
        """The value of a non-integral numeric literal, else ``None``."""
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        if not isinstance(node, ast.Constant):
            return None
        value = node.value
        if isinstance(value, bool) or not isinstance(value, float):
            return None
        if not math.isfinite(value) or value != int(value):
            return value
        return None


#: The whole-program rule registry, in code order.
ALL_PROJECT_RULES: tuple[ProjectRule, ...] = (
    UnderivedRngInjectionRule(),
    UnorderedOrderToSchedulerRule(),
    SimTimeEqualityRule(),
    UnitSuffixMismatchRule(),
)
