"""``simlint`` — determinism & scheduling static analysis for the simulator.

A whole-program AST linter with rules tailored to this codebase.  The
paper's headline numbers (transient vs. steady-state delay, TDMA vs.
802.11 ordering, 95% confidence intervals) are only reproducible when
every run is bit-for-bit deterministic under a fixed seed, so the rules
police the disciplines the kernel relies on:

* all randomness flows through an injected :class:`random.Random` minted
  by ``repro.core.seeding`` (never the module-level shared generator,
  never the wall clock, never an ad-hoc affine derivation), and
* all event scheduling flows through :meth:`Environment.schedule` in a
  deterministic order (never direct heap manipulation, never NaN/negative
  delays, never hash-dependent iteration).

Rules SIM001-SIM008 and SIM013-SIM014 analyse one file at a time.
Rules SIM009-SIM012 run
over the whole program — the project loader (:mod:`repro.lint.graph`)
parses ``src/``, ``tests/`` and ``examples/`` once, builds the import
graph and per-module symbol tables, and the data-flow layer
(:mod:`repro.lint.dataflow`) classifies values so a call site in one
module can be checked against a signature or convention defined in
another.

Rules
-----
========  =============================================================
SIM001    module-level ``random.*`` call (use an injected ``Random``)
SIM002    wall-clock access inside simulation code
SIM003    constant negative/non-finite delay or time to ``timeout()``/
          ``schedule()``/``schedule_at()``
SIM004    mutable default argument
SIM005    iteration over a ``set`` / ``.keys()`` view in a hot path
SIM006    direct mutation of ``Environment._queue`` (bypasses schedule())
SIM007    blanket ``except``/``except Exception`` that silently swallows
SIM008    metric name is not a lowercase dotted identifier
SIM009    RNG not derived via ``repro.core.seeding`` injected into a component
SIM010    set/dict iteration order reaching scheduling, heaps, or the trace
SIM011    float ``==``/``!=`` comparison against simulated time
SIM012    literal whose unit contradicts the parameter's unit suffix
SIM013    bare ``assert`` in production code (stripped under ``-O``)
SIM014    host-clock call in kernel/protocol code (obs/perf only)
========  =============================================================

Any finding can be suppressed on its line with ``# simlint: disable=SIMxxx``
(comma-separate several codes, or omit ``=...`` to silence every rule on
the line).  Legacy findings live in the checked-in baseline
(``.simlint-baseline.json``) and gate nothing until their lines are
edited; see ``docs/STATIC_ANALYSIS.md`` for the full workflow.
"""

from repro.lint.baseline import Baseline
from repro.lint.diagnostics import Diagnostic, parse_suppressions
from repro.lint.graph import ModuleInfo, Project, load_project
from repro.lint.rules import ALL_RULES, LintContext, Rule, lint_source
from repro.lint.runner import (
    iter_python_files,
    lint_file,
    lint_paths,
    lint_project,
    run_lint,
)
from repro.lint.sarif import findings_to_sarif
from repro.lint.xrules import ALL_PROJECT_RULES, ProjectRule

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "Baseline",
    "Diagnostic",
    "LintContext",
    "ModuleInfo",
    "Project",
    "ProjectRule",
    "Rule",
    "findings_to_sarif",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "load_project",
    "parse_suppressions",
    "run_lint",
]
