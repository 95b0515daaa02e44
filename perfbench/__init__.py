"""End-to-end and per-layer benchmark of the EBL simulator.

``python3 perfbench/run.py`` runs the workloads in :mod:`perfbench.workloads`
and prints every metric by name with its unit; ``BENCHMARK.json`` at the
repository root lists the metrics, their bounds and the workloads.  See
``perfbench/README.md``.
"""
