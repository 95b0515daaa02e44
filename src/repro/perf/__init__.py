"""Performance layer: trial fingerprints and the campaign-scaling gate.

:mod:`repro.perf.equivalence` (the bit-exact trial fingerprints the
golden tests pin) and :mod:`repro.perf.campaign_scaling` pull in the
whole scenario stack, so the package imports neither; import them
explicitly.  Host-time benchmarking lives outside the package, in
``perfbench/``.
"""
