"""Performance layer: the fast-path gate and its equivalence checks.

This package deliberately exposes only the :data:`~repro.perf.fastpath.FASTPATH`
flag at import time — :mod:`repro.perf.equivalence` and
:mod:`repro.perf.campaign_scaling` pull in the whole scenario stack and
must be imported explicitly so low layers (:mod:`repro.des`,
:mod:`repro.net`) can import the flag without a cycle.  Host-time
benchmarking lives outside the package, in ``perfbench/``.
"""

from repro.perf.fastpath import FASTPATH, fastpath_enabled

__all__ = ["FASTPATH", "fastpath_enabled"]
