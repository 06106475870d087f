"""The platform's pinned performance tunables, in one consulted place.

PRs 4-6 each hard-coded a cutover constant next to the code it steered:
the CSR-vs-dense storage density in :mod:`repro.ising.sparse` and the
fused-fleet size cap in :mod:`repro.runtime.executor`.  The planner
(:mod:`repro.planner.plan`) consults the same numbers when it predicts
plans, so they live here — a leaf module with no repro imports — and the
original sites import them back.  A host-calibrated perf model
(:mod:`repro.planner.model`) may override the fleet cap per machine; the
values below are the measured defaults for the pinned heuristics.
"""

from __future__ import annotations

#: Chromatic machine storage cutover: coupling densities at or above this
#: use dense per-color row blocks, below it CSR.  Measured on the max-cut
#: suite (see ``ChromaticPBitMachine``): BLAS dense matmuls win once a
#: quarter of the couplings are nonzero.
DENSE_STORAGE_DENSITY = 0.25

#: ``solve_many(strategy="auto")`` only fuses fleets of small instances.
#: The cap dates from a fused numpy scan that measured break-even at
#: N~200; fused fleets and the serial loop now run the same compiled
#: kernel (``benchmarks/bench_perf_fleet.py``), and no benchmark workload
#: sits above the cap to measure a new one.  A host perf model may replace
#: the cap with its calibrated ``fused_max_variables`` tunable.
AUTO_FUSED_MAX_VARIABLES = 128

#: Fusing a single job is pure overhead; the fleet needs company.
AUTO_FUSED_MIN_JOBS = 2
