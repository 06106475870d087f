"""The platform's pinned performance tunables, in one consulted place.

The cutover constants that steer the CSR-vs-dense storage choice in
:mod:`repro.ising.sparse` and the fused-fleet batch rule in
:mod:`repro.planner.plan` live here — a leaf module with no repro
imports — and those sites import them back.  The values are measured
defaults; no host setting overrides them.
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
#: sits above the cap to measure a new one.
AUTO_FUSED_MAX_VARIABLES = 128

#: Fusing a single job is pure overhead; the fleet needs company.
AUTO_FUSED_MIN_JOBS = 2
