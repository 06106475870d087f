"""Pinned performance tunables and the executor's batch rule.

- :mod:`repro.planner.tunables` — the measured cutover constants (chromatic
  storage density, fused-fleet size cap and minimum batch);
- :mod:`repro.planner.plan` — :func:`plan_batch_strategy`, which resolves
  ``solve_many(strategy="auto")`` from the batch alone.
"""

from repro.planner.plan import plan_batch_strategy
from repro.planner.tunables import (
    AUTO_FUSED_MAX_VARIABLES,
    AUTO_FUSED_MIN_JOBS,
    DENSE_STORAGE_DENSITY,
)

__all__ = [
    "AUTO_FUSED_MAX_VARIABLES",
    "AUTO_FUSED_MIN_JOBS",
    "DENSE_STORAGE_DENSITY",
    "plan_batch_strategy",
]
