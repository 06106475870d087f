"""The executor's batch rule: what ``solve_many(strategy="auto")`` runs.

A batch fuses into one in-process fleet when it is shareable, has
company, and every instance is small; everything else runs as
independent solves.  The rule reads only the batch, so the same batch
resolves the same way on every host.
"""

from __future__ import annotations

from repro.planner.tunables import AUTO_FUSED_MAX_VARIABLES, AUTO_FUSED_MIN_JOBS

__all__ = ["plan_batch_strategy"]


def plan_batch_strategy(sizes, *, shareable: bool) -> str:
    """Collapse executor ``strategy="auto"`` to ``"fused"`` or ``"process"``.

    ``sizes`` are the per-job decision-variable counts (``None`` entries
    mean unknown — unknown sizes never fuse); ``shareable`` is the
    :func:`repro.runtime.executor.fused_blockers` verdict.
    """
    if not shareable:
        return "process"
    sizes = list(sizes)
    if any(size is None for size in sizes):
        return "process"
    if len(sizes) < AUTO_FUSED_MIN_JOBS:
        return "process"
    if max(sizes, default=0) > AUTO_FUSED_MAX_VARIABLES:
        return "process"
    return "fused"
