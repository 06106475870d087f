"""Solver-as-a-service: the front door as a long-running endpoint.

Layering (request path, top to bottom)::

    HTTP client ── POST /v1/solve ──────────────────────────────┐
                                                                ▼
    http.SolverService     stdlib ThreadingHTTPServer; 400/429 mapping
    pool.ServicePool       decodes each body once (codec.job_from_wire);
                           bounded PriorityJobQueue + dispatcher threads
    pool.WorkerRuntime     persistent (thread/process) solver state:
                             SolverSession(s)  resident multiplier caches
    repro.solve            the unchanged in-process front door

The wire format lives in :mod:`repro.service.codec` (jobs/reports) on
top of the canonical problem JSON codec in :mod:`repro.problems.io`;
per-request JSON logging in :mod:`repro.service.log`.  The CLI
entry point is ``repro serve``.

Contract: a default request is **bit-identical** to ``repro.solve`` on
the same seed: each request's machine builds its own program, exactly
as an in-process solve does.  ``warm_start=true`` is the explicit opt-in
that changes multiplier trajectories.
"""

from repro.service.codec import (
    CodecError,
    job_from_wire,
    job_to_wire,
    report_from_wire,
    report_to_wire,
)
from repro.service.http import SolverService
from repro.service.log import RequestLogger
from repro.service.pool import JobHandle, ServicePool, WorkerRuntime
from repro.service.queue import (
    PRIORITIES,
    PriorityJobQueue,
    QueueClosedError,
    QueueFullError,
)

__all__ = [
    "CodecError",
    "JobHandle",
    "PRIORITIES",
    "PriorityJobQueue",
    "QueueClosedError",
    "QueueFullError",
    "RequestLogger",
    "ServicePool",
    "SolverService",
    "WorkerRuntime",
    "job_from_wire",
    "job_to_wire",
    "report_from_wire",
    "report_to_wire",
]
