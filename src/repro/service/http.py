"""HTTP/JSON front door over the persistent worker pool.

Pure stdlib (``http.server.ThreadingHTTPServer``) — the service adds no
runtime dependencies.  The surface is deliberately small:

- ``POST /v1/solve`` — body is a wire-format job
  (:func:`repro.service.codec.job_to_wire`); synchronous by default,
  returning the solved report; ``"mode": "async"`` returns ``202`` with
  a job id to poll.
- ``GET /v1/jobs/<id>`` — status (and report, once done) of an async
  submission.
- ``GET /v1/health`` — liveness + version.
- ``GET /v1/stats`` — queue depth, per-worker cache counters
  (``warm_hits`` / ``cold_starts`` / evictions), jobs/sec, and
  ``worker_restarts``.

Failure mapping is part of the contract:

- a malformed body (including ``NaN`` / ``Infinity`` tokens, which
  strict JSON lacks, and a method or backend the registry does not know)
  is ``400`` with the codec's message;
- a ``Content-Length`` that is negative or not a number is ``400``, and
  one above :data:`MAX_BODY_BYTES` is ``413``; both are answered without
  reading the body, and the connection is closed;
- a queue above its high-water mark is ``429`` with a structured
  ``queue_full`` payload (depth, high-water, and a ``retry`` hint) plus a
  ``Retry-After`` header derived from the queue depth and measured
  service rate — backpressure is an *answer*, never a hang;
- a solver error inside a worker is ``500`` carrying the worker's
  traceback (type ``WorkerLost`` when a process worker died during the
  job).

Binding ``port=0`` lets the OS pick an ephemeral port (tests); the
chosen address is ``service.address`` after :meth:`SolverService.start`.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.codec import CodecError
from repro.service.pool import ServicePool
from repro.service.queue import QueueFullError

__all__ = ["SolverService"]

_SYNC_TIMEOUT_SECONDS = 600.0

#: Largest request body the door reads (a dense QKP-1000 request is about
#: 5.7 MiB); a larger ``Content-Length`` is answered 413 unread.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _reject_constant(token: str):
    """``json.loads`` hook: the wire format is strict JSON, so the
    ``NaN`` / ``Infinity`` / ``-Infinity`` extensions are refused."""
    raise CodecError(f"{token} is not a JSON number")


class _UnreadBody(Exception):
    """A request refused on its headers alone; its body stays unread."""

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(message)
        self.status = status
        self.kind = kind


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to the owning :class:`SolverService`."""

    protocol_version = "HTTP/1.1"
    # The structured RequestLogger owns logging; silence the default
    # per-line stderr chatter.

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> "SolverService":
        return self.server.service

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _retry_after_seconds(self, depth: int) -> int:
        """Honest drain-time hint for a 429: queue depth over service rate.

        Falls back to one second per queued job per worker when no job has
        completed yet (no measured rate); clamped to [1, 600] so the header
        is always a usable positive integer.
        """
        stats = self.service.pool.stats()
        rate = float(stats.get("jobs_per_second", 0.0))
        if rate > 0.0:
            wait = depth / rate
        else:
            wait = depth / max(1, self.service.pool.num_workers)
        return max(1, min(600, math.ceil(wait)))

    def _read_json(self):
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise _UnreadBody(400, "bad_request",
                              f"bad Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            raise _UnreadBody(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
        except (ValueError, UnicodeDecodeError) as exc:
            raise CodecError(f"request body is not valid JSON: {exc}") from exc

    # -- routes ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/v1/solve":
            self._send_json(404, {"error": {"type": "not_found",
                                            "message": self.path}})
            return
        try:
            body = self._read_json()
            if not isinstance(body, dict):
                raise CodecError("request body must be a JSON object")
            mode = body.pop("mode", "sync")
            priority = body.pop("priority", "normal")
            if mode not in ("sync", "async"):
                raise CodecError(f"mode must be 'sync' or 'async', got {mode!r}")
            handle = self.service.pool.submit(body, priority=priority)
        except _UnreadBody as exc:
            # The unread body would be parsed as the next request on this
            # connection, so the answer closes it.
            self._send_json(exc.status, {"error": {"type": exc.kind,
                                                   "message": str(exc)}},
                            headers={"Connection": "close"})
            return
        except QueueFullError as exc:
            self._send_json(429, {
                "error": {
                    "type": "queue_full",
                    "message": str(exc),
                    "depth": exc.depth,
                    "high_water": exc.high_water,
                    "retry": True,
                },
            }, headers={"Retry-After": self._retry_after_seconds(exc.depth)})
            return
        except (CodecError, ValueError, TypeError) as exc:
            self._send_json(400, {"error": {"type": "bad_request",
                                            "message": str(exc)}})
            return
        if mode == "async":
            self._send_json(202, {
                "id": handle.id,
                "status": handle.status,
                "href": f"/v1/jobs/{handle.id}",
            })
            return
        if not handle.wait(self.service.sync_timeout):
            self._send_json(504, {"error": {
                "type": "timeout",
                "message": f"job {handle.id} did not finish within "
                           f"{self.service.sync_timeout}s",
            }})
            return
        self._send_json(*_job_response(handle))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/v1/health":
            import repro

            self._send_json(200, {
                "status": "ok",
                "version": repro.__version__,
                "workers": self.service.pool.num_workers,
                "mode": self.service.pool.mode,
            })
            return
        if self.path == "/v1/stats":
            self._send_json(200, self.service.pool.stats())
            return
        if self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/"):]
            handle = self.service.pool.handle(job_id)
            if handle is None:
                self._send_json(404, {"error": {
                    "type": "unknown_job",
                    "message": f"no job {job_id!r} (unknown or evicted)",
                }})
                return
            if handle.status in ("queued", "running"):
                self._send_json(200, {"id": handle.id,
                                      "status": handle.status})
                return
            self._send_json(*_job_response(handle))
            return
        self._send_json(404, {"error": {"type": "not_found",
                                        "message": self.path}})


def _job_response(handle) -> tuple[int, dict]:
    """The terminal JSON body for a finished job handle."""
    response = handle.response
    if not response.get("ok"):
        error = response.get("error", {})
        return 500, {
            "id": handle.id,
            "status": "failed",
            "error": {
                "type": error.get("type", "Error"),
                "message": error.get("message", ""),
                "traceback": error.get("traceback", ""),
            },
        }
    return 200, {
        "id": handle.id,
        "status": "done",
        "report": response["report"],
        "timing": {
            "queue_seconds": handle.queue_seconds,
            "solve_seconds": response.get("solve_seconds", 0.0),
        },
        "cache": {
            "warm_start": response.get("warm_start", False),
            "warm_hits": response.get("stats", {}).get("warm_hits", 0),
            "cold_starts": response.get("stats", {}).get("cold_starts", 0),
        },
        "worker": handle.worker_id,
    }


class SolverService:
    """The daemon: a :class:`ServicePool` behind a threading HTTP server.

    Usage (tests and embedding)::

        with SolverService(port=0, num_workers=2) as service:
            host, port = service.address
            ...POST wire jobs to http://host:port/v1/solve...

    The pool may be handed in pre-configured (``pool=...``); otherwise
    keyword arguments are forwarded to :class:`ServicePool`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8421, *,
                 pool: ServicePool | None = None,
                 sync_timeout: float = _SYNC_TIMEOUT_SECONDS,
                 **pool_kwargs):
        self.pool = pool if pool is not None else ServicePool(**pool_kwargs)
        self.sync_timeout = sync_timeout
        self._host = host
        self._port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ephemeral ``port=0``)."""
        if self._server is None:
            return (self._host, self._port)
        return self._server.server_address[:2]

    def start(self) -> "SolverService":
        """Start workers first, then the accept loop (idempotent)."""
        if self._server is not None:
            return self
        self.pool.start()
        self._server = ThreadingHTTPServer((self._host, self._port), _Handler)
        self._server.daemon_threads = True
        self._server.service = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-http", daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, then stop the pool."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10.0)
            self._server = None
            self._thread = None
        self.pool.close()

    def serve_forever(self) -> None:
        """Block until interrupted (the ``repro serve`` foreground loop).

        Always shuts the service down on the way out; a Ctrl-C
        (``KeyboardInterrupt``) propagates to the caller after cleanup.
        """
        self.start()
        try:
            while True:
                self._thread.join(timeout=3600.0)
        finally:
            self.close()

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
