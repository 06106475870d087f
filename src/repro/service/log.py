"""Structured service logging: one JSON line per request.

Every request that enters the service produces exactly one log line —
completed, failed, or rejected at the queue — with the fields an
operator greps for: request id, problem fingerprint, queue wait, solve
wall time, and whether the request warm-started its multipliers.  Lines are single JSON
objects with sorted keys (stable field order, machine-parseable,
``jq``-friendly) written under a lock so concurrent dispatchers never
interleave bytes.

The logger is a plain stream wrapper so tests can hand it an
``io.StringIO`` and assert on parsed lines; :meth:`RequestLogger.open`
is the file-backed spelling the ``repro serve`` CLI uses.
"""

from __future__ import annotations

import json
import sys
import threading

__all__ = ["RequestLogger"]


class RequestLogger:
    """Thread-safe one-line-per-request JSON logger."""

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self._owns_stream = False
        self._num_lines = 0

    @classmethod
    def open(cls, path) -> "RequestLogger":
        """A logger appending to ``path`` (closed by :meth:`close`)."""
        logger = cls(open(path, "a", encoding="utf-8"))
        logger._owns_stream = True
        return logger

    @property
    def num_lines(self) -> int:
        """Lines written so far (one per request)."""
        return self._num_lines

    def log(self, **fields) -> None:
        """Write one JSON line.  Non-JSON values fall back to ``str``."""
        line = json.dumps(fields, sort_keys=True, default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()
            self._num_lines += 1

    def close(self) -> None:
        """Close the underlying stream if this logger opened it."""
        if self._owns_stream:
            self._stream.close()
            self._owns_stream = False
