"""Where a record was measured: code version, host and numeric stack."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import numpy as np


def _git(root: str, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _git_state(root: str) -> tuple[str | None, bool | None]:
    """``(sha, dirty)`` when ``root`` is itself a git work tree."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(root):
        return None, None
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return _git(root, "rev-parse", "HEAD"), None if status is None else bool(status)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> tuple[str | None, int | None]:
    """BLAS name/version numpy was built against, and its live thread count."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps") as handle:
            libraries = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        libraries = set()
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return name, threads


def _src_lines(root: str) -> int:
    """Non-blank lines of python under ``src/``."""
    total = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for line in handle if line.strip())
    return total


def provenance(root: str, seed: int) -> dict:
    sha, dirty = _git_state(root)
    blas, blas_threads = _blas()
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "blas_thread_env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "src_nonblank_lines": _src_lines(root),
    }
