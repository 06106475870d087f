"""Build-on-first-use loader for the compiled p-bit sweep (``_sweep.c``).

The C source ships beside this module.  The first anneal compiles it with
the system ``cc`` into the per-user cache ``~/.cache/repro/kernels``,
under a file name keyed by a hash of the source and the flags, and loads
it through :mod:`ctypes`, so nothing is installed.  Later processes find the cached library and pay one
``dlopen``; only a compile imports :mod:`subprocess` and :mod:`tempfile`.

The flags are ``-O3 -ffp-contract=off``, with no ``-march`` and no
``-ffast-math``: every host then runs the same IEEE operations in the same
order, with no fused multiply-adds, so results do not depend on the CPU.

When no compiler is found, the compile fails or the cache cannot be used,
:func:`sweep_library` returns ``None`` and the p-bit machines run the numpy
lock-step scan (:mod:`repro.ising._lockstep`), which computes the same
chain and stays the parity reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_sweep.c")
COMPILER = "cc"
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

_FUNCTIONS = {
    np.dtype(np.float64): "pbit_sweeps_f64",
    np.dtype(np.float32): "pbit_sweeps_f32",
}
_ARGTYPES = (
    [ctypes.c_long] * 3 + [ctypes.c_void_p] * 2 + [ctypes.c_double]
    + [ctypes.c_void_p] * 7 + [ctypes.c_long, ctypes.c_long, ctypes.c_int]
)

_UNLOADED = object()
_library = _UNLOADED
_load_lock = threading.Lock()


def cache_dir() -> Path | None:
    """Where compiled kernels are cached for this user (``None``: no home)."""
    try:
        return Path.home() / ".cache" / "repro" / "kernels"
    except RuntimeError:
        return None


def sweep_library() -> dict | None:
    """The compiled sweep per storage dtype, or ``None`` (numpy fallback).

    Loaded (and, on a cold cache, compiled) once per process.
    """
    global _library
    with _load_lock:
        if _library is _UNLOADED:
            _library = load(cache_dir())
    return _library


def load(directory) -> dict | None:
    """Load the sweep from ``directory``, compiling it there if missing.

    Returns ``{dtype: CompiledSweep}``, or ``None`` when the library
    cannot be built or loaded.  With no ``directory``, or an unwritable
    one, the sweep compiles into a private temporary directory instead.
    """
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()[:16]
    filename = f"sweep-{key}.so"
    path = None if directory is None else Path(directory) / filename
    if path is None or not path.is_file():
        path = _compile(filename, None if path is None else path.parent)
        if path is None:
            return None
    try:
        library = ctypes.CDLL(str(path))
    except OSError:
        return None
    return {
        dtype: CompiledSweep(getattr(library, name), dtype)
        for dtype, name in _FUNCTIONS.items()
    }


def _compile(name: str, directory: Path | None) -> Path | None:
    """Compile the source to ``directory / name``; returns where it landed.

    The object is written to a temporary file in the target directory and
    moved into place with :func:`os.replace`, so processes compiling at
    the same moment never load a half-written file.
    """
    import subprocess
    import tempfile

    scratch = None
    try:
        if directory is None or not _writable(directory):
            directory = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
        path = directory / name
        fd, scratch = tempfile.mkstemp(
            prefix=".sweep-", suffix=".so", dir=directory
        )
        os.close(fd)
        subprocess.run(
            [COMPILER, *FLAGS, "-o", scratch, str(SOURCE)],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(scratch, path)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if scratch is not None and os.path.exists(scratch):
            os.unlink(scratch)
    return path


def _writable(directory: Path) -> bool:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


class CompiledSweep:
    """The ``ctypes`` binding of one dtype's sweep function.

    Calls check every array's shape, dtype and contiguity before its
    address reaches C.
    """

    def __init__(self, function, dtype):
        function.argtypes = _ARGTYPES
        function.restype = None
        self._function = function
        self.dtype = np.dtype(dtype)

    def __call__(self, coupling, fields, offset, taus, spins, inputs,
                 energies, best_spins, best_energies, traces, t0, track):
        """Run ``S`` sweeps of ``R`` replicas (see ``_sweep.c``).

        ``taus`` is ``(R, S, n)``; ``spins``, ``inputs`` and
        ``best_spins`` are ``(R, n)`` and updated in place, as are the
        float64 ``(R,)`` ``energies`` / ``best_energies`` and the optional
        float64 ``(R, sweeps)`` ``traces`` (columns ``t0 .. t0 + S``).
        """
        replicas, sweeps, n = taus.shape
        stored = (
            (coupling, (n, n)), (fields, (n,)), (taus, taus.shape),
            (spins, (replicas, n)), (inputs, (replicas, n)),
            (best_spins, (replicas, n)),
        )
        accounting = [(energies, (replicas,)), (best_energies, (replicas,))]
        stride = 0
        if traces is not None:
            stride = traces.shape[-1]
            if t0 < 0 or t0 + sweeps > stride:
                raise ValueError(
                    f"trace columns {t0}..{t0 + sweeps} exceed {stride}"
                )
            accounting.append((traces, (replicas, stride)))
        for arrays, dtype in ((stored, self.dtype),
                              (accounting, np.dtype(np.float64))):
            for array, shape in arrays:
                if (array.shape != shape or array.dtype != dtype
                        or not array.flags.c_contiguous):
                    raise ValueError(
                        f"sweep needs a C-contiguous {dtype} {shape} array, "
                        f"got {array.dtype} {array.shape}"
                    )
        self._function(
            n, replicas, sweeps, coupling.ctypes.data, fields.ctypes.data,
            float(offset), taus.ctypes.data, spins.ctypes.data,
            inputs.ctypes.data, energies.ctypes.data, best_spins.ctypes.data,
            best_energies.ctypes.data,
            None if traces is None else traces.ctypes.data,
            stride, t0, int(track),
        )
