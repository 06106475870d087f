"""Build-on-first-use loader for the compiled p-bit sweep (``_sweep.c``).

The C source ships beside this module.  The first anneal compiles it with
the system ``cc`` into the per-user cache ``~/.cache/repro/kernels``,
under a file name keyed by a hash of the source and the flags, and loads
it through :mod:`ctypes`, so nothing is installed.  Later processes find the cached library and pay one
``dlopen``; only a compile imports :mod:`subprocess` and :mod:`tempfile`.

The flags are ``-O3 -ffp-contract=off``, with no ``-march`` and no
``-ffast-math``: every host then runs the same IEEE operations in the same
order, with no fused multiply-adds, so results do not depend on the CPU.

The binding is :class:`CompiledSweep`, one per dtype, with two entries:
the draw and the sweep.  Both are called only through a
:class:`SweepWorkspace` built for one ``(coupling, R, chunk)``: the
workspace checks the coupling once, allocates every other buffer C
touches and packs the sizes and addresses into one C struct, the call
block, so a call passes the block's address plus only its per-call
values, and checks only those.

The draw fills the workspace from a numpy generator's own bit stream, in
the order numpy's draws consume it: the start spins, as ``rng.integers(0,
2)`` would, then the noise, as ``rng.random`` would, mapped to
``U(-1, 1)``.  It reaches the generator's C interface through
``BitGenerator.capsule`` and holds ``bit_generator.lock`` while it draws,
as numpy's own draws do (a ``ctypes`` call releases the GIL).  It never
touches ``BitGenerator.ctypes``, which caches ``ctypes`` objects on every
generator it is read from.  The ``arctanh`` of the noise stays in numpy.
C finishes each anneal itself: it turns that float64 ``arctanh`` table
into each sweep's thresholds, and the first run of a tracked anneal
computes the start energies and seeds the best state.  The workspace's
buffers are reused by every call, so it serves one caller at a time; the
p-bit anneal copies results out of it.

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

_SUFFIXES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}
_SWEEP_ARGTYPES = (
    ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_void_p,
    ctypes.c_long, ctypes.c_long, ctypes.c_int,
)
_DRAW_ARGTYPES = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
                  ctypes.c_int)

#: ``PyCapsule_GetPointer`` through a private prototype, so the shared
#: ``ctypes.pythonapi`` function object keeps its own argument types.
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


class _CallBlock(ctypes.Structure):
    """``block_t`` of ``_sweep.c``: one workspace's sizes and buffers."""

    _fields_ = [(name, ctypes.c_long) for name in ("n", "R", "chunk")] + [
        (name, ctypes.c_void_p) for name in (
            "J", "h", "betas", "taus", "spins", "inputs", "energies",
            "best_spins", "best_energies",
        )
    ]


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

    Loaded (and, on a cold cache, compiled) once per process; once loaded
    it is served without taking the load lock.
    """
    global _library
    library = _library
    if library is _UNLOADED:
        with _load_lock:
            if _library is _UNLOADED:
                _library = load(cache_dir())
            library = _library
    return library


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
        dtype: CompiledSweep(library, suffix, dtype)
        for dtype, suffix in _SUFFIXES.items()
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
    """The ``ctypes`` bindings of one dtype's draw and sweep.

    They are reached only through a :class:`SweepWorkspace`
    (:meth:`workspace`), which checks the coupling and allocates every
    other buffer once, so no call rechecks or re-reads an address.
    """

    def __init__(self, library, suffix: str, dtype):
        self._sweep = getattr(library, f"pbit_sweeps_{suffix}")
        self._sweep.argtypes = _SWEEP_ARGTYPES
        self._sweep.restype = None
        self._draw = getattr(library, f"pbit_draw_{suffix}")
        self._draw.argtypes = _DRAW_ARGTYPES
        self._draw.restype = ctypes.c_long
        self.dtype = np.dtype(dtype)

    def workspace(self, coupling, replicas: int, chunk: int) -> SweepWorkspace:
        """A workspace for ``replicas`` chains on ``coupling``, drawing
        noise ``chunk`` sweeps at a time."""
        return SweepWorkspace(self, coupling, replicas, chunk)


class SweepWorkspace:
    """The buffers the compiled draw and sweep read and write, checked once.

    Built for one ``(coupling, R, chunk)``.  The coupling must be a
    C-contiguous square array of the sweep's dtype; it is checked here and
    kept.  Every other array C touches is allocated here, C-contiguous:

    - ``noise``: float64 ``(chunk, n, R)``, up to ``chunk`` sweeps' noise
      in the order numpy draws it; the caller replaces it by its
      ``arctanh``, and C turns each sweep's slab into that sweep's
      thresholds in place, for either dtype;
    - ``betas``: float64 ``(chunk,)``, the run's betas, copied in by
      :meth:`run`;
    - ``fields`` ``(n,)`` and ``spins`` / ``inputs`` / ``best_spins``
      ``(R, n)``, in the sweep's dtype;
    - ``energies`` and ``best_energies``, float64 ``(R,)``.

    The sizes and every address (the coupling's too) are packed once into
    the call block C reads, so :meth:`draw` and :meth:`run` pass only
    their per-call values and check only those.  The buffers are reused
    by every call, so a workspace serves one caller at a time, and results
    leave it as copies.
    """

    def __init__(self, sweep: CompiledSweep, coupling, replicas: int,
                 chunk: int):
        dtype = sweep.dtype
        if (coupling.ndim != 2 or coupling.shape[0] != coupling.shape[1]
                or coupling.dtype != dtype
                or not coupling.flags.c_contiguous):
            raise ValueError(
                f"sweep needs a C-contiguous square {dtype} coupling, got "
                f"{coupling.dtype} {coupling.shape}"
            )
        n = coupling.shape[0]
        self.sweep = sweep
        self.coupling = coupling
        self.replicas = replicas
        self.chunk = chunk
        self.noise = np.empty((chunk, n, replicas))
        self.betas = np.empty(chunk)
        self.fields = np.zeros(n, dtype=dtype)
        self.spins = np.ones((replicas, n), dtype=dtype)
        self.inputs = np.zeros((replicas, n), dtype=dtype)
        self.best_spins = np.ones((replicas, n), dtype=dtype)
        self.energies = np.zeros(replicas)
        self.best_energies = np.zeros(replicas)
        self._sweep = sweep._sweep
        self._draw = sweep._draw
        # C writes through the block's addresses; the tuple keeps each
        # buffer alive for the workspace's life, whatever its attributes
        # name.
        self._buffers = (coupling, self.fields, self.betas, self.noise,
                         self.spins, self.inputs, self.energies,
                         self.best_spins, self.best_energies)
        self._block = _CallBlock(
            n, replicas, chunk,
            *(array.ctypes.data for array in self._buffers),
        )
        self._address = ctypes.addressof(self._block)

    def draw(self, rng, sweeps: int, spins: bool = False) -> int:
        """Draw ``sweeps`` sweeps' noise into ``noise[:sweeps]`` from the
        numpy generator ``rng``; with ``spins``, the start ``spins`` first.

        The values and the stream position of ``random_spins(rng, (R,
        n))`` and then of ``rng.random(out=noise[:sweeps])``, ``*= 2``,
        ``-= 1``.  Holds ``rng.bit_generator.lock`` while drawing.
        Returns how many noise values are exactly ``-1.0`` (the pole of
        ``arctanh``).
        """
        if not 1 <= sweeps <= self.chunk:
            raise ValueError(
                f"a draw takes 1..{self.chunk} sweeps, got {sweeps}"
            )
        bit_generator = rng.bit_generator
        bitgen = _capsule_pointer(bit_generator.capsule, b"BitGenerator")
        with bit_generator.lock:
            return self._draw(self._address, bitgen, sweeps, spins)

    def run(self, betas, offset: float, traces=None, t0: int = 0,
            track: bool = True) -> None:
        """Run one sweep per entry of ``betas`` on ``noise[:betas.size]``.

        ``betas`` is a 1-D float64 array of 1..``chunk`` entries, copied
        into the ``betas`` buffer; ``noise`` holds the ``arctanh`` of each
        sweep's noise, which C turns into thresholds in place.  ``t0`` is
        the anneal's index of the run's first sweep.  ``spins``, ``inputs``
        and ``energies`` (and, with ``track``, ``best_spins`` /
        ``best_energies``) are updated in place; a tracked run at
        ``t0 == 0`` first seeds ``energies`` and the best state from the
        start state.  The optional float64 ``(R, stride)`` ``traces`` get
        the run's sweep energies in columns ``t0 .. t0 + sweeps``.
        """
        if (not isinstance(betas, np.ndarray) or betas.ndim != 1
                or betas.dtype != np.float64
                or not 1 <= betas.size <= self.chunk):
            got = np.asarray(betas)
            raise ValueError(
                f"betas must be a 1-D float64 array of 1..{self.chunk} "
                f"sweeps, got {got.dtype} {got.shape}"
            )
        sweeps = betas.size
        stride, address = 0, None
        if traces is not None:
            if (traces.ndim != 2 or traces.shape[0] != self.replicas
                    or traces.dtype != np.float64
                    or not traces.flags.c_contiguous):
                raise ValueError(
                    f"traces must be a C-contiguous float64 "
                    f"({self.replicas}, sweeps) array, got "
                    f"{traces.dtype} {traces.shape}"
                )
            stride = traces.shape[1]
            if t0 < 0 or t0 + sweeps > stride:
                raise ValueError(
                    f"trace columns {t0}..{t0 + sweeps} exceed {stride}"
                )
            address = traces.ctypes.data
        self.betas[:sweeps] = betas
        self._sweep(self._address, sweeps, float(offset), address, stride,
                    t0, track)
