"""The compiled p-bit sweep against the numpy reference, and its loader.

The compiled sweep (``repro.ising._sweep.c``) and the numpy lock-step scan
compute the same chain from the same noise.  On integer-weight models every
partial sum is exact, so samples, energies and traces are bit-identical; on
float weights the maintained inputs round differently (rank-1 adds versus
32-column block matmuls), so samples still match and energies agree to the
storage dtype's rounding.  The compiled path draws its start spins and
noise in C from the generator's bit stream; the numpy scan draws them
through numpy, and both leave the generator in the same state.
"""

import ctypes
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.schedule import linear_beta_schedule
from repro.ising import _native, pbit
from repro.ising._lockstep import AnnealProgram
from repro.ising.fleet import FleetMachine
from repro.ising.model import IsingModel
from repro.ising.pbit import PBitMachine
from tests.helpers import integer_ising, random_ising

DTYPES = ("float64", "float32")
#: Energy agreement on float weights, set by the storage dtype's rounding.
FLOAT_RTOL = {"float64": 1e-12, "float32": 1e-4}


@pytest.fixture
def library():
    library = _native.sweep_library()
    if library is None:
        pytest.skip("the compiled sweep did not load on this host")
    return library


def anneal_both(monkeypatch, library, model, replicas, dtype, seed=3):
    """``(compiled, numpy)`` results of one seeded anneal."""
    schedule = linear_beta_schedule(3.0, 40, beta_min=0.0)
    results = []
    for loaded in (library, None):
        monkeypatch.setattr(_native, "_library", loaded)
        machine = PBitMachine(model, rng=seed, dtype=dtype)
        results.append(
            machine.anneal_many(schedule, replicas, record_energy=True)
        )
    return results


class TestCrossKernel:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("n", [7, 70])
    def test_integer_weights_bit_identical(self, monkeypatch, library, n,
                                           replicas, dtype):
        compiled, reference = anneal_both(
            monkeypatch, library, integer_ising(n, rng=n), replicas, dtype
        )
        for name in ("last_samples", "best_samples", "last_energies",
                     "best_energies", "energy_traces"):
            np.testing.assert_array_equal(
                getattr(compiled, name), getattr(reference, name), err_msg=name
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("n", [7, 70])
    def test_float_weights_same_samples(self, monkeypatch, library, n,
                                        replicas, dtype):
        compiled, reference = anneal_both(
            monkeypatch, library, random_ising(n, rng=n), replicas, dtype
        )
        np.testing.assert_array_equal(
            compiled.last_samples, reference.last_samples
        )
        np.testing.assert_array_equal(
            compiled.best_samples, reference.best_samples
        )
        np.testing.assert_allclose(
            compiled.energy_traces, reference.energy_traces,
            rtol=FLOAT_RTOL[dtype],
        )

    def test_noise_chunks_do_not_change_the_chain(self, monkeypatch, library):
        """Drawing the noise a few sweeps at a time (here 6 sweeps per
        chunk, with a ragged last chunk) consumes the stream in per-sweep
        order: results equal a one-chunk run bit for bit."""
        model = random_ising(5, rng=1)
        schedule = linear_beta_schedule(3.0, 40, beta_min=0.0)
        whole = PBitMachine(model, rng=2).anneal_many(
            schedule, 3, record_energy=True
        )
        monkeypatch.setattr(pbit, "_CHUNK_DOUBLES", 5 * 3 * 6)
        chunked = PBitMachine(model, rng=2).anneal_many(
            schedule, 3, record_energy=True
        )
        for name in ("last_samples", "best_samples", "last_energies",
                     "best_energies", "energy_traces"):
            np.testing.assert_array_equal(
                getattr(chunked, name), getattr(whole, name), err_msg=name
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("weights", ["integer", "float"])
    def test_draw_order_parity_at_eight_replicas(self, monkeypatch, library,
                                                 weights, dtype):
        """R=8 chains of 70 spins, with pure-noise (``beta <= 0``) sweeps
        in the middle of the schedule and 7-sweep noise chunks (the last
        one ragged): the compiled sweep reads its thresholds in draw order
        and still runs the numpy scan's chains."""
        n, replicas = 70, 8
        model = (integer_ising if weights == "integer" else random_ising)(
            n, rng=11
        )
        schedule = linear_beta_schedule(3.0, 40, beta_min=0.0)
        schedule[12:17] = 0.0
        schedule[20] = -0.5
        monkeypatch.setattr(pbit, "_CHUNK_DOUBLES", n * replicas * 7)
        results = []
        for loaded in (library, None):
            monkeypatch.setattr(_native, "_library", loaded)
            machine = PBitMachine(model, rng=5, dtype=dtype)
            results.append(
                machine.anneal_many(schedule, replicas, record_energy=True)
            )
        compiled, reference = results
        if weights == "integer":
            for name in ("last_samples", "best_samples", "last_energies",
                         "best_energies", "energy_traces"):
                np.testing.assert_array_equal(
                    getattr(compiled, name), getattr(reference, name),
                    err_msg=name,
                )
        else:
            np.testing.assert_array_equal(
                compiled.last_samples, reference.last_samples
            )
            np.testing.assert_array_equal(
                compiled.best_samples, reference.best_samples
            )
            np.testing.assert_allclose(
                compiled.energy_traces, reference.energy_traces,
                rtol=FLOAT_RTOL[dtype],
            )

    def test_rejects_misshapen_arrays(self, library):
        """No address reaches C unchecked: the workspace checks the
        coupling once and allocates every other buffer itself, and a run
        checks its betas, traces and first trace column."""
        sweep = library[np.dtype(np.float64)]
        n, replicas, chunk = 4, 2, 3
        for bad in (np.zeros((n, n + 1)), np.zeros((n, n), np.float32),
                    np.zeros((2 * n, 2 * n))[::2, ::2], np.zeros(n)):
            with pytest.raises(ValueError):
                sweep.workspace(bad, replicas, chunk)
        work = sweep.workspace(np.zeros((n, n)), replicas, chunk)
        work.run(np.ones(chunk), 0.0, np.zeros((replicas, chunk)), 0)
        for betas, traces, t0 in (
            (np.ones(chunk + 1), None, 0),              # more than the chunk
            (np.ones(0), None, 0),                      # no sweep
            (np.ones((1, 2)), None, 0),                 # not 1-D
            (np.ones(2, np.float32), None, 0),          # not float64
            ([1.0, 1.0], None, 0),                      # not an array
            (np.ones(2), np.zeros((replicas + 1, 5)), 0),   # misshapen traces
            (np.ones(2), np.zeros((replicas, 5), np.float32), 0),
            (np.ones(2), np.zeros((5, replicas)).T, 0),     # not C-contiguous
            (np.ones(2), np.zeros((replicas, 5)), 4),       # t0 past the trace
            (np.ones(2), np.zeros((replicas, 5)), -1),
        ):
            with pytest.raises(ValueError):
                work.run(betas, 0.0, traces, t0)
        rng = np.random.default_rng(0)
        for sweeps in (0, chunk + 1):
            with pytest.raises(ValueError):
                work.draw(rng, sweeps, True)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_degenerate_betas_match_the_numpy_finish(self, monkeypatch,
                                                     library, replicas,
                                                     dtype):
        """C turns the ``arctanh`` table into thresholds itself.  A schedule
        holding ``0``, ``-0.0``, a negative beta, ``+inf`` and ``NaN``
        mid-anneal, in 7-sweep chunks, runs the numpy scan's chains bit for
        bit: a ``beta <= 0`` sweep is pure noise, ``+inf`` divides to
        signed zeros and ``NaN`` divides to thresholds no input passes (a
        C test of ``beta > 0`` would make the ``NaN`` sweep pure noise)."""
        n = 9
        schedule = linear_beta_schedule(3.0, 30, beta_min=0.0)
        schedule[[4, 9, 10, 15, 22]] = [0.0, -0.75, np.nan, np.inf, -0.0]
        monkeypatch.setattr(pbit, "_CHUNK_DOUBLES", n * replicas * 7)
        results = []
        for loaded in (library, None):
            monkeypatch.setattr(_native, "_library", loaded)
            machine = PBitMachine(integer_ising(n, rng=6), rng=8, dtype=dtype)
            results.append(
                machine.anneal_many(schedule, replicas, record_energy=True)
            )
        compiled, reference = results
        for name in ("last_samples", "best_samples", "last_energies",
                     "best_energies", "energy_traces"):
            np.testing.assert_array_equal(
                getattr(compiled, name), getattr(reference, name),
                err_msg=name,
            )


class TestWorkspace:
    def test_program_keeps_one_workspace_per_shape(self, library):
        machine = PBitMachine(integer_ising(6, rng=0), rng=1)
        schedule = linear_beta_schedule(2.0, 10)
        machine.anneal_many(schedule, 2)
        work = machine.program._workspace
        machine.anneal_many(schedule, 2)
        assert machine.program._workspace is work
        machine.anneal_many(schedule, 3)
        assert machine.program._workspace.replicas == 3
        machine.anneal_many(schedule[:4], 3)
        assert machine.program._workspace.chunk == 4

    def test_results_are_copies(self, library):
        """A run's results and the program's resident state never alias
        the workspace, so later runs leave them alone."""
        machine = PBitMachine(integer_ising(6, rng=0), rng=1)
        schedule = linear_beta_schedule(2.0, 10)
        first = machine.anneal_many(schedule, 2, record_energy=True)
        kept = {name: getattr(first, name).copy() for name in (
            "last_samples", "best_samples", "last_energies", "best_energies",
        )}
        work = machine.program._workspace
        for array in (first.last_samples, first.best_samples,
                      first.last_energies, first.best_energies,
                      machine.program._resident_spins):
            for buffer in (work.spins, work.best_spins, work.energies,
                           work.best_energies, work.inputs):
                assert not np.shares_memory(array, buffer)
        machine.anneal_many(schedule, 2)
        for name, values in kept.items():
            np.testing.assert_array_equal(getattr(first, name), values)

    def test_zero_spin_machine_anneals(self, library):
        model = IsingModel(np.zeros((0, 0)), np.zeros(0), offset=1.5)
        result = PBitMachine(model, rng=0).anneal_many(
            linear_beta_schedule(1.0, 5), 2
        )
        assert result.last_samples.shape == (2, 0)
        np.testing.assert_array_equal(result.last_energies, [1.5, 1.5])

    def test_thresholds_equal_the_uniform_draw(self):
        """The in-place noise is ``rng.uniform(-1, 1)`` bit for bit and
        leaves the stream where that draw does."""
        betas = np.array([0.0, 0.5, -1.0, 2.0])
        drawn, reference = np.random.default_rng(3), np.random.default_rng(3)
        out = pbit._draw_thresholds(drawn, betas, np.empty((4, 5, 3)))
        noise = reference.uniform(-1.0, 1.0, size=(4, 5, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.arctanh(noise) / -betas[:, None, None]
        expected[betas <= 0] = np.where(noise[betas <= 0] >= 0.0,
                                        -np.inf, np.inf)
        np.testing.assert_array_equal(out, expected)
        assert drawn.random() == reference.random()


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64)

#: A ctypes stand-in for numpy's ``bitgen_t`` (numpy/random/bitgen.h).
_NEXT_UINT32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", ctypes.c_void_p),
                ("next_uint32", _NEXT_UINT32), ("next_double", _NEXT_DOUBLE),
                ("next_raw", ctypes.c_void_p)]


_capsule_new = ctypes.PYFUNCTYPE(
    ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p
)(("PyCapsule_New", ctypes.pythonapi))


class ScriptedGenerator:
    """Looks like a numpy Generator to the compiled draw: every
    ``next_uint32`` has bit 31 set (all start spins +1) and
    ``next_double`` returns ``doubles`` in turn, then 0.75."""

    def __init__(self, doubles):
        values = iter(doubles)
        self._functions = (_NEXT_UINT32(lambda state: 0xFFFFFFFF),
                           _NEXT_DOUBLE(lambda state: next(values, 0.75)))
        self._bitgen = _BitGen(None, None, *self._functions, None)
        self.bit_generator = SimpleNamespace(
            capsule=_capsule_new(ctypes.addressof(self._bitgen),
                                 b"BitGenerator", None),
            lock=threading.Lock(),
        )


class TestCompiledDraw:
    """C draws the start spins and the noise from the generator's own bit
    stream: the values and the stream position of the numpy draw."""

    @staticmethod
    def _anneals(monkeypatch, loaded, bit_generator, dtype, replicas,
                 leftover):
        """A cold, a warm and an untracked anneal on one generator, and
        the generator's state after them."""
        monkeypatch.setattr(_native, "_library", loaded)
        model = integer_ising(9, rng=4)
        schedule = linear_beta_schedule(3.0, 25, beta_min=0.0)
        rng = np.random.Generator(bit_generator(17))
        if leftover:
            rng.integers(0, 2, 3)  # PCG64 keeps the odd half-word
        machine = PBitMachine(model, rng=rng, dtype=dtype)
        cold = machine.anneal_many(schedule, replicas, record_energy=True)
        # A warm restart: its first chunk is drawn without spins.
        warm = machine.anneal_many(schedule, replicas,
                                   initial=cold.last_samples,
                                   record_energy=True)
        fleet = FleetMachine([model], rng=[rng], dtype=dtype)
        untracked = fleet.anneal_fleet(schedule, replicas,
                                       track_best=False).instance(0)
        return (cold, warm, untracked), rng.bit_generator.state

    @pytest.mark.parametrize("leftover", [False, True])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("replicas", [1, 3, 8])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                             ids=lambda g: g.__name__)
    def test_matches_the_numpy_draw(self, monkeypatch, library,
                                    bit_generator, replicas, dtype,
                                    leftover):
        """Four-sweep noise chunks (the last one ragged), so every anneal
        draws several chunks after its start."""
        monkeypatch.setattr(pbit, "_CHUNK_DOUBLES", 9 * replicas * 4)
        compiled, compiled_state = self._anneals(
            monkeypatch, library, bit_generator, dtype, replicas, leftover
        )
        reference, reference_state = self._anneals(
            monkeypatch, None, bit_generator, dtype, replicas, leftover
        )
        for ours, theirs in zip(compiled, reference):
            for name in ("last_samples", "best_samples", "last_energies",
                         "best_energies", "energy_traces"):
                np.testing.assert_array_equal(
                    getattr(ours, name), getattr(theirs, name),
                    err_msg=name,
                )
        np.testing.assert_equal(compiled_state, reference_state)

    def test_leaves_the_generator_ctypes_alone(self, library):
        """The draw reaches the generator through its capsule, so no
        generator caches ``BitGenerator.ctypes`` objects."""
        machine = PBitMachine(integer_ising(6, rng=0), rng=1)
        machine.anneal_many(linear_beta_schedule(2.0, 10), 2)
        assert machine._rng.bit_generator._ctypes is None

    def test_waits_for_the_generator_lock(self, library):
        """The draw holds ``bit_generator.lock``, as numpy's draws do."""
        rng = np.random.default_rng(3)
        machine = PBitMachine(integer_ising(6, rng=0), rng=rng)
        schedule = linear_beta_schedule(2.0, 10)
        machine.anneal_many(schedule, 2)  # program and workspace built
        done = threading.Event()

        def anneal():
            machine.anneal_many(schedule, 2)
            done.set()

        with rng.bit_generator.lock:
            thread = threading.Thread(target=anneal)
            thread.start()
            assert not done.wait(0.3)
        thread.join(10)
        assert done.is_set()

    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_a_pole_draw_gives_an_infinite_threshold(self, library, beta):
        """``next_double() == 0`` draws ``u == -1``, whose ``arctanh`` is
        ``-inf``: the spin it decides is -1 whatever its input, and the
        divide-by-zero stays silent with warnings as errors."""
        n = 4
        program = AnnealProgram(np.zeros((n, n)))
        fields = np.full(n, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = pbit.pbit_anneal(
                program, fields, 0.0, np.array([beta]), 1,
                ScriptedGenerator([0.75, 0.0]),
            )
        np.testing.assert_array_equal(result.last_samples, [[1, -1, 1, 1]])


class TestLoader:
    def test_second_load_reuses_the_cached_library(self, tmp_path,
                                                   monkeypatch):
        compiles = []
        compile_ = _native._compile

        def counting(name, directory):
            path = compile_(name, directory)
            compiles.append(path)
            return path

        monkeypatch.setattr(_native, "_compile", counting)
        if _native.load(tmp_path) is None:
            pytest.skip("no working C compiler on this host")
        assert _native.load(tmp_path) is not None
        assert len(compiles) == 1
        # One library, no temporary files left behind.
        assert [p.name for p in tmp_path.iterdir()] == [compiles[0].name]

    @pytest.mark.parametrize("unusable", ["unwritable", "no-home"])
    def test_unusable_cache_compiles_privately(self, tmp_path, monkeypatch,
                                               unusable):
        import tempfile

        blocker = tmp_path / "file"
        blocker.write_text("")
        directory = blocker / "kernels" if unusable == "unwritable" else None
        private = tmp_path / "private"
        private.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        if _native.load(directory) is None:
            pytest.skip("no working C compiler on this host")
        assert len(list(private.glob("repro-kernels-*/sweep-*.so"))) == 1

    @pytest.mark.parametrize("compiler", ["false", "no-such-compiler"])
    def test_failing_compiler_falls_back_to_numpy(self, tmp_path,
                                                  monkeypatch, compiler):
        monkeypatch.setattr(_native, "COMPILER", compiler)
        monkeypatch.setattr(_native, "cache_dir", lambda: tmp_path)
        monkeypatch.setattr(_native, "_library", _native._UNLOADED)
        instance = repro.generate_qkp(12, 0.5, rng=4)
        kwargs = dict(num_iterations=8, mcs_per_run=40, eta=80.0,
                      eta_decay="sqrt", normalize_step=True, rng=9)
        fallback = repro.solve(instance, **kwargs)
        assert _native._library is None
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(_native, "_library", None)
        reference = repro.solve(instance, **kwargs)
        assert fallback.best_cost == reference.best_cost
        np.testing.assert_array_equal(fallback.best_x, reference.best_x)
        np.testing.assert_array_equal(
            fallback.detail.trace.energies, reference.detail.trace.energies
        )
