"""The compiled p-bit sweep against the numpy reference, and its loader.

The compiled sweep (``repro.ising._sweep.c``) and the numpy lock-step scan
compute the same chain from the same noise.  On integer-weight models every
partial sum is exact, so samples, energies and traces are bit-identical; on
float weights the maintained inputs round differently (rank-1 adds versus
32-column block matmuls), so samples still match and energies agree to the
storage dtype's rounding.
"""

import numpy as np
import pytest

import repro
from repro.core.schedule import linear_beta_schedule
from repro.ising import _native, pbit
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

    def test_rejects_misshapen_arrays(self, library):
        """The binding checks shapes, dtypes and contiguity before any
        address reaches C."""
        sweep = library[np.dtype(np.float64)]
        n, replicas = 4, 2
        arrays = dict(
            coupling=np.zeros((n, n)), fields=np.zeros(n), offset=0.0,
            taus=np.zeros((replicas, 3, n)), spins=np.ones((replicas, n)),
            inputs=np.zeros((replicas, n)), energies=np.zeros(replicas),
            best_spins=np.ones((replicas, n)),
            best_energies=np.zeros(replicas), traces=None, t0=0, track=True,
        )
        sweep(**arrays)
        for name, bad in (
            ("coupling", np.zeros((n + 1, n + 1))),
            ("spins", np.ones((replicas, n), dtype=np.float32)),
            ("inputs", np.zeros((n, replicas)).T),
            ("traces", np.zeros((replicas, 2))),
        ):
            with pytest.raises(ValueError):
                sweep(**{**arrays, name: bad})


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
