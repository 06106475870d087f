"""Suite-wide fixtures."""

import pytest

from repro.ising import _native


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    """Run a test on each p-bit sweep kernel.

    ``"compiled"`` is the C sweep (skipped when it did not load on this
    host); ``"numpy"`` forces the lock-step reference scan.  Both are
    selected by forcing the loader's cached result, the only switch.
    """
    if request.param == "numpy":
        monkeypatch.setattr(_native, "_library", None)
    else:
        library = _native.sweep_library()
        if library is None:
            pytest.skip("the compiled sweep did not load on this host")
        monkeypatch.setattr(_native, "_library", library)
    return request.param
