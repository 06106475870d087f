"""Export hygiene: every public symbol resolves and is documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.ising",
    "repro.problems",
    "repro.baselines",
    "repro.analysis",
    "repro.utils",
    "repro.planner",
    "repro.runtime",
    "repro.service",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_symbols_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert getattr(package, name, None) is not None, (
                f"{package_name}.{name} in __all__ but not importable"
            )

    def test_no_duplicate_exports(self, package_name):
        package = importlib.import_module(package_name)
        assert len(package.__all__) == len(set(package.__all__))

    def test_public_callables_are_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            obj = getattr(package, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, (
            f"{package_name} exports without docstrings: {undocumented}"
        )


class TestModuleDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_packages_have_docstrings(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} lacks a module docstring"

    def test_cli_importable(self):
        cli = importlib.import_module("repro.cli")
        assert callable(cli.main)


def test_import_loads_no_scipy_or_networkx():
    """scipy and networkx are imported by the functions that use them, so
    ``import repro`` stays light (a fresh interpreter, so nothing loaded
    by other tests counts)."""
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "import repro, repro.baselines, repro.ising, repro.problems\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'scipy', 'networkx'}))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert completed.stdout.strip() == "[]"
