"""Pytest bootstrap: make `src/` importable without an installed package.

The environment used for grading has an old setuptools without `wheel`, so
`pip install -e .` may be unavailable; `python setup.py develop` works, and
this shim makes `pytest` work even with no install at all.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
