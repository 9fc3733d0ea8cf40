"""Locate the checkout and put its engine (``src/``) on the import path.

Imported first by ``run.py`` and ``test_harness.py``; in a directory that
holds only the benchmark, ``import repro`` then fails and the run exits
non-zero without printing a result.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
