"""Make the fairspread sources of this checkout importable.

The benchmark always measures the package under ``src/`` next to this
directory, never an installed copy, and pins native thread pools to one
thread before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> float:
    """Pin thread pools, import fairspread from SRC; returns the import time in seconds.

    Exits with status 1 when the checkout holds no fairspread sources or
    the import resolves to a copy outside SRC.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fairspread" / "__init__.py").is_file():
        sys.exit(f"bench: no fairspread sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fairspread

    import_s = time.perf_counter() - start
    if SRC not in Path(fairspread.__file__).resolve().parents:
        sys.exit(f"bench: fairspread was imported from {fairspread.__file__}, not {SRC}")
    return import_s
