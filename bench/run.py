"""Benchmark entry point.

    python3 bench/run.py --workload root_law --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick

Runs against the package in ``src/`` next to this directory, single-threaded
(BLAS and OpenMP pinned to one thread before numpy loads).  The last line of
standard output is the JSON result; the full run record goes to bench/runs/.
"""

import os
import sys
from pathlib import Path

PINNED_THREADS = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "sparsedyn").is_dir():
        sys.exit(f"no sparsedyn package under {src}")
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(src))
    from harness import main

    sys.exit(main())
