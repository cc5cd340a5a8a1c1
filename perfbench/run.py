"""compatlearn benchmark entry point.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Pins the BLAS thread count before numpy
loads, imports compatlearn from the checkout's ``src/`` and runs one workload
(desk, mid or search-large). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of standard output is the JSON
result. Exits 1 when a correctness check fails and 2 when the sources are
missing.
"""

import argparse
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("desk", "mid", "search-large")

# One BLAS thread: on a 2-core box the mid workload trained faster on one
# thread than on two, and a single thread leaves a core free so that other
# processes disturb the timings less.
BLAS_THREADS = 1
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(threads)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    package = ROOT / "src" / "compatlearn"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: compatlearn sources not found at {package}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    started = time.perf_counter()
    import compatlearn.cli  # loads numpy and every package module

    import_s = time.perf_counter() - started
    if Path(compatlearn.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported compatlearn from {compatlearn.__file__}", file=sys.stderr)
        return 2

    import harness

    return harness.run(args, ROOT, threads, import_s)


if __name__ == "__main__":
    sys.exit(main())
