"""spnpflow benchmark: one run of one workload.

    python3 bench/run.py --workload cavity40 --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Prints every metric by name with its unit and sample count, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Details and spans go to
``bench/out/``.  BLAS/OpenMP pools are pinned to one thread before NumPy
loads, so a run measures the solver rather than the scheduler.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spnpflow" / "__init__.py").is_file():
        print(f"error: no spnpflow sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import harness
    names = harness.workloads.NAMES
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), BENCH_DIR / "out")
    for line in harness.report_lines(result):
        print(line)
    print(json.dumps(harness.summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
