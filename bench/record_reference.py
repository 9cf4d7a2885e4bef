"""Record reference.json: the final values of each workload at the default
seed and preset size, from the current code.

    python3 bench/record_reference.py

Run it only when a change is meant to alter the results, and say why.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main():
    out = {}
    for name in workloads.NAMES:
        build, nx = workloads.BUILDERS[name]
        wl = build(workloads.DEFAULT_SEED, nx)
        res = workloads.solve(wl, BENCH_DIR / "out" / f"{name}-reference.csv")
        if res.failed:
            sys.exit(f"{name}: {res.failed} failed steps: {res.problems}")
        out[name] = {"seed": workloads.DEFAULT_SEED, "horizon": wl.horizon,
                     "values": res.final}
        print(name, res.final)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
