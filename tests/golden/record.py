"""Golden runs: tiny end-to-end runs whose outputs later changes must keep.

    PYTHONPATH=src python tests/golden/record.py [--out DIR | --diff DIR]

writes the reference files from the code as it stands, next to this script
unless ``--out`` names another directory; ``tests/test_golden.py`` runs the
same definitions and compares.  Record into this directory only from a
commit whose numbers are the reference.  ``--diff DIR`` records into DIR
instead and prints, for each file, ``identical`` when it is byte for byte
the reference, or else its largest relative difference from the reference
and the column or key where it occurs; it exits with status 1 unless every
file is identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from spnpflow import manufactured, scenarios
from spnpflow.io_cli import write_diagnostics_csv

HERE = Path(__file__).resolve().parent
N_STEPS = 10
MANUFACTURED = (4, 8)   # run_manufactured(n_steps, n_cells)
MANUFACTURED_FILE = "manufactured.json"
# a difference is taken relative to the reference value, but to no less
# than this fraction of the largest magnitude of its column
FLOOR = 1e-12

# file name -> scenario factory; each runs N_STEPS steps
SCENARIOS = {
    "energy_decay.csv": lambda: scenarios.scenario_energy_decay(nx=8, dt=1e-2),
    "steric2.csv": lambda: scenarios.scenario_steric(2, nx=8, dt=1e-3),
    "exponent_k.csv": lambda: scenarios.scenario_exponent_k(0.4, nx=8,
                                                            dt=1e-3),
}


def run_scenario(name, path):
    """Run one golden scenario and write its diagnostics CSV to ``path``."""
    records = SCENARIOS[name]().make_stepper().run(n_steps=N_STEPS)
    write_diagnostics_csv(records, path)


def manufactured_errors():
    """Final-time L2 errors of the golden forced run."""
    _, errors = manufactured.run_manufactured(*MANUFACTURED)
    return {k: float(v) for k, v in errors.items()}


def record(out):
    """Write every golden file into the directory ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name in SCENARIOS:
        run_scenario(name, out / name)
    (out / MANUFACTURED_FILE).write_text(
        json.dumps(manufactured_errors(), indent=1, sort_keys=True) + "\n")


def read_diagnostics_csv(path):
    """Read back a diagnostics CSV as a dict of float arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(v) for v in row] for row in rows]) \
        if rows else np.zeros((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def _read(path):
    if path.name == MANUFACTURED_FILE:
        return {k: np.array([v]) for k, v in
                json.loads(path.read_text()).items()}
    return read_diagnostics_csv(path)


def difference(path, reference):
    """``identical`` when ``path`` is byte for byte ``reference``, else
    their largest relative difference and where it occurs."""
    if path.read_bytes() == reference.read_bytes():
        return "identical"
    got, want = _read(path), _read(reference)
    if list(got) != list(want):
        return "different columns"
    worst, where = 0.0, None
    for col, ref in want.items():
        if got[col].shape != ref.shape:
            return f"different length of {col}"
        scale = np.maximum(np.abs(ref),
                           FLOOR * np.max(np.abs(ref), initial=0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.max(np.where(got[col] == ref, 0.0,
                                  np.abs(got[col] - ref) / scale), initial=0.0)
        if rel > worst:
            worst, where = rel, col
    return f"largest relative difference {worst:.2e} ({where})"


def compare(out):
    """Print the difference of every file in ``out`` from the reference;
    0 when all are identical, else 1."""
    same = True
    for name in [*SCENARIOS, MANUFACTURED_FILE]:
        result = difference(out / name, HERE / name)
        print(f"{name}: {result}")
        same &= result == "identical"
    return 0 if same else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--out", type=Path, default=HERE,
                       help="directory for the output files (default: the "
                            "reference directory)")
    where.add_argument("--diff", type=Path, metavar="DIR",
                       help="record into DIR and compare each file with the "
                            "reference")
    args = ap.parse_args(argv)
    if args.diff is None:
        record(args.out)
        return
    record(args.diff)
    return compare(args.diff)


if __name__ == "__main__":
    sys.exit(main())
