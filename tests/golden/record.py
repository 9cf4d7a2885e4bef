"""Golden runs: tiny end-to-end runs whose outputs later changes must keep.

    PYTHONPATH=src python tests/golden/record.py [--out DIR]

writes the reference files from the code as it stands, next to this script
unless ``--out`` names another directory; ``tests/test_golden.py`` runs the
same definitions and compares.  Record into this directory only from a
commit whose numbers are the reference.  To check that a change leaves the
outputs byte for byte as they were, record both commits with ``--out`` and
``cmp`` the files.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from spnpflow import manufactured, scenarios
from spnpflow.io_cli import write_diagnostics_csv

HERE = Path(__file__).resolve().parent
N_STEPS = 10
MANUFACTURED = (4, 8)   # run_manufactured(n_steps, n_cells)
MANUFACTURED_FILE = "manufactured.json"

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=HERE,
                    help="directory for the output files (default: the "
                         "reference directory)")
    out = ap.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    for name in SCENARIOS:
        run_scenario(name, out / name)
    (out / MANUFACTURED_FILE).write_text(
        json.dumps(manufactured_errors(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
