"""Golden-run regression: tiny scenario and manufactured runs must reproduce
the recorded reference outputs in ``tests/golden/``.

Each diagnostics column is compared with rtol=1e-9 and an absolute floor of
1e-12 times the column's largest magnitude; regenerate the references with
``tests/golden/record.py`` only when a change is meant to move the numbers.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import record

GOLDEN = Path(__file__).resolve().parent / "golden"

RTOL = 1e-9
ATOL_REL = 1e-12


def _close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    atol = ATOL_REL * np.max(np.abs(expected), initial=0.0)
    return actual.shape == expected.shape and np.allclose(
        actual, expected, rtol=RTOL, atol=atol)


@pytest.mark.parametrize("name", sorted(record.SCENARIOS))
def test_golden_scenario_diagnostics(name, tmp_path):
    path = tmp_path / name
    record.run_scenario(name, path)
    got = record.read_diagnostics_csv(path)
    want = record.read_diagnostics_csv(GOLDEN / name)
    assert list(got) == list(want)
    bad = [col for col in want if not _close(got[col], want[col])]
    assert not bad, f"{name}: columns differ from the golden run: {bad}"


def test_golden_manufactured_errors():
    want = json.loads((GOLDEN / record.MANUFACTURED_FILE).read_text())
    got = record.manufactured_errors()
    assert sorted(got) == sorted(want)
    bad = {k: (got[k], want[k]) for k in want
           if not np.isclose(got[k], want[k], rtol=RTOL, atol=0.0)}
    assert not bad, f"manufactured L2 errors differ: {bad}"


def test_diff_status_gates_on_byte_identity(tmp_path, capsys):
    # the reference files compare identical to themselves, and one value
    # one ulp off does not; a change may re-associate sums, so today's
    # runs need only be within RTOL of them
    for name in [*record.SCENARIOS, record.MANUFACTURED_FILE]:
        shutil.copyfile(GOLDEN / name, tmp_path / name)
    assert record.compare(tmp_path) == 0
    path = tmp_path / record.MANUFACTURED_FILE
    errors = json.loads(path.read_text())
    errors["u"] = float(np.nextafter(errors["u"], np.inf))
    path.write_text(json.dumps(errors, indent=1, sort_keys=True) + "\n")
    assert record.compare(tmp_path) == 1
    assert f"{record.MANUFACTURED_FILE}: largest relative difference" \
        in capsys.readouterr().out
