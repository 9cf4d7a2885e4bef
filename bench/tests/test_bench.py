"""Tests of the benchmark itself, on tiny meshes.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spnpflow import errors, manufactured, scenarios  # noqa: E402
from spnpflow.scheme import Stepper  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 8  # the cavity preset is not charge-neutral under quadrature at 4


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_reports_every_metric(name, trace, tmp_path):
    result = harness.run(name, seed=3, seconds=1.0, trace=bool(trace),
                         out_dir=tmp_path, nx=TINY)
    out = harness.summary(result)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in listed}
    assert {m["unit"] for m in listed} >= {v["unit"]
                                          for v in out["metrics"].values()}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    # no workload uses the iterative solver
    assert set(result["absent"]) == ({"sparse.iterations"} if trace else set())
    if trace:
        assert result["metrics"]["trace.stage_coverage"][0] > 0.95
        lines = (tmp_path / f"{name}-seed3-trace1-spans.jsonl").read_text()
        names = {json.loads(line)["name"] for line in lines.splitlines()}
        assert {"mesh.build_rect_mesh", "sparse.splu", "io_cli.csv"} <= names
    assert "step_ms_tail = " in "\n".join(harness.report_lines(result))


def _tiny(name, reference=None):
    return workloads.make_workload(name, seed=0, nx=TINY, reference=reference)


def _doctor_record(monkeypatch, at_step, **changes):
    """Make Stepper._record return a doctored record at one step."""
    original = Stepper._record

    def doctored(self, new, old, **kw):
        rec = original(self, new, old, **kw)
        if self.step_index == at_step:
            rec = dataclasses.replace(rec, **{k: f(rec) for k, f in
                                              changes.items()})
        return rec

    monkeypatch.setattr(Stepper, "_record", doctored)


def test_mass_drift_counts_as_failed(monkeypatch, tmp_path):
    _doctor_record(monkeypatch, 3, masses=lambda r: (r.masses[0] * (1 + 1e-8),
                                                     r.masses[1]))
    res = workloads.solve(_tiny("cavity40"), tmp_path / "d.csv")
    assert res.attempted == 10 and res.failed == 1
    assert "step 3" in res.problems[0] and "mass" in res.problems[0]


def test_energy_rise_counts_as_failed(monkeypatch, tmp_path):
    _doctor_record(monkeypatch, 5, e_total=lambda r: 1.5 * r.e_total)
    res = workloads.solve(_tiny("cavity40"), tmp_path / "d.csv")
    # the raised energy fails step 5, and the drop back fails nothing
    assert res.failed == 1 and "energy" in res.problems[0]


def test_wrong_reference_fails_every_step(tmp_path):
    wl = _tiny("cavity40")
    good = workloads.solve(wl, tmp_path / "d.csv")
    assert good.failed == 0
    wrong = dict(good.final, xi=good.final["xi"] * (1 + 1e-6))
    wl = _tiny("cavity40", {"horizon": wl.horizon, "values": wrong})
    res = workloads.solve(wl, tmp_path / "d.csv")
    assert res.failed == res.attempted == wl.horizon
    assert any("final xi" in p for p in res.problems)


def test_package_error_fails_rest_of_horizon(monkeypatch, tmp_path):
    original = Stepper.step

    def failing(self):
        if self.step_index == 4:
            raise errors.StructuralViolation("doctored", step=5)
        return original(self)

    monkeypatch.setattr(Stepper, "step", failing)
    wl = _tiny("cavity40")
    res = workloads.solve(wl, tmp_path / "d.csv")
    assert res.failed == wl.horizon - 4
    assert "StructuralViolation" in res.problems[-1]


def test_forced_matches_run_manufactured(tmp_path):
    wl = _tiny("forced64")
    res = workloads.solve(wl, tmp_path / "d.csv")
    _, expected = manufactured.run_manufactured(
        wl.horizon, TINY, t_final=wl.horizon * 0.5 / 64)
    assert res.failed == 0 and res.final == expected


def test_default_seed_reproduces_preset_and_others_perturb():
    def initial(name, seed):
        wl = workloads.make_workload(name, seed=seed, nx=TINY)
        return wl.setup(wl.sources).curr.c[0].coefficients

    scen = scenarios.scenario_energy_decay(nx=TINY, dt=1e-2)
    preset = scen.make_stepper().curr.c[0].coefficients
    assert (initial("cavity40", 0) == preset).all()
    assert (initial("cavity40", 1) != preset).any()
    assert (initial("forced64", 0) == initial("forced64", 7)).all()


def test_missing_entry_point_is_absent_not_zero(monkeypatch, tmp_path):
    gone = tuple(("spnpflow.sparse", "SparseMatrix.no_such_method", span)
                 if span == "sparse.to_scipy" else (mod, attr, span)
                 for mod, attr, span in spans.ENTRY_POINTS)
    monkeypatch.setattr(spans, "ENTRY_POINTS", gone)
    result = harness.run("cavity40", seed=0, seconds=0.0, trace=True,
                         out_dir=tmp_path, nx=TINY)
    assert "sparse.to_scipy_calls" in result["absent"]
    assert "sparse.to_scipy_calls" not in result["metrics"]
    assert result["failed"] == 0 and "sparse.from_coo_ms" in result["metrics"]
