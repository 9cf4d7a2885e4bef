import os

import numpy as np
import pytest

from record import read_diagnostics_csv
from spnpflow import fem, manufactured, model
from spnpflow.errors import ConfigError
from spnpflow.io_cli import (CSV_HEADER, RunConfig, build_scenario, cli_main,
                             parse_config, run_config, write_diagnostics_csv,
                             write_snapshot)
from spnpflow.mesh import build_rect_mesh, dof_map


def rec(t, **kw):
    base = dict(t=t, e_total=1.0, e_spnp=0.5, masses=(12.0, 12.0),
                min_c=(2.0, 2.0), xi=1.0, r=1.5, visc_dissip=0.0,
                ionic_dissip=0.0)
    base.update(kw)
    return model.DiagnosticsRecord(**base)


# ----------------------------------------------------------------------
# configuration parsing
# ----------------------------------------------------------------------

def test_parse_defaults_energy_decay():
    cfg = parse_config("scenario = energy-decay\n")
    assert cfg.scenario == "energy-decay"
    scen = build_scenario(cfg)
    assert scen.params.co == 0.6
    assert scen.params.pe == 50.0
    assert scen.nx == 40


def test_parse_empty_document_defaults():
    cfg = parse_config("")
    assert cfg.scenario == "energy-decay"
    assert cfg.strict_energy is False


def test_parse_range_error_names_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("re = -1\n")
    assert "re" in str(exc.value)


def test_parse_unknown_key_has_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = energy-decay\nbogus = 3\n")
    assert "line 2" in str(exc.value)
    # keys of removed options are unknown keys too
    for line in ("solver = direct", "solver_tol = 1e-9",
                 "sigma_diffusion_coeff_one = true",
                 "clamp_viscosity = false",
                 "xi_scales_dirichlet_potential = false"):
        with pytest.raises(ConfigError, match="line 2: unknown key"):
            parse_config(f"scenario = energy-decay\n{line}\n")


def test_parse_bad_value_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("dt = notanumber\n")
    assert "line 1" in str(exc.value)


def test_parse_comments_and_blanks():
    cfg = parse_config("# a comment\n\nscenario = steric:2   # trailing\n"
                       "dt = 1e-3\n")
    assert cfg.scenario == "steric:2"
    assert cfg.dt == 1e-3


def test_parse_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("dt = 1e-3\ndt = 1e-2\n")


def test_parse_bad_scenario_names():
    for name in ("steric:9", "steric:x", "exponent-k:-1", "nonsense"):
        with pytest.raises(ConfigError):
            parse_config(f"scenario = {name}\n")


def test_config_roundtrip():
    # every key type, floats at the 17 digits the writers use
    text = ("scenario = exponent-k:0.4\nnx = 24\ndt = 0.002\n"
            "t_final = 0.75\nco = 10\nw = 2,1,1,2\nstrict_energy = true\n"
            "neutralize_net_charge = true\nout_dir = out\n"
            "snapshot_times = 0.10000000000000001,0.5\n")
    cfg = RunConfig(scenario="exponent-k:0.4", nx=24, dt=2e-3, t_final=0.75,
                    co=10.0, w=(2.0, 1.0, 1.0, 2.0), strict_energy=True,
                    neutralize_net_charge=True, out_dir="out",
                    snapshot_times=(0.1, 0.5))
    assert parse_config(text) == cfg


def test_mu_ordering_validated():
    with pytest.raises(ConfigError):
        parse_config("mu0 = 0.4\nmu_inf = 0.5\n")


# ----------------------------------------------------------------------
# diagnostics CSV
# ----------------------------------------------------------------------

def test_csv_header_only_for_no_records(tmp_path):
    path = tmp_path / "d.csv"
    write_diagnostics_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_constant_run(tmp_path):
    path = tmp_path / "d.csv"
    write_diagnostics_csv([rec(0.0), rec(0.01), rec(0.02)], path)
    data = read_diagnostics_csv(path)
    assert np.array_equal(data["mass_p"], [12.0, 12.0, 12.0])
    assert np.array_equal(data["xi"], [1.0, 1.0, 1.0])


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    recs = [rec(float(t), e_total=float(rng.standard_normal()) * 1e3,
                r=float(rng.random()) * 1e-7)
            for t in np.linspace(0, 1, 7)]
    path = tmp_path / "d.csv"
    write_diagnostics_csv(recs, path)
    data = read_diagnostics_csv(path)
    for i, r in enumerate(recs):
        assert data["E_h"][i] == r.e_total      # exact round-trip
        assert data["r"][i] == r.r
        assert data["t"][i] == r.t
    # re-writing parsed values reproduces the file byte for byte
    recs2 = [model.DiagnosticsRecord(
        t=data["t"][i], e_total=data["E_h"][i], e_spnp=data["E_spnp"][i],
        masses=(data["mass_p"][i], data["mass_n"][i]),
        min_c=(data["min_cp"][i], data["min_cn"][i]), xi=data["xi"][i],
        r=data["r"][i], visc_dissip=data["visc_dissip"][i],
        ionic_dissip=data["ionic_dissip"][i]) for i in range(len(recs))]
    path2 = tmp_path / "d2.csv"
    write_diagnostics_csv(recs2, path2)
    assert path.read_bytes() == path2.read_bytes()


# ----------------------------------------------------------------------
# VTK snapshots
# ----------------------------------------------------------------------

def make_state(mesh):
    p2 = dof_map(mesh, 2)
    p1 = dof_map(mesh, 1)
    c = [model.concentration_from_callable(lambda x, y: 1.0 + 0 * x, p2,
                                           mesh) for _ in range(2)]
    u = fem.zero_field(p2, components=2)
    p = fem.zero_field(p1)
    vb = fem.zero_field(p2)
    return model.State(t=0.25, u=u, p=p, c=c, vbar=vb, v=vb.copy(),
                       mu_q=np.zeros((mesh.n_triangles, 12)), r=1.0)


def test_snapshot_two_triangle_counts(tmp_path):
    mesh = build_rect_mesh(0, 1, 0, 1, 1, 1)
    state = make_state(mesh)
    path = tmp_path / "snap.vtk"
    write_snapshot(state, mesh, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "POINTS 9 double" in text
    assert "CELLS 8 32" in text
    assert "CELL_TYPES 8" in text
    assert "POINT_DATA 9" in text


def test_snapshot_constant_field_values(tmp_path):
    mesh = build_rect_mesh(0, 1, 0, 1, 2, 2)
    state = make_state(mesh)
    path = tmp_path / "snap.vtk"
    write_snapshot(state, mesh, path)
    lines = path.read_text().splitlines()
    i = lines.index("SCALARS c_p double 1")
    n_pts = dof_map(mesh, 2).n_dofs
    vals = [float(v) for v in lines[i + 2:i + 2 + n_pts]]
    assert np.allclose(vals, 1.0)


def test_snapshot_parses_as_vtk(tmp_path):
    # structural validity: section sizes and cell connectivity in range
    mesh = build_rect_mesh(0, 1, 0, 1, 3, 2)
    state = make_state(mesh)
    path = tmp_path / "snap.vtk"
    write_snapshot(state, mesh, path)
    lines = path.read_text().splitlines()
    n_pts = int([l for l in lines if l.startswith("POINTS")][0].split()[1])
    cells_line = [l for l in lines if l.startswith("CELLS")][0]
    n_cells = int(cells_line.split()[1])
    assert n_cells == 4 * mesh.n_triangles
    start = lines.index(cells_line) + 1
    for row in lines[start:start + n_cells]:
        parts = row.split()
        assert parts[0] == "3"
        assert all(0 <= int(p) < n_pts for p in parts[1:])
    types_start = lines.index(f"CELL_TYPES {n_cells}") + 1
    assert all(t == "5" for t in lines[types_start:types_start + n_cells])
    assert sum(1 for l in lines if l.startswith("SCALARS")) == 4
    assert sum(1 for l in lines if l.startswith("VECTORS")) == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_list_scenarios(capsys):
    assert cli_main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "energy-decay" in out
    assert "steric" in out
    assert "exponent-k" in out


def test_cli_run_small_scenario(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = energy-decay\nnx = 6\ndt = 1e-2\n"
                   "t_final = 0.03\n")
    code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    data = read_diagnostics_csv(tmp_path / "diagnostics.csv")
    assert data["t"].size == 4     # initial record + 3 steps
    assert np.all(np.diff(data["E_h"]) <= 1e-10 * abs(data["E_h"][0]))


def test_cli_snapshot_output(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = energy-decay\nnx = 6\ndt = 1e-2\n"
                   "t_final = 0.02\nsnapshot_times = 0.01\n")
    code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    snaps = [p for p in os.listdir(tmp_path) if p.endswith(".vtk")]
    assert len(snaps) == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("re = -2\n")
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    cfg.write_text("solver = direct\n")
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert "unknown key 'solver'" in capsys.readouterr().err


def test_cli_params_rejection_is_config_error(tmp_path, capsys):
    # values only the parameter set can judge still exit 1 as config errors
    cfg = tmp_path / "bad.cfg"
    for body in ("mu0 = 0.4\n",            # energy-decay has mu_inf = 0.5
                 "w = 1,2,3,4\n",          # not symmetric
                 "w = 1,0,0,0,1,0,0,0,1\n",   # 3x3 for two species
                 "re = nan\n", "lambda1 = nan\n", "mu0 = inf\n",
                 "b_shift = nan\n", "dt = inf\n"):
        cfg.write_text("nx = 6\n" + body)
        assert cli_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_cli_missing_config_is_config_error(tmp_path):
    assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_cli_structural_failure_exit_code(tmp_path, capsys):
    # steric initial data carries net charge; strict Neumann mode must abort
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = steric:1\nnx = 6\ndt = 1e-3\nt_final = 2e-3\n"
                   "neutralize_net_charge = false\n")
    code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "structural" in capsys.readouterr().err


def test_cli_scenario_unusable_out_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main(["scenario", "energy-decay", "--nx", "5", "--dt", "1e-2",
                     "--t-final", "0.02", "--out", str(taken)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_converge_unusable_out_fails_before_the_study(tmp_path, capsys,
                                                          monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("")

    def study(*args, **kw):
        raise AssertionError("the study ran before the output check")

    monkeypatch.setattr(manufactured, "convergence_study", study)
    assert cli_main(["converge", "--h-cells", "8", "--steps", "2,4",
                     "--out", str(taken)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("output", ["diagnostics.csv",
                                    "snapshot_t0.010000.vtk"])
def test_cli_unwritable_output_file_is_config_error(tmp_path, capsys,
                                                    output):
    # a directory where an output file goes: the run ends in exit 1, not
    # in an escaping IsADirectoryError
    out = tmp_path / "out"
    (out / output).mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = energy-decay\nnx = 5\ndt = 1e-2\n"
                   "t_final = 0.02\nsnapshot_times = 0.01\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: cannot write output" in err and output in err


def test_cli_scenario_unwritable_diagnostics_is_config_error(tmp_path,
                                                            capsys):
    out = tmp_path / "out"
    (out / "diagnostics.csv").mkdir(parents=True)
    assert cli_main(["scenario", "energy-decay", "--nx", "5", "--dt", "1e-2",
                     "--t-final", "0.02", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_converge_unwritable_table_is_config_error(tmp_path, capsys,
                                                       monkeypatch):
    (tmp_path / "convergence.csv").mkdir()
    monkeypatch.setattr(manufactured, "convergence_study",
                        lambda steps, h_cells: [])
    monkeypatch.setattr(manufactured, "format_convergence_table",
                        lambda rows: "")
    assert cli_main(["converge", "--h-cells", "8", "--steps", "2,4",
                     "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--h-cells", "0", "--steps", "2"],
                                  ["--steps", "4,2"], ["--steps", "-2"],
                                  ["--steps", "0"]])
def test_cli_converge_invalid_arguments_are_config_errors(tmp_path, capsys,
                                                          monkeypatch, args):
    def study(*args, **kw):
        raise AssertionError("the study ran with invalid arguments")

    monkeypatch.setattr(manufactured, "convergence_study", study)
    out = tmp_path / "out"
    assert cli_main(["converge", *args, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_usage_error_maps_to_config_exit():
    assert cli_main(["run"]) == 1          # missing --config
    assert cli_main(["not-a-command"]) == 1


def test_cli_converge_tiny(tmp_path, capsys):
    code = cli_main(["converge", "--h-cells", "8", "--steps", "2,4",
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "err_u" in out
    assert (tmp_path / "convergence.csv").exists()


def test_cli_scenario_command(tmp_path):
    code = cli_main(["scenario", "energy-decay", "--nx", "5",
                     "--dt", "1e-2", "--t-final", "0.02",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "diagnostics.csv").exists()


def test_cli_scenario_exits_with_the_worker_thread(tmp_path):
    # the transport worker thread, idle after the last step, must not hold
    # up the interpreter's exit
    import subprocess
    import sys
    from pathlib import Path

    import spnpflow

    src = str(Path(spnpflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-m", "spnpflow", "scenario", "energy-decay",
         "--nx", "5", "--dt", "1e-2", "--t-final", "0.03",
         "--out", str(tmp_path)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / "diagnostics.csv").read_text().splitlines()) == 5


def test_cli_structural_error_on_worker_exit_code(tmp_path, capsys,
                                                  monkeypatch):
    import threading

    from spnpflow.errors import NonFiniteError
    from spnpflow.sparse import Factorization

    real_solve = Factorization.solve
    raised = []

    def solve(self, b):
        if threading.current_thread() is not threading.main_thread():
            raised.append(1)
            raise NonFiniteError("doctored on the worker")
        return real_solve(self, b)

    monkeypatch.setattr(Factorization, "solve", solve)
    assert cli_main(["scenario", "energy-decay", "--nx", "5", "--dt", "1e-2",
                     "--t-final", "0.02", "--out", str(tmp_path)]) == 2
    assert raised
    assert "structural failure: doctored on the worker" \
        in capsys.readouterr().err


def test_identical_config_reproduces_csv(tmp_path):
    cfg = RunConfig(scenario="energy-decay", nx=5, dt=1e-2, t_final=0.03,
                    out_dir=str(tmp_path / "a"))
    run_config(cfg)
    cfg2 = RunConfig(scenario="energy-decay", nx=5, dt=1e-2, t_final=0.03,
                     out_dir=str(tmp_path / "b"))
    run_config(cfg2)
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b


# ----------------------------------------------------------------------
# one parser table, one run path, one array snapshot writer
# ----------------------------------------------------------------------

def test_parser_table_keys_are_the_runconfig_fields():
    import dataclasses

    from spnpflow import io_cli

    assert set(io_cli._PARSERS) \
        == {f.name for f in dataclasses.fields(RunConfig)}


def test_parse_every_key():
    text = ("scenario = energy-decay\nnx = 6\nny = 4\ndt = 0.005\n"
            "t_final = 0.02\nre = 2\npe = 40\nco = 0.5\nlam = 0.75\n"
            "mu0 = 1.5\nmu_inf = 0.25\nlambda1 = 3\nk = 0.4\nb_shift = 7\n"
            "w = 4,1,1,4\nstrict_energy = yes\n"
            "neutralize_net_charge = off\nout_dir = results\n"
            "snapshot_times = 0.01,0.02\n")
    cfg = RunConfig(scenario="energy-decay", nx=6, ny=4, dt=0.005,
                    t_final=0.02, re=2.0, pe=40.0, co=0.5, lam=0.75,
                    mu0=1.5, mu_inf=0.25, lambda1=3.0, k=0.4, b_shift=7.0,
                    w=(4.0, 1.0, 1.0, 4.0), strict_energy=True,
                    neutralize_net_charge=False, out_dir="results",
                    snapshot_times=(0.01, 0.02))
    assert parse_config(text) == cfg
    scen = build_scenario(cfg)
    assert (scen.nx, scen.ny) == (6, 4)
    assert (scen.params.b_shift, scen.params.lambda1) == (7.0, 3.0)
    assert np.array_equal(scen.params.w_steric, [[4.0, 1.0], [1.0, 4.0]])
    assert scen.neutralize_net_charge is False
    assert scen.snapshot_times == (0.01, 0.02)


def test_parse_bad_boolean_is_a_bad_value():
    with pytest.raises(ConfigError,
                       match="line 2: bad value for 'strict_energy'"):
        parse_config("nx = 4\nstrict_energy = maybe\n")


def test_build_scenario_rejects_bad_sizes_and_values():
    for cfg, message in ((RunConfig(nx=0), "'nx' must be >= 1"),
                         (RunConfig(ny=-2), "'ny' must be >= 1"),
                         (RunConfig(scenario="steric:9"),
                          "invalid parameters"),
                         (RunConfig(w=(1.0, 2.0, 3.0)),
                          "invalid parameters")):
        with pytest.raises(ConfigError, match=message):
            build_scenario(cfg)


def test_scenario_and_run_commands_write_the_same_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["scenario", "energy-decay", "--nx", "5", "--dt",
                     "1e-2", "--t-final", "0.03", "--out", str(a)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = energy-decay\nnx = 5\ndt = 1e-2\n"
                   "t_final = 0.03\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "diagnostics.csv").read_bytes() \
        == (b / "diagnostics.csv").read_bytes()


def test_scenario_command_builds_its_scenario_once(tmp_path, monkeypatch):
    from spnpflow import io_cli

    calls = []
    real = io_cli.build_scenario
    monkeypatch.setattr(io_cli, "build_scenario",
                        lambda cfg: calls.append(cfg) or real(cfg))
    assert cli_main(["scenario", "energy-decay", "--nx", "4", "--dt",
                     "1e-2", "--t-final", "0.01", "--out",
                     str(tmp_path)]) == 0
    assert len(calls) == 1
    # the run command too, however the document reaches it
    config = tmp_path / "run.cfg"
    config.write_text("scenario = energy-decay\nnx = 4\ndt = 1e-2\n"
                      "t_final = 0.01\n")
    calls.clear()
    assert cli_main(["run", "--config", str(config), "--out",
                     str(tmp_path / "run")]) == 0
    assert len(calls) == 1


def test_snapshot_matches_the_loop_writer(tmp_path):
    import oracles
    from spnpflow.scenarios import scenario_exponent_k

    # a stepped state, so every block carries distinct values
    scen = scenario_exponent_k(0.4, nx=3, dt=1e-3)
    mesh = scen.build_mesh()
    stepper = scen.make_stepper(mesh=mesh)
    stepper.run(n_steps=2)
    write_snapshot(stepper.curr, mesh, tmp_path / "array.vtk")
    oracles.write_snapshot_loop(stepper.curr, mesh, tmp_path / "loop.vtk")
    assert (tmp_path / "array.vtk").read_bytes() \
        == (tmp_path / "loop.vtk").read_bytes()
