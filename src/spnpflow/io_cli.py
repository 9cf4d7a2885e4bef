"""Run configuration, diagnostics/field output, and the command line.

Configuration is a flat ``key = value`` document with ``#`` comments; every
number written to disk uses 17 significant digits so values round-trip
through text without loss.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import manufactured, scenarios
from .errors import (CompatibilityError, ConfigError, NonFiniteError,
                     PositivityError, SolverError, StructuralViolation)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STRUCTURAL = 2
EXIT_SOLVER = 3

_FMT = "%.17g"


@dataclass
class RunConfig:
    """Flat run description: scenario selector plus overrides and flags."""

    scenario: str = "energy-decay"
    nx: int | None = None
    ny: int | None = None
    dt: float | None = None
    t_final: float | None = None
    re: float | None = None
    pe: float | None = None
    co: float | None = None
    lam: float | None = None
    mu0: float | None = None
    mu_inf: float | None = None
    lambda1: float | None = None
    k: float | None = None
    b_shift: float | None = None
    w: tuple | None = None          # row-major steric matrix entries
    strict_energy: bool = False
    neutralize_net_charge: bool | None = None
    out_dir: str = "."
    snapshot_times: tuple = ()


# scenario name before any ":" -> (factory, type of the argument after
# it, or None for a name without one)
_SCENARIOS = {"energy-decay": (scenarios.scenario_energy_decay, None),
              "steric": (scenarios.scenario_steric, int),
              "exponent-k": (scenarios.scenario_exponent_k, float)}
# the RunConfig keys that override a scenario's Params of the same name
_PARAM_KEYS = ("re", "pe", "co", "lam", "mu0", "mu_inf", "lambda1", "k",
               "b_shift")


def _parse_bool(text):
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean: {text!r}")


def _parse_floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


# every RunConfig field -> the parser of its value text, which raises
# ValueError on a bad value
_PARSERS = {"scenario": str, "out_dir": str, "nx": int, "ny": int,
            "strict_energy": _parse_bool, "neutralize_net_charge": _parse_bool,
            "w": _parse_floats, "snapshot_times": _parse_floats,
            **dict.fromkeys(("dt", "t_final") + _PARAM_KEYS, float)}


def parse_config(text):
    """Parse a key = value document into a validated RunConfig."""
    cfg = _read_config(text)
    build_scenario(cfg)         # checks the values
    return cfg


def _read_config(text):
    """The RunConfig of a key = value document, its values not yet checked
    against a scenario."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") \
                from exc
    return RunConfig(**values)


def _scenario_factory(name):
    """The preset factory a scenario name selects, with its argument bound;
    the factory itself checks the argument's value."""
    if name == "manufactured":
        raise ConfigError("manufactured runs go through the converge command "
                          "or run_manufactured")
    prefix, colon, arg = name.partition(":")
    factory, arg_type = _SCENARIOS.get(prefix, (None, None))
    if factory is None or bool(colon) != (arg_type is not None):
        raise ConfigError(f"unknown scenario {name!r}")
    if arg_type is None:
        return factory
    try:
        value = arg_type(arg)
    except ValueError as exc:
        raise ConfigError(f"bad argument in scenario {name!r}") from exc
    return functools.partial(factory, value)


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------

CSV_HEADER = ("t,E_h,E_spnp,mass_p,mass_n,min_cp,min_cn,xi,r,"
              "visc_dissip,ionic_dissip")


def write_diagnostics_csv(records, path):
    """One row per diagnostics record at full double precision."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            if len(rec.masses) != 2:
                raise ValueError("diagnostics CSV expects two species")
            row = (rec.t, rec.e_total, rec.e_spnp, rec.masses[0],
                   rec.masses[1], rec.min_c[0], rec.min_c[1], rec.xi, rec.r,
                   rec.visc_dissip, rec.ionic_dissip)
            fh.write(",".join(_FMT % v for v in row) + "\n")


def _refined_cells(mesh):
    """Split every quadratic triangle into 4 linear cells on its 6 dofs."""
    nv = mesh.n_nodes
    tri = mesh.triangles
    mid = nv + mesh.tri_edges      # dof ids of edge midpoints (m01, m12, m20)
    cells = np.empty((4 * mesh.n_triangles, 3), dtype=np.int64)
    cells[0::4] = np.column_stack([tri[:, 0], mid[:, 0], mid[:, 2]])
    cells[1::4] = np.column_stack([tri[:, 1], mid[:, 1], mid[:, 0]])
    cells[2::4] = np.column_stack([tri[:, 2], mid[:, 2], mid[:, 1]])
    cells[3::4] = mid
    return cells


def write_snapshot(state, mesh, path):
    """Legacy-VTK unstructured snapshot of c_p, c_n, V, p and u.

    Quadratic fields are written at their own dofs on a 4-way refined
    triangulation; the linear pressure is evaluated at the same points
    (edge midpoints average the endpoint values).
    """
    p2 = state.vbar.dofmap
    coords = p2.dof_coords()
    cells = _refined_cells(mesh)
    nv = mesh.n_nodes
    p_vals = np.concatenate([
        state.p.coefficients,
        0.5 * (state.p.coefficients[mesh.edges[:, 0]]
               + state.p.coefficients[mesh.edges[:, 1]]),
    ])
    scalars = [("c_p", state.c[0].coefficients),
               ("c_n", state.c[1].coefficients),
               ("V", state.v.coefficients),
               ("p", p_vals)]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(_FMT % state.t + " snapshot\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {coords.shape[0]} double\n")
        np.savetxt(fh, coords, fmt=f"{_FMT} {_FMT} 0")
        fh.write(f"CELLS {cells.shape[0]} {4 * cells.shape[0]}\n")
        np.savetxt(fh, cells, fmt="3 %d %d %d")
        fh.write(f"CELL_TYPES {cells.shape[0]}\n")
        fh.write("5\n" * cells.shape[0])
        fh.write(f"POINT_DATA {coords.shape[0]}\n")
        for name, vals in scalars:
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            np.savetxt(fh, vals, fmt=_FMT)
        fh.write("VECTORS u double\n")
        np.savetxt(fh, np.column_stack([state.u.component(0),
                                        state.u.component(1)]),
                   fmt=f"{_FMT} {_FMT} 0")


# ----------------------------------------------------------------------
# running configs
# ----------------------------------------------------------------------

def _given(cfg, keys):
    """The config values of ``keys`` that are set, by key."""
    return {key: getattr(cfg, key) for key in keys
            if getattr(cfg, key) is not None}


def build_scenario(cfg):
    """Scenario object for a config, with overrides applied.  Raises
    ConfigError for a config that selects no scenario, or for values that
    the scenario or its ``Params`` reject."""
    for key, v in _given(cfg, ("nx", "ny")).items():
        if v < 1:
            raise ConfigError(f"'{key}' must be >= 1, got {v}")
    factory = _scenario_factory(cfg.scenario)
    try:
        scen = factory(**_given(cfg, ("nx", "dt", "t_final")))
        param_over = _given(cfg, _PARAM_KEYS)
        if cfg.w is not None:
            n = int(round(len(cfg.w) ** 0.5))
            param_over["w_steric"] = np.asarray(cfg.w).reshape(n, n)
        if param_over:
            scen.params = replace(scen.params, **param_over)
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    if cfg.ny is not None:
        scen.ny = cfg.ny
    if cfg.neutralize_net_charge is not None:
        scen.neutralize_net_charge = cfg.neutralize_net_charge
    if cfg.snapshot_times:
        scen.snapshot_times = cfg.snapshot_times
    return scen


def _output(write, *args, action="write output", **kwargs):
    """Call an output writer, or create the output directory before any
    run; a path that cannot hold output is a config error."""
    try:
        write(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot {action}: {exc}") from exc


def run_config(cfg):
    """Run a scenario config end to end, writing diagnostics and snapshots."""
    scen = build_scenario(cfg)
    out_dir = cfg.out_dir
    _output(os.makedirs, out_dir, exist_ok=True,
            action="create output directory")
    mesh = scen.build_mesh()
    stepper = scen.make_stepper(mesh=mesh, strict_energy=cfg.strict_energy)
    snaps = []

    def snapshot_cb(state, t):
        path = os.path.join(out_dir, f"snapshot_t{t:.6f}.vtk")
        _output(write_snapshot, state, mesh, path)
        snaps.append(path)

    records = stepper.run(snapshot_times=scen.snapshot_times,
                          snapshot_cb=snapshot_cb)
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    _output(write_diagnostics_csv, records, csv_path)
    return records, csv_path, snaps


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spnpflow",
        description="Carreau fluid / steric ion-transport simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configuration file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)

    conv_p = sub.add_parser("converge",
                            help="temporal convergence study (forced problem)")
    conv_p.add_argument("--h-cells", type=int, default=64)
    conv_p.add_argument("--steps", default="8,16,32,64")
    conv_p.add_argument("--out", default=".")

    scen_p = sub.add_parser("scenario", help="run a named preset")
    scen_p.add_argument("name")
    scen_p.add_argument("--nx", type=int, default=None)
    scen_p.add_argument("--dt", type=float, default=None)
    scen_p.add_argument("--t-final", type=float, default=None)
    scen_p.add_argument("--out", default=".")
    scen_p.add_argument("--strict", action="store_true",
                        help="make the energy-decay check a hard error")

    sub.add_parser("list-scenarios", help="print the available presets")
    return parser


def cli_main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StructuralViolation, PositivityError, CompatibilityError,
            NonFiniteError) as exc:
        print(f"structural failure: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _dispatch(args):
    if args.command == "list-scenarios":
        print("energy-decay        Coulomb-driven cavity (energy/mass checks)")
        print("steric:<0..4>       steric-matrix sweep with tanh fronts")
        print("exponent-k:<value>  shear-exponent study, side-driven potential")
        return EXIT_OK

    if args.command == "converge":
        try:
            steps = [int(s) for s in args.steps.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --steps list: {exc}") from exc
        if not steps:
            raise ConfigError("--steps must name at least one count")
        if args.h_cells < 1:
            raise ConfigError(f"--h-cells must be >= 1, got {args.h_cells}")
        if steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
            raise ConfigError(f"--steps must be counts >= 1 in increasing "
                              f"order, got {args.steps}")
        _output(os.makedirs, args.out, exist_ok=True,
                action="create output directory")
        rows = manufactured.convergence_study(steps, args.h_cells)
        print(manufactured.format_convergence_table(rows))
        path = os.path.join(args.out, "convergence.csv")
        _output(manufactured.write_convergence_csv, rows, path)
        print(f"wrote {path}")
        return EXIT_OK

    if args.command == "run":
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        # run_config checks the values as it builds the scenario
        cfg = _read_config(text)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
    elif args.command == "scenario":
        cfg = RunConfig(scenario=args.name, nx=args.nx, dt=args.dt,
                        t_final=args.t_final, out_dir=args.out,
                        strict_energy=args.strict)
    else:
        raise ConfigError(f"unknown command {args.command!r}")
    records, csv_path, snaps = run_config(cfg)
    print(f"wrote {csv_path} ({len(records)} records, "
          f"{len(snaps)} snapshots)")
    return EXIT_OK


def main():
    raise SystemExit(cli_main())
