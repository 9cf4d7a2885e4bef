"""Benchmark workloads: inputs made from a seed, one timed solve, and the
correctness gate applied to every step.

A workload drives spnpflow through its public API the way
``io_cli.run_config`` and ``manufactured.run_manufactured`` do: build the
mesh, construct the ``Stepper``, set the initial state, step a fixed horizon
and write ``diagnostics.csv``.

Seed ``DEFAULT_SEED`` reproduces each preset exactly and is the seed the
committed reference in ``reference.json`` was recorded with.  Any other seed
perturbs the initial data inside ranges that keep the workload's properties
(same mesh, dt and steps; positive concentrations; zero net charge for the
cavity), and such runs are checked by the structure invariants only.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# package functions are called through their modules, so the tracer's
# wrappers (installed on the modules) see these calls too
from spnpflow import (errors, fem, io_cli, manufactured, mesh as meshes,
                      model, scenarios)
from spnpflow.scheme import Stepper

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# per-step structure gate (the scheme's own MASS_RTOL / ENERGY_RTOL)
MASS_RTOL = 1e-10
ENERGY_RTOL = 1e-10
# Final-state gate against the committed reference.  Not bitwise: a
# fill-reducing ordering or another solver changes rounding.  The forced
# workload's L2 errors are differences of nearly equal fields, so rounding
# moves them relatively more than the diagnostics integrals.
RECORD_RTOL = 1e-8
ERROR_RTOL = 1e-6

# every exception type the package documents; any of them fails a step
PACKAGE_ERRORS = tuple(v for v in vars(errors).values()
                       if isinstance(v, type) and issubclass(v, Exception))

RECORD_FIELDS = ("t", "e_total", "e_spnp", "masses", "min_c", "xi", "r",
                 "visc_dissip", "ionic_dissip")


@dataclass
class Workload:
    """One fixed problem: how to set it up and how to judge its results."""

    horizon: int                      # time steps per solve
    setup: Callable[..., Stepper]     # (sources) -> Stepper with level-0 state
    final_values: Callable[[Stepper], dict]
    rtol: float
    check_energy: bool
    sources: object = None            # SourcePack the benchmark built, if any
    mass_targets: Callable[[Stepper], list] = \
        lambda stepper: stepper.mass0
    reference: dict | None = None     # expected final_values, when known


@dataclass
class Solve:
    """Timings and gate outcome of one fixed-horizon solve."""

    setup_s: float = 0.0
    step_s: list = field(default_factory=list)
    csv_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    final: dict | None = None         # final_values of a completed horizon


def _record_values(stepper):
    rec = stepper.records[-1]
    out = {}
    for name in RECORD_FIELDS:
        v = getattr(rec, name)
        out[name] = [float(x) for x in v] if isinstance(v, tuple) else float(v)
    return out


def _cavity40(seed, nx):
    """Energy-decay cavity: Carreau k=0.2 (momentum re-factored each step),
    diagonal steric term, zero-mean Neumann potential."""
    scen = scenarios.scenario_energy_decay(nx=nx, dt=1e-2)
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng(seed)
        a = rng.uniform(8.5, 10.0)
        b, c = rng.uniform(-0.5, 0.5, size=2)

        # The charge c+ - c- keeps the preset's shape, so the net charge is
        # as zero as the preset's; the common part h changes both species
        # alike.  12 - |h| - a >= 1 keeps them positive.
        def wave(x, y):
            return a * np.cos(np.pi * x) * np.cos(np.pi * y)

        def h(x, y):
            return b * np.cos(2 * np.pi * x) + c * np.cos(2 * np.pi * y)

        scen.c0_fns = [lambda x, y: 12.0 + h(x, y) + wave(x, y),
                       lambda x, y: 12.0 + h(x, y) - wave(x, y)]

    def setup(sources):
        return scen.make_stepper(mesh=scen.build_mesh())

    return Workload(horizon=10, setup=setup,
                    final_values=_record_values, rtol=RECORD_RTOL,
                    check_energy=True)


def _forced64(seed, nx):
    """Sec. 4.1 manufactured problem at 64 cells, dt = 0.5/64.

    The exact solution fixes the initial data and the forcing, so the seed
    changes nothing here and every run is checked against the reference.
    """
    params = model.Params(dt=0.5 / 64, t_final=0.5,
                          **manufactured.SEC41_PARAMS)
    exact = manufactured.exact_solution_sec41(params)
    pack = manufactured.build_source_pack(
        exact, manufactured.source_terms(exact, params))
    masses = (1.2, 1.2)   # the exact masses are time-independent

    def setup(sources):
        mesh = meshes.build_rect_mesh(0.0, 1.0, 0.0, 1.0, nx, nx)
        stepper = Stepper(mesh, params, sources=sources,
                          mass_schedule=lambda t: masses,
                          check_mass=False, check_energy=False)
        stepper.set_initial(
            [lambda x, y: exact.cp(x, y, 0.0),
             lambda x, y: exact.cn(x, y, 0.0)],
            u0_fn=lambda x, y: exact.u(x, y, 0.0),
            p0_fn=lambda x, y: exact.p(x, y, 0.0))
        return stepper

    def errors_l2(stepper):
        # as manufactured.run_manufactured measures them
        mesh, s, T = stepper.mesh, stepper.curr, stepper.curr.t
        return {
            "u": fem.error_norm_l2(s.u, lambda x, y: exact.u(x, y, T), mesh),
            "p": fem.error_norm_l2(s.p, lambda x, y: exact.p(x, y, T), mesh),
            "cp": model.conc_error_l2(s.c[0],
                                      lambda x, y: exact.cp(x, y, T), mesh),
            "cn": model.conc_error_l2(s.c[1],
                                      lambda x, y: exact.cn(x, y, T), mesh),
            "V": fem.error_norm_l2(s.vbar, lambda x, y: exact.v(x, y, T),
                                   mesh),
        }

    # forcing injects energy, so only positivity and mass are gated per step
    return Workload(horizon=3, setup=setup,
                    final_values=errors_l2, rtol=ERROR_RTOL,
                    check_energy=False, sources=pack,
                    mass_targets=lambda stepper: masses)


BUILDERS = {"cavity40": (_cavity40, 40),
            "forced64": (_forced64, 64)}
NAMES = tuple(BUILDERS)
SEED_FREE = ("forced64",)


def make_workload(name, seed=DEFAULT_SEED, nx=None, reference=None):
    """Workload ``name`` built from ``seed``; ``nx`` shrinks the mesh for
    tests.  The committed reference applies only to the preset size and,
    unless the workload ignores its seed, to the default seed."""
    build, default_nx = BUILDERS[name]
    wl = build(seed, nx or default_nx)
    if reference is None and nx in (None, default_nx) \
            and (seed == DEFAULT_SEED or name in SEED_FREE):
        reference = load_reference().get(name)
        if reference is not None and reference["horizon"] != wl.horizon:
            raise ValueError(f"reference for {name} was recorded over "
                             f"{reference['horizon']} steps, the workload "
                             f"runs {wl.horizon}; record it again")
    wl.reference = reference
    return wl


def load_reference():
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------

def step_problems(workload, stepper, targets):
    """Violations of the structure guarantees by the newest record."""
    rec = stepper.records[-1]
    out = []
    for i, (mn, m) in enumerate(zip(rec.min_c, rec.masses)):
        if not mn > 0.0:
            out.append(f"species {i} min concentration {mn!r} <= 0")
        if not abs(m - targets[i]) <= MASS_RTOL * abs(targets[i]):
            out.append(f"species {i} mass {m!r} drifted from {targets[i]!r}")
    if workload.check_energy:
        e_new, e_old = rec.e_total, stepper.records[-2].e_total
        if not e_new <= e_old + ENERGY_RTOL * abs(stepper.records[0].e_total):
            out.append(f"discrete energy rose {e_old!r} -> {e_new!r}")
    return out


def _flat(v):
    return np.atleast_1d(np.asarray(v, dtype=np.float64))


def reference_problems(workload, values):
    """Final values outside the committed reference's relative tolerance."""
    ref = workload.reference
    if ref is None:
        return []
    out = []
    for key, expected in ref["values"].items():
        got, want = _flat(values.get(key, np.nan)), _flat(expected)
        if got.shape != want.shape or not np.all(
                np.abs(got - want) <= workload.rtol * np.abs(want)):
            out.append(f"final {key} = {values.get(key)!r}, reference "
                       f"{expected!r} (rtol {workload.rtol:g})")
    return out


# ----------------------------------------------------------------------
# one solve
# ----------------------------------------------------------------------

def solve(workload, csv_path, sources=None, span=None):
    """Set up, step the fixed horizon and write diagnostics.csv, timing
    each part.  ``span(name)`` opens a trace span when tracing.

    A step fails when it raises a package error or breaks a structure
    guarantee; once one raises, the rest of the horizon counts as failed.
    A final state outside the reference tolerance fails every step.
    """
    span = span or (lambda name: contextlib.nullcontext())
    res = Solve(attempted=workload.horizon)
    t_start = time.perf_counter()
    stepper = None
    try:
        with span("bench.setup"):
            stepper = workload.setup(sources or workload.sources)
        res.setup_s = time.perf_counter() - t_start
        for k in range(workload.horizon):
            t0 = time.perf_counter()
            with span("scheme.step"):
                if k == 0:
                    stepper.bootstrap_first_step()
                else:
                    stepper.step()
            res.step_s.append(time.perf_counter() - t0)
            bad = step_problems(workload, stepper,
                                workload.mass_targets(stepper))
            if bad:
                res.failed += 1
                res.problems += [f"step {k + 1}: {b}" for b in bad]
    except PACKAGE_ERRORS as exc:
        done = len(res.step_s)
        res.failed += workload.horizon - done
        res.problems.append(f"step {done + 1}: {type(exc).__name__}: {exc}")
    t0 = time.perf_counter()
    if stepper is not None:
        io_cli.write_diagnostics_csv(stepper.records, csv_path)
    t_end = time.perf_counter()
    res.csv_s = t_end - t0
    res.wall_s = t_end - t_start
    if stepper is not None and len(res.step_s) == workload.horizon:
        res.final = workload.final_values(stepper)
        bad = reference_problems(workload, res.final)
        if bad:
            res.failed = workload.horizon
            res.problems += bad
    return res
