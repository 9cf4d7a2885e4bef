"""Property tests: the structure guarantees of the scheme on random problems.

Each example draws a small mesh, a boundary mode, a positive semidefinite
steric matrix, the Carreau constants, a step size and charge-neutral initial
data (the shape of the benchmark's seeded cavity), then takes two or three
steps.  The guarantees are positivity, mass to 1e-10, non-increasing
discrete energy (zero-mean potential only), zeta2 >= -1e-12 and the
divergence and split identities to 1e-9.  A run may instead end in a package
error, but only in one that the command line maps to a documented exit code,
and never in the scheme's own positivity, mass, energy or zeta2 check.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnpflow import errors, io_cli, model
from spnpflow.mesh import build_rect_mesh
from spnpflow.scenarios import scenario_energy_decay
from spnpflow.scheme import ENERGY_RTOL, MASS_RTOL, ZETA2_FLOOR, Stepper

PACKAGE_ERRORS = tuple(v for v in vars(errors).values()
                       if isinstance(v, type) and issubclass(v, Exception))
DOCUMENTED_EXIT_CODES = {1, 2, 3}
# the StructuralViolation quantities the guarantees rule out
GUARANTEED = {"positivity", "mass", "energy", "zeta2"}
IDENTITY_TOL = 1e-9


def exit_code(exc):
    """The command line's exit status for ``exc`` raised inside a run."""
    with mock.patch.object(io_cli, "_dispatch", side_effect=exc):
        return io_cli.cli_main(["list-scenarios"])


@st.composite
def problems(draw):
    unit = st.floats(0.0, 1.0)
    a = np.array([[draw(st.floats(0.0, 2.0)) for _ in range(2)]
                  for _ in range(2)])
    mu_inf = draw(st.floats(0.1, 1.0))
    params = model.Params(
        re=1.0, pe=50.0, co=0.6, lam=0.2, lambda1=0.1,
        mu0=mu_inf + draw(st.floats(0.05, 2.0)), mu_inf=mu_inf,
        k=draw(st.floats(0.2, 2.0)), z=(1, -1),
        # nonnegative entries and positive semidefinite by construction
        w_steric=a @ a.T,
        dt=draw(st.floats(1e-3, 5e-2)), t_final=1.0)
    amp = 8.5 + 1.5 * draw(unit)
    b, c = (draw(unit) - 0.5 for _ in range(2))

    def common(x, y):
        return 12.0 + b * np.cos(2 * np.pi * x) + c * np.cos(2 * np.pi * y)

    def wave(x, y):
        return amp * np.cos(np.pi * x) * np.cos(np.pi * y)

    # c+ - c- integrates to zero over the unit square; both stay >= 1
    c0_fns = [lambda x, y: common(x, y) + wave(x, y),
              lambda x, y: common(x, y) - wave(x, y)]
    nx, ny = draw(st.integers(4, 8)), draw(st.integers(4, 8))
    bc_mode = draw(st.sampled_from(["zero_mean", "dirichlet_lr"]))
    return params, c0_fns, nx, ny, bc_mode, draw(st.integers(2, 3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems())
def test_structure_guarantees_on_random_problems(problem):
    params, c0_fns, nx, ny, bc_mode, n_steps = problem
    zero_mean = bc_mode == "zero_mean"
    try:
        stepper = Stepper(build_rect_mesh(0.0, 1.0, 0.0, 1.0, nx, ny), params,
                          bc_mode=bc_mode, strict_energy=True,
                          check_energy=zero_mean)
        stepper.set_initial(c0_fns)
        records = stepper.run(n_steps=n_steps)
    except PACKAGE_ERRORS as exc:
        assert getattr(exc, "quantity", None) not in GUARANTEED, exc
        assert exit_code(exc) in DOCUMENTED_EXIT_CODES
        return

    assert len(records) == n_steps + 1
    mass0 = np.array(records[0].masses)
    e_ref = abs(records[0].e_total)
    for prev, rec in zip(records, records[1:]):
        assert min(rec.min_c) > 0.0
        assert np.all(np.abs(np.array(rec.masses) - mass0)
                      <= MASS_RTOL * mass0)
        if zero_mean:
            assert rec.e_total <= prev.e_total + ENERGY_RTOL * e_ref
        assert rec.zeta2 >= ZETA2_FLOOR
        assert rec.div_residual <= IDENTITY_TOL
        assert rec.split_residual <= IDENTITY_TOL
    for c in stepper.curr.c:
        assert c.coefficients.min() > 0.0 and c.quad.min() > 0.0


@pytest.mark.parametrize("nx", [2, 3])
@pytest.mark.xfail(strict=True, raises=errors.CompatibilityError,
                   reason="coarse-mesh compatibility defect, CHANGES.md "
                          "FOUND on fem.ZeroMeanSolver.solve: the "
                          "quadrature error of the neutral initial charge "
                          "on 2-3 cells exceeds 1e-8 * sum|b|, so the "
                          "energy-decay set-up exits 2")
def test_energy_decay_sets_up_on_coarse_meshes(nx):
    stepper = scenario_energy_decay(nx=nx, dt=1e-2).make_stepper()
    records = stepper.run(n_steps=2)
    assert min(records[-1].min_c) > 0.0


@pytest.mark.xfail(strict=True, raises=errors.CompatibilityError,
                   reason="CHANGES.md FOUND on the zero-mean compatibility "
                          "tolerance: 1e-8 * sum|b| shrinks as the charge "
                          "relaxes, while the level-0 quadrature imbalance "
                          "of the neutral data stays")
def test_neutral_cavity_stays_compatible_as_charge_relaxes():
    scen = scenario_energy_decay(nx=4, dt=5e-2)
    scen.params = dataclasses.replace(scen.params, w_steric=8.0 * np.eye(2))
    records = scen.make_stepper().run(n_steps=3)
    assert min(records[-1].min_c) > 0.0
