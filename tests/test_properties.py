"""Property tests: the structure guarantees of the scheme on random problems.

Each example draws a small mesh, a boundary mode, a positive semidefinite
steric matrix, the Carreau constants, a step size (log-uniform in [1e-3, 1])
and charge-neutral initial data (the shape of the benchmark's seeded
cavity), then takes two or three steps.  The guarantees are positivity, mass
to 1e-10, non-increasing discrete energy (zero-mean potential only), zeta2
>= -1e-12 and the divergence and split identities to 1e-9.  A run may
instead end in a package error, but only in one that the command line maps
to a documented exit code, never in the scheme's own positivity, mass,
energy or zeta2 check, and never in the net-charge check, since the data
are neutral.
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


def assert_guarantees(records, energy):
    """Positivity, mass, zeta2 and the identities at every new level, and
    the discrete energy non-increasing when ``energy``."""
    mass0 = np.array(records[0].masses)
    e_ref = abs(records[0].e_total)
    for prev, rec in zip(records, records[1:]):
        assert min(rec.min_c) > 0.0
        assert np.all(np.abs(np.array(rec.masses) - mass0)
                      <= MASS_RTOL * mass0)
        if energy:
            assert rec.e_total <= prev.e_total + ENERGY_RTOL * e_ref
        assert rec.zeta2 >= ZETA2_FLOOR
        assert rec.div_residual <= IDENTITY_TOL
        assert rec.split_residual <= IDENTITY_TOL


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
        dt=10.0 ** draw(st.floats(-3.0, 0.0)), t_final=1.0)
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
        assert not isinstance(exc, errors.CompatibilityError), exc
        assert exit_code(exc) in DOCUMENTED_EXIT_CODES
        return

    assert len(records) == n_steps + 1
    assert_guarantees(records, energy=zero_mean)
    for c in stepper.curr.c:
        assert c.coefficients.min() > 0.0 and c.quad.min() > 0.0


@pytest.mark.parametrize("nx", [pytest.param(2, marks=pytest.mark.xfail(
    strict=True, raises=errors.CompatibilityError,
    reason="the level-0 quadrature imbalance of the neutral initial charge "
           "on 2x2 cells, 4.37e-6, exceeds 1e-8 of the ion content, 24, so "
           "the energy-decay set-up exits 2")), 3])
def test_energy_decay_sets_up_on_coarse_meshes(nx):
    stepper = scenario_energy_decay(nx=nx, dt=1e-2).make_stepper()
    records = stepper.run(n_steps=2)
    assert min(records[-1].min_c) > 0.0


def test_neutral_cavity_stays_compatible_as_charge_relaxes():
    # the net charge stays at its level-0 quadrature value while the charge
    # density relaxes, and the ion content it is measured against stays too
    scen = scenario_energy_decay(nx=4, dt=5e-2)
    scen.params = dataclasses.replace(scen.params, w_steric=8.0 * np.eye(2))
    records = scen.make_stepper().run(n_steps=3)
    assert min(records[-1].min_c) > 0.0


@pytest.mark.parametrize("dt", [0.2, 5.0, 50.0])
def test_cavity_keeps_the_guarantees_at_large_steps(dt):
    scen = scenario_energy_decay(nx=16, dt=dt)
    scen.strict_energy = True
    records = scen.make_stepper().run(n_steps=10)
    assert len(records) == 11
    assert_guarantees(records, energy=True)
    # the net charge stays the level-0 quadrature imbalance, to rounding of
    # the ion content sum_i |z_i| int c_i (z = (1, -1))
    content = sum(records[0].masses)
    for rec in records[1:]:
        assert abs(rec.multiplier - records[0].multiplier) <= 1e-14 * content
    # xi is not asserted: the energy bound holds at any step, but at
    # dt = 5 xi ends near -0.31, which the auxiliary-variable law allows


@pytest.mark.xfail(strict=True, raises=errors.StructuralViolation,
                   reason="CHANGES.md FOUND on exp underflow at large "
                          "steps: at step 3 sigma spans [-679, 283], so "
                          "log c = sigma + log(scale) falls below -745, the "
                          "concentration's minimum reads 0.0 and the "
                          "positivity check raises")
def test_large_step_keeps_sigma_above_exp_underflow():
    params = model.Params(
        re=1.0, pe=50.0, co=0.6, lam=0.2, lambda1=0.1, mu0=2.0, mu_inf=1.0,
        k=1.0, z=(1, -1),
        w_steric=np.array([[1.0, 1 / 16], [1 / 16, 1 / 256]]),
        dt=np.e, t_final=1.0)

    def common(x, y):
        return 12.0 - 0.5 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))

    def wave(x, y):
        return 10.0 * np.cos(np.pi * x) * np.cos(np.pi * y)

    stepper = Stepper(build_rect_mesh(0.0, 1.0, 0.0, 1.0, 4, 7), params,
                      strict_energy=True)
    stepper.set_initial([lambda x, y: common(x, y) + wave(x, y),
                         lambda x, y: common(x, y) - wave(x, y)])
    records = stepper.run(n_steps=3)
    assert min(records[-1].min_c) > 0.0
