import gc
import os
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from spnpflow import fem, model, scheme
from spnpflow.errors import (CompatibilityError, PositivityError,
                             StructuralViolation)
from spnpflow.mesh import build_rect_mesh, dof_map
from spnpflow.scheme import Stepper


def make_params(**kw):
    base = dict(re=1.0, pe=2.0, co=5.0, lam=1.0, mu0=1.0, mu_inf=0.5,
                lambda1=1.0, k=0.5, z=(1, -1),
                w_steric=np.array([[2.0, 1.0], [1.0, 2.0]]),
                dt=1e-2, t_final=0.1)
    base.update(kw)
    return model.Params(**base)


def uniform_stepper(n=4, **kw):
    mesh = build_rect_mesh(0, 1, 0, 1, n, n)
    stepper = Stepper(mesh, make_params(**kw.pop("params_kw", {})), **kw)
    stepper.set_initial([lambda x, y: 1.0 + 0 * x, lambda x, y: 1.0 + 0 * x])
    return stepper


def sigma_history(st):
    """The current sigma coefficients, as the transport stage's history."""
    return [c.sigma.coefficients.copy() for c in st.curr.c]


# ----------------------------------------------------------------------
# trivial stationary dynamics
# ----------------------------------------------------------------------

def test_constant_state_is_stationary():
    st = uniform_stepper(n=4)
    st.run(n_steps=5)
    assert np.abs(st.curr.c[0].sigma.coefficients).max() <= 1e-12
    assert np.abs(st.curr.u.coefficients).max() <= 1e-12
    assert np.abs(st.curr.p.coefficients).max() <= 1e-12
    recs = st.records
    assert abs(recs[-1].e_total - recs[0].e_total) <= 1e-12 * recs[0].e_total
    for r in recs:
        assert r.xi == pytest.approx(1.0, abs=1e-12)
        assert r.masses[0] == pytest.approx(1.0, abs=1e-12)


def test_sigma_constant_solution_single_step():
    # u* = 0, V* = 0, constant previous sigma levels: the new sigma is the
    # same constant
    st = uniform_stepper(n=3)
    sigma = [fem.Field(st.p2, np.full(st.p2.n_dofs, 0.7)) for _ in range(2)]
    st.curr.c = [model.Concentration(s, 1.0, *model.exp_log_field(s, st.mesh))
                 for s in sigma]
    ws = st.make_workspace()
    out = st.step_sigma(ws, 1.0, sigma_history(st), t_new=st.params.dt)[0]
    assert np.abs(out.coefficients - 0.7).max() <= 1e-11


# ----------------------------------------------------------------------
# concentration renormalization
# ----------------------------------------------------------------------

def test_renormalize_zero_sigma():
    st = uniform_stepper(n=3)
    sigma = fem.zero_field(st.p2)
    c = st.renormalize_concentration(sigma, mass_target=st.mesh.area)
    assert np.abs(c.coefficients - 1.0).max() <= 1e-13


def test_renormalize_scaling_invariance():
    st = uniform_stepper(n=3)
    sigma = fem.Field(st.p2, np.full(st.p2.n_dofs, np.log(2.0)))
    c = st.renormalize_concentration(sigma, mass_target=st.mesh.area)
    assert np.abs(c.coefficients - 1.0).max() <= 1e-13


def test_renormalize_preserves_target_mass():
    st = uniform_stepper(n=5)
    rng = np.random.default_rng(8)
    sigma = fem.Field(st.p2, rng.uniform(-1.0, 1.0, st.p2.n_dofs))
    target = 0.737
    c = st.renormalize_concentration(sigma, mass_target=target)
    assert abs(model.species_mass(c, st.mesh) - target) <= 1e-12 * target


def test_renormalize_overflow_raises():
    from spnpflow.errors import NonFiniteError
    st = uniform_stepper(n=3)
    sigma = fem.Field(st.p2, np.full(st.p2.n_dofs, 1e4))
    with pytest.raises(NonFiniteError):
        st.renormalize_concentration(sigma, mass_target=1.0)


# ----------------------------------------------------------------------
# potential solve
# ----------------------------------------------------------------------

def test_potential_zero_for_neutral_charge():
    st = uniform_stepper(n=4)
    vbar, _ = st.solve_potential(st.curr.c, t=0.0)
    assert np.abs(vbar.coefficients).max() <= 1e-10


def test_potential_eigenfunction():
    mesh = build_rect_mesh(0, 1, 0, 1, 16, 16)
    stepper = Stepper(mesh, make_params(lam=1.0))
    stepper.set_initial([
        lambda x, y: 2.0 + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y),
        lambda x, y: 2.0 - 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)])
    vbar = stepper.curr.vbar
    err = fem.error_norm_l2(
        vbar, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
        / (2 * np.pi ** 2), mesh)
    assert err <= 5e-5


def test_potential_dirichlet_harmonic():
    mesh = build_rect_mesh(0, 1, 0, 1, 8, 8)
    stepper = Stepper(mesh, make_params(), bc_mode="dirichlet_lr")
    stepper.set_initial([lambda x, y: 1.0 + 0 * x, lambda x, y: 1.0 + 0 * x])
    err = fem.error_norm_l2(stepper.curr.vbar, lambda x, y: 1.0 - x, mesh)
    assert err <= 1e-11


def test_potential_net_charge_raises_in_strict_mode():
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    stepper = Stepper(mesh, make_params())
    with pytest.raises(CompatibilityError):
        stepper.set_initial([lambda x, y: 2.0 + 0 * x,
                             lambda x, y: 1.0 + 0 * x])


def test_potential_net_charge_neutralized_logs_multiplier():
    mesh = build_rect_mesh(0, 1, 0, 1, 4, 4)
    stepper = Stepper(mesh, make_params(), neutralize_net_charge=True)
    stepper.set_initial([lambda x, y: 2.0 + 0 * x, lambda x, y: 1.0 + 0 * x])
    # multiplier absorbs the net charge density (z_p c_p + z_n c_n = 1)
    assert stepper.records[0].multiplier == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# velocity split, xi, and updates
# ----------------------------------------------------------------------

def test_velocity_split_trivial_rest():
    st = uniform_stepper(n=4)
    ws = st.make_workspace()
    st.step_sigma(ws, 1.0, sigma_history(st), st.params.dt)
    st.solve_velocity_split(ws, st.curr.c, st.curr.vbar,
                            st.curr.u.coefficients, st.params.dt)
    assert np.abs(ws.u1_tilde.coefficients).max() <= 1e-12
    assert np.abs(ws.u2_tilde.coefficients).max() <= 1e-12


def test_xi_consistency_fixture():
    # zeta1 = zeta2 = 0 and r at the shifted-energy level give xi = 1
    st = uniform_stepper(n=3)
    ws = st.make_workspace()
    st.step_sigma(ws, 1.5, sigma_history(st), st.params.dt)
    st.solve_velocity_split(ws, st.curr.c, st.curr.vbar,
                            2 * st.curr.u.coefficients
                            - st.curr.u.coefficients, st.params.dt)
    hist_r = 2.0 * st.curr.r - 0.5 * st.curr.r
    e_spnp, g, sqrt_eb, _ = st.compute_xi(ws, st.curr.c, st.curr.vbar, 1.5,
                                          hist_r, st.params.dt)
    assert ws.xi == pytest.approx(1.0, abs=1e-12)
    assert abs(sqrt_eb - st.curr.r) <= 1e-12


def test_xi_two_dof_arithmetic_oracle():
    # rebuild the ratio from its ingredients with plain scalar arithmetic
    st = uniform_stepper(n=4)
    st.bootstrap_first_step()
    st.curr.u.coefficients[:] = 0.0
    rng = np.random.default_rng(5)
    free = np.setdiff1d(np.arange(2 * st.p2.n_dofs), st.vec_bdofs)
    st.curr.u.coefficients[free] = 1e-3 * rng.standard_normal(free.size)
    ws = st.make_workspace()
    hist_u = 2 * st.curr.u.coefficients - 0.5 * st.prev.u.coefficients
    st.step_sigma(ws, 1.5, sigma_history(st), st.params.dt)
    st.solve_velocity_split(ws, st.curr.c, st.curr.vbar, hist_u,
                            st.params.dt)
    hist_r = 2.0 * st.curr.r - 0.5 * st.prev.r
    e_spnp, g, sqrt_eb, zeta2 = st.compute_xi(ws, st.curr.c, st.curr.vbar,
                                              1.5, hist_r, st.params.dt)
    co, pe, dt = st.params.co, st.params.pe, st.params.dt
    z1 = (co * (ws.coul_vec @ ws.u1_tilde.coefficients)
          + ws.adv_vec @ ws.u1_tilde.coefficients) / (2 * sqrt_eb)
    z2 = (co / pe * g - co * (ws.coul_vec @ ws.u2_tilde.coefficients)
          - ws.adv_vec @ ws.u2_tilde.coefficients) / (2 * sqrt_eb)
    expected = (hist_r + dt * z1) / (1.5 * sqrt_eb + dt * z2)
    assert ws.xi == pytest.approx(expected, rel=1e-14)
    assert zeta2 == pytest.approx(z2, rel=1e-14)


def test_update_r_v_u_limits():
    st = uniform_stepper(n=3)
    ws = st.make_workspace()
    st.step_sigma(ws, 1.0, sigma_history(st), st.params.dt)
    st.solve_velocity_split(ws, st.curr.c, st.curr.vbar,
                            st.curr.u.coefficients, st.params.dt)
    vbar = fem.interpolate(lambda x, y: x - 0.5, st.p2)
    ws.u1_tilde = fem.Field(st.p2, np.ones(2 * st.p2.n_dofs), components=2)
    ws.u2_tilde = fem.Field(st.p2, np.full(2 * st.p2.n_dofs, 2.0),
                            components=2)
    ws.xi = 1.0
    r, v = st.update_r_v_u(ws, vbar, sqrt_eb=3.0)
    assert r == 3.0
    assert np.array_equal(v.coefficients, vbar.coefficients)
    assert np.abs(ws.u_tilde.coefficients - 3.0).max() == 0.0
    ws.xi = 0.0
    r, v = st.update_r_v_u(ws, vbar, sqrt_eb=3.0)
    assert r == 0.0
    assert np.abs(v.coefficients).max() == 0.0
    assert np.abs(ws.u_tilde.coefficients - 1.0).max() == 0.0


def test_pressure_poisson_zero_velocity():
    st = uniform_stepper(n=4)
    psi = st.pressure_poisson(fem.zero_field(st.p2, components=2), a0=1.5)
    assert np.abs(psi.coefficients).max() <= 1e-12


def test_correct_identity_when_psi_zero():
    st = uniform_stepper(n=4)
    ws = st.make_workspace()
    rng = np.random.default_rng(0)
    ws.u_tilde = fem.Field(st.p2, rng.standard_normal(2 * st.p2.n_dofs),
                           components=2)
    psi = fem.zero_field(st.p1)
    u, p, mu = st.correct(psi, a0=1.5,
                          mv_ut=st.vector_mass(ws.u_tilde.coefficients))
    assert np.abs(u.coefficients - ws.u_tilde.coefficients).max() <= 1e-9
    assert np.abs(p.coefficients - st.curr.p.coefficients).max() <= 1e-12


def test_correct_newtonian_viscosity():
    st = uniform_stepper(n=3, params_kw=dict(k=1.0, mu0=1.0, mu_inf=0.5))
    st.run(n_steps=2)
    assert (st.curr.mu_q == 1.0).all()


# ----------------------------------------------------------------------
# factorization fill of the per-step systems
# ----------------------------------------------------------------------

# L+U nnz of the scheme's factorization over a default (COLAMD) SuperLU
# factorization of the same matrix.  Measured at nx = 20 (energy-decay,
# step 2, nested dissection): 0.809 momentum, 0.776 transport; 0.601 and
# 0.616 at nx = 40.
FILL_RATIO_MAX = 0.85


def test_per_step_factorizations_symmetric_and_fill_reduced(monkeypatch):
    import scipy.sparse.linalg as spla
    from spnpflow.scenarios import scenario_energy_decay

    real_splu = spla.splu
    lus, workspaces = [], []

    def splu(A, *args, **kw):
        lus.append((A, real_splu(A, *args, **kw)))
        return lus[-1][1]

    st = scenario_energy_decay(nx=20).make_stepper()
    real_workspace = st.make_workspace

    def make_workspace(**kw):
        workspaces.append(real_workspace(**kw))
        return workspaces[-1]

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(st, "make_workspace", make_workspace)
    st.run(n_steps=2)
    n2 = st.p2.n_dofs
    A_mom, lu_mom = [lu for lu in lus if lu[0].shape[0] == 2 * n2][-1]
    A_tr, lu_tr = [lu for lu in lus if lu[0].shape[0] == n2][-1]

    # the momentum matrix stays symmetric through the Dirichlet elimination
    A = A_mom.tocsr()
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()

    # and gives the solution of the row-replaced unconstrained system of
    # the same (second-order) step
    ws, params = workspaces[-1], st.params
    Mv = sp.block_diag((st.M2, st.M2), format="csr")
    A_in = (1.5 / params.dt) * Mv + (1.0 / params.re) * ws.Kdef
    A_rr, b_rr = oracles.row_replacement(A_in, ws.rhs_u, st.vec_bdofs,
                                         0.0)
    x_rr = real_splu(A_rr.tocsc()).solve(b_rr)
    # SuperLU factors P A P^T, with the velocity's elimination order
    order = fem.vector_ordering(st.p2)
    x = np.empty_like(x_rr)
    x[order] = lu_mom.solve(b_rr[order])
    assert np.abs(x - x_rr).max() <= 1e-12 * np.abs(x_rr).max()

    for A, lu in ((A_mom, lu_mom), (A_tr, lu_tr)):
        colamd = real_splu(A.tocsc())
        ratio = (lu.L.nnz + lu.U.nnz) / (colamd.L.nnz + colamd.U.nnz)
        assert ratio <= FILL_RATIO_MAX, (A.shape, ratio)


def test_per_step_path_builds_no_triplets_and_no_row_replacement(monkeypatch):
    # every per-step matrix is assembled on a pattern built at set-up, and
    # the velocity constraint is the precomputed elimination
    from spnpflow.scenarios import scenario_energy_decay
    from spnpflow.sparse import SparseMatrix

    st = scenario_energy_decay(nx=10).make_stepper()
    st.bootstrap_first_step()
    calls = []
    real_from_coo = SparseMatrix.from_coo.__func__
    real_dirichlet = fem.apply_dirichlet

    def from_coo(cls, *args, **kw):
        calls.append("from_coo")
        return real_from_coo(cls, *args, **kw)

    def apply_dirichlet(*args, **kw):
        calls.append("apply_dirichlet")
        return real_dirichlet(*args, **kw)

    monkeypatch.setattr(SparseMatrix, "from_coo", classmethod(from_coo))
    monkeypatch.setattr(fem, "apply_dirichlet", apply_dirichlet)
    st.step()
    assert calls == []


# Quadrature evaluations of one full step: 5 for the extrapolants, 2 for the
# new concentrations, 1 for grad Vbar (shared by momentum, energy and
# chemical potential), 2 in the xi stage for the grad sigma of each species,
# 1 for the corrected shear, 3 for the one discrete energy; the pressure mean
# comes from the P1 basis integrals.
# A forced run evaluates Vbar in the xi stage as well: its values, and the
# chemical-potential values, feed only the forcing power.
EVALS_PER_STEP_UNFORCED = 14
EVALS_PER_STEP_FORCED = 15


def test_only_the_newest_level_keeps_log_values():
    st = uniform_stepper(n=3)
    st.bootstrap_first_step()
    st.step()
    assert all(c.log_quad is None for c in st.prev.c)
    assert all(c.log_quad is not None for c in st.curr.c)


def test_per_step_quadrature_evaluation_budget(monkeypatch):
    from spnpflow.manufactured import run_manufactured
    from spnpflow.scenarios import scenario_energy_decay

    calls, per_step = [], []
    for name in ("eval_values", "eval_grads"):
        real = getattr(fem, name)

        def counted(*args, _real=real, **kw):
            calls.append(1)
            return _real(*args, **kw)

        monkeypatch.setattr(fem, name, counted)
    real_advance = Stepper._advance

    def advance(self):
        calls.clear()
        new = real_advance(self)
        per_step.append(len(calls))
        return new

    monkeypatch.setattr(Stepper, "_advance", advance)
    scenario_energy_decay(nx=10).make_stepper().run(n_steps=3)
    assert len(per_step) == 3
    assert max(per_step) <= EVALS_PER_STEP_UNFORCED
    per_step.clear()
    run_manufactured(n_steps=3, n_cells=4)
    assert len(per_step) == 3
    assert max(per_step) <= EVALS_PER_STEP_FORCED


# ----------------------------------------------------------------------
# the worker thread: each SuperLU factor is released where it was made
# ----------------------------------------------------------------------

class _TrackedLU:
    """A SuperLU factor (which takes no weak reference) whose making and
    releasing threads go to ``log`` as [made, released, n]."""

    def __init__(self, lu, log):
        self._lu = lu
        entry = [threading.get_ident(), None, lu.shape[0]]
        log.append(entry)
        weakref.finalize(self, _released, entry)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _released(entry):
    entry[1] = threading.get_ident()


def track_factors(monkeypatch):
    import scipy.sparse.linalg as spla

    log = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kw: _TrackedLU(
        real_splu(*args, **kw), log))
    return log


def released_where_made(log):
    gc.collect()
    assert log and all(made == released for made, released, _ in log), log


def test_step_factors_released_on_their_own_thread(monkeypatch):
    from spnpflow.manufactured import run_manufactured
    from spnpflow.scenarios import scenario_energy_decay

    st = scenario_energy_decay(nx=10).make_stepper()
    log = track_factors(monkeypatch)
    st.run(n_steps=3)
    main = threading.get_ident()
    # the transport factors are made on the worker, the momentum's here
    n2 = st.p2.n_dofs
    assert sorted((n, made == main) for made, _, n in log) \
        == [(n2, False)] * 6 + [(2 * n2, True)] * 3
    del st
    released_where_made(log)
    log.clear()
    run_manufactured(n_steps=2, n_cells=4)
    released_where_made(log)


def test_worker_error_reaches_step_and_releases_its_factor(monkeypatch):
    from spnpflow.errors import SolverError
    from spnpflow.scenarios import scenario_energy_decay
    from spnpflow.sparse import Factorization

    st = scenario_energy_decay(nx=6).make_stepper()
    st.bootstrap_first_step()
    log = track_factors(monkeypatch)
    real_solve = Factorization.solve

    def solve(self, b):
        if threading.current_thread() is not threading.main_thread():
            raise SolverError("doctored worker failure")
        return real_solve(self, b)

    monkeypatch.setattr(Factorization, "solve", solve)
    with pytest.raises(SolverError, match="doctored"):
        st.step()
    # released on the worker before the error reached this thread, though
    # its traceback is still alive here
    made_on_worker = [e for e in log if e[0] != threading.get_ident()]
    assert made_on_worker
    assert all(made == released for made, released, _ in made_on_worker)
    monkeypatch.setattr(Factorization, "solve", real_solve)
    fresh = scenario_energy_decay(nx=6).make_stepper()
    fresh.run(n_steps=2)
    assert fresh.step_index == 2
    del st, fresh
    released_where_made(log)


@pytest.mark.skipif(scheme._SCHED_GETCPU is None
                    or not hasattr(os, "sched_setaffinity"),
                    reason="needs sched_getcpu and sched_setaffinity")
def test_worker_start_leaves_creator_cpu_and_keeps_cpu_set():
    allowed = os.sched_getaffinity(0)
    seen = {}

    def start():
        seen["before"] = scheme._SCHED_GETCPU()
        scheme._leave_creator_cpu()
        seen["after"] = scheme._SCHED_GETCPU()
        seen["allowed"] = os.sched_getaffinity(0)

    th = threading.Thread(target=start)
    th.start()
    th.join(timeout=60)
    assert not th.is_alive()
    assert seen["allowed"] == allowed
    if len(allowed) > 1:
        assert seen["after"] != seen["before"]


# ----------------------------------------------------------------------
# set-up: the worker builds the step's index tables meanwhile
# ----------------------------------------------------------------------

class SetUpJobError(RuntimeError):
    pass


def record_threads(monkeypatch, targets):
    """Wrap each (owner, name) so that its calls go to the returned list as
    (name, thread)."""
    calls = []
    for owner, name in targets:
        def wrapper(*args, _real=getattr(owner, name), _name=name, **kw):
            calls.append((_name, threading.current_thread()))
            return _real(*args, **kw)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_set_up_job_error_reaches_stepper(monkeypatch):
    from spnpflow.scenarios import scenario_energy_decay

    real = fem.diagonal_blocks

    def failing(*args):
        assert threading.current_thread() is not threading.main_thread()
        raise SetUpJobError("doctored set-up job failure")

    monkeypatch.setattr(fem, "diagonal_blocks", failing)
    with pytest.raises(SetUpJobError, match="doctored"):
        scenario_energy_decay(nx=6).make_stepper()
    monkeypatch.setattr(fem, "diagonal_blocks", real)
    fresh = scenario_energy_decay(nx=6).make_stepper()
    fresh.run(n_steps=2)
    assert fresh.step_index == 2


def test_set_up_error_waits_for_the_job(monkeypatch):
    from spnpflow.errors import SingularMatrixError
    from spnpflow.sparse import System

    real = fem.diagonal_blocks
    started, done = threading.Event(), []

    def slow(*args):
        started.set()
        time.sleep(0.2)
        done.append(True)
        return real(*args)

    def singular(*args):
        assert started.wait(60)
        raise SingularMatrixError("doctored set-up factor")

    monkeypatch.setattr(fem, "diagonal_blocks", slow)
    monkeypatch.setattr(System, "factor", singular)
    with pytest.raises(SingularMatrixError, match="doctored"):
        Stepper(build_rect_mesh(0, 1, 0, 1, 3, 3), make_params())
    assert done


@pytest.mark.parametrize("bc_mode", ["zero_mean", "dirichlet_lr"])
def test_set_up_factorisations_on_the_calling_thread(monkeypatch, bc_mode):
    import scipy.sparse.linalg as spla

    calls = record_threads(monkeypatch, [(spla, "splu")])
    Stepper(build_rect_mesh(0, 1, 0, 1, 4, 4), make_params(),
            bc_mode=bc_mode)
    assert len(calls) == 3
    assert all(th is threading.current_thread() for _, th in calls)


@pytest.mark.parametrize("bc_mode", ["zero_mean", "dirichlet_lr"])
def test_every_factorisation_goes_through_a_system(monkeypatch, bc_mode):
    # one path from a pattern to SuperLU: each SuperLU factorisation of
    # set-up, the bootstrap step and a second-order step is a System.factor
    import scipy.sparse.linalg as spla
    from spnpflow.sparse import System

    calls = record_threads(monkeypatch, [(spla, "splu"), (System, "factor")])

    def counts():
        names = [name for name, _ in calls]
        calls.clear()
        return names.count("splu"), names.count("factor")

    st = uniform_stepper(n=4, bc_mode=bc_mode)
    assert counts() == (3, 3)
    st.bootstrap_first_step()
    assert counts() == (3, 3)
    st.step()
    assert counts() == (3, 3)


def test_set_up_job_calls_no_traced_entry_point(monkeypatch):
    # the benchmark's tracer wraps these, with one span stack for all
    # threads; the set-up job itself is seen through diagonal_blocks
    import scipy.sparse.linalg as spla
    from spnpflow.sparse import Factorization

    traced = [(fem, name) for name in ("assemble", "assemble_vector",
                                       "eval_values", "eval_grads",
                                       "apply_dirichlet")]
    calls = record_threads(monkeypatch, traced + [
        (Factorization, "solve"), (spla, "splu"), (fem, "diagonal_blocks")])
    Stepper(build_rect_mesh(0, 1, 0, 1, 4, 4), make_params())
    assert {name for name, th in calls
            if th is not threading.current_thread()} == {"diagonal_blocks"}


# ----------------------------------------------------------------------
# dense-oracle check of the assembled transport system
# ----------------------------------------------------------------------

def test_sigma_system_matches_dense_oracle():
    # solve one transport step, then verify the solution against a dense
    # assembly built from Vandermonde polynomials and collapsed-square
    # Gauss quadrature.  The extrapolated concentration coefficient is
    # overridden with a polynomial so every integrand is exactly
    # integrable on both paths.
    mesh = build_rect_mesh(0, 1, 0, 1, 1, 1)
    params = make_params(dt=0.05)
    st = Stepper(mesh, params, neutralize_net_charge=True)
    st.set_initial([lambda x, y: 1.5 + 0.25 * x + 0.1 * y,
                    lambda x, y: 1.2 - 0.1 * x * y])
    p2 = st.p2
    st.curr.u = fem.interpolate(lambda x, y: (0.3 * y, -0.2 * x), p2,
                                components=2)
    st.curr.v = fem.interpolate(lambda x, y: 0.1 * x - 0.05 * y * y, p2)
    c_polys = (lambda x, y: 1.4 + 0.2 * x - 0.1 * y + 0.05 * x * y,
               lambda x, y: 1.1 + 0.1 * y * y)
    ws = st.make_workspace()
    xy = fem.quad_points_physical(mesh)
    ws.c_star_quad = [poly(xy[..., 0], xy[..., 1]) for poly in c_polys]
    hist = sigma_history(st)
    i = 0
    sigma_new = st.step_sigma(ws, 1.0, hist, t_new=params.dt)[i]

    pe, dt = params.pe, params.dt
    zi = params.z[i]
    w = params.w_steric
    # the bootstrap's extrapolated sigma* is the current sigma
    coeffs_sig = hist

    def b_fn(tri, x, y):
        ux = oracles.field_value(p2, st.curr.u.component(0), tri, x, y)
        uy = oracles.field_value(p2, st.curr.u.component(1), tri, x, y)
        gs = oracles.field_grad(p2, coeffs_sig[i], tri, x, y)
        gv = oracles.field_grad(p2, st.curr.v.coefficients, tri, x, y)
        bx = ux - gs[:, 0] / pe - zi * gv[:, 0] / pe
        by = uy - gs[:, 1] / pe - zi * gv[:, 1] / pe
        for j in range(2):
            cj = c_polys[j](x, y)
            gj = oracles.field_grad(p2, coeffs_sig[j], tri, x, y)
            bx = bx - w[i, j] / pe * cj * gj[:, 0]
            by = by - w[i, j] / pe * cj * gj[:, 1]
        return bx, by

    A = oracles.dense_mass(mesh, p2, p2) / dt \
        + oracles.dense_advection(mesh, p2, p2, b_fn) \
        + oracles.dense_stiffness(mesh, p2, p2) / pe \
        + w[i, i] / pe * oracles.dense_stiffness(mesh, p2, p2, c_polys[i])

    rhs = oracles.dense_mass(mesh, p2, p2) @ hist[i] / dt
    gv_fn = lambda tri, x, y: tuple(
        oracles.field_grad(p2, st.curr.v.coefficients, tri, x, y).T)
    rhs -= zi / pe * oracles.dense_vecflux(mesh, p2, gv_fn)
    j = 1 - i

    def cross_fn(tri, x, y):
        cj = c_polys[j](x, y)
        gj = oracles.field_grad(p2, coeffs_sig[j], tri, x, y)
        return w[i, j] * cj * gj[:, 0], w[i, j] * cj * gj[:, 1]
    rhs -= oracles.dense_vecflux(mesh, p2, cross_fn) / pe

    resid = A @ sigma_new.coefficients - rhs
    assert np.abs(resid).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)


def test_velocity_system_matches_dense_oracle():
    # the assembled momentum matrix (before boundary rows) equals the dense
    # mass + deformation combination with the same viscosity polynomial
    mesh = build_rect_mesh(0, 1, 0, 1, 1, 1)
    params = make_params(dt=0.05, re=2.0)
    st = Stepper(mesh, params)
    st.set_initial([lambda x, y: 1.0 + 0 * x, lambda x, y: 1.0 + 0 * x])
    mu_poly = lambda x, y: 0.8 + 0.2 * x + 0.1 * y
    xy = fem.quad_points_physical(mesh)
    mu_q = mu_poly(xy[..., 0], xy[..., 1])
    A = (1.5 / params.dt) * sp.block_diag((st.M2, st.M2)) \
        + (1.0 / params.re) * fem.assemble("deformation", st.p2, st.p2, mesh,
                                           coeff=mu_q)
    dense = oracles.dense_mass(mesh, st.p2, st.p2) * (1.5 / params.dt)
    n = st.p2.n_dofs
    dense_vec = np.zeros((2 * n, 2 * n))
    dense_vec[:n, :n] = dense
    dense_vec[n:, n:] = dense
    dense_vec += oracles.dense_deformation(mesh, st.p2, st.p2,
                                           mu_poly) / params.re
    assert np.abs(A.toarray() - dense_vec).max() <= 1e-10


# ----------------------------------------------------------------------
# per-step structure and identities
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cavity_run():
    from spnpflow.scenarios import scenario_energy_decay
    scen = scenario_energy_decay(nx=10, dt=1e-2, t_final=0.3)
    st = scen.make_stepper()
    st.run()
    return st


def test_cavity_mass_conservation(cavity_run):
    for rec in cavity_run.records:
        for m in rec.masses:
            assert abs(m - 12.0) <= 1e-10 * 12.0


def test_cavity_positivity(cavity_run):
    for rec in cavity_run.records:
        assert min(rec.min_c) > 0.0


def test_cavity_energy_decay(cavity_run):
    recs = cavity_run.records
    e = np.array([r.e_total for r in recs])
    assert (np.diff(e) <= 1e-10 * abs(e[0])).all()


def test_cavity_identities(cavity_run):
    for rec in cavity_run.records[1:]:
        assert rec.div_residual <= 1e-9
        assert rec.split_residual <= 1e-9
        assert rec.zeta2 >= -1e-12


def test_cavity_dissipation_inequality(cavity_run):
    # the energy drop dominates the recorded dissipation terms
    recs = cavity_run.records
    dt = cavity_run.params.dt
    e0 = abs(recs[0].e_total)
    for prev, new in zip(recs, recs[1:]):
        drop = new.e_total - prev.e_total
        dissip = dt * (new.visc_dissip + new.ionic_dissip)
        assert drop <= -dissip + 1e-8 * e0


def test_bootstrap_required_before_step():
    st = uniform_stepper(n=3)
    with pytest.raises(RuntimeError):
        st.step()
    st.bootstrap_first_step()
    st.step()


def test_strict_energy_mode_raises_on_violation(monkeypatch):
    import warnings
    # a clean run stays silent
    st = uniform_stepper(n=3, strict_energy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st.run(n_steps=3)

    # an energy that rises with time: strict mode raises, the default warns
    exact_energy = model.discrete_energy

    def rising_energy(new, old, params, mesh):
        return exact_energy(new, old, params, mesh) + new.t

    strict = uniform_stepper(n=3, strict_energy=True)
    default = uniform_stepper(n=3)
    monkeypatch.setattr(model, "discrete_energy", rising_energy)
    with pytest.raises(StructuralViolation) as exc:
        strict.run(n_steps=2)
    assert exc.value.quantity == "energy"
    assert exc.value.step == 1
    assert "np.float64" not in str(exc.value)
    with pytest.warns(RuntimeWarning, match="discrete energy increased"):
        default.run(n_steps=2)


def test_record_contract():
    # one record per level: level 0 holds the set-up multiplier and no
    # identities; every step holds its identities and zeta2, and the
    # multiplier is NaN only with the Dirichlet potential
    from spnpflow.scenarios import scenario_exponent_k
    neumann = uniform_stepper(n=3, neutralize_net_charge=True)
    _, setup_multiplier = neumann.solve_potential(neumann.curr.c, t=0.0)
    neumann.run(n_steps=3)
    dirichlet = scenario_exponent_k(0.4, nx=4, dt=1e-3,
                                    t_final=3e-3).make_stepper()
    dirichlet.run()
    for st in (neumann, dirichlet):
        recs = st.records
        assert len(recs) == 4
        assert np.isnan([recs[0].div_residual, recs[0].split_residual,
                         recs[0].zeta2]).all()
        for rec in recs[1:]:
            assert rec.div_residual <= 1e-9
            assert rec.split_residual <= 1e-9
            assert rec.zeta2 >= -1e-12
    assert neumann.records[0].multiplier == setup_multiplier
    assert np.isfinite([r.multiplier for r in neumann.records]).all()
    assert np.isnan([r.multiplier for r in dirichlet.records]).all()


def test_dirichlet_potential_scaled_by_xi():
    # in dirichlet_lr mode the auxiliary ratio scales the full potential,
    # boundary values included
    from spnpflow.scenarios import scenario_exponent_k
    scen = scenario_exponent_k(0.4, nx=6, dt=1e-3, t_final=2e-3)
    st = scen.make_stepper()
    st.run()
    expected = st.records[-1].xi * st.curr.vbar.coefficients
    assert np.abs(st.curr.v.coefficients - expected).max() <= 1e-13
