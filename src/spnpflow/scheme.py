"""Decoupled, linear, second-order time integrator for the coupled system.

Each step solves, in order: the log-concentration transport systems (one per
species), the mass renormalization, the electric potential, the two split
velocity systems sharing one matrix, the auxiliary-variable ratio, the
recombination updates, the pressure Poisson problem and the final
correction.  The two-level method is bootstrapped with a single first-order
step: the same formulas with the older level weighted zero.

Structure checks (positivity, mass, solvability, energy decay) run after
every step; mass and positivity violations abort, the energy check warns
unless strict mode is on.

A step's intermediate values live in one place each: a stage stores in the
:class:`StepWorkspace` what a later stage reads (the split velocities, xi,
the composite velocity) and returns what only the step itself reads.

The momentum matrix depends only on the extrapolated viscosity, so it is
factored while the transport systems are solved.  One worker thread, shared
by every :class:`Stepper` and idle between steps, assembles, factors and
solves the transport systems, one species after another; the calling thread
meanwhile assembles Kdef and factors the momentum matrix, and the two join
before the transport stage (:meth:`Stepper.step_sigma`) returns.  A SuperLU
factor is created and released on the same thread: SciPy's SuperLU frees
only memory it finds among the allocations of the freeing thread, so a
factor dropped on another thread leaks.  The set-up factorisations stay on
the calling thread.

Set-up overlaps the same way.  :class:`Stepper` first fills the caches that
both threads read: the geometry, the scalar P2 pattern and the P2 dof
ordering.  One job on the worker then builds the step's index tables (the
transport and momentum :class:`~spnpflow.sparse.System`, the latter with
the velocity boundary eliminated, and the mass blocks), while the calling
thread assembles the set-up matrices and makes the set-up factorisations,
each through a System of its own; the constructor waits for the job even
when its own side fails, and raises the job's error.  The job makes no
factor and calls none of the entry points that the benchmark's tracer
(``bench/spans.py``) wraps, since that tracer keeps one span stack for all
threads.
"""

from __future__ import annotations

import ctypes
import os
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import fem, model
from .errors import StructuralViolation
from .mesh import dof_map
from .sparse import Factorization, System

MASS_RTOL = 1e-10
ENERGY_RTOL = 1e-10
ZETA2_FLOOR = -1e-12


def _libc_function(name, argtypes):
    """The C library's int-valued function ``name``, or None where the
    library lacks it (both used here are glibc's)."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return fn


_SCHED_GETCPU = _libc_function("sched_getcpu", [])
_MALLOC_TRIM = _libc_function("malloc_trim", [ctypes.c_size_t])


def _leave_creator_cpu():
    """Move the starting worker thread off the CPU of its creator.

    A new thread starts on its creator's CPU, and a kernel that does not
    balance load between CPUs (a cpuset with ``sched_load_balance`` off)
    keeps it there, so the worker and the calling thread would take turns
    on one CPU.  Restricting the worker to the other CPUs moves it, and
    restoring its CPU set leaves it where it is.
    """
    if _SCHED_GETCPU is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        others = allowed - {_SCHED_GETCPU()}
        if others:
            os.sched_setaffinity(0, others)
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _release_free_memory():
    """Hand the free pages of every malloc arena back to the system.

    The worker thread allocates from an arena of its own, whose freed
    memory the calling thread cannot reuse; without this after each
    transport job, the two arenas' high-water marks add up.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _new_worker():
    # the thread starts at the first submission and then waits for work
    return ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="spnpflow-transport",
                              initializer=_leave_creator_cpu)


_WORKER = _new_worker()


def _reset_worker():
    # a forked child inherits the executor but not its thread
    global _WORKER
    _WORKER = _new_worker()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker)


@dataclass
class SourcePack:
    """Manufactured source terms wired into the scheme's right-hand sides.

    ``f_sigma`` is the transport source divided by the exact concentration
    (the forcing seen by the log-transformed equation).  ``f_c`` is the raw
    transport source; it feeds the power compensation that keeps the
    auxiliary-variable ratio consistent under forcing.  A forced run sets
    all five.
    """

    f_u: object
    f_c: list
    f_sigma: list
    f_v: object
    dfv_dt: object


@dataclass
class StepWorkspace:
    """Extrapolated fields and intermediate solves of one step.

    Of the extrapolated sigma* only the gradients at quadrature points are
    kept.  ``c_star_quad`` holds the extrapolated concentration values at
    quadrature points (differences of the positive point values; the
    extrapolant itself may dip negative, which is harmless since it only
    ever appears as an explicit coefficient).  ``rhs_u`` is the first split
    momentum system's right-hand side before its boundary rows are set, and
    ``grad_vbar`` the new potential's gradient at quadrature points.
    ``momentum`` is the factor of the momentum matrix, from the transport
    stage until the momentum stage uses and drops it.
    """

    u_star_vals: np.ndarray
    u_star_grads: np.ndarray
    grad_sigma_star: list
    c_star_quad: list
    v_star: fem.Field
    grad_v_star: np.ndarray
    mu_star: np.ndarray
    Kdef: object = None
    momentum: Factorization = None
    rhs_u: np.ndarray = None
    grad_vbar: np.ndarray = None
    adv_vec: np.ndarray = None
    coul_vec: np.ndarray = None
    u1_tilde: fem.Field = None
    u2_tilde: fem.Field = None
    u_tilde: fem.Field = None
    xi: float = 1.0


class Stepper:
    """Time integrator bound to one mesh and parameter set.

    Parameters
    ----------
    mesh : Mesh
    params : Params
    bc_mode : str
        "zero_mean" (homogeneous Neumann potential, unique up to the mean) or
        "dirichlet_lr" (potential fixed to 1 at x=xmin and 0 at x=xmax,
        natural elsewhere).
    neutralize_net_charge : bool
        Let the potential solve absorb a net-charge imbalance into its
        multiplier (recorded per step) instead of raising.
    check_mass / check_energy : bool
        Per-step structure assertions; manufactured runs disable the mass
        check because renormalization follows the forced exact mass.
    """

    def __init__(self, mesh, params, *, bc_mode="zero_mean",
                 strict_energy=False, neutralize_net_charge=False,
                 check_mass=True, check_energy=True,
                 sources=None, mass_schedule=None):
        if bc_mode not in ("zero_mean", "dirichlet_lr"):
            raise ValueError(f"unknown bc_mode {bc_mode!r}")
        self.mesh = mesh
        self.params = params
        self.bc_mode = bc_mode
        self.strict_energy = strict_energy
        self.neutralize_net_charge = neutralize_net_charge
        self.check_mass = check_mass
        self.check_energy = check_energy
        self.sources = sources
        self.mass_schedule = mass_schedule

        self.p2 = dof_map(mesh, 2)
        self.p1 = dof_map(mesh, 1)
        bd = self.p2.boundary_dofs
        self.vec_bdofs = np.concatenate([bd, bd + self.p2.n_dofs])

        # the caches that both threads read (the geometry, with the scalar
        # P2 pattern, and the P2 ordering) are filled before the worker
        # builds the step's index tables; meanwhile this thread assembles
        # the set-up matrices and makes the set-up factorisations
        fem.pattern("mass", self.p2, self.p2, mesh)
        self.p2.ordering
        tables = _WORKER.submit(self._step_tables)
        try:
            self._set_up_solvers()
        finally:
            wait([tables])
        self._transport, self._mass_blocks, self._momentum = tables.result()

        self.prev = None
        self.curr = None
        self.b_shift = None
        self.mass0 = None
        self.step_index = 0
        self.records = []

    def _step_tables(self):
        """The index tables of the step's matrices, built on the worker:
        (transport system, mass blocks, momentum system).

        Every system is factored in the nested-dissection order of its
        space, the per-step ones through a :class:`System` built here, so a
        step's matrix reaches SuperLU by one gather of its data.  M2, K2
        and the per-step advection and steric stiffness share the transport
        pattern, so the transport matrix is a sum of their data vectors.
        The vector mass Mv is M2 in the two diagonal blocks of the
        deformation form's velocity pattern, so the momentum matrix is the
        deformation data with M2's data added there; Mv is not stored, and
        applied as M2 per component.  The momentum system eliminates the
        zero velocity Dirichlet rows and columns in the same gather.
        """
        try:
            mesh, p2 = self.mesh, self.p2
            return (System(fem.pattern("mass", p2, p2, mesh), p2.ordering),
                    fem.diagonal_blocks(p2, p2, mesh),
                    System(fem.pattern("deformation", p2, p2, mesh),
                           fem.vector_ordering(p2), self.vec_bdofs))
        finally:
            _release_free_memory()

    def _set_up_solvers(self):
        """Assemble the set-up matrices and make the set-up factorisations,
        on the calling thread."""
        mesh, params, p1, p2 = self.mesh, self.params, self.p1, self.p2
        self.M2 = fem.assemble("mass", p2, p2, mesh)
        self.K2 = fem.assemble("stiffness", p2, p2, mesh)
        self.K1 = fem.assemble("stiffness", p1, p1, mesh)
        # the Taylor-Hood gradient (grad q, v) couples velocity and
        # pressure; on the free velocity rows it is minus (div v, q)
        self.G = fem.assemble("gradient", p1, p2, mesh)
        self.m1 = fem.basis_integrals(p1, mesh)

        self._psi_solver = fem.ZeroMeanSolver(self.K1, self.m1, p1.ordering)
        self._m2_solver = System(self.M2, p2.ordering).factor(self.M2.data)

        lamK2 = params.lam * self.K2
        if self.bc_mode == "zero_mean":
            self._pot_solver = fem.ZeroMeanSolver(
                lamK2, fem.basis_integrals(p2, mesh), p2.ordering)
        else:
            # V = 1 on the left side and 0 on the right, eliminated from
            # the symmetric lam K2; each step adds the data's lift
            left = p2.boundary_dofs_by_side["left"]
            self._pot_bc = System(lamK2, p2.ordering, np.concatenate(
                [left, p2.boundary_dofs_by_side["right"]]))
            g = np.zeros(p2.n_dofs)
            g[left] = 1.0
            self._pot_lift = self._pot_bc.lift(lamK2, g)
            self._pot_solver = self._pot_bc.factor(lamK2.data)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def set_initial(self, c0_fns, u0_fn=None, p0_fn=None):
        """Build the level-0 state from initial-data callables."""
        mesh, params = self.mesh, self.params
        c0 = [model.concentration_from_callable(fn, self.p2, mesh)
              for fn in c0_fns]
        if u0_fn is None:
            u0 = fem.zero_field(self.p2, components=2)
        else:
            u0 = fem.interpolate(u0_fn, self.p2, components=2)
        if p0_fn is None:
            p0 = fem.zero_field(self.p1)
        else:
            p0 = fem.interpolate(p0_fn, self.p1)
            p0.coefficients -= self.m1 @ p0.coefficients / mesh.area

        vbar0, multiplier = self.solve_potential(c0, t=0.0)
        e0 = model.energy_spnp(c0, fem.eval_grads(vbar0, mesh), params, mesh)
        self.b_shift = model.resolve_b_shift(params, e0)
        r0 = np.sqrt(e0 + self.b_shift)
        mu0 = model.carreau_viscosity(model.shear_rate_sq(u0, mesh), params)

        self.curr = model.State(t=0.0, u=u0, p=p0, c=c0, vbar=vbar0,
                                v=vbar0.copy(), mu_q=mu0, r=r0)
        self.prev = None
        self.step_index = 0
        self.records = [self._record(self.curr,
                                     self._measure(self.curr, self.curr),
                                     xi=1.0, visc_dissip=0.0,
                                     ionic_dissip=0.0, e_spnp=e0,
                                     multiplier=multiplier)]
        self.mass0 = self.records[0].masses
        return self.curr

    def vector_mass(self, v):
        """Mv v for velocity coefficients v, the x block first."""
        n2 = self.p2.n_dofs
        return np.concatenate([self.M2 @ v[:n2], self.M2 @ v[n2:]])

    def _mass_targets(self, t):
        if self.mass_schedule is not None:
            return self.mass_schedule(t)
        return self.mass0

    # ------------------------------------------------------------------
    # individual scheme steps
    # ------------------------------------------------------------------

    def make_workspace(self):
        """Extrapolated fields 2 f^n - f^o for the next step, where f^o is
        the older level f^{n-1}, or f^n itself at the bootstrap (no older
        level yet), where 2 f^n - f^n is f^n exactly."""
        mesh = self.mesh
        n = self.curr
        o = n if self.prev is None else self.prev

        def extrap(fn, fo):
            return 2.0 * fn - fo

        def extrap_field(f, fo):
            return fem.Field(f.dofmap, extrap(f.coefficients, fo.coefficients),
                             f.components)

        u_star = extrap_field(n.u, o.u)
        v_star = extrap_field(n.v, o.v)
        c_star_quad = [extrap(c.quad, co.quad) for c, co in zip(n.c, o.c)]
        # clamped at mu_inf, as the discrete energy estimate requires
        mu_star = np.maximum(extrap(n.mu_q, o.mu_q), self.params.mu_inf)
        return StepWorkspace(
            u_star_vals=fem.eval_values(u_star, mesh),
            u_star_grads=fem.eval_grads(u_star, mesh),
            grad_sigma_star=[fem.eval_grads(extrap_field(c.sigma, co.sigma),
                                            mesh) for c, co in zip(n.c, o.c)],
            c_star_quad=c_star_quad,
            v_star=v_star,
            grad_v_star=fem.eval_grads(v_star, mesh),
            mu_star=mu_star,
        )

    def step_sigma(self, ws, a0, hist, t_new):
        """Solve the linearized log-concentration system of every species,
        giving the list of new sigma fields.

        The systems are assembled, factored and solved on the worker
        thread, one after another.  Meanwhile this thread factors the
        momentum matrix into ``ws.momentum``.  The call returns when both
        sides are done, and raises the error of either side.
        """
        pending = []
        try:
            for i in range(self.params.n_species):
                pending.append(_WORKER.submit(self._solve_transport, ws, i,
                                              a0, hist, t_new))
            # the summed data are freed before SuperLU runs
            ws.momentum = self._momentum.factor(self._momentum_data(ws, a0))
        finally:
            wait(pending)
        return [fem.Field(self.p2, job.result()) for job in pending]

    def _solve_transport(self, ws, species, a0, hist, t_new):
        """New sigma coefficients of one species, on the worker thread.

        The factor is made and released on this thread.  On an error the
        frames of the traceback, which hold the factor, are cleared here,
        so it is not released where the error is handled.
        """
        mesh, params = self.mesh, self.params
        p2 = self.p2
        pe = params.pe
        zi = params.z[species]
        w = params.w_steric
        dt = params.dt

        grad_sig_star = ws.grad_sigma_star
        c_star_vals = ws.c_star_quad

        rhs = self.M2 @ hist[species] / dt
        rhs -= (zi / pe) * (self.K2 @ ws.v_star.coefficients)
        flux = None
        for j in range(params.n_species):
            if j != species and w[species, j] != 0.0:
                term = w[species, j] * c_star_vals[j][..., None] * grad_sig_star[j]
                flux = term if flux is None else flux + term
        if flux is not None:
            rhs -= fem.assemble_vector("vecflux", p2, mesh, flux) / pe
        if self.sources is not None:
            f = self.sources.f_sigma[species]
            rhs += fem.assemble_vector("source", p2, mesh,
                                       lambda x, y: f(x, y, t_new))
        try:
            # the summed data are freed before SuperLU runs
            return self._transport.factor(
                self._transport_data(ws, species, a0)).solve(rhs)[0]
        except Exception as exc:
            traceback.clear_frames(exc.__traceback__)
            raise
        finally:
            _release_free_memory()

    def _transport_data(self, ws, species, a0):
        """The data of the transport matrix of ``species``, (a0/dt) M2 +
        A(b) + K2/Pe plus the steric self-diffusion, on the P2 pattern."""
        params, p2, mesh = self.params, self.p2, self.mesh
        pe, w = params.pe, params.w_steric
        grad_sig_star, c_star_vals = ws.grad_sigma_star, ws.c_star_quad
        # all first-order terms collapse into one transport coefficient
        b = (ws.u_star_vals
             - grad_sig_star[species] / pe
             - (params.z[species] / pe) * ws.grad_v_star)
        for j in range(params.n_species):
            if w[species, j] != 0.0:
                b = b - (w[species, j] / pe) \
                    * c_star_vals[j][..., None] * grad_sig_star[j]

        data = (a0 / params.dt) * self.M2.data \
            + fem.assemble("advection", p2, p2, mesh, b).data \
            + (1.0 / pe) * self.K2.data
        wii = w[species, species]
        if wii != 0.0:
            data += (wii / pe) * fem.assemble(
                "stiffness", p2, p2, mesh, coeff=c_star_vals[species]).data
        return data

    def renormalize_concentration(self, sigma_new, mass_target):
        """Exponentiate pointwise and rescale to the target mass."""
        return model.Concentration(sigma_new, mass_target, self.mesh)

    def _charge(self, c_fields):
        """Charge density sum_i z_i c_i at quadrature points."""
        charge = None
        for zi, c in zip(self.params.z, c_fields):
            term = zi * c.quad
            charge = term if charge is None else charge + term
        return charge

    def solve_potential(self, c_fields, t):
        """Electric potential before auxiliary-variable scaling.

        Returns (vbar, multiplier): the zero-mean solve's net-charge
        multiplier, NaN with the Dirichlet potential.
        """
        rhs = fem.assemble_vector("source", self.p2, self.mesh,
                                  self._charge(c_fields))
        if self.sources is not None:
            fv = self.sources.f_v
            rhs += fem.assemble_vector("source", self.p2, self.mesh,
                                       lambda x, y: fv(x, y, t))
        if self.bc_mode == "zero_mean":
            subtract = self.neutralize_net_charge or self.sources is not None
            sol, mult, _ = self._pot_solver.solve(rhs, subtract_mean=subtract)
            return fem.Field(self.p2, sol), mult
        rhs = self._pot_bc.rhs(rhs, self._pot_lift)
        sol, _ = self._pot_solver.solve(rhs)
        return fem.Field(self.p2, sol), np.nan

    def _momentum_data(self, ws, a0):
        """Assemble Kdef(mu*) into ``ws``; the data of the momentum matrix
        (a0/dt) Mv + Kdef/Re, which needs nothing else of the step, on the
        deformation pattern."""
        params = self.params
        ws.Kdef = fem.assemble("deformation", self.p2, self.p2, self.mesh,
                               coeff=ws.mu_star)
        data = (1.0 / params.re) * ws.Kdef.data
        data[self._mass_blocks] += (a0 / params.dt) * self.M2.data
        return data

    def solve_velocity_split(self, ws, c_new, vbar_new, hist_u, t_new):
        """Solve the two split momentum systems, into ``ws.u1_tilde`` and
        ``ws.u2_tilde``, with the factor the transport stage left in ``ws``."""
        mesh, params = self.mesh, self.params
        dt = params.dt
        p2 = self.p2

        solver = ws.momentum
        # released when this returns, on the thread that made it
        ws.momentum = None

        adv = np.einsum("eqj,eqkj->eqk", ws.u_star_vals, ws.u_star_grads)
        ws.adv_vec = fem.assemble_vector("vector_source", p2, mesh, adv)
        ws.grad_vbar = fem.eval_grads(vbar_new, mesh)
        coul = self._charge(c_new)[..., None] * ws.grad_vbar
        ws.coul_vec = fem.assemble_vector("vector_source", p2, mesh, coul)

        ws.rhs_u = self.vector_mass(hist_u) / dt \
            - self.G @ self.curr.p.coefficients
        if self.sources is not None:
            fu = self.sources.f_u
            ws.rhs_u += fem.assemble_vector("vector_source", p2, mesh,
                                            lambda x, y: fu(x, y, t_new))
        rhs2 = -ws.adv_vec - params.co * ws.coul_vec

        # zero data: the eliminated columns leave the free rows unchanged
        u = solver.solve(np.stack([self._momentum.rhs(ws.rhs_u),
                                   self._momentum.rhs(rhs2)], axis=1))[0]
        ws.u1_tilde = fem.Field(p2, u[:, 0], components=2)
        ws.u2_tilde = fem.Field(p2, u[:, 1], components=2)

    def _source_power(self, vbar_vals, gbar_vals, t_new):
        """Forcing power entering the auxiliary-variable ODE (manufactured)."""
        if self.sources is None:
            return 0.0
        mesh, params = self.mesh, self.params
        xy = fem.quad_points_physical(mesh)
        total = 0.0
        for i, fc in enumerate(self.sources.f_c):
            fq = fc(xy[..., 0], xy[..., 1], t_new)
            total += params.co * fem.integrate(gbar_vals[i] * fq, mesh)
        dfq = self.sources.dfv_dt(xy[..., 0], xy[..., 1], t_new)
        return total + params.co * fem.integrate(vbar_vals * dfq, mesh)

    def compute_xi(self, ws, c_new, vbar_new, a0, hist_r, t_new):
        """Auxiliary-variable ratio xi from the split velocity solves, into
        ``ws.xi``; returns (E_spnp, G, sqrt(E_spnp + B), zeta2)."""
        mesh, params = self.mesh, self.params
        dt = params.dt

        e_spnp = model.energy_spnp(c_new, ws.grad_vbar, params, mesh)
        radicand = e_spnp + self.b_shift
        if not radicand > 0.0:
            raise StructuralViolation(
                f"shifted free energy {radicand:.3e} is not positive; "
                f"increase the shift constant", step=self.step_index + 1,
                quantity="e_spnp + B")
        sqrt_eb = np.sqrt(radicand)

        # the values of Vbar and of the chemical potentials feed only the
        # forcing power
        vbar_vals = (None if self.sources is None
                     else fem.eval_values(vbar_new, mesh))
        grad_sigma = [fem.eval_grads(c.sigma, mesh) for c in c_new]
        g_total = 0.0
        gbar_vals = []
        for i, ci in enumerate(c_new):
            vals, grads = model.chemical_potential_bar(
                c_new, grad_sigma, vbar_vals, ws.grad_vbar, i, params)
            gbar_vals.append(vals)
            g_total += fem.integrate(
                ci.quad * (grads[..., 0] ** 2 + grads[..., 1] ** 2), mesh)

        i_cu1 = float(ws.coul_vec @ ws.u1_tilde.coefficients)
        i_cu2 = float(ws.coul_vec @ ws.u2_tilde.coefficients)
        i_ad1 = float(ws.adv_vec @ ws.u1_tilde.coefficients)
        i_ad2 = float(ws.adv_vec @ ws.u2_tilde.coefficients)
        power = self._source_power(vbar_vals, gbar_vals, t_new)

        zeta1 = (params.co * i_cu1 + i_ad1 + power) / (2.0 * sqrt_eb)
        zeta2 = ((params.co / params.pe) * g_total
                 - params.co * i_cu2 - i_ad2) / (2.0 * sqrt_eb)
        if zeta2 < ZETA2_FLOOR:
            raise StructuralViolation(
                f"zeta2 = {zeta2:.3e} violates the solvability bound",
                step=self.step_index + 1, quantity="zeta2")
        denom = a0 * sqrt_eb + dt * zeta2
        if not denom > 0.0:
            raise StructuralViolation(
                f"xi denominator {denom:.3e} not positive (extrapolated "
                f"viscosity positivity lost?)", step=self.step_index + 1,
                quantity="xi denominator")
        ws.xi = (hist_r + dt * zeta1) / denom
        return e_spnp, g_total, sqrt_eb, zeta2

    def update_r_v_u(self, ws, vbar_new, sqrt_eb):
        """Recombine: returns r and the scaled potential, and puts the
        composite velocity in ``ws.u_tilde``."""
        xi = ws.xi
        r_new = xi * sqrt_eb
        v_new = fem.Field(self.p2, xi * vbar_new.coefficients)
        ws.u_tilde = fem.Field(self.p2,
                               ws.u1_tilde.coefficients
                               + xi * ws.u2_tilde.coefficients, components=2)
        return r_new, v_new

    def pressure_poisson(self, u_tilde, a0):
        """Zero-mean pressure increment from the projection step."""
        rhs = (a0 / self.params.dt) * (self.G.T @ u_tilde.coefficients)
        sol, _, _ = self._psi_solver.solve(rhs, subtract_mean=True)
        return fem.Field(self.p1, sol)

    def correct(self, psi, a0, mv_ut):
        """Project the corrected velocity, update pressure and viscosity;
        ``mv_ut`` is Mv times the composite velocity."""
        params = self.params
        n2 = self.p2.n_dofs
        b = mv_ut - (params.dt / a0) * (self.G @ psi.coefficients)
        # the x and y blocks as the two columns of one solve
        u = self._m2_solver.solve(b.reshape(2, n2).T)[0]
        u_new = fem.Field(self.p2, u.ravel(order="F"), components=2)
        p_new = fem.Field(self.p1, psi.coefficients + self.curr.p.coefficients)
        p_new.coefficients -= self.m1 @ p_new.coefficients / self.mesh.area
        mu_new = model.carreau_viscosity(
            model.shear_rate_sq(u_new, self.mesh), params)
        return u_new, p_new, mu_new

    # ------------------------------------------------------------------
    # full steps
    # ------------------------------------------------------------------

    def _advance(self):
        params = self.params
        dt = params.dt
        n = self.curr
        # the BDF1 bootstrap is BDF2 with the older level weighted zero
        if self.prev is None:
            o, a0, wn, wo = n, 1.0, 1.0, 0.0
        else:
            o, a0, wn, wo = self.prev, 1.5, 2.0, 0.5
        t_new = n.t + dt
        hist_sigma = [wn * c.sigma.coefficients - wo * co.sigma.coefficients
                      for c, co in zip(n.c, o.c)]
        hist_u = wn * n.u.coefficients - wo * o.u.coefficients
        hist_r = wn * n.r - wo * o.r

        ws = self.make_workspace()

        sigma_new = self.step_sigma(ws, a0, hist_sigma, t_new)
        targets = self._mass_targets(t_new)
        c_new = [self.renormalize_concentration(sigma_new[i], targets[i])
                 for i in range(params.n_species)]
        vbar_new, multiplier = self.solve_potential(c_new, t_new)
        self.solve_velocity_split(ws, c_new, vbar_new, hist_u, t_new)
        e_spnp, g_total, sqrt_eb, zeta2 = self.compute_xi(
            ws, c_new, vbar_new, a0, hist_r, t_new)
        r_new, v_new = self.update_r_v_u(ws, vbar_new, sqrt_eb)
        psi = self.pressure_poisson(ws.u_tilde, a0)
        mv_ut = self.vector_mass(ws.u_tilde.coefficients)
        u_new, p_new, mu_new = self.correct(psi, a0, mv_ut)

        new = model.State(t=t_new, u=u_new, p=p_new, c=c_new, vbar=vbar_new,
                          v=v_new, mu_q=mu_new, r=r_new)

        kdef_ut = ws.Kdef @ ws.u_tilde.coefficients
        div, split = self._log_identities(ws, psi, a0, mv_ut, kdef_ut)
        measured = self._run_checks(new, targets)

        # the energy and the chemical potentials read the newest level's
        # log values only
        for c in self.curr.c:
            c.log_quad = None
        self.prev = self.curr
        self.curr = new
        self.step_index += 1
        self.records.append(self._record(
            new, measured, xi=ws.xi,
            visc_dissip=float(ws.u_tilde.coefficients @ kdef_ut) / params.re,
            ionic_dissip=ws.xi ** 2 * (params.co / params.pe) * g_total,
            e_spnp=e_spnp, multiplier=multiplier, div_residual=div,
            split_residual=split, zeta2=zeta2))
        return new

    def bootstrap_first_step(self):
        """One first-order step to populate the second time level."""
        if self.step_index != 0:
            raise RuntimeError("bootstrap must be the first step")
        return self._advance()

    def step(self):
        """One full second-order step."""
        if self.prev is None:
            raise RuntimeError("bootstrap the first step before stepping")
        return self._advance()

    def run(self, n_steps=None, snapshot_times=(), snapshot_cb=None):
        """Bootstrap then march to the final time.

        Runs ceil(T / dt) steps in total (one bootstrap plus full steps) or
        ``n_steps`` when given.  Snapshots fire at the first step reaching
        each scheduled time.
        """
        params = self.params
        if self.curr is None:
            raise RuntimeError("set_initial must be called before run")
        if n_steps is None:
            n_steps = int(np.ceil(params.t_final / params.dt - 1e-12))
        pending = sorted(snapshot_times)
        if snapshot_cb is not None:
            while pending and pending[0] <= 1e-12:
                snapshot_cb(self.curr, 0.0)
                pending.pop(0)
        for k in range(n_steps):
            state = self.bootstrap_first_step() if k == 0 else self.step()
            if snapshot_cb is not None:
                while pending and state.t >= pending[0] - 1e-9:
                    snapshot_cb(state, state.t)
                    pending.pop(0)
        return self.records

    # ------------------------------------------------------------------
    # diagnostics and structure checks
    # ------------------------------------------------------------------

    def _measure(self, new, old):
        """(masses, minima, discrete energy) of the level ``new``, whose
        energy pairs it with the level ``old`` before it."""
        mesh = self.mesh
        return (tuple(model.species_mass(c, mesh) for c in new.c),
                tuple(model.min_concentration(c) for c in new.c),
                model.discrete_energy(new, old, self.params, mesh))

    def _record(self, new, measured, xi, **values):
        """Diagnostics record of the level ``new`` from what
        :meth:`_measure` returned for it."""
        masses, mins, e_total = measured
        return model.DiagnosticsRecord(
            t=new.t, e_total=e_total, masses=masses, min_c=mins,
            xi=float(xi), r=float(new.r), **values)

    def _log_identities(self, ws, psi, a0, mv_ut, kdef_ut):
        """Discrete divergence and split-consistency residuals of this step,
        (div, split); ``mv_ut`` and ``kdef_ut`` are Mv and Kdef times the
        composite velocity."""
        params = self.params
        dt = params.dt
        div_vec = self.G.T @ ws.u_tilde.coefficients
        d = div_vec - (dt / a0) * (self.K1 @ psi.coefficients)
        div_rel = np.linalg.norm(d) / max(np.linalg.norm(div_vec), 1e-300)

        lhs = (a0 / dt) * mv_ut + kdef_ut / params.re
        rhs = ws.rhs_u - ws.xi * ws.adv_vec - params.co * ws.xi * ws.coul_vec
        free = self._momentum.free
        split_rel = np.linalg.norm((lhs - rhs)[free]) \
            / max(np.linalg.norm(rhs[free]), 1e-300)
        return float(div_rel), float(split_rel)

    def _run_checks(self, new, targets):
        """Positivity, mass and energy checks of a new level; returns what
        it measured of the level (:meth:`_measure`), which its record
        holds."""
        measured = self._measure(new, self.curr)
        masses, mins, e_new = measured
        step = self.step_index + 1
        for i, (mn, m) in enumerate(zip(mins, masses)):
            if not mn > 0.0:
                raise StructuralViolation(
                    f"species {i} minimum concentration {mn:.3e} at step "
                    f"{step}", step=step, quantity="positivity")
            if self.check_mass \
                    and abs(m - targets[i]) > MASS_RTOL * abs(targets[i]):
                raise StructuralViolation(
                    f"species {i} mass {m!r} drifted from {targets[i]!r} "
                    f"at step {step}", step=step, quantity="mass")
        if self.check_energy:
            e_old = self.records[-1].e_total
            e_ref = abs(self.records[0].e_total)
            if e_new > e_old + ENERGY_RTOL * e_ref:
                msg = (f"discrete energy increased at step {step}: "
                       f"{float(e_old)!r} -> {float(e_new)!r}")
                if self.strict_energy:
                    raise StructuralViolation(msg, step=step,
                                              quantity="energy")
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
        return measured
