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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem, model
from .errors import NonFiniteError, PositivityError, StructuralViolation
from .mesh import dof_map
from .sparse import factorize

MASS_RTOL = 1e-10
ENERGY_RTOL = 1e-10
ZETA2_FLOOR = -1e-12


@dataclass
class SourcePack:
    """Manufactured source terms wired into the scheme's right-hand sides.

    ``f_sigma`` is the transport source divided by the exact concentration
    (the forcing seen by the log-transformed equation).  ``f_c`` is the raw
    transport source; it feeds the power compensation that keeps the
    auxiliary-variable ratio consistent under forcing.
    """

    f_u: object = None
    f_c: list = field(default_factory=list)
    f_sigma: list = field(default_factory=list)
    f_v: object = None
    dfv_dt: object = None


@dataclass
class StepWorkspace:
    """Extrapolated fields and intermediate solves of one step.

    ``c_star_quad`` holds the extrapolated concentration values at
    quadrature points (differences of the positive point values; the
    extrapolant itself may dip negative, which is harmless since it only
    ever appears as an explicit coefficient).  ``rhs_u`` is the first split
    momentum system's right-hand side before its boundary rows are set, and
    ``grad_vbar`` the new potential's gradient at quadrature points.
    """

    u_star_vals: np.ndarray
    u_star_grads: np.ndarray
    sigma_star: list
    grad_sigma_star: list
    c_star_quad: list
    v_star: fem.Field
    grad_v_star: np.ndarray
    mu_star: np.ndarray
    Kdef: object = None
    rhs_u: np.ndarray = None
    grad_vbar: np.ndarray = None
    adv_vec: np.ndarray = None
    coul_vec: np.ndarray = None
    u1_tilde: fem.Field = None
    u2_tilde: fem.Field = None
    u_tilde: fem.Field = None
    psi: fem.Field = None
    zeta1: float = 0.0
    zeta2: float = 0.0
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
        n2 = self.p2.n_dofs
        self.n2 = n2

        self.M2 = fem.assemble("mass", self.p2, self.p2, mesh)
        self.K2 = fem.assemble("stiffness", self.p2, self.p2, mesh)
        self.Mv = fem.assemble("vector_mass", self.p2, self.p2, mesh)
        self.K1 = fem.assemble("stiffness", self.p1, self.p1, mesh)
        self.Cx = fem.assemble("grad_x", self.p1, self.p2, mesh)
        self.Cy = fem.assemble("grad_y", self.p1, self.p2, mesh)
        self.Ddiv = fem.assemble("div_coupling", self.p1, self.p2, mesh)
        self.m2 = fem.basis_integrals(self.p2, mesh)
        self.m1 = fem.basis_integrals(self.p1, mesh)
        self._CxT = self.Cx.T.tocsr()
        self._CyT = self.Cy.T.tocsr()

        # M2, K2 and the per-step advection and steric stiffness share this
        # pattern, so the transport matrix is a sum of their data vectors
        self._transport_pattern = fem.pattern("mass", self.p2, self.p2, mesh)
        # the momentum matrix lives on the deformation pattern; Mv's data
        # are placed on it once, and its zero velocity Dirichlet rows and
        # columns are eliminated by a gather built here
        bd = self.p2.boundary_dofs
        self.vec_bdofs = np.concatenate([bd, bd + n2])
        momentum = fem.pattern("deformation", self.p2, self.p2, mesh)
        self._mv_momentum = np.zeros(momentum.nnz)
        self._mv_momentum[momentum.positions(self.Mv)] = self.Mv.data
        self._velocity_bc = fem.DirichletElimination(momentum, self.vec_bdofs)

        self._psi_solver = fem.ZeroMeanSolver(self.K1, self.m1)
        self._m2_solver = factorize(self.M2)

        lamK2 = params.lam * self.K2
        if bc_mode == "zero_mean":
            self._pot_solver = fem.ZeroMeanSolver(lamK2, self.m2)
            self._pot_dofs = None
            self._pot_vals = None
        else:
            left = self.p2.boundary_dofs_by_side["left"]
            right = self.p2.boundary_dofs_by_side["right"]
            self._pot_dofs = np.concatenate([left, right])
            self._pot_vals = np.concatenate([np.ones(left.size),
                                             np.zeros(right.size)])
            A_V, _ = fem.apply_dirichlet(lamK2, np.zeros(n2),
                                         self._pot_dofs, self._pot_vals)
            self._pot_solver = factorize(A_V)

        self.prev = None
        self.curr = None
        self.b_shift = None
        self.mass0 = None
        self.step_index = 0
        self.records = []

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def set_initial(self, c0_fns, u0_fn=None, p0_fn=None):
        """Build the level-0 state from initial-data callables."""
        mesh, params = self.mesh, self.params
        c0 = [model.concentration_from_callable(fn, self.p2, mesh)
              for fn in c0_fns]
        sigma0 = [c.sigma for c in c0]
        if u0_fn is None:
            u0 = fem.zero_field(self.p2, components=2)
        else:
            u0 = fem.interpolate(u0_fn, self.p2, components=2)
        if p0_fn is None:
            p0 = fem.zero_field(self.p1)
        else:
            p0 = fem.interpolate(p0_fn, self.p1)
            p0.coefficients -= fem.mean_value(p0, mesh)

        vbar0, multiplier = self.solve_potential(c0, t=0.0)
        e0 = model.energy_spnp(c0, fem.eval_grads(vbar0, mesh), params, mesh)
        self.b_shift = model.resolve_b_shift(params, e0)
        r0 = np.sqrt(e0 + self.b_shift)
        mu0 = model.carreau_viscosity(model.shear_rate_sq(u0, mesh), params)
        self.mass0 = [model.species_mass(c, mesh) for c in c0]

        self.curr = model.State(t=0.0, u=u0, p=p0, sigma=sigma0, c=c0,
                                vbar=vbar0, v=vbar0.copy(), mu_q=mu0, r=r0)
        self.prev = None
        self.step_index = 0
        e0_total = model.discrete_energy(self.curr, self.curr, params, mesh)
        self.records = [self._record(self.curr, e0_total, xi=1.0,
                                     visc_dissip=0.0, ionic_dissip=0.0,
                                     e_spnp=e0, multiplier=multiplier)]
        return self.curr

    def _mass_targets(self, t):
        if self.mass_schedule is not None:
            return self.mass_schedule(t)
        return self.mass0

    # ------------------------------------------------------------------
    # individual scheme steps
    # ------------------------------------------------------------------

    def make_workspace(self, bdf1=False):
        """Extrapolated fields 2 f^n - f^{n-1} for the next step; the
        bootstrap (``bdf1``) weights the older level zero, giving f^n."""
        mesh = self.mesh
        n = self.curr
        o, e = (n, 0.0) if bdf1 else (self.prev, 1.0)

        def extrap(fn, fo):
            return (1.0 + e) * fn - e * fo

        def extrap_field(f, fo):
            return fem.Field(f.dofmap, extrap(f.coefficients, fo.coefficients),
                             f.components)

        u_star = extrap_field(n.u, o.u)
        sigma_star = [extrap_field(s, so) for s, so in zip(n.sigma, o.sigma)]
        v_star = extrap_field(n.v, o.v)
        c_star_quad = [extrap(model.conc_values(c, mesh),
                              model.conc_values(co, mesh))
                       for c, co in zip(n.c, o.c)]
        # clamped at mu_inf, as the discrete energy estimate requires
        mu_star = np.maximum(extrap(n.mu_q, o.mu_q), self.params.mu_inf)
        return StepWorkspace(
            u_star_vals=fem.eval_values(u_star, mesh),
            u_star_grads=fem.eval_grads(u_star, mesh),
            sigma_star=sigma_star,
            grad_sigma_star=[fem.eval_grads(s, mesh) for s in sigma_star],
            c_star_quad=c_star_quad,
            v_star=v_star,
            grad_v_star=fem.eval_grads(v_star, mesh),
            mu_star=mu_star,
        )

    def step_sigma(self, ws, species, a0, hist, t_new):
        """Solve the linearized log-concentration system for one species."""
        mesh, params = self.mesh, self.params
        p2 = self.p2
        pe = params.pe
        zi = params.z[species]
        w = params.w_steric
        dt = params.dt

        grad_sig_star = ws.grad_sigma_star
        c_star_vals = ws.c_star_quad

        # all first-order terms collapse into one transport coefficient
        b = (ws.u_star_vals
             - grad_sig_star[species] / pe
             - (zi / pe) * ws.grad_v_star)
        for j in range(params.n_species):
            if w[species, j] != 0.0:
                b = b - (w[species, j] / pe) \
                    * c_star_vals[j][..., None] * grad_sig_star[j]

        data = (a0 / dt) * self.M2.data \
            + fem.assemble("advection", p2, p2, mesh, b).data \
            + (1.0 / pe) * self.K2.data
        wii = w[species, species]
        if wii != 0.0:
            data += (wii / pe) * fem.assemble(
                "stiffness", p2, p2, mesh, coeff=c_star_vals[species]).data
        A = self._transport_pattern.csr(data)

        rhs = self.M2 @ hist[species] / dt
        rhs -= (zi / pe) * (self.K2 @ ws.v_star.coefficients)
        flux = None
        for j in range(params.n_species):
            if j != species and w[species, j] != 0.0:
                term = w[species, j] * c_star_vals[j][..., None] * grad_sig_star[j]
                flux = term if flux is None else flux + term
        if flux is not None:
            rhs -= fem.assemble_vector("vecflux", p2, mesh, flux) / pe
        if self.sources is not None and self.sources.f_sigma:
            f = self.sources.f_sigma[species]
            rhs += fem.assemble_vector("source", p2, mesh,
                                       lambda x, y: f(x, y, t_new))
        return fem.Field(p2, factorize(A).solve(rhs)[0])

    def renormalize_concentration(self, sigma_new, mass_target):
        """Exponentiate pointwise and rescale to the target mass."""
        if mass_target <= 0.0:
            raise ValueError("mass target must be positive")
        nodal, sigma_quad, quad = model.exp_log_field(sigma_new, self.mesh)
        if not (np.all(np.isfinite(nodal)) and np.all(np.isfinite(quad))):
            raise NonFiniteError("exp(sigma) overflowed")
        mbar = fem.integrate(quad, self.mesh)
        if not mbar > 0.0:
            raise PositivityError(f"renormalization mass {mbar:.3e} <= 0")
        return model.Concentration(sigma_new, mass_target / mbar, nodal,
                                   sigma_quad, quad)

    def _charge(self, c_fields):
        """Charge density sum_i z_i c_i at quadrature points."""
        charge = None
        for zi, c in zip(self.params.z, c_fields):
            term = zi * model.conc_values(c, self.mesh)
            charge = term if charge is None else charge + term
        return charge

    def solve_potential(self, c_fields, t):
        """Electric potential before auxiliary-variable scaling.

        Returns (vbar, multiplier): the zero-mean solve's net-charge
        multiplier, NaN with the Dirichlet potential.
        """
        rhs = fem.assemble_vector("source", self.p2, self.mesh,
                                  self._charge(c_fields))
        if self.sources is not None and self.sources.f_v is not None:
            fv = self.sources.f_v
            rhs += fem.assemble_vector("source", self.p2, self.mesh,
                                       lambda x, y: fv(x, y, t))
        if self.bc_mode == "zero_mean":
            subtract = self.neutralize_net_charge or self.sources is not None
            sol, mult, _ = self._pot_solver.solve(rhs, subtract_mean=subtract)
            return fem.Field(self.p2, sol), mult
        rhs[self._pot_dofs] = self._pot_vals
        sol, _ = self._pot_solver.solve(rhs)
        return fem.Field(self.p2, sol), np.nan

    def solve_velocity_split(self, ws, c_new, vbar_new, a0, hist_u, t_new):
        """Solve the two split momentum systems (shared matrix)."""
        mesh, params = self.mesh, self.params
        dt = params.dt
        p2 = self.p2

        ws.Kdef = fem.assemble("deformation", p2, p2, mesh, coeff=ws.mu_star)
        A = self._velocity_bc.matrix((a0 / dt) * self._mv_momentum
                                     + (1.0 / params.re) * ws.Kdef.data)

        adv = np.einsum("eqj,eqkj->eqk", ws.u_star_vals, ws.u_star_grads)
        ws.adv_vec = fem.assemble_vector("vector_source", p2, mesh, adv)
        ws.grad_vbar = fem.eval_grads(vbar_new, mesh)
        coul = self._charge(c_new)[..., None] * ws.grad_vbar
        ws.coul_vec = fem.assemble_vector("vector_source", p2, mesh, coul)

        ws.rhs_u = self.Mv @ hist_u / dt + self.Ddiv @ self.curr.p.coefficients
        if self.sources is not None and self.sources.f_u is not None:
            fu = self.sources.f_u
            ws.rhs_u += fem.assemble_vector("vector_source", p2, mesh,
                                            lambda x, y: fu(x, y, t_new))
        rhs2 = -ws.adv_vec - params.co * ws.coul_vec

        # zero data: the eliminated columns leave the free rows unchanged
        rhs1 = ws.rhs_u.copy()
        rhs1[self.vec_bdofs] = 0.0
        rhs2[self.vec_bdofs] = 0.0

        solver = factorize(A)
        u1 = solver.solve(rhs1)[0]
        u2 = solver.solve(rhs2)[0]
        ws.u1_tilde = fem.Field(p2, u1, components=2)
        ws.u2_tilde = fem.Field(p2, u2, components=2)
        return ws.u1_tilde, ws.u2_tilde

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
        if self.sources.dfv_dt is not None:
            dfq = self.sources.dfv_dt(xy[..., 0], xy[..., 1], t_new)
            total += params.co * fem.integrate(vbar_vals * dfq, mesh)
        return total

    def compute_xi(self, ws, c_new, vbar_new, a0, hist_r, t_new):
        """Auxiliary-variable ratio from the split velocity solves."""
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
        ws.zeta1, ws.zeta2 = zeta1, zeta2
        ws.xi = (hist_r + dt * zeta1) / denom
        return ws.xi, e_spnp, g_total, sqrt_eb

    def update_r_v_u(self, ws, vbar_new, sqrt_eb):
        """Recombine: r, scaled potential, and the composite velocity."""
        xi = ws.xi
        r_new = xi * sqrt_eb
        v_new = fem.Field(self.p2, xi * vbar_new.coefficients)
        u_tilde = fem.Field(self.p2,
                            ws.u1_tilde.coefficients
                            + xi * ws.u2_tilde.coefficients, components=2)
        ws.u_tilde = u_tilde
        return r_new, v_new, u_tilde

    def pressure_poisson(self, u_tilde, a0):
        """Zero-mean pressure increment from the projection step."""
        dt = self.params.dt
        ux = u_tilde.component(0)
        uy = u_tilde.component(1)
        rhs = (a0 / dt) * (self._CxT @ ux + self._CyT @ uy)
        sol, _, _ = self._psi_solver.solve(rhs, subtract_mean=True)
        return fem.Field(self.p1, sol)

    def correct(self, ws, psi, a0):
        """Project the corrected velocity, update pressure and viscosity."""
        params = self.params
        dt = params.dt
        scale = dt / a0
        ux = self._m2_solver.solve(
            self.M2 @ ws.u_tilde.component(0) - scale * (self.Cx @ psi.coefficients))[0]
        uy = self._m2_solver.solve(
            self.M2 @ ws.u_tilde.component(1) - scale * (self.Cy @ psi.coefficients))[0]
        u_new = fem.Field(self.p2, np.concatenate([ux, uy]), components=2)
        p_new = fem.Field(self.p1, psi.coefficients + self.curr.p.coefficients)
        p_new.coefficients -= fem.mean_value(p_new, self.mesh)
        mu_new = model.carreau_viscosity(
            model.shear_rate_sq(u_new, self.mesh), params)
        return u_new, p_new, mu_new

    # ------------------------------------------------------------------
    # full steps
    # ------------------------------------------------------------------

    def _advance(self, bdf1):
        params = self.params
        dt = params.dt
        n = self.curr
        # the BDF1 bootstrap is BDF2 with the older level weighted zero
        o = n if bdf1 else self.prev
        a0, wn, wo = (1.0, 1.0, 0.0) if bdf1 else (1.5, 2.0, 0.5)
        t_new = n.t + dt
        hist_sigma = [wn * s.coefficients - wo * so.coefficients
                      for s, so in zip(n.sigma, o.sigma)]
        hist_u = wn * n.u.coefficients - wo * o.u.coefficients
        hist_r = wn * n.r - wo * o.r

        ws = self.make_workspace(bdf1=bdf1)

        sigma_new = [self.step_sigma(ws, i, a0, hist_sigma, t_new)
                     for i in range(params.n_species)]
        targets = self._mass_targets(t_new)
        c_new = [self.renormalize_concentration(sigma_new[i], targets[i])
                 for i in range(params.n_species)]
        vbar_new, multiplier = self.solve_potential(c_new, t_new)
        self.solve_velocity_split(ws, c_new, vbar_new, a0, hist_u, t_new)
        xi, e_spnp, g_total, sqrt_eb = self.compute_xi(
            ws, c_new, vbar_new, a0, hist_r, t_new)
        r_new, v_new, u_tilde = self.update_r_v_u(ws, vbar_new, sqrt_eb)
        psi = self.pressure_poisson(u_tilde, a0)
        u_new, p_new, mu_new = self.correct(ws, psi, a0)

        new = model.State(t=t_new, u=u_new, p=p_new, sigma=sigma_new,
                          c=c_new, vbar=vbar_new, v=v_new, mu_q=mu_new,
                          r=r_new, xi=float(xi))

        div, split = self._log_identities(ws, psi, a0)
        e_total = self._run_checks(new, targets)

        self.prev = self.curr
        self.curr = new
        self.step_index += 1
        self.records.append(self._record(
            new, e_total, xi=xi,
            visc_dissip=float(u_tilde.coefficients
                              @ (ws.Kdef @ u_tilde.coefficients)) / params.re,
            ionic_dissip=xi ** 2 * (params.co / params.pe) * g_total,
            e_spnp=e_spnp, multiplier=multiplier, div_residual=div,
            split_residual=split, zeta2=ws.zeta2))
        return new

    def bootstrap_first_step(self):
        """One first-order step to populate the second time level."""
        if self.step_index != 0:
            raise RuntimeError("bootstrap must be the first step")
        return self._advance(bdf1=True)

    def step(self):
        """One full second-order step."""
        if self.prev is None:
            raise RuntimeError("bootstrap the first step before stepping")
        return self._advance(bdf1=False)

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

    def _record(self, new, e_total, xi, **values):
        masses = tuple(model.species_mass(c, self.mesh) for c in new.c)
        mins = tuple(model.min_concentration(c, self.mesh) for c in new.c)
        return model.DiagnosticsRecord(
            t=new.t, e_total=e_total, masses=masses, min_c=mins,
            xi=float(xi), r=float(new.r), **values)

    def _log_identities(self, ws, psi, a0):
        """Discrete divergence and split-consistency residuals of this step,
        (div, split)."""
        params = self.params
        dt = params.dt
        ut = ws.u_tilde
        div_vec = self._CxT @ ut.component(0) + self._CyT @ ut.component(1)
        d = div_vec - (dt / a0) * (self.K1 @ psi.coefficients)
        div_rel = np.linalg.norm(d) / max(np.linalg.norm(div_vec), 1e-300)

        lhs = (a0 / dt) * (self.Mv @ ut.coefficients) \
            + (ws.Kdef @ ut.coefficients) / params.re
        rhs = ws.rhs_u - ws.xi * ws.adv_vec - params.co * ws.xi * ws.coul_vec
        free = np.ones(lhs.size, dtype=bool)
        free[self.vec_bdofs] = False
        split_rel = np.linalg.norm((lhs - rhs)[free]) \
            / max(np.linalg.norm(rhs[free]), 1e-300)
        return float(div_rel), float(split_rel)

    def _run_checks(self, new, targets):
        """Positivity, mass and energy checks of a new level; returns its
        discrete energy."""
        step = self.step_index + 1
        for i, c in enumerate(new.c):
            mn = model.min_concentration(c, self.mesh)
            if not mn > 0.0:
                raise StructuralViolation(
                    f"species {i} minimum concentration {mn:.3e} at step "
                    f"{step}", step=step, quantity="positivity")
            if self.check_mass:
                m = model.species_mass(c, self.mesh)
                if abs(m - targets[i]) > MASS_RTOL * abs(targets[i]):
                    raise StructuralViolation(
                        f"species {i} mass {m!r} drifted from {targets[i]!r} "
                        f"at step {step}", step=step, quantity="mass")
        e_new = model.discrete_energy(new, self.curr, self.params, self.mesh)
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
        return e_new
