"""Physical parameters, constitutive laws, energies and diagnostics.

All energies and norms are quadrature sums over the finite-element
expansions of the fields.  A concentration is scale * exp(sigma), so it is
positive by construction: no logarithm is ever taken of point values, since
log c at a quadrature point is log(scale) + sigma there, exactly.  The
energy and chemical-potential functions take quadrature arrays that the
scheme evaluates once per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import NonFiniteError, PositivityError


@dataclass(frozen=True, eq=False)
class Params:
    """Nondimensional numbers and constitutive constants.

    ``w_steric`` is the species-interaction matrix; it must be symmetric with
    nonnegative entries and positive semidefinite (the zero matrix is the
    classical, steric-free coupling).  ``b_shift`` is the constant added under
    the square root of the auxiliary energy variable; None selects
    1 + max(0, -E_spnp(initial)) at setup time.
    """

    re: float = 1.0
    pe: float = 1.0
    co: float = 1.0
    lam: float = 1.0
    mu0: float = 1.0
    mu_inf: float = 0.5
    lambda1: float = 1.0
    k: float = 1.0
    z: tuple = (1, -1)
    w_steric: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    b_shift: float | None = None
    dt: float = 1e-2
    t_final: float = 1.0

    def __post_init__(self):
        # every test is written so that NaN fails it
        for name in ("re", "pe", "co", "lam", "dt", "t_final", "k"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (np.isfinite(self.mu0) and self.mu0 > self.mu_inf > 0):
            raise ValueError("need finite mu0 > mu_inf > 0")
        if not (np.isfinite(self.lambda1) and self.lambda1 >= 0):
            raise ValueError("lambda1 must be nonnegative and finite")
        w = np.asarray(self.w_steric, dtype=np.float64)
        if w.shape != (self.n_species, self.n_species):
            raise ValueError("steric matrix shape must match species count")
        if not np.all(np.isfinite(w)):
            raise ValueError("steric matrix entries must be finite")
        if not np.allclose(w, w.T, atol=1e-12):
            raise ValueError("steric matrix must be symmetric")
        if np.any(w < 0):
            raise ValueError("steric matrix entries must be nonnegative")
        if np.linalg.eigvalsh(w).min() < -1e-12:
            raise ValueError("steric matrix must be positive semidefinite")
        object.__setattr__(self, "w_steric", w)
        if self.b_shift is not None \
                and not (np.isfinite(self.b_shift) and self.b_shift > 0):
            raise ValueError("b_shift must be positive and finite")

    @property
    def n_species(self):
        return len(self.z)


@dataclass
class State:
    """Discrete fields of one time level.

    Species i's log field is ``c[i].sigma``; the ratio xi that made ``v``
    from ``vbar`` is the level's record's ``xi``.  ``mu_q`` is the Carreau
    viscosity at quadrature points, consumed only inside assembly, so it is
    stored as an array rather than a Field.
    """

    t: float
    u: fem.Field
    p: fem.Field
    c: list
    vbar: fem.Field
    v: fem.Field
    mu_q: np.ndarray
    r: float


@dataclass
class DiagnosticsRecord:
    """Per-step structure diagnostics.  ``multiplier`` (the potential's
    net-charge multiplier) is NaN with a Dirichlet potential; the identity
    residuals and ``zeta2`` are NaN at level 0."""

    t: float
    e_total: float
    e_spnp: float
    masses: tuple
    min_c: tuple
    xi: float
    r: float
    visc_dissip: float
    ionic_dissip: float
    multiplier: float = np.nan
    div_residual: float = np.nan
    split_residual: float = np.nan
    zeta2: float = np.nan


class Concentration:
    """Strictly positive concentration stored as scale * exp(log-field).

    Built from the log field ``sigma`` and the species' ``mass``: sigma is
    evaluated at the quadrature points and exponentiated, and the scale is
    ``mass`` over the quadrature integral of exp(sigma).  NonFiniteError is
    raised if the exponential overflows, PositivityError if ``mass`` or
    that integral is not positive, so every concentration is checked where
    it is built.  Nodal coefficients are materialized for dof-level access,
    but every quadrature-point value goes through the log field, so point
    values stay positive even where a direct quadratic interpolant of a
    sharp front would undershoot.  The quadrature values ``quad`` and
    ``log_quad`` = log(scale) + sigma are read-only; the stepper sets
    ``log_quad`` to None when a level becomes the older of its two stored
    levels, since only the newest level's log values are read.
    """

    def __init__(self, sigma, mass, mesh):
        sigma_quad = fem.eval_values(sigma, mesh)
        with np.errstate(over="ignore"):
            nodal, quad = np.exp(sigma.coefficients), np.exp(sigma_quad)
        if not (np.all(np.isfinite(nodal)) and np.all(np.isfinite(quad))):
            raise NonFiniteError("exp(sigma) overflowed")
        raw_mass = fem.integrate(quad, mesh)
        if not (mass > 0.0 and raw_mass > 0.0):
            raise PositivityError(f"concentration mass {mass:.3e} or raw "
                                  f"mass {raw_mass:.3e} <= 0")
        self.sigma = sigma
        self.scale = float(mass / raw_mass)
        # scaled in place, so no quadrature-sized temporary is made
        nodal *= self.scale
        quad *= self.scale
        sigma_quad += np.log(self.scale)
        self.coefficients, self.quad, self.log_quad = nodal, quad, sigma_quad
        for a in (self.quad, self.log_quad):
            a.setflags(write=False)


def concentration_from_callable(fn, dofmap, mesh):
    """Interpolate positive initial data through its logarithm.

    The mass is the quadrature integral of the callable itself; this keeps
    analytically balanced species balanced to machine precision (the log
    interpolation alone would not).
    """
    field = fem.interpolate(fn, dofmap)
    if field.coefficients.min() <= 0.0:
        raise PositivityError("initial concentration must be strictly "
                              "positive at every dof")
    xy = fem.quad_points_physical(mesh)
    mass = fem.integrate(np.broadcast_to(np.asarray(
        fn(xy[..., 0], xy[..., 1]), dtype=np.float64), xy.shape[:2]), mesh)
    return Concentration(fem.Field(dofmap, np.log(field.coefficients)), mass,
                         mesh)


def conc_values(c, mesh):
    """Concentration values at quadrature points, ``c.quad``.  Nothing in
    the package calls it; it stays for the benchmark's tracer."""
    return c.quad


def carreau_viscosity(shear_sq, params):
    """Apparent viscosity for squared shear magnitude 2 D(u):D(u).

    mu = mu_inf + (mu0 - mu_inf) (1 + lambda1^2 s)^((k-1)/2).  The k = 1 case
    is the Newtonian limit and returns mu0 identically.
    """
    shear_sq = np.asarray(shear_sq, dtype=np.float64)
    if params.k == 1.0:
        return np.full_like(shear_sq, params.mu0)
    base = 1.0 + params.lambda1 ** 2 * shear_sq
    return params.mu_inf + (params.mu0 - params.mu_inf) \
        * np.power(base, 0.5 * (params.k - 1.0))


def shear_rate_sq(u, mesh):
    """2 D(u):D(u) at quadrature points for a vector field."""
    g = fem.eval_grads(u, mesh)   # (n_el, n_q, 2, 2)
    dxu, dyu = g[..., 0, 0], g[..., 0, 1]
    dxv, dyv = g[..., 1, 0], g[..., 1, 1]
    return 2.0 * (dxu ** 2 + dyv ** 2) + (dyu + dxv) ** 2


def chemical_potential_bar(conc, grad_sigma, vbar_vals, grad_vbar, species,
                           params):
    """Values and gradients of log c_i + z_i Vbar + sum_j w_ij c_j.

    The species' Concentrations ``conc``, their ``grad_sigma``, Vbar and
    grad Vbar are all given at quadrature points.  As grad c_j = c_j grad
    sigma_j, the gradient is grad sigma_i + z_i grad Vbar + sum_j w_ij c_j
    grad sigma_j.  Returns (values, gradients), shaped (n_el, n_q) and
    (n_el, n_q, 2); the values are None when ``vbar_vals`` is None, since
    the gradients do not need Vbar.
    """
    zi = params.z[species]
    vals = None if vbar_vals is None else conc[species].log_quad + zi * vbar_vals
    grads = grad_sigma[species] + zi * grad_vbar
    for j, wij in enumerate(params.w_steric[species]):
        if wij != 0.0:
            if vals is not None:
                vals = vals + wij * conc[j].quad
            grads = grads + wij * (conc[j].quad[..., None] * grad_sigma[j])
    return vals, grads


def energy_spnp(conc, grad_vbar, params, mesh):
    """Free energy of the ion/potential subsystem.

    (lam Co / 2) ||grad Vbar||^2 + Co sum_i (c_i, log c_i - 1)
    + (Co / 2) sum_ij w_ij (c_i, c_j), all by quadrature, from the
    Concentrations ``conc`` and grad Vbar at quadrature points.
    """
    e_field = 0.5 * params.lam * params.co * fem.integrate(
        grad_vbar[..., 0] ** 2 + grad_vbar[..., 1] ** 2, mesh)
    e_ent = params.co * sum(
        fem.integrate(c.quad * (c.log_quad - 1.0), mesh) for c in conc)
    e_ster = 0.0
    w = params.w_steric
    for i in range(params.n_species):
        for j in range(params.n_species):
            if w[i, j] != 0.0:
                e_ster += 0.5 * params.co * w[i, j] * fem.integrate(
                    conc[i].quad * conc[j].quad, mesh)
    return e_field + e_ent + e_ster


def kinetic_norms(u_new, u_old, mesh):
    """(||u_new||^2, ||2 u_new - u_old||^2) by quadrature."""
    vn = fem.eval_values(u_new, mesh)
    vo = fem.eval_values(u_old, mesh)
    sq = lambda v: fem.integrate(v[..., 0] ** 2 + v[..., 1] ** 2, mesh)
    comb = 2.0 * vn - vo
    return sq(vn), sq(comb)


def grad_norm_sq(p, mesh):
    g = fem.eval_grads(p, mesh)
    return fem.integrate(g[..., 0] ** 2 + g[..., 1] ** 2, mesh)


def discrete_energy(new, old, params, mesh):
    """Discrete total energy of a (new, old) state pair.

    E = 1/2 (1/2 ||u^{n+1}||^2 + 1/2 ||2u^{n+1} - u^n||^2)
        + (dt^2 / 3) ||grad p^{n+1}||^2
        + 1/2 (|r^{n+1}|^2 + |2 r^{n+1} - r^n|^2).
    """
    nu, ncomb = kinetic_norms(new.u, old.u, mesh)
    e_kin = 0.5 * (0.5 * nu + 0.5 * ncomb)
    e_p = params.dt ** 2 / 3.0 * grad_norm_sq(new.p, mesh)
    e_r = 0.5 * (new.r ** 2 + (2.0 * new.r - old.r) ** 2)
    return e_kin + e_p + e_r


def species_mass(c, mesh):
    """Integral of a concentration field."""
    return fem.integrate(c.quad, mesh)


def min_concentration(c, mesh):
    """Minimum over all dof coefficients and quadrature points."""
    return float(min(c.coefficients.min(), c.quad.min()))


def conc_error_l2(c, exact, mesh):
    """L2 distance of a concentration field from a callable."""
    xy = fem.quad_points_physical(mesh)
    diff = c.quad - exact(xy[..., 0], xy[..., 1])
    return float(np.sqrt(fem.integrate(diff * diff, mesh)))


def resolve_b_shift(params, e_spnp_initial):
    """Shift constant for the auxiliary variable: fixed once at setup."""
    if params.b_shift is not None:
        return float(params.b_shift)
    return 1.0 + max(0.0, -e_spnp_initial)
