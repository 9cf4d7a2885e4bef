"""Accuracy harness: exact solutions, derived sources, convergence tables.

The exact fields are trigonometric with a common exp(-t) decay; all space and
time derivatives are coded in closed form.  The forcing terms for each
equation follow by substituting the exact fields into the continuous system,
including the shear-dependent stress divergence.  Every field is a
polynomial in sin(pi x), cos(pi x), sin(pi y), cos(pi y) and exp(-t), so
each forcing call evaluates these five values once and forms the rest as
products.  The test suite checks the forcing against the per-term closed
forms built from the ``ExactSolution`` methods and against a fourth-order
finite-difference application of the same operators at random space-time
points.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import fem, model
from .mesh import build_rect_mesh
from .scheme import SourcePack, Stepper

PI = np.pi


@dataclass
class ExactSolution:
    """Closed-form fields of the forced benchmark problem.

    All methods are vectorized over (x, y) with a scalar time.
    """

    def cp(self, x, y, t):
        return 1.2 + np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cp_x(self, x, y, t):
        return -PI * np.sin(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cp_y(self, x, y, t):
        return -PI * np.cos(PI * x) * np.sin(PI * y) * np.exp(-t)

    def cp_lap(self, x, y, t):
        return -2 * PI ** 2 * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cp_t(self, x, y, t):
        return -np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cn(self, x, y, t):
        return 1.2 - np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def cn_x(self, x, y, t):
        return -self.cp_x(x, y, t)

    def cn_y(self, x, y, t):
        return -self.cp_y(x, y, t)

    def cn_lap(self, x, y, t):
        return -self.cp_lap(x, y, t)

    def cn_t(self, x, y, t):
        return -self.cp_t(x, y, t)

    def v(self, x, y, t):
        return np.cos(PI * x) * np.cos(PI * y) * np.exp(-t) / PI ** 2

    def v_x(self, x, y, t):
        return -np.sin(PI * x) * np.cos(PI * y) * np.exp(-t) / PI

    def v_y(self, x, y, t):
        return -np.cos(PI * x) * np.sin(PI * y) * np.exp(-t) / PI

    def v_lap(self, x, y, t):
        return -2 * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def u1(self, x, y, t):
        return PI * np.sin(PI * x) ** 2 * np.sin(2 * PI * y) * np.exp(-t)

    def u1_x(self, x, y, t):
        return PI ** 2 * np.sin(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u1_y(self, x, y, t):
        return 2 * PI ** 2 * np.sin(PI * x) ** 2 * np.cos(2 * PI * y) * np.exp(-t)

    def u1_xx(self, x, y, t):
        return 2 * PI ** 3 * np.cos(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u1_xy(self, x, y, t):
        return 2 * PI ** 3 * np.sin(2 * PI * x) * np.cos(2 * PI * y) * np.exp(-t)

    def u1_yy(self, x, y, t):
        return -4 * PI ** 3 * np.sin(PI * x) ** 2 * np.sin(2 * PI * y) * np.exp(-t)

    def u2(self, x, y, t):
        return -PI * np.sin(2 * PI * x) * np.sin(PI * y) ** 2 * np.exp(-t)

    def u2_x(self, x, y, t):
        return -2 * PI ** 2 * np.cos(2 * PI * x) * np.sin(PI * y) ** 2 * np.exp(-t)

    def u2_y(self, x, y, t):
        return -PI ** 2 * np.sin(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u2_xx(self, x, y, t):
        return 4 * PI ** 3 * np.sin(2 * PI * x) * np.sin(PI * y) ** 2 * np.exp(-t)

    def u2_xy(self, x, y, t):
        return -2 * PI ** 3 * np.cos(2 * PI * x) * np.sin(2 * PI * y) * np.exp(-t)

    def u2_yy(self, x, y, t):
        return -2 * PI ** 3 * np.sin(2 * PI * x) * np.cos(2 * PI * y) * np.exp(-t)

    def u(self, x, y, t):
        return self.u1(x, y, t), self.u2(x, y, t)

    def p(self, x, y, t):
        return np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def p_x(self, x, y, t):
        return -PI * np.sin(PI * x) * np.cos(PI * y) * np.exp(-t)

    def p_y(self, x, y, t):
        return -PI * np.cos(PI * x) * np.sin(PI * y) * np.exp(-t)

    def divergence_u(self, x, y, t):
        return self.u1_x(x, y, t) + self.u2_y(x, y, t)


@dataclass
class SourceTerms:
    """Forcing callables derived from the exact solution.

    ``f_sigma`` holds the transport sources divided by the exact
    concentrations, c+ then c-.
    """

    f_u: object
    f_cp: object
    f_cn: object
    f_v: object
    dfv_dt: object
    f_sigma: list


def exact_solution_sec41(params=None):
    """The benchmark exact fields (parameters do not enter the fields)."""
    return ExactSolution()


def _trig(x, y, t):
    """(sin pi x, cos pi x, sin pi y, cos pi y, exp(-t)): every exact field
    is a polynomial in these five values."""
    px, py = PI * x, PI * y
    return np.sin(px), np.cos(px), np.sin(py), np.cos(py), np.exp(-t)


def _phi(sx, cx, sy, cy, e):
    """phi = cos(pi x) cos(pi y) e^-t and its gradient.  The exact fields
    are c+ = 1.2 + phi, c- = 1.2 - phi, p = phi and V = phi / pi^2."""
    cye = cy * e
    return cx * cye, -PI * sx * cye, -PI * cx * (sy * e)


def _velocity(sx, cx, sy, cy, e):
    """(u1, u2, parts) with u1 = pi sin^2(pi x) sin(2 pi y) e^-t and
    u2 = -pi sin(2 pi x) sin^2(pi y) e^-t.  ``parts`` = (pi e^-t,
    sin^2 pi x, sin^2 pi y, sin 2 pi x, sin 2 pi y), the products every
    derivative of u is formed from; the double angles come from the
    single ones."""
    a = PI * e
    sx2, sy2 = sx * sx, sy * sy
    s2x, s2y = 2.0 * sx * cx, 2.0 * sy * cy
    return a * sx2 * s2y, -a * s2x * sy2, (a, sx2, sy2, s2x, s2y)


def _transport_source(trig, params, species):
    """(f_c, c) of species 0 (c+) or 1 (c-).

    With c = 1.2 + s phi (s = +1, -1) and g = log c + z V + sum_j w_j c_j,
    c grad g = s grad phi + k c grad phi with k = z / pi^2 + w_0 - w_1, so
    div(c grad g) = lap c + k div(c grad phi).
    """
    phi, phi_x, phi_y = _phi(*trig)
    u1, u2, _ = _velocity(*trig)
    s = 1.0 - 2.0 * species
    w = params.w_steric[species]
    k = params.z[species] / PI ** 2 + w[0] - w[1]
    c = 1.2 + s * phi
    lap_phi = (-2.0 * PI ** 2) * phi
    div = s * lap_phi + k * (s * (phi_x * phi_x + phi_y * phi_y)
                             + c * lap_phi)
    f = s * (u1 * phi_x + u2 * phi_y - phi) - div / params.pe
    return f, c


def _momentum_source(trig, params):
    """d_t u + (u.grad)u - div(2 mu D(u))/Re + grad p + Co rho grad V."""
    phi, phi_x, phi_y = _phi(*trig)
    u1, u2, (a, sx2, sy2, s2x, s2y) = _velocity(*trig)
    c2x, c2y = 1.0 - 2.0 * sx2, 1.0 - 2.0 * sy2
    a1, a2 = PI * a, PI ** 2 * a
    # u2_y = -u1_x, u2_xy = -u1_xx, u2_yy = -u1_xy
    u1_x = a1 * s2x * s2y
    u1_y = 2.0 * a1 * sx2 * c2y
    u2_x = -2.0 * a1 * c2x * sy2
    u1_xx = 2.0 * a2 * c2x * s2y
    u1_xy = 2.0 * a2 * s2x * c2y
    # 2 sin^2 + cos 2 = 1 turns the mixed derivative's two terms into one
    mix = u1_y + u2_x
    mix_x = 2.0 * a2 * s2x
    mix_y = -2.0 * a2 * s2y
    lap1 = 2.0 * a2 * s2y * (1.0 - 4.0 * sx2)
    lap2 = 2.0 * a2 * s2x * (4.0 * sy2 - 1.0)

    # s = 2 D(u):D(u); mu'(s) = (mu - mu_inf) (k-1) lambda1^2 / (2 q),
    # q = 1 + lambda1^2 s, so one power gives both
    shear = 4.0 * u1_x * u1_x + mix * mix
    mu = model.carreau_viscosity(shear, params)
    lam2 = params.lambda1 ** 2
    dmu = (mu - params.mu_inf) * (0.5 * (params.k - 1.0) * lam2) \
        / (1.0 + lam2 * shear)
    mu_x = dmu * (8.0 * u1_x * u1_xx + 2.0 * mix * mix_x)
    mu_y = dmu * (8.0 * u1_x * u1_xy + 2.0 * mix * mix_y)
    div1 = mu * lap1 + 2.0 * u1_x * mu_x + mix * mu_y
    div2 = mu * lap2 + mix * mu_x - 2.0 * u1_x * mu_y

    z0, z1 = params.z
    charge = 1.2 * (z0 + z1) + (z0 - z1) * phi
    # grad p + Co rho grad V = (1 + Co rho / pi^2) grad phi
    g = 1.0 + (params.co / PI ** 2) * charge
    f1 = u1 * u1_x + u2 * u1_y - u1 - div1 / params.re + g * phi_x
    f2 = u1 * u2_x - u2 * u1_x - u2 - div2 / params.re + g * phi_y
    return f1, f2


def source_terms(exact, params):
    """Forcing terms that make the exact fields of ``exact`` (an
    ``ExactSolution``) solve the full system under ``params``.

    Each callable evaluates the five values of ``_trig`` once and forms
    every field it needs as products of them.
    """

    def f_u(x, y, t):
        return _momentum_source(_trig(x, y, t), params)

    def f_cp(x, y, t):
        return _transport_source(_trig(x, y, t), params, 0)[0]

    def f_cn(x, y, t):
        return _transport_source(_trig(x, y, t), params, 1)[0]

    def sigma_source(species):
        def f_sigma(x, y, t):
            f, c = _transport_source(_trig(x, y, t), params, species)
            return f / c
        return f_sigma

    # -lam lap V - rho with lap V = -2 phi and rho = z0 c+ + z1 c-
    z0, z1 = params.z
    v_coeff = 2.0 * params.lam - z0 + z1

    def phi(x, y, t):
        return np.cos(PI * x) * (np.cos(PI * y) * np.exp(-t))

    def f_v(x, y, t):
        return v_coeff * phi(x, y, t) - 1.2 * (z0 + z1)

    def dfv_dt(x, y, t):
        return -v_coeff * phi(x, y, t)

    return SourceTerms(f_u=f_u, f_cp=f_cp, f_cn=f_cn, f_v=f_v, dfv_dt=dfv_dt,
                       f_sigma=[sigma_source(0), sigma_source(1)])


# ----------------------------------------------------------------------
# convergence study
# ----------------------------------------------------------------------

SEC41_PARAMS = dict(lam=1.0, pe=2.0, re=1.0, co=5.0, k=0.5, mu0=1.0,
                    mu_inf=0.5, lambda1=1.0, z=(1, -1),
                    w_steric=np.array([[2.0, 1.0], [1.0, 2.0]]))

ERROR_KEYS = ("u", "p", "cp", "cn", "V")


@dataclass
class ConvergenceRow:
    n_steps: int
    dt: float
    errors: dict
    orders: dict


def build_source_pack(exact, sources):
    """Wire the derived sources for ``exact`` into the scheme's right-hand
    sides; the log-transformed transport sources are ``sources.f_sigma``."""
    return SourcePack(f_u=sources.f_u, f_c=[sources.f_cp, sources.f_cn],
                      f_sigma=list(sources.f_sigma), f_v=sources.f_v,
                      dfv_dt=sources.dfv_dt)


def run_manufactured(n_steps, n_cells, t_final=0.5, params=None):
    """One forced run; returns (stepper, final L2 errors dict)."""
    if params is None:
        params = model.Params(dt=t_final / n_steps, t_final=t_final,
                              **SEC41_PARAMS)
    exact = exact_solution_sec41(params)
    sources = source_terms(exact, params)
    pack = build_source_pack(exact, sources)
    mesh = build_rect_mesh(0.0, 1.0, 0.0, 1.0, n_cells, n_cells)
    # the exact masses are time-independent: the oscillatory part integrates
    # to zero over the unit square
    schedule = lambda t: (1.2, 1.2)
    stepper = Stepper(mesh, params, sources=pack, mass_schedule=schedule,
                      check_mass=False, check_energy=False)
    stepper.set_initial(
        [lambda x, y: exact.cp(x, y, 0.0), lambda x, y: exact.cn(x, y, 0.0)],
        u0_fn=lambda x, y: exact.u(x, y, 0.0),
        p0_fn=lambda x, y: exact.p(x, y, 0.0))
    stepper.run(n_steps=n_steps)
    T = stepper.curr.t
    # potential error is measured on the Poisson-step solution: under
    # forcing the auxiliary ratio carries a transient of its own, and
    # rescaling the field by it would entangle the two error sources
    errors = {
        "u": fem.error_norm_l2(stepper.curr.u,
                               lambda x, y: exact.u(x, y, T), mesh),
        "p": fem.error_norm_l2(stepper.curr.p,
                               lambda x, y: exact.p(x, y, T), mesh),
        "cp": model.conc_error_l2(stepper.curr.c[0],
                                  lambda x, y: exact.cp(x, y, T), mesh),
        "cn": model.conc_error_l2(stepper.curr.c[1],
                                  lambda x, y: exact.cn(x, y, T), mesh),
        "V": fem.error_norm_l2(stepper.curr.vbar,
                               lambda x, y: exact.v(x, y, T), mesh),
    }
    return stepper, errors


def convergence_study(n_steps_list, n_cells, t_final=0.5, params_base=None):
    """Temporal refinement table at fixed mesh size.

    Runs to ``t_final`` with dt = t_final / N for each N, measures final-time
    L2 errors of u, p, c_p, c_n and V, and reports the observed order between
    consecutive rows.
    """
    n_steps_list = list(n_steps_list)
    if any(b <= a for a, b in zip(n_steps_list, n_steps_list[1:])):
        raise ValueError("step counts must be increasing")
    rows = []
    prev = None
    for n in n_steps_list:
        params = params_base.with_overrides(dt=t_final / n, t_final=t_final) \
            if params_base else None
        _, errors = run_manufactured(n, n_cells, t_final=t_final,
                                     params=params)
        orders = {}
        for key in ERROR_KEYS:
            orders[key] = float(np.log2(prev.errors[key] / errors[key])) \
                if prev else float("nan")
        row = ConvergenceRow(n_steps=n, dt=t_final / n, errors=errors,
                             orders=orders)
        rows.append(row)
        prev = row
    return rows


def write_convergence_csv(rows, path):
    """Table-style CSV: N, dt, then (error, order) pairs per tracked field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["N", "dt"]
        for key in ERROR_KEYS:
            header += [f"err_{key}", f"ord_{key}"]
        writer.writerow(header)
        for row in rows:
            line = [row.n_steps, f"{row.dt:.17g}"]
            for key in ERROR_KEYS:
                line += [f"{row.errors[key]:.17g}", f"{row.orders[key]:.17g}"]
            writer.writerow(line)


def format_convergence_table(rows):
    """Human-readable fixed-width table for the CLI."""
    lines = []
    head = f"{'N':>6} {'dt':>10}"
    for key in ERROR_KEYS:
        head += f" {'err_' + key:>12} {'ord_' + key:>8}"
    lines.append(head)
    for row in rows:
        line = f"{row.n_steps:>6} {row.dt:>10.4g}"
        for key in ERROR_KEYS:
            order = row.orders[key]
            otxt = f"{order:8.2f}" if np.isfinite(order) else f"{'-':>8}"
            line += f" {row.errors[key]:>12.4e} {otxt}"
        lines.append(line)
    return "\n".join(lines)
