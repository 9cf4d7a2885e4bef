"""Accuracy harness: exact solutions, derived sources, convergence tables.

The exact fields are trigonometric with a common exp(-t) decay; all space and
time derivatives are coded in closed form.  The forcing terms for each
equation follow by substituting the exact fields into the continuous system,
including the shear-dependent stress divergence; the test suite checks them
against a fourth-order finite-difference application of the same operators
at random space-time points.
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
    """Forcing callables derived from the exact solution."""

    f_u: object
    f_cp: object
    f_cn: object
    f_v: object
    dfv_dt: object


def exact_solution_sec41(params=None):
    """The benchmark exact fields (parameters do not enter the fields)."""
    return ExactSolution()


def _shear_and_grad(ex, x, y, t):
    """s = 2 D(u):D(u) and its spatial gradient in closed form."""
    d11 = ex.u1_x(x, y, t)
    d22 = ex.u2_y(x, y, t)
    mix = ex.u1_y(x, y, t) + ex.u2_x(x, y, t)
    s = 2.0 * (d11 ** 2 + d22 ** 2) + mix ** 2
    mix_x = ex.u1_xy(x, y, t) + ex.u2_xx(x, y, t)
    mix_y = ex.u1_yy(x, y, t) + ex.u2_xy(x, y, t)
    s_x = 4 * d11 * ex.u1_xx(x, y, t) + 4 * d22 * ex.u2_xy(x, y, t) \
        + 2 * mix * mix_x
    s_y = 4 * d11 * ex.u1_xy(x, y, t) + 4 * d22 * ex.u2_yy(x, y, t) \
        + 2 * mix * mix_y
    return s, s_x, s_y, d11, d22, mix


def _stress_divergence(ex, params, x, y, t):
    """div(2 mu D(u)) = mu lap(u) + 2 D(u) grad(mu) for divergence-free u."""
    s, s_x, s_y, d11, d22, mix = _shear_and_grad(ex, x, y, t)
    mu = model.carreau_viscosity(s, params)
    if params.k == 1.0:
        mu_x = np.zeros_like(s)
        mu_y = np.zeros_like(s)
    else:
        dmu = (params.mu0 - params.mu_inf) * 0.5 * (params.k - 1.0) \
            * params.lambda1 ** 2 \
            * np.power(1.0 + params.lambda1 ** 2 * s, 0.5 * (params.k - 3.0))
        mu_x = dmu * s_x
        mu_y = dmu * s_y
    lap1 = ex.u1_xx(x, y, t) + ex.u1_yy(x, y, t)
    lap2 = ex.u2_xx(x, y, t) + ex.u2_yy(x, y, t)
    div1 = mu * lap1 + 2.0 * d11 * mu_x + mix * mu_y
    div2 = mu * lap2 + mix * mu_x + 2.0 * d22 * mu_y
    return div1, div2


def _transport_divergence(ex, params, species, x, y, t):
    """div(c_i grad g_i) in closed form for the exact fields."""
    if species == 0:
        c, cx, cy, clap = (ex.cp(x, y, t), ex.cp_x(x, y, t),
                           ex.cp_y(x, y, t), ex.cp_lap(x, y, t))
        zi = params.z[0]
    else:
        c, cx, cy, clap = (ex.cn(x, y, t), ex.cn_x(x, y, t),
                           ex.cn_y(x, y, t), ex.cn_lap(x, y, t))
        zi = params.z[1]
    w = params.w_steric
    others = [
        (ex.cp_x(x, y, t), ex.cp_y(x, y, t), ex.cp_lap(x, y, t)),
        (ex.cn_x(x, y, t), ex.cn_y(x, y, t), ex.cn_lap(x, y, t)),
    ]
    gx = cx / c + zi * ex.v_x(x, y, t)
    gy = cy / c + zi * ex.v_y(x, y, t)
    glap = clap / c - (cx ** 2 + cy ** 2) / c ** 2 + zi * ex.v_lap(x, y, t)
    for j in range(2):
        ojx, ojy, ojlap = others[j]
        gx = gx + w[species, j] * ojx
        gy = gy + w[species, j] * ojy
        glap = glap + w[species, j] * ojlap
    return cx * gx + cy * gy + c * glap


def source_terms(exact, params):
    """Forcing terms that make the exact fields solve the full system."""
    ex = exact

    def f_u(x, y, t):
        div1, div2 = _stress_divergence(ex, params, x, y, t)
        adv1 = ex.u1(x, y, t) * ex.u1_x(x, y, t) \
            + ex.u2(x, y, t) * ex.u1_y(x, y, t)
        adv2 = ex.u1(x, y, t) * ex.u2_x(x, y, t) \
            + ex.u2(x, y, t) * ex.u2_y(x, y, t)
        charge = ex.cp(x, y, t) * params.z[0] + ex.cn(x, y, t) * params.z[1]
        f1 = -ex.u1(x, y, t) + adv1 - div1 / params.re + ex.p_x(x, y, t) \
            + params.co * charge * ex.v_x(x, y, t)
        f2 = -ex.u2(x, y, t) + adv2 - div2 / params.re + ex.p_y(x, y, t) \
            + params.co * charge * ex.v_y(x, y, t)
        return f1, f2

    def f_cp(x, y, t):
        adv = ex.u1(x, y, t) * ex.cp_x(x, y, t) \
            + ex.u2(x, y, t) * ex.cp_y(x, y, t)
        return ex.cp_t(x, y, t) + adv \
            - _transport_divergence(ex, params, 0, x, y, t) / params.pe

    def f_cn(x, y, t):
        adv = ex.u1(x, y, t) * ex.cn_x(x, y, t) \
            + ex.u2(x, y, t) * ex.cn_y(x, y, t)
        return ex.cn_t(x, y, t) + adv \
            - _transport_divergence(ex, params, 1, x, y, t) / params.pe

    def f_v(x, y, t):
        charge = ex.cp(x, y, t) * params.z[0] + ex.cn(x, y, t) * params.z[1]
        return -params.lam * ex.v_lap(x, y, t) - charge

    def dfv_dt(x, y, t):
        # every exact field carries exp(-t), so the source does too
        return -f_v(x, y, t)

    return SourceTerms(f_u=f_u, f_cp=f_cp, f_cn=f_cn, f_v=f_v, dfv_dt=dfv_dt)


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
    """Wire the derived sources into the scheme's right-hand sides."""
    return SourcePack(
        f_u=lambda x, y, t: sources.f_u(x, y, t),
        f_c=[sources.f_cp, sources.f_cn],
        f_sigma=[
            lambda x, y, t: sources.f_cp(x, y, t) / exact.cp(x, y, t),
            lambda x, y, t: sources.f_cn(x, y, t) / exact.cn(x, y, t),
        ],
        f_v=sources.f_v,
        dfv_dt=sources.dfv_dt,
    )


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
