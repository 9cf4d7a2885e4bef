"""Accuracy harness: exact solutions, derived sources, convergence tables.

The exact fields are trigonometric with a common exp(-t) decay.  The forcing
terms for each equation follow by substituting the exact fields into the
continuous system, including the shear-dependent stress divergence.

With e = exp(-t), every source is a sum of exp(-t)-free space factors
times powers of e, plus, in the momentum source, the Carreau viscosity and
its derivative at the shear rate e^2 S0 (``_space_tables`` lists the twelve
factors: phi0 = cos(pi x) cos(pi y), the two transport tables, and per
velocity component the parts under e, e^2, mu and mu', and S0).  The scheme
evaluates every source at the same quadrature points, so the callables of
one ``source_terms`` result share a cache of these factors, keyed by a copy
of the points: a call at points equal bit for bit to the cached ones (at any
shape) reuses them and forms its source with one exp, a few products and,
for the momentum, one Carreau power; any other points rebuild the cache and
replace it.  The cache holds 14 arrays of the point-set size (the two key
coordinates and the twelve factors), 11 MB at 64 cells (98 304 points), in
a memory map of its own.

The test suite checks the forcing against per-term closed forms built from
the exact fields' derivatives, which the tests code for themselves
(``tests/oracles.py``), and against a fourth-order finite-difference
application of the same operators at random space-time points.
"""

from __future__ import annotations

import csv
import mmap
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

    def cn(self, x, y, t):
        return 1.2 - np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)

    def v(self, x, y, t):
        return np.cos(PI * x) * np.cos(PI * y) * np.exp(-t) / PI ** 2

    def u1(self, x, y, t):
        return PI * np.sin(PI * x) ** 2 * np.sin(2 * PI * y) * np.exp(-t)

    def u2(self, x, y, t):
        return -PI * np.sin(2 * PI * x) * np.sin(PI * y) ** 2 * np.exp(-t)

    def u(self, x, y, t):
        return self.u1(x, y, t), self.u2(x, y, t)

    def p(self, x, y, t):
        return np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)


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


class _SpaceFactors:
    """The exp(-t)-free tables of the forcing at one point set; the
    callables of one ``source_terms`` result share it.

    Calling it with points (x, y) returns the tables of
    :func:`_space_tables` at those points, by name.  A hit needs the
    points, broadcast together, to equal the cached set bit for bit in C
    order, at any shape; any other set rebuilds the tables and replaces the
    old set, so one set is held at a time.  The tables are computed from a
    contiguous copy of the points, which is the key, so a hit returns what
    a rebuild would.  The key and the tables are published as one tuple, so
    a caller on another thread never sees them half replaced.
    """

    def __init__(self, params):
        self.params = params
        self._cache = None      # (key, tables)

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                   np.asarray(y, dtype=np.float64))
        cache = self._cache
        if not _hit(cache, x, y):
            # the key and the tables live as long as the source callables:
            # in a mapping of their own they pin no freed malloc-heap pages
            # (on the heap, a cache of five such arrays raised the peak RSS
            # of a loop of forced64 solves by 7-12 MB)
            n, rows = x.size, 2 + len(_TABLES)
            block = np.frombuffer(
                mmap.mmap(-1, max(8 * rows * n, 1)), dtype=np.float64,
                count=rows * n).reshape(rows, n)
            block[0], block[1] = x.reshape(-1), y.reshape(-1)
            tables = _space_tables(block[0], block[1], self.params)
            for row, name in zip(block[2:], _TABLES):
                row[...] = tables.pop(name)
            cache = self._cache = (block[:2], block[2:])
        return {name: v.reshape(x.shape)
                for name, v in zip(_TABLES, cache[1])}


def _hit(cache, x, y):
    """Whether ``cache`` of :class:`_SpaceFactors` holds the points."""
    if cache is None:
        return False
    key = cache[0]
    if key[0].size != x.size:
        return False
    return all(np.array_equal(k.reshape(p.shape).view(np.uint64),
                              p.view(np.uint64))
               for k, p in zip(key, (x, y)))


_TABLES = ("phi0", "transport0", "transport1", "linear0", "linear1",
           "quadratic0", "quadratic1", "lap0", "lap1", "shear_div0",
           "shear_div1", "shear")


def _transport_coefficients(params, species):
    """(s, k) of species 0 (c+ = 1.2 + phi) or 1 (c- = 1.2 - phi): the sign
    s and k = z / pi^2 + w_0 - w_1, with which c grad g = s grad phi
    + k c grad phi for g = log c + z V + sum_j w_j c_j."""
    w = params.w_steric[species]
    return 1.0 - 2.0 * species, params.z[species] / PI ** 2 + w[0] - w[1]


def _space_tables(x, y, params):
    """The tables of the forcing at the points (x, y), by name.

    With e = exp(-t), phi = phi0 e, phi0 = cos(pi x) cos(pi y) (c+- = 1.2
    +- phi, p = phi, V = phi / pi^2) and u = (pi sin^2(pi x) sin(2 pi y),
    -pi sin(2 pi x) sin^2(pi y)) e, every source is a sum of these tables
    times powers of e, plus the Carreau viscosity mu(s) and mu'(s) at the
    shear rate s = e^2 shear:

    phi0           f_v and dfv_dt are multiples of e phi0
    transport_s    f_c of species s = a_s e phi0 + e^2 transport_s
    linear_i       f_u_i = e linear_i + e^2 quadratic_i
    quadratic_i        - (e / Re) (mu lap_i + e^2 mu' shear_div_i)
    lap_i          lap u_i / e
    shear_div_i    (2 D(u) grad s)_i / e^3
    shear          s / e^2 = 2 D(u):D(u) / e^2
    """
    sx, cx = np.sin(PI * x), np.cos(PI * x)
    sy, cy = np.sin(PI * y), np.cos(PI * y)
    phi0 = cx * cy
    phi_x, phi_y = -PI * sx * cy, -PI * cx * sy
    sx2, sy2 = sx * sx, sy * sy
    s2x, s2y = 2.0 * sx * cx, 2.0 * sy * cy
    c2x, c2y = 1.0 - 2.0 * sx2, 1.0 - 2.0 * sy2
    del sx, cx, sy, cy
    u1, u2 = PI * sx2 * s2y, -PI * s2x * sy2

    # div(c grad g) = lap c + k div(c grad phi), so the transport source
    # f_c = s (d_t phi + u.grad phi) - div(c grad g) / Pe
    # = a_s e phi0 + s e^2 (u.grad phi0 - k g2 / Pe), with
    # g2 = |grad phi0|^2 - 2 pi^2 phi0^2 and a_s = -s + 2 pi^2 (s + 1.2 k)
    # / Pe
    u_grad_phi = u1 * phi_x + u2 * phi_y
    g2 = phi_x * phi_x + phi_y * phi_y - 2.0 * PI ** 2 * (phi0 * phi0)
    tables = {"phi0": phi0}
    for species in range(2):
        s, k = _transport_coefficients(params, species)
        tables[f"transport{species}"] = s * (u_grad_phi
                                             - (k / params.pe) * g2)
    del u_grad_phi, g2

    # grad p + Co rho grad V = (1 + Co rho / pi^2) grad phi, with
    # rho = 1.2 (z0 + z1) + (z0 - z1) phi; d_t u = -u
    z0, z1 = params.z
    g0 = 1.0 + (params.co / PI ** 2) * 1.2 * (z0 + z1)
    g1 = (params.co / PI ** 2) * (z0 - z1)
    # velocity derivatives; u2_y = -u1_x, u2_xy = -u1_xx, u2_yy = -u1_xy
    a1, a2 = PI ** 2, PI ** 3
    u1_x = a1 * s2x * s2y
    u1_y = 2.0 * a1 * sx2 * c2y
    u2_x = -2.0 * a1 * c2x * sy2
    tables["linear0"] = g0 * phi_x - u1
    tables["linear1"] = g0 * phi_y - u2
    tables["quadratic0"] = u1 * u1_x + u2 * u1_y + g1 * (phi0 * phi_x)
    tables["quadratic1"] = u1 * u2_x - u2 * u1_x + g1 * (phi0 * phi_y)
    del u1, u2, phi_x, phi_y

    # 2 sin^2 + cos 2 = 1 turns the mixed derivative's two terms into one
    mix = u1_y + u2_x
    del u1_y, u2_x
    mix_x, mix_y = 2.0 * a2 * s2x, -2.0 * a2 * s2y
    u1_xx = 2.0 * a2 * c2x * s2y
    u1_xy = 2.0 * a2 * s2x * c2y
    tables["lap0"] = 2.0 * a2 * s2y * (1.0 - 4.0 * sx2)
    tables["lap1"] = 2.0 * a2 * s2x * (4.0 * sy2 - 1.0)
    # div(2 mu D(u)) = mu lap u + mu'(s) 2 D(u) grad s
    shear_x = 8.0 * u1_x * u1_xx + 2.0 * mix * mix_x
    shear_y = 8.0 * u1_x * u1_xy + 2.0 * mix * mix_y
    tables["shear_div0"] = 2.0 * u1_x * shear_x + mix * shear_y
    tables["shear_div1"] = mix * shear_x - 2.0 * u1_x * shear_y
    tables["shear"] = 4.0 * u1_x * u1_x + mix * mix
    return tables


def source_terms(exact, params):
    """Forcing terms that make the exact fields of ``exact`` (an
    ``ExactSolution``) solve the full system under ``params``.

    The callables share one :class:`_SpaceFactors`: each call looks up the
    tables of its points and forms its source from them and exp(-t).
    """
    factors = _SpaceFactors(params)
    z0, z1 = params.z
    lam2 = params.lambda1 ** 2
    # f_c = a e phi0 + e^2 transport, see _space_tables
    a = []
    for species in range(2):
        s, k = _transport_coefficients(params, species)
        a.append(-s + 2.0 * PI ** 2 * (s + 1.2 * k) / params.pe)

    def f_u(x, y, t):
        tb = factors(x, y)
        e = np.exp(-t)
        e2 = e * e
        # mu'(s) = (mu - mu_inf) (k-1) lambda1^2 / (2 q), q = 1 + lambda1^2
        # s, so one power gives both
        shear = e2 * tb["shear"]
        mu = model.carreau_viscosity(shear, params)
        dmu = (mu - params.mu_inf) * (0.5 * (params.k - 1.0) * lam2)
        shear *= lam2
        shear += 1.0
        dmu /= shear
        dmu *= e2
        e_re = e / params.re
        return tuple(
            e * tb[f"linear{i}"] + e2 * tb[f"quadratic{i}"]
            - e_re * (mu * tb[f"lap{i}"] + dmu * tb[f"shear_div{i}"])
            for i in range(2))

    def transport(species, tb, e):
        """f_c of species 0 (c+) or 1 (c-)."""
        return (a[species] * e) * tb["phi0"] \
            + (e * e) * tb[f"transport{species}"]

    def transport_source(species):
        def f_c(x, y, t):
            return transport(species, factors(x, y), np.exp(-t))
        return f_c

    def sigma_source(species):
        s = 1.0 - 2.0 * species

        def f_sigma(x, y, t):
            tb, e = factors(x, y), np.exp(-t)
            return transport(species, tb, e) / (1.2 + (s * e) * tb["phi0"])
        return f_sigma

    # -lam lap V - rho with lap V = -2 phi and rho = z0 c+ + z1 c-
    v_coeff = 2.0 * params.lam - z0 + z1

    def f_v(x, y, t):
        return (v_coeff * np.exp(-t)) * factors(x, y)["phi0"] \
            - 1.2 * (z0 + z1)

    def dfv_dt(x, y, t):
        return (-v_coeff * np.exp(-t)) * factors(x, y)["phi0"]

    return SourceTerms(f_u=f_u, f_cp=transport_source(0),
                       f_cn=transport_source(1), f_v=f_v, dfv_dt=dfv_dt,
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


def run_manufactured(n_steps, n_cells, t_final=0.5):
    """One forced run; returns (stepper, final L2 errors dict)."""
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


def convergence_study(n_steps_list, n_cells, t_final=0.5):
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
        # keep only the errors, so this row's stepper is freed before the
        # next row builds its own
        errors = run_manufactured(n, n_cells, t_final=t_final)[1]
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
