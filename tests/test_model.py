import numpy as np
import pytest

from spnpflow import fem, model
from spnpflow.errors import PositivityError
from spnpflow.mesh import build_rect_mesh, dof_map


def make_params(**kw):
    base = dict(re=1.0, pe=2.0, co=5.0, lam=1.0, mu0=1.0, mu_inf=0.5,
                lambda1=1.0, k=0.5, z=(1, -1),
                w_steric=np.array([[2.0, 1.0], [1.0, 2.0]]),
                dt=1e-2, t_final=0.5)
    base.update(kw)
    return model.Params(**base)


@pytest.fixture
def mesh():
    return build_rect_mesh(0, 1, 0, 1, 6, 6)


@pytest.fixture
def p2(mesh):
    return dof_map(mesh, 2)


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------

def test_params_viscosity_ordering_enforced():
    with pytest.raises(ValueError):
        make_params(mu0=0.5, mu_inf=0.5)
    with pytest.raises(ValueError):
        make_params(mu0=0.4, mu_inf=0.5)


def test_params_steric_matrix_validation():
    with pytest.raises(ValueError):
        make_params(w_steric=np.array([[1.0, 2.0], [0.0, 1.0]]))     # asym
    with pytest.raises(ValueError):
        make_params(w_steric=np.array([[1.0, -1.0], [-1.0, 1.0]]))   # negative
    with pytest.raises(ValueError):
        make_params(w_steric=np.array([[1.0, 3.0], [3.0, 1.0]]))     # indefinite
    make_params(w_steric=np.zeros((2, 2)))   # semidefinite is allowed


def test_params_positive_groups():
    for key in ("re", "pe", "co", "lam", "k", "dt", "t_final"):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                make_params(**{key: bad})


def test_params_reject_nonfinite():
    # NaN passes a `<= 0` test and infinity passes `> 0`
    for kw in (dict(mu0=np.inf), dict(mu0=np.nan), dict(mu_inf=np.nan),
               dict(lambda1=np.nan), dict(lambda1=np.inf),
               dict(b_shift=np.nan), dict(b_shift=np.inf),
               dict(w_steric=np.array([[np.inf, 0.0], [0.0, 1.0]]))):
        with pytest.raises(ValueError):
            make_params(**kw)


# ----------------------------------------------------------------------
# Carreau viscosity
# ----------------------------------------------------------------------

def test_carreau_zero_shear_gives_mu0():
    p = make_params()
    assert model.carreau_viscosity(0.0, p) == p.mu0


def test_carreau_newtonian_limit_exact():
    p = make_params(k=1.0, mu0=1.0, mu_inf=0.1)
    mu = model.carreau_viscosity(np.array([0.0, 3.7, 1e6]), p)
    assert (mu == 1.0).all()


def test_carreau_closed_form_value():
    p = make_params(mu0=1.0, mu_inf=0.5, lambda1=1.0, k=0.5)
    val = model.carreau_viscosity(3.0, p)
    assert abs(val - (0.5 + 0.5 * 4.0 ** -0.25)) <= 1e-15
    assert abs(val - 0.8535533905932737) <= 1e-12


@pytest.mark.parametrize("k,decreasing", [(0.5, True), (0.2, True),
                                          (1.8, False)])
def test_carreau_monotone_and_bounded(k, decreasing):
    p = make_params(k=k)
    s = np.linspace(0.0, 50.0, 200)
    mu = model.carreau_viscosity(s, p)
    diffs = np.diff(mu)
    if decreasing:
        assert (diffs <= 0).all()
        assert (mu <= p.mu0).all() and (mu > p.mu_inf).all()
    else:
        assert (diffs >= 0).all()
        assert (mu >= p.mu0).all()


# ----------------------------------------------------------------------
# chemical potential and energies
# ----------------------------------------------------------------------

def raw_mass(sigma, mesh):
    """Quadrature integral of exp(sigma)."""
    return fem.integrate(np.exp(fem.eval_values(sigma, mesh)), mesh)


def const_concs(p2, mesh, values):
    """Constant Concentrations: sigma = 0 and scale = value."""
    sigma = fem.zero_field(p2)
    return [model.Concentration(sigma, v * raw_mass(sigma, mesh), mesh)
            for v in values]


def potential_args(c, vbar, mesh):
    """The quadrature arrays chemical_potential_bar reads besides ``c``."""
    return ([fem.eval_grads(ci.sigma, mesh) for ci in c],
            fem.eval_values(vbar, mesh), fem.eval_grads(vbar, mesh))


def test_chemical_potential_uniform_neutral(mesh, p2):
    p = make_params(w_steric=np.zeros((2, 2)))
    c = const_concs(p2, mesh, [1.0, 1.0])
    vbar = fem.zero_field(p2)
    vals, grads = model.chemical_potential_bar(
        c, *potential_args(c, vbar, mesh), 0, p)
    assert np.abs(vals).max() <= 1e-14
    assert np.abs(grads).max() <= 1e-14


def test_chemical_potential_constant_with_steric(mesh, p2):
    p = make_params(w_steric=np.array([[2.0, 1.0], [1.0, 2.0]]))
    c = const_concs(p2, mesh, [1.0, 1.0])
    vbar = fem.zero_field(p2)
    vals, _ = model.chemical_potential_bar(
        c, *potential_args(c, vbar, mesh), 0, p)
    assert np.abs(vals - 3.0).max() <= 1e-13     # log 1 + 2 + 1


def test_chemical_potential_pointwise_oracle(mesh, p2):
    # compare against direct scalar evaluation at one quadrature point; the
    # log-concentrations are quadratic, so their P2 interpolants are exact
    p = make_params()
    qp = lambda x, y: 0.2 + 0.3 * x * y
    qn = lambda x, y: 0.1 * x - 0.2 * y * y
    c = [model.concentration_from_callable(lambda x, y, q=q: np.exp(q(x, y)),
                                           p2, mesh) for q in (qp, qn)]
    vbar = fem.interpolate(lambda x, y: 0.2 * x - 0.1 * y * y, p2)
    grad_sigma, vbar_vals, grad_vbar = potential_args(c, vbar, mesh)
    vals, grads = model.chemical_potential_bar(
        c, grad_sigma, vbar_vals, grad_vbar, 0, p)
    # without Vbar values only the gradients are formed, unchanged
    no_vals, same_grads = model.chemical_potential_bar(
        c, grad_sigma, None, grad_vbar, 0, p)
    assert no_vals is None and np.array_equal(same_grads, grads)
    xy = fem.quad_points_physical(mesh)
    x, y = xy[3, 5, 0], xy[3, 5, 1]
    cp, cn = np.exp(qp(x, y)), np.exp(qn(x, y))
    expected = (qp(x, y) + 1.0 * (0.2 * x - 0.1 * y * y)
                + 2.0 * cp + 1.0 * cn)
    assert abs(vals[3, 5] - expected) <= 1e-12
    # grad q_p + z_p grad V + w_pp grad c_p + w_pn grad c_n
    grad_qp = np.array([0.3 * y, 0.3 * x])
    grad_qn = np.array([0.1, -0.4 * y])
    expected_grad = (grad_qp + 1.0 * np.array([0.2, -0.2 * y])
                     + 2.0 * cp * grad_qp + 1.0 * cn * grad_qn)
    assert np.abs(grads[3, 5] - expected_grad).max() <= 1e-12


def test_energy_spnp_constant_states(mesh, p2):
    grad_vbar = fem.eval_grads(fem.zero_field(p2), mesh)
    c = const_concs(p2, mesh, [1.0, 1.0])
    p_diag = make_params(co=0.6, w_steric=np.diag([2.0, 2.0]))
    # 0.6 * 2 * (-1) + 0.3 * (2 + 2) = 0
    assert abs(model.energy_spnp(c, grad_vbar, p_diag, mesh)) <= 1e-12
    p_zero = make_params(co=0.6, w_steric=np.zeros((2, 2)))
    assert abs(model.energy_spnp(c, grad_vbar, p_zero, mesh) + 1.2) <= 1e-12


def test_energy_spnp_refined_quadrature_oracle(mesh, p2):
    # same discrete fields, re-integrated with a dense independent rule;
    # isolates the quadrature error of the non-polynomial integrands
    import oracles
    p = make_params(co=0.6, lam=0.2, w_steric=np.diag([2.0, 2.0]))
    cp = model.concentration_from_callable(
        lambda x, y: 12 + 10 * np.cos(np.pi * x) * np.cos(np.pi * y), p2,
        mesh)
    cn = model.concentration_from_callable(
        lambda x, y: 12 - 10 * np.cos(np.pi * x) * np.cos(np.pi * y), p2,
        mesh)
    vbar = fem.interpolate(
        lambda x, y: 0.05 * np.cos(np.pi * x) * np.cos(np.pi * y), p2)
    val = model.energy_spnp([cp, cn], fem.eval_grads(vbar, mesh), p, mesh)

    oracle = 0.0
    w = p.w_steric
    for tri in range(mesh.n_triangles):
        pts, wq = oracles.triangle_quad(mesh.nodes[mesh.triangles[tri]], n=12)
        x, y = pts[:, 0], pts[:, 1]
        # each concentration is scale * exp(sigma) pointwise
        logs = [np.log(c.scale)
                + oracles.field_value(p2, c.sigma.coefficients, tri, x, y)
                for c in (cp, cn)]
        cps, cns = np.exp(logs[0]), np.exp(logs[1])
        gv = oracles.field_grad(p2, vbar.coefficients, tri, x, y)
        oracle += 0.5 * p.lam * p.co * (wq * (gv ** 2).sum(axis=1)).sum()
        for cv, lv in zip((cps, cns), logs):
            oracle += p.co * (wq * cv * (lv - 1.0)).sum()
        pairs = ((cps, cps, w[0, 0]), (cps, cns, w[0, 1]),
                 (cns, cps, w[1, 0]), (cns, cns, w[1, 1]))
        for ca, cb, wij in pairs:
            oracle += 0.5 * p.co * wij * (wq * ca * cb).sum()
    assert abs(val - oracle) <= 1e-8 * abs(oracle)


def test_energy_spnp_species_relabeling_invariance(mesh, p2):
    w = np.array([[3.0, 1.0], [1.0, 2.0]])
    p = make_params(w_steric=w, z=(1, -1))
    cp = model.concentration_from_callable(lambda x, y: 1.5 + x, p2, mesh)
    cn = model.concentration_from_callable(lambda x, y: 2.0 - y, p2, mesh)
    grad_vbar = fem.eval_grads(fem.interpolate(lambda x, y: 0.1 * x, p2),
                               mesh)
    e1 = model.energy_spnp([cp, cn], grad_vbar, p, mesh)
    p_swapped = make_params(w_steric=w[::-1, ::-1].copy(), z=(-1, 1))
    e2 = model.energy_spnp([cn, cp], grad_vbar, p_swapped, mesh)
    assert abs(e1 - e2) <= 1e-12 * abs(e1)


# ----------------------------------------------------------------------
# discrete energy
# ----------------------------------------------------------------------

def make_state(p2, p1_map, mesh, u_val=0.0, p_val=0.0, r=1.0):
    u = fem.Field(p2, np.full(2 * p2.n_dofs, u_val), components=2)
    p = fem.Field(p1_map, np.full(p1_map.n_dofs, p_val))
    sig = [fem.zero_field(p2) for _ in range(2)]
    c = [model.Concentration(s, raw_mass(s, mesh), mesh) for s in sig]
    vb = fem.zero_field(p2)
    return model.State(t=0.0, u=u, p=p, c=c, vbar=vb,
                       v=vb.copy(), mu_q=np.zeros((mesh.n_triangles, 12)),
                       r=r)


def test_discrete_energy_rest_state(mesh, p2):
    p1 = dof_map(mesh, 1)
    params = make_params()
    s = make_state(p2, p1, mesh, r=2.0)
    assert abs(model.discrete_energy(s, s, params, mesh) - 4.0) <= 1e-14


def test_discrete_energy_constant_velocity(mesh, p2):
    p1 = dof_map(mesh, 1)
    params = make_params()
    new = make_state(p2, p1, mesh, u_val=3.0, r=0.0)
    old = make_state(p2, p1, mesh, u_val=3.0, r=0.0)
    # 1/2 |c|^2 |Omega| with |c|^2 = 2 * 3^2
    expected = 0.5 * 18.0 * mesh.area
    assert abs(model.discrete_energy(new, old, params, mesh)
               - expected) <= 1e-12 * expected


def test_discrete_energy_independent_norm_oracle(mesh, p2):
    # recompute the norms through mass/stiffness matrix products
    p1 = dof_map(mesh, 1)
    params = make_params()
    rng = np.random.default_rng(3)
    new = make_state(p2, p1, mesh, r=1.3)
    old = make_state(p2, p1, mesh, r=1.1)
    new.u.coefficients[:] = rng.standard_normal(2 * p2.n_dofs)
    old.u.coefficients[:] = rng.standard_normal(2 * p2.n_dofs)
    new.p.coefficients[:] = rng.standard_normal(p1.n_dofs)
    e = model.discrete_energy(new, old, params, mesh)
    M = fem.assemble("mass", p2, p2, mesh)
    K1 = fem.assemble("stiffness", p1, p1, mesh)
    def sq(vec_field):
        cx, cy = vec_field.component(0), vec_field.component(1)
        return cx @ (M @ cx) + cy @ (M @ cy)
    comb = fem.Field(p2, 2 * new.u.coefficients - old.u.coefficients,
                     components=2)
    expected = 0.5 * (0.5 * sq(new.u) + 0.5 * sq(comb)) \
        + params.dt ** 2 / 3.0 * (new.p.coefficients
                                  @ (K1 @ new.p.coefficients)) \
        + 0.5 * (new.r ** 2 + (2 * new.r - old.r) ** 2)
    assert abs(e - expected) <= 1e-10 * max(abs(expected), 1.0)


# ----------------------------------------------------------------------
# masses, minima, dimensionless groups
# ----------------------------------------------------------------------

def test_species_mass_constants(mesh, p2):
    c, = const_concs(p2, mesh, [1.0])
    assert abs(model.species_mass(c, mesh) - 1.0) <= 1e-14
    assert model.min_concentration(c) == 1.0


def test_species_mass_cosine_background(mesh, p2):
    c = model.concentration_from_callable(
        lambda x, y: 12 + 10 * np.cos(np.pi * x) * np.cos(np.pi * y), p2,
        mesh)
    assert abs(model.species_mass(c, mesh) - 12.0) <= 1e-6
    assert abs(model.min_concentration(c) - 2.0) <= 0.2


def test_concentration_from_callable_rejects_nonpositive_mass():
    # 1 at every P2 dof of the 1x1 mesh, but its quadrature mass is negative
    mesh = build_rect_mesh(0, 1, 0, 1, 1, 1)
    fn = lambda x, y: 1.0 - 50.0 * (np.sin(4 * np.pi * x)
                                    * np.sin(4 * np.pi * y)) ** 2
    with pytest.raises(PositivityError):
        model.concentration_from_callable(fn, dof_map(mesh, 2), mesh)


def test_concentration_quad_values_computed_once(mesh, p2):
    rng = np.random.default_rng(4)
    sigma = fem.Field(p2, rng.uniform(-1.0, 1.0, p2.n_dofs))
    c = model.Concentration(sigma, 0.7 * raw_mass(sigma, mesh), mesh)
    assert c.scale == pytest.approx(0.7, rel=1e-15)
    vals = model.conc_values(c, mesh)
    expected = c.scale * np.exp(fem.eval_values(sigma, mesh))
    assert vals.tobytes() == expected.tobytes()
    assert not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0, 0] = 1.0
    logs = np.log(c.scale) + fem.eval_values(sigma, mesh)
    assert c.log_quad.tobytes() == logs.tobytes()
    assert not c.log_quad.flags.writeable


def test_species_mass_refined_quadrature_oracle(p2, mesh):
    fn = lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * x) * y
    c = model.concentration_from_callable(fn, p2, mesh)
    fine = build_rect_mesh(0, 1, 0, 1, 64, 64)
    cf = model.concentration_from_callable(fn, dof_map(fine, 2), fine)
    assert abs(model.species_mass(c, mesh)
               - model.species_mass(cf, fine)) <= 1e-6


def test_resolve_b_shift():
    p = make_params()
    assert model.resolve_b_shift(p, 4.0) == 1.0
    assert model.resolve_b_shift(p, -3.5) == 4.5
    p_fixed = make_params(b_shift=7.0)
    assert model.resolve_b_shift(p_fixed, -100.0) == 7.0
