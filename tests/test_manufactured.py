import os

import numpy as np
import pytest

import oracles
from spnpflow import manufactured as mf
from spnpflow import model


# lam = 1 makes the Poisson source vanish under SEC41_PARAMS (-lam lap V
# equals the charge), so these sets, with lam != 1, unequal valences and a
# steric matrix whose species differ, are what exercise f_v and dfv_dt
STERIC_ASYM = dict(lam=0.7, pe=1.5, re=2.0, co=3.0, mu0=1.0, mu_inf=0.5,
                   lambda1=1.0, z=(2, -1),
                   w_steric=np.array([[3.0, 0.5], [0.5, 1.0]]))
PARAM_SETS = {"sec41": mf.SEC41_PARAMS,
              "asym_k1": dict(STERIC_ASYM, k=1.0),
              "asym_k1.5": dict(STERIC_ASYM, k=1.5)}
LAM_NOT_ONE = ("asym_k1", "asym_k1.5")


def make_params(name):
    return model.Params(dt=0.05, t_final=0.5, **PARAM_SETS[name])


@pytest.fixture(scope="module")
def params():
    return make_params("sec41")


@pytest.fixture(scope="module")
def exact():
    return oracles.ExactDerivatives()


@pytest.fixture(scope="module")
def sources(exact, params):
    return mf.source_terms(exact, params)


def test_velocity_vanishes_on_boundary(exact):
    y = np.linspace(0, 1, 11)
    for x in (0.0, 1.0):
        assert np.abs(exact.u1(x, y, 0.3)).max() <= 1e-14
        assert np.abs(exact.u2(x, y, 0.3)).max() <= 1e-14
    x = np.linspace(0, 1, 11)
    for yb in (0.0, 1.0):
        assert np.abs(exact.u1(x, yb, 0.3)).max() <= 1e-14
        assert np.abs(exact.u2(x, yb, 0.3)).max() <= 1e-14


def test_concentrations_sum_constant(exact):
    rng = np.random.default_rng(1)
    x, y, t = rng.random(20), rng.random(20), rng.random(20)
    assert np.abs(exact.cp(x, y, t) + exact.cn(x, y, t) - 2.4).max() <= 1e-14


def test_exact_velocity_divergence_free(exact):
    rng = np.random.default_rng(2)
    x, y, t = rng.random(10), rng.random(10), rng.random(10)
    assert np.abs(exact.divergence_u(x, y, t)).max() <= 1e-12


def test_concentrations_positive(exact):
    x = np.linspace(0, 1, 41)
    X, Y = np.meshgrid(x, x)
    for t in (0.0, 0.25, 1.0):
        assert exact.cp(X, Y, t).min() > 0
        assert exact.cn(X, Y, t).min() > 0


def test_source_validation_fd(exact):
    for name in ("sec41",) + LAM_NOT_ONE:
        params = make_params(name)
        sources = mf.source_terms(exact, params)
        worst = oracles.validate_sources(exact, sources, params, n_points=100)
        assert worst <= 1e-6, name


def test_poisson_source_two_evaluations(exact):
    # closed form vs fourth-order finite differences of the potential
    rng = np.random.default_rng(3)
    x, y, t = (rng.uniform(0.1, 0.9, 30), rng.uniform(0.1, 0.9, 30),
               rng.uniform(0.0, 1.0, 30))
    h = 1e-3
    lap = (oracles.fd2(lambda a: exact.v(a, y, t), x, h)
           + oracles.fd2(lambda b: exact.v(x, b, t), y, h))
    for name in ("sec41",) + LAM_NOT_ONE:
        params = make_params(name)
        z0, z1 = params.z
        charge = z0 * exact.cp(x, y, t) + z1 * exact.cn(x, y, t)
        fd_val = -params.lam * lap - charge
        f_v = mf.source_terms(exact, params).f_v(x, y, t)
        assert np.abs(fd_val - f_v).max() <= 1e-6, name


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_sources_match_reference_forms(exact, name):
    # every callable of the pack, f_sigma included, against the per-term
    # closed forms; the fields are of order one, so a source that cancels
    # to zero (f_v under SEC41_PARAMS) is compared at the size of its terms
    params = make_params(name)
    rng = np.random.default_rng(11)
    x, y = rng.random((2, 40, 12))
    t = rng.uniform(0.0, 2.0, (40, 12))
    got = mf.build_source_pack(exact, mf.source_terms(exact, params))
    want = mf.build_source_pack(
        exact, oracles.source_terms_reference(exact, params))
    pairs = {"f_u": (got.f_u, want.f_u), "f_v": (got.f_v, want.f_v),
             "dfv_dt": (got.dfv_dt, want.dfv_dt)}
    for i in range(2):
        pairs[f"f_c[{i}]"] = (got.f_c[i], want.f_c[i])
        pairs[f"f_sigma[{i}]"] = (got.f_sigma[i], want.f_sigma[i])
    for key, (new, ref) in pairs.items():
        a, b = new(x, y, t), ref(x, y, t)
        if key != "f_u":
            a, b = (a,), (b,)
        for a, b in zip(a, b):
            assert a.shape == x.shape, key
            np.testing.assert_allclose(
                a, b, rtol=1e-12, atol=1e-12 * max(np.abs(b).max(), 1.0),
                err_msg=f"{name} {key}")


# ----------------------------------------------------------------------
# the space-factor cache of one source_terms result
# ----------------------------------------------------------------------

def evaluate_all(sources, x, y, t):
    """Every forcing callable of ``sources`` at (x, y, t)."""
    return (list(sources.f_u(x, y, t))
            + [f(x, y, t) for f in (sources.f_cp, sources.f_cn, sources.f_v,
                                    sources.dfv_dt, *sources.f_sigma)])


def assert_as_fresh(exact, params, sources, x, y, t):
    # bit for bit what a new source_terms result, with an empty cache, gives
    got = evaluate_all(sources, x, y, t)
    want = evaluate_all(mf.source_terms(exact, params), x, y, t)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def table_builds(monkeypatch):
    """Count of the table builds since the test began."""
    calls = []
    build = mf._space_tables
    monkeypatch.setattr(mf, "_space_tables",
                        lambda *args: calls.append(1) or build(*args))
    return calls


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_cache_same_points_twice(exact, name, table_builds):
    params = make_params(name)
    sources = mf.source_terms(exact, params)
    x, y = np.random.default_rng(21).random((2, 30, 7))
    for t in (0.3, 0.3, 1.1):
        assert_as_fresh(exact, params, sources, x, y, t)
    # the same values at another shape are the same point set
    assert_as_fresh(exact, params, sources, x.ravel(), y.ravel(), 0.7)
    # one build for the cached result and one per fresh result
    assert len(table_builds) == 1 + 4


def test_cache_alternating_point_sets(exact, params, table_builds):
    sources = mf.source_terms(exact, params)
    rng = np.random.default_rng(22)
    a, b = rng.random((2, 25)), rng.random((2, 40))
    for x, y in (a, b, a):
        assert_as_fresh(exact, params, sources, x, y, 0.4)
    assert len(table_builds) == 3 + 3


def test_cache_points_changed_in_place(exact, params):
    sources = mf.source_terms(exact, params)
    x, y = np.random.default_rng(23).random((2, 50))
    assert_as_fresh(exact, params, sources, x, y, 0.2)
    x[7] += 1e-3
    y[::3] *= 0.5
    assert_as_fresh(exact, params, sources, x, y, 0.2)


def test_cache_array_time(exact, params):
    sources = mf.source_terms(exact, params)
    rng = np.random.default_rng(24)
    x, y = rng.random((2, 20, 6))
    for t in (rng.uniform(0.0, 2.0, (20, 6)), rng.uniform(0.0, 2.0, 6)):
        assert_as_fresh(exact, params, sources, x, y, t)


def test_cache_shared_by_steppers_on_equal_meshes(exact, params,
                                                  table_builds):
    # one source pack serves fresh meshes, as the benchmark's set-ups do:
    # equal quadrature points hit the tables built on the first mesh
    from dataclasses import astuple

    from spnpflow.mesh import build_rect_mesh
    from spnpflow.scheme import Stepper

    pack = mf.build_source_pack(exact, mf.source_terms(exact, params))
    runs = []
    for _ in range(2):
        st = Stepper(build_rect_mesh(0.0, 1.0, 0.0, 1.0, 8, 8), params,
                     sources=pack, mass_schedule=lambda t: (1.2, 1.2),
                     check_mass=False, check_energy=False)
        st.set_initial(
            [lambda x, y: exact.cp(x, y, 0.0),
             lambda x, y: exact.cn(x, y, 0.0)],
            u0_fn=lambda x, y: exact.u(x, y, 0.0),
            p0_fn=lambda x, y: exact.p(x, y, 0.0))
        st.run(n_steps=2)
        runs.append([np.hstack(astuple(r)).tobytes() for r in st.records])
    assert len(table_builds) == 1
    assert runs[0] == runs[1]


def test_cache_two_threads_alternating_point_sets(exact, params):
    # each thread alternates two point sets, so the other thread keeps
    # replacing the cache under it; every result must stay bit for bit
    # what a fresh source_terms result gives
    import sys
    import threading

    rng = np.random.default_rng(26)
    sets = [rng.random((2, 3, 2)), rng.random((2, 5))]
    want = [[a.tobytes() for a in evaluate_all(
        mf.source_terms(exact, params), x, y, 0.6)] for x, y in sets]
    sources = mf.source_terms(exact, params)
    bad = []

    def run(first):
        for k in range(500):
            s = (first + k) % 2
            try:
                got = [a.tobytes()
                       for a in evaluate_all(sources, *sets[s], 0.6)]
            except Exception as exc:    # a half-replaced cache
                got = repr(exc)
            if got != want[s]:
                bad.append((first, k, got if isinstance(got, str) else ""))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert bad == []


def test_sources_decay_with_time(exact, sources):
    # every term carries at least one exp(-t) factor
    g = np.linspace(0.05, 0.95, 12)
    X, Y = np.meshgrid(g, g)
    def peak(t):
        fu = sources.f_u(X, Y, t)
        return max(np.abs(fu[0]).max(), np.abs(fu[1]).max(),
                   np.abs(sources.f_cp(X, Y, t)).max(),
                   np.abs(sources.f_v(X, Y, t)).max())
    assert peak(10.0) <= np.exp(-9.0) * peak(0.0)


def test_momentum_source_inviscid_limit_hand_value():
    # without stress and coupling the source is d_t u + (u.grad)u + grad p
    p = model.Params(dt=0.1, t_final=0.5, lam=1.0, pe=2.0, re=1.0, co=5.0,
                     k=1.0, mu0=1.0, mu_inf=0.5, lambda1=0.0, z=(1, -1),
                     w_steric=np.array([[2.0, 1.0], [1.0, 2.0]]))
    ex = oracles.ExactDerivatives()
    x, y, t = np.array([0.3]), np.array([0.7]), 0.1
    adv1 = ex.u1(x, y, t) * ex.u1_x(x, y, t) + ex.u2(x, y, t) * ex.u1_y(x, y, t)
    hand = (-ex.u1(x, y, t) + adv1 + ex.p_x(x, y, t)
            + p.co * (ex.cp(x, y, t) - ex.cn(x, y, t)) * ex.v_x(x, y, t))
    # k = 1, lambda1 = 0: stress divergence reduces to mu0 lap(u) / Re
    srcs = mf.source_terms(ex, p)
    lap1 = ex.u1_xx(x, y, t) + ex.u1_yy(x, y, t)
    full = hand - p.mu0 * lap1 / p.re
    assert np.abs(srcs.f_u(x, y, t)[0] - full).max() <= 1e-12


def test_mass_of_exact_solution_is_constant(exact):
    # the oscillatory part integrates to zero over the unit square
    from spnpflow.mesh import build_rect_mesh, dof_map
    mesh = build_rect_mesh(0, 1, 0, 1, 24, 24)
    p2 = dof_map(mesh, 2)
    for t in (0.0, 0.3):
        c = model.concentration_from_callable(
            lambda x, y: exact.cp(x, y, t), p2, mesh)
        assert abs(model.species_mass(c, mesh) - 1.2) <= 1e-6


def test_short_convergence_study_orders():
    rows = mf.convergence_study([8, 16], 24)
    for key in mf.ERROR_KEYS:
        assert rows[1].errors[key] < rows[0].errors[key]
        assert 1.5 <= rows[1].orders[key] <= 3.5
    # halving dt reduces errors by a factor in the second-order range
    for key in ("p", "cp", "cn"):
        ratio = rows[0].errors[key] / rows[1].errors[key]
        assert 3.2 <= ratio <= 8.0


def test_convergence_csv_roundtrip(tmp_path):
    rows = [
        mf.ConvergenceRow(n_steps=8, dt=0.0625,
                          errors={k: 1e-3 / (i + 1)
                                  for i, k in enumerate(mf.ERROR_KEYS)},
                          orders={k: float("nan") for k in mf.ERROR_KEYS}),
        mf.ConvergenceRow(n_steps=16, dt=0.03125,
                          errors={k: 2.5e-4 / (i + 1)
                                  for i, k in enumerate(mf.ERROR_KEYS)},
                          orders={k: 2.0 for k in mf.ERROR_KEYS}),
    ]
    path = tmp_path / "conv.csv"
    mf.write_convergence_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["N", "dt"]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 8
    assert float(first[2]) == rows[0].errors["u"]


def test_momentum_forcing_evaluated_once_per_step(monkeypatch):
    # the momentum stage hands its right-hand side to the identity check,
    # so the forcing is evaluated once per step
    calls = []
    build = mf.build_source_pack

    def counting(exact, sources):
        pack = build(exact, sources)
        f_u = pack.f_u
        pack.f_u = lambda x, y, t: calls.append(t) or f_u(x, y, t)
        return pack

    monkeypatch.setattr(mf, "build_source_pack", counting)
    mf.run_manufactured(3, 4, t_final=0.15)
    assert np.allclose(calls, [0.05, 0.1, 0.15], rtol=0, atol=1e-12)


def test_convergence_rejects_nonincreasing_steps():
    with pytest.raises(ValueError):
        mf.convergence_study([16, 8], 8)


def test_convergence_study_frees_each_rows_stepper(monkeypatch):
    # a row keeps only its errors: no stepper outlives its row, even with
    # the cycle collector off (so no reference cycle may hold one either)
    import gc
    import weakref

    from spnpflow import scheme

    live, seen = weakref.WeakSet(), []
    real_init = scheme.Stepper.__init__

    def init(self, *args, **kw):
        seen.append(len(live))
        live.add(self)
        real_init(self, *args, **kw)

    monkeypatch.setattr(scheme.Stepper, "__init__", init)
    gc.disable()
    try:
        rows = mf.convergence_study([1, 2, 3], 2, t_final=0.05)
    finally:
        gc.enable()
    assert [r.n_steps for r in rows] == [1, 2, 3]
    assert seen == [0, 0, 0]
    assert not live


def test_spatial_orders():
    # P2 velocity, potential and log-concentrations converge at order 3 in
    # L2, the P1 pressure at least at order 2; dt = 1e-3 keeps the time
    # error below the space error on these meshes
    errors = {n: mf.run_manufactured(50, n, t_final=0.05)[1]
              for n in (8, 16, 32)}
    orders = {key: np.log2(errors[16][key] / errors[32][key])
              for key in mf.ERROR_KEYS}
    for key in ("u", "cp", "cn", "V"):
        assert orders[key] == pytest.approx(3.0, abs=0.3), (key, orders)
    assert orders["p"] >= 1.8, orders
    assert all(np.log2(errors[8][key] / errors[16][key]) > 1.8
               for key in mf.ERROR_KEYS), errors


@pytest.mark.full_resolution
def test_full_scale_reference_points():
    # frozen reference errors and orders for the temporal study at
    # h = sqrt(2)/256
    rows = mf.convergence_study([16, 32, 64], 256)
    by_n = {r.n_steps: r for r in rows}
    assert by_n[32].errors["u"] == pytest.approx(1.1072e-04, rel=0.5)
    assert by_n[32].orders["u"] == pytest.approx(2.05, abs=0.35)
    assert by_n[64].errors["V"] == pytest.approx(2.1130e-07, rel=0.5)
    assert by_n[64].orders["V"] == pytest.approx(2.53, abs=0.6)
