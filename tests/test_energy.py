import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamstab import disc, energy, minimize, model
from conftest import (SUB_RADIUS, factored_longdouble, projected_hessian,
                      random_positive_state, raw_gradient, raw_hessian_reference,
                      richardson_first, richardson_second)

# one operator set per assembly path: a Fourier circle, a Chebyshev interval,
# an interval with a pole, and a pole with a boundary (B) term
OPERATOR_SETS = {
    "frank_product": (lambda: model.frank_product(5, SUB_RADIUS), 64),
    "cylinder": (lambda: model.cylinder(3, 1.0), 48),
    "hemisphere": (lambda: model.hemisphere(3), 64),
    "ball": (lambda: model.ball(3), 64),
}


def operator_set(kind):
    build, N = OPERATOR_SETS[kind]
    m = build()
    return disc.assemble_operators(m, disc.build_grid(m, N))


def frank_constant_quotient(d, r):
    """Q at the constant: c_n R vol^(2/n) with vol = 2 pi r |S^(d-1)|/2."""
    vol = math.pi * r * model.sphere_area(d - 1)
    return model.dim_constant(d) * (d - 1) * (d - 2) * vol ** (2.0 / d)


def test_quotient_zero_homogeneity(frank_nondeg):
    _, rep, _, _ = frank_nondeg
    ops = rep.v.ops
    u = 1.0 + 0.3 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
    q1 = energy.yamabe_quotient(ops, u)
    for c in (1e-3, 1.0, 1e3):
        assert energy.yamabe_quotient(ops, c * u) == pytest.approx(q1, rel=1e-14)


def test_quotient_constant_on_frank_product():
    r = 1.0 / math.sqrt(3.0)
    m = model.frank_product(5, r)
    g = disc.build_grid(m, 64)
    ops = disc.assemble_operators(m, g)
    got = energy.yamabe_quotient(ops, np.ones(g.N))
    # closed form (9/4) (8 pi^3 / (3 sqrt 3))^(2/5)
    assert got == pytest.approx(2.25 * (8 * math.pi**3 / (3 * math.sqrt(3.0))) ** 0.4,
                                rel=1e-12)
    assert got == pytest.approx(frank_constant_quotient(5, r), rel=1e-12)


def test_quotient_constant_on_ball(ball3):
    # only the boundary term survives: Q = 2 pi / (4 pi / 3)^(1/3)
    _, g, ops = ball3
    assert not np.any(ops.curv_weights)
    assert energy.yamabe_quotient(ops, np.ones(g.N)) == pytest.approx(
        2 * math.pi / (4 * math.pi / 3) ** (1 / 3), rel=1e-11)


def test_quotient_rejects_bad_input(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    with pytest.raises(ValueError, match="zero"):
        energy.yamabe_quotient(ops, np.zeros(ops.N))
    u = np.ones(ops.N)
    u[3] = -0.1
    with pytest.raises(ValueError, match="nonnegative"):
        energy.yamabe_quotient(ops, u)


def test_normalized_state_rejects_a_nan(frank_nondeg):
    # a NaN norm fails the volume check instead of passing it
    ops = frank_nondeg[1].v.ops
    u = np.full(ops.N, ops.volume ** (-1.0 / ops.two_star))
    energy.NormalizedState(u=u.copy(), ops=ops)
    u[3] = math.nan
    with pytest.raises(ValueError, match="volume-normalized"):
        energy.NormalizedState(u=u, ops=ops)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nodal_entry_points_refuse_non_finite_values(frank_nondeg, bad):
    # a NaN or inf node is refused by name, not passed on as a NaN quotient
    # or deficit, or reported as a failed volume normalization
    v = frank_nondeg[1].v
    u = v.u.copy()
    u[3] = bad
    for call in (lambda: energy.normalize(v.ops, u), lambda: energy.yamabe_quotient(v.ops, u),
                 lambda: energy.energy_deficit(v, u - v.u)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


def test_normalized_state_evaluates_once(frank_nondeg, monkeypatch):
    # a state's Q, G, Riesz vector and gradient norm are the functions'
    # values, each evaluated once; u is read-only, so none can go stale
    ops = frank_nondeg[1].v.ops
    v = random_positive_state(ops, 3)
    assert v.Q == energy.yamabe_quotient(ops, v.u)
    assert v.grad_norm == ops.dual_norm(energy.gradient(v))
    fresh = energy.normalize(ops, v.u)
    gradient, riesz = energy.gradient, disc.DiscreteOperators.riesz
    grads, solves = [], []
    monkeypatch.setattr(energy, "gradient", lambda s: grads.append(s) or gradient(s))
    monkeypatch.setattr(disc.DiscreteOperators, "riesz",
                        lambda self, G: solves.append(G) or riesz(self, G))
    for _ in range(3):
        fresh.G, fresh.riesz, fresh.grad_norm
    assert (len(grads), len(solves)) == (1, 1)
    with pytest.raises(ValueError):
        fresh.u[0] = 1.0


def test_normalize(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    v = random_positive_state(ops, 7)
    again = energy.normalize(ops, v.u)
    assert np.allclose(again.u, v.u, rtol=0, atol=1e-15)
    const = energy.normalize(ops, np.full(ops.N, 3.3))
    assert np.allclose(const.u, ops.volume ** (-1.0 / ops.two_star), rtol=1e-14)
    scaled = energy.normalize(ops, 7.0 * v.u)
    assert np.allclose(scaled.u, v.u, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        energy.normalize(ops, np.zeros(ops.N))


def test_project_tangent(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    v = random_positive_state(ops, 11)
    p = energy.volume_covector(v)
    assert np.max(np.abs(energy.project_tangent(v, v.u))) <= 1e-12
    u = np.random.default_rng(1).standard_normal(ops.N)
    w = energy.project_tangent(v, u)
    assert abs(float(p @ w)) <= 1e-10
    w2 = energy.project_tangent(v, w)
    assert np.allclose(w2, w, atol=1e-12)


def test_gradient_vanishes_at_frank_constant(frank_nondeg):
    _, rep, _, _ = frank_nondeg
    G = energy.gradient(rep.v)
    assert np.max(np.abs(G)) <= 1e-9
    st_ = random_positive_state(rep.v.ops, 3)
    assert abs(float(energy.gradient(st_) @ st_.u)) <= 1e-10  # radial annihilation


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(frank_nondeg, hemisphere3, seed):
    # oracle: Richardson-extrapolated centered differences of the quotient
    for ops in (frank_nondeg[1].v.ops, hemisphere3[2]):
        v = random_positive_state(ops, 100 + seed)
        G = energy.gradient(v)
        rng = np.random.default_rng(seed)
        eta = rng.standard_normal(ops.N)
        eta /= ops.w12_norm(eta)
        fd = richardson_first(lambda t: energy.yamabe_quotient(ops, v.u + t * eta),
                              0.02)
        assert fd == pytest.approx(float(G @ eta), rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1])
def test_hessian_matches_finite_differences(frank_nondeg, seed):
    ops = frank_nondeg[1].v.ops
    v = random_positive_state(ops, 200 + seed)
    H = projected_hessian(v)
    rng = np.random.default_rng(seed)
    phi = energy.project_tangent(v, rng.standard_normal(ops.N))
    phi /= ops.w12_norm(phi)
    fd = richardson_second(lambda t: energy.yamabe_quotient(ops, v.u + t * phi),
                           0.02)
    assert fd == pytest.approx(float(phi @ H @ phi), rel=1e-5)


def test_hessian_symmetry_and_radial_annihilation(frank_nondeg):
    _, rep, _, _ = frank_nondeg
    v = rep.v
    H = projected_hessian(v)
    assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))
    assert np.max(np.abs(H @ v.u)) <= 1e-9 * np.max(np.abs(H))


def test_hessian_form_is_projected_second_variation(frank_nondeg):
    # second_variation keeps the bits of the original closed formula; the
    # projected form is built from it in the tests (conftest.projected_hessian)
    ops = frank_nondeg[1].v.ops
    v = random_positive_state(ops, 7)
    Q = energy.yamabe_quotient(ops, v.u)
    ts = ops.two_star
    diag = ops.vol_weights * v.u ** (ts - 2.0)
    A = ops.stiffness + np.diag(ops.curv_weights) + np.diag(ops.bdry_weights)
    H0 = 2.0 * (A - (ts - 1.0) * Q * np.diag(diag))
    assert np.array_equal(energy.second_variation(v), H0)


@pytest.mark.parametrize("kind", sorted(OPERATOR_SETS))
def test_lean_kernels_keep_reference_bits(kind):
    # the factored quotient is within N eps |Q| of its long-double value (the
    # dense u'Su exceeded that bound by 3x to 37x at worst on these sets),
    # on and off the unit-volume manifold, and the in-place Hessian gives the
    # bits of the dense formula it replaces
    ops = operator_set(kind)
    ts = ops.two_star
    S = ops.stiffness
    A = S + np.diag(ops.curv_weights) + np.diag(ops.bdry_weights)
    for seed in (1, 2, 3):
        v = random_positive_state(ops, seed)
        for u in (v.u, 1.7 * v.u):
            Q = energy.yamabe_quotient(ops, u)
            Q_ref, _ = factored_longdouble(ops, u)
            assert abs(float(np.longdouble(Q) - Q_ref)) <= ops.N * np.finfo(float).eps * abs(Q)
        Q = energy.yamabe_quotient(ops, v.u)
        diag = ops.vol_weights * v.u ** (ts - 2.0)
        H0 = 2.0 * (A - (ts - 1.0) * Q * np.diag(diag))
        assert np.array_equal(energy.second_variation(v), H0)
    if kind == "ball":
        assert np.any(ops.bdry_weights)
    # with_diagonal adds the diagonal weights to S in the dense sums' order
    assert np.array_equal(ops.with_diagonal(ops.curv_weights, ops.bdry_weights), A)
    assert np.array_equal(ops.with_diagonal(ops.vol_weights), S + np.diag(ops.vol_weights))


def test_gradient_rounding_error_at_N512():
    # the factored form keeps the gradient's rounding error well below the
    # default grad_tol 1e-11 on the Chebyshev grid, where the dense S,
    # with entries up to 2e6, left 4.2e-10 and 4.5e-10 on these states
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 512))
    for seed in (1, 2):
        v = energy.normalize(ops, minimize.random_starts(ops, 2, seed)[1])
        _, G_ref = factored_longdouble(ops, v.u)
        err = (energy.gradient(v).astype(np.longdouble) - G_ref).astype(float)
        assert ops.dual_norm(err) <= 1e-11


@pytest.mark.parametrize("kind", sorted(OPERATOR_SETS))
def test_forms_are_exactly_symmetric(kind):
    # disc.BorderedFactor copies its block through the transpose, so every
    # matrix it factors must equal its transpose bit for bit
    ops = operator_set(kind)
    v = random_positive_state(ops, 4)
    for X in (ops.with_diagonal(ops.curv_weights, ops.bdry_weights),
              ops.with_diagonal(ops.vol_weights), energy.second_variation(v)):
        assert np.array_equal(X, X.T)


def test_raw_derivatives_match_finite_differences(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    rng = np.random.default_rng(4)
    w = 1.0 + 0.3 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
    G = raw_gradient(ops, w)
    H = raw_hessian_reference(ops, w)
    eta = rng.standard_normal(ops.N)
    eta /= np.linalg.norm(eta)
    fd1 = richardson_first(lambda t: energy.yamabe_quotient(ops, w + t * eta), 0.02)
    assert fd1 == pytest.approx(float(G @ eta), rel=1e-8, abs=1e-12)
    fd2 = richardson_second(lambda t: energy.yamabe_quotient(ops, w + t * eta), 0.02)
    assert fd2 == pytest.approx(float(eta @ H @ eta), rel=1e-6)
    # at a normalized state, along a tangent direction (p.eta = 0), the
    # second derivative of the quotient is the second variation
    v = energy.normalize(ops, w)
    eta = energy.project_tangent(v, rng.standard_normal(ops.N))
    eta /= np.linalg.norm(eta)
    assert abs(float(energy.volume_covector(v) @ eta)) <= 1e-14
    fd2 = richardson_second(lambda t: energy.yamabe_quotient(ops, v.u + t * eta), 0.02)
    assert fd2 == pytest.approx(float(eta @ energy.second_variation(v) @ eta), rel=1e-6)


def test_el_residual_critical_states(frank_nondeg, hemisphere3):
    _, rep, _, _ = frank_nondeg
    r = energy.el_residual(rep.v)
    assert r.interior <= 1e-9
    assert r.boundary == 0.0  # no endpoints on the circle

    _, g, ops = hemisphere3
    vh = energy.normalize(ops, np.ones(g.N))
    rh = energy.el_residual(vh)
    assert rh.interior <= 1e-8
    assert rh.boundary <= 1e-8


def test_el_residual_noncritical_state(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    st_ = random_positive_state(ops, 21)
    assert energy.el_residual(st_).interior > 1e-3


def test_weak_strong_consistency(frank_nondeg):
    # the projected gradient and the strong-form residual vanish together
    ops = frank_nondeg[1].v.ops
    for seed in range(100):
        st_ = random_positive_state(ops, 1000 + seed, amp=0.2)
        gn = np.max(np.abs(energy.gradient(st_)))
        res = energy.el_residual(st_)
        assert gn > 1e-8 and res.interior > 1e-8
    v = frank_nondeg[1].v
    assert np.max(np.abs(energy.gradient(v))) <= 1e-9
    assert energy.el_residual(v).interior <= 1e-9


def test_hessian_psd_at_minimizer(frank_nondeg):
    _, rep, spec, _ = frank_nondeg
    lam = spec.eigenvalues
    assert lam[0] >= -1e-8 * abs(lam[-1])


@pytest.mark.parametrize("model_name", ["hemisphere", "frank"])
def test_conformal_covariance_of_quotient(model_name, hemisphere3, frank_nondeg):
    if model_name == "hemisphere":
        m, g, ops = hemisphere3
        w = np.exp(0.3 * np.cos(g.nodes))
    else:
        m, rep, _, _ = frank_nondeg
        ops = rep.v.ops
        g = ops.grid
        w = np.exp(0.25 * np.cos(2 * math.pi * g.nodes / m.length))
    ops_d = disc.assemble_operators(model.conformal_deform(m, w, g), g)
    for seed in range(5):
        u = random_positive_state(ops, 300 + seed).u
        q_def = energy.yamabe_quotient(ops_d, u)
        q_pull = energy.yamabe_quotient(ops, u * w)
        assert q_def == pytest.approx(q_pull, rel=1e-6)


def test_energy_deficit_matches_direct_difference(frank_deg):
    _, rep, _, split = frank_deg
    ops = rep.v.ops
    q0 = energy.yamabe_quotient(ops, rep.v.u)
    phi = split.K_basis[:, 0]
    for s in (0.05, 0.01):
        xi = s * phi
        direct = energy.yamabe_quotient(ops, np.clip(rep.v.u + xi, 0, None)) - q0
        incremental = energy.energy_deficit(rep.v, xi)
        assert incremental == pytest.approx(direct, rel=1e-4, abs=1e-12)


def test_energy_deficit_smooth_to_tiny_scales(frank_deg):
    # the incremental form stays a clean quartic far below the direct-form floor
    _, rep, _, split = frank_deg
    phi = split.K_basis[:, 0]
    ratios = [energy.energy_deficit(rep.v, s * phi) / s**4
              for s in (3e-3, 1e-3, 5e-4)]
    assert max(ratios) / min(ratios) < 1.05


def test_energy_deficit_on_column_blocks(frank_deg):
    # a block of offsets gives each column's deficit, power increment and
    # (S + C + B) xi
    _, rep, _, split = frank_deg
    v = rep.v
    ops, ts = v.ops, v.ops.two_star
    Xi = np.column_stack([s * split.K_basis[:, j] for s in (1e-3, 2e-2) for j in (0, 1)])
    cb = ops.curv_weights + ops.bdry_weights
    block = energy.energy_deficit(v, Xi)
    incr = energy.power_increment(v.u, Xi, ts)
    AXi = ops.apply_form(Xi, cb)[0]
    eps = np.finfo(float).eps
    floor = eps * energy.yamabe_quotient(ops, v.u)
    absD = np.abs(ops.grid.diff_matrix)
    for j in range(Xi.shape[1]):
        xi, col = Xi[:, j], Xi[:, j:j + 1]
        deficit = energy.energy_deficit(v, xi)
        assert block[j] == pytest.approx(deficit, rel=1e-12, abs=floor)
        ref = energy.power_increment(v.u, xi, ts)
        assert np.max(np.abs(incr[:, j] - ref)) <= 1e-15 * np.max(np.abs(ref))
        # A xi cancels sums of size |D|'(w |D| |xi|) + |(c + b) xi|
        Axi = ops.apply_form(xi, cb)[0]
        sums = absD.T @ (ops.stiff_weights * (absD @ np.abs(xi))) + np.abs(cb * xi)
        assert np.all(np.abs(AXi[:, j] - Axi) <= ops.N * eps * sums)
        # a one-column block gives the vector call's values to a few eps
        assert energy.energy_deficit(v, col)[0] == pytest.approx(deficit, rel=4 * eps,
                                                                 abs=4 * floor)
        assert np.max(np.abs(energy.power_increment(v.u, col, ts)[:, 0] - ref)) \
            <= 4 * eps * np.max(np.abs(ref))
        assert np.all(np.abs(ops.apply_form(col, cb)[0][:, 0] - Axi) <= 4 * eps * sums)
    with pytest.raises(ValueError, match="nonnegative cone"):
        energy.energy_deficit(v, np.column_stack([Xi[:, 0], -2.0 * v.u]))


def test_power_increment_where_the_sum_vanishes():
    # v + xi = 0 at a node with v > 0 takes the plain difference: exactly -v^p,
    # with no divide-by-zero warning from log1p(-1)
    v = np.array([1.0, 2.0, 0.5])
    xi = np.array([-1.0, 0.1, -0.5])
    p = 10.0 / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = energy.power_increment(v, xi, p)
    ref = (v + xi) ** p - v**p
    assert out[0] == ref[0] and out[2] == ref[2]
    assert out == pytest.approx(ref, rel=1e-14)


def test_power_increment_of_an_empty_block():
    assert energy.power_increment(np.ones(8), np.zeros((8, 0)), 2.5).shape == (8, 0)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=10**6))
def test_quotient_homogeneity_property(c, seed):
    m = model.frank_product(5, 0.5)
    g = disc.build_grid(m, 32)
    ops = disc.assemble_operators(m, g)
    u = np.abs(np.random.default_rng(seed).standard_normal(g.N)) + 0.1
    assert energy.yamabe_quotient(ops, c * u) == pytest.approx(
        energy.yamabe_quotient(ops, u), rel=1e-12)
