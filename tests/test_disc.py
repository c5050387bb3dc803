import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamstab import disc, energy, minimize, model
from conftest import fourier_diff_reference, w12_norm_longdouble


def test_uniform_circle_weights():
    m = model.frank_product(3, 1.0)  # circumference 2 pi
    g = disc.build_grid(m, 64)
    assert np.allclose(g.quad_weights, 2 * math.pi / 64, rtol=0, atol=0)
    assert g.quad_weights.sum() == pytest.approx(2 * math.pi, rel=1e-15)


def test_lobatto_constant_exactness():
    m = model.cylinder(3, 1.0)
    g = disc.build_grid(m, 33)
    assert abs(g.quad_weights.sum() - 1.0) <= 1e-14
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_lobatto_sin_squared_integral():
    # oracle: analytic antiderivative, int_0^{pi/2} sin^2 = pi/4
    w = disc.clenshaw_curtis_weights(65, math.pi / 2)
    t, _ = disc.chebyshev_nodes_diff(65, math.pi / 2)
    assert abs(float(w @ np.sin(t) ** 2) - math.pi / 4) <= 1e-12


def test_spectral_convergence_on_analytic_integrand():
    # trigonometric polynomials are already exact at N=64, so the order-gain
    # check runs on an analytic integrand with nearby complex poles
    # (oracle: arctan antiderivative); the trig case is asserted at the floor.
    a = 0.09  # complex poles at +- ia keep N=128 well above the round-off floor
    exact = 2.0 * a * math.atan(1.0 / a)
    errs = {}
    for N in (64, 128):
        w = disc.clenshaw_curtis_weights(N, 2.0)
        t, _ = disc.chebyshev_nodes_diff(N, 2.0)
        x = t - 1.0
        errs[N] = abs(float(w @ (1.0 / (1.0 + (x / a) ** 2))) - exact)
    assert errs[64] / errs[128] >= 1e4
    for N in (64, 128):
        w = disc.clenshaw_curtis_weights(N, math.pi / 2)
        t, _ = disc.chebyshev_nodes_diff(N, math.pi / 2)
        assert abs(float(w @ np.sin(t) ** 2) - math.pi / 4) <= 1e-13


def test_grid_validation():
    m = model.cylinder(3, 1.0)
    with pytest.raises(ValueError, match="below minimum"):
        disc.build_grid(m, 8)
    mc = model.frank_product(4, 1.0)
    with pytest.raises(ValueError, match="even"):
        disc.build_grid(mc, 33)


def test_hemisphere_constant_energy(hemisphere3):
    # 1'(S+C)1 = c_3 * R * vol = (1/8) * 6 * pi^2
    _, g, ops = hemisphere3
    ones = np.ones(g.N)
    val = float(ones @ (ops.stiffness @ ones))
    val += float(ones @ (np.diag(ops.curv_weights) @ ones))
    # the Dirichlet part cancels to eps * sum|S_ij| ~ 1e-11, not to eps itself
    assert val == pytest.approx(6 * math.pi**2 / 8, rel=1e-11)


def test_ball_boundary_form(ball3):
    # 1'B1 = ((n-2)/2) h b = (1/2) * 1 * 4 pi
    _, g, ops = ball3
    ones = np.ones(g.N)
    val = float(ones @ np.diag(ops.bdry_weights) @ ones)
    assert val == pytest.approx(2 * math.pi, rel=1e-14)


def test_stiffness_symmetric_annihilates_constants(hemisphere3, frank_nondeg):
    for ops in (hemisphere3[2], frank_nondeg[1].v.ops):
        S = ops.stiffness
        scale = np.max(np.abs(S))
        assert np.max(np.abs(S - S.T)) <= 1e-12 * scale
        assert np.max(np.abs(S @ np.ones(ops.N))) <= 1e-10 * scale


def test_stiffness_psd_on_random_vectors(cylinder3):
    _, _, ops = cylinder3
    rng = np.random.default_rng(0)
    U = rng.standard_normal((1000, ops.N))
    vals = np.einsum("ij,jk,ik->i", U, ops.stiffness, U)
    assert np.all(vals >= -1e-10 * np.max(np.abs(vals)))


def test_mass_matches_volume(hemisphere3):
    _, _, ops = hemisphere3
    ones = np.ones(ops.N)
    val = float(ones @ np.diag(ops.vol_weights) @ ones)
    assert val == pytest.approx(math.pi**2, rel=1e-12)


def test_stiffness_is_the_only_stored_dense_form():
    # the diagonal forms are node vectors, and the dense sums S + diag(d) of
    # the Hessian, the damped polish step, the Laplace pencil and the start
    # pick's floor are built on each use; only the Cholesky factor of S + M
    # is kept beside S, after a multistart run and a Riesz solve too
    m = model.ball(3)
    reports = minimize.run_multistart(m, 32, 2, minimize.MinimizeOptions())
    v = minimize.best_converged(reports, m, 32).v
    ops = v.ops
    G = energy.gradient(v)
    minimize._polish_step(v, energy.second_variation(v), G, 1e-3)
    minimize.laplace_modes(ops, 3)
    ops.riesz(G)
    square = [name for name, x in vars(ops).items()
              for a in (x if isinstance(x, tuple) else (x,))
              if getattr(a, "shape", None) == (ops.N, ops.N)]
    assert square == ["stiffness", "w12_cho"]
    for name in ("vol_weights", "curv_weights", "bdry_weights"):
        assert getattr(ops, name).shape == (ops.N,)


def test_normal_derivative_of_linear_function(cylinder3, hemisphere3):
    for _, g, ops in (cylinder3, hemisphere3):
        val = float(ops.normal_derivs["right"] @ g.nodes)
        assert val == pytest.approx(1.0, abs=1e-8)
    # left endpoint of the cylinder: outward direction is -d/dt
    _, g, ops = cylinder3
    assert float(ops.normal_derivs["left"] @ g.nodes) == pytest.approx(-1.0, abs=1e-8)


def test_assemble_rejects_negative_density():
    m = model.cylinder(3, 1.0)
    g = disc.build_grid(m, 32)
    bad = model.SymmetricModel(
        n=3, topology="interval", length=1.0,
        density=lambda t: np.cos(4 * t), grad_density=lambda t: np.cos(4 * t),
        lap_scale=1.0, lap_drift=0.0, scalar_curvature=0.0,
        left=model.BoundaryData(0.0, 1.0), right=model.BoundaryData(0.0, 1.0),
        label="bad")
    with pytest.raises(ValueError, match="density"):
        disc.assemble_operators(bad, g)


def test_lp_norm_basics(frank_nondeg):
    _, rep, _, _ = frank_nondeg
    ops = rep.v.ops
    ones = np.ones(ops.N)
    for p in (1.0, 2.0, ops.two_star):
        assert disc.lp_norm(ops, ones, p) == pytest.approx(ops.volume ** (1 / p),
                                                           rel=1e-13)
    u = 1.0 + 0.5 * np.sin(2 * math.pi * ops.grid.nodes / ops.model.length)
    assert disc.lp_norm(ops, u, 2.0) ** 2 == pytest.approx(
        float(u @ np.diag(ops.vol_weights) @ u), rel=1e-12)
    with pytest.raises(ValueError):
        disc.lp_norm(ops, ones, 0.5)
    with pytest.raises(ValueError):
        disc.lp_norm(ops, ones, math.inf)


def test_lp_norm_hemisphere_cosine(hemisphere3):
    # oracle: int_0^{pi/2} 4 pi sin^2 t cos^2 t dt = pi^2/4
    _, g, ops = hemisphere3
    assert disc.lp_norm(ops, np.cos(g.nodes), 2.0) == pytest.approx(math.pi / 2,
                                                                    rel=1e-12)


def test_fourier_diff_exactness():
    m = model.frank_product(5, 0.7)
    g = disc.build_grid(m, 64)
    k = 2 * math.pi * 3 / m.length
    u = np.sin(k * g.nodes)
    assert np.allclose(g.diff_matrix @ u, k * np.cos(k * g.nodes), atol=1e-11)


@pytest.mark.parametrize("N", [16, 64, 512])
def test_fourier_diff_toeplitz_keeps_reference_bits(N):
    # entry (i, j) is f(i - j): the Toeplitz layout of the 2N-1 distinct
    # differences gives the bits of the formula evaluated on all N^2 entries
    for length in (1.0, 2.0 * math.pi * 0.7, 3.3):
        D = disc.fourier_diff(N, length)
        assert D.flags.c_contiguous
        assert np.array_equal(D, fourier_diff_reference(N, length))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=10**6))
def test_lp_norm_homogeneity(c, seed):
    m = model.frank_product(5, 0.5)
    g = disc.build_grid(m, 32)
    ops = disc.assemble_operators(m, g)
    u = np.abs(np.random.default_rng(seed).standard_normal(g.N)) + 0.1
    assert disc.lp_norm(ops, c * u, ops.two_star) == pytest.approx(
        c * disc.lp_norm(ops, u, ops.two_star), rel=1e-12)


def test_bordered_solve_constrained_minimizer():
    # min 1/2 x'Ax - b'x on c.x = 0: the multiplier absorbs the normal part
    rng = np.random.default_rng(3)
    Q = rng.standard_normal((6, 6))
    A = Q @ Q.T + np.eye(6)
    c = rng.standard_normal((6, 1))
    b = rng.standard_normal(6)
    x = disc.bordered_solve(A, c, b)
    assert abs(float(c[:, 0] @ x)) <= 1e-12
    g = A @ x - b
    assert np.linalg.norm(g - (c[:, 0] @ g) / (c[:, 0] @ c[:, 0]) * c[:, 0]) <= 1e-12
    with pytest.raises(np.linalg.LinAlgError):
        disc.bordered_solve(np.zeros((3, 3)), np.zeros((3, 1)), np.ones(3))


def test_bordered_factor_solves_many_right_hand_sides():
    # an indefinite block with three constraints: Bunch-Kaufman takes 2x2 pivots
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((40, 40))
    A = Q + Q.T
    C = rng.standard_normal((40, 3))
    B = rng.standard_normal((40, 3))
    factor = disc.BorderedFactor(A, C)
    assert np.any(factor._ipiv < 0)
    # ?sytrs copies a factor that is not Fortran-ordered on every call
    assert factor._ldu.flags.f_contiguous
    K = np.block([[A, C], [C.T, np.zeros((3, 3))]])
    for b in B.T:
        x = factor.solve(b)
        ref = np.linalg.solve(K, np.concatenate([b, np.zeros(3)]))[:40]
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(C.T @ x) <= 1e-12 * np.linalg.norm(C) * np.linalg.norm(x)
    with pytest.raises(np.linalg.LinAlgError):
        disc.BorderedFactor(np.zeros((3, 3)), np.zeros((3, 1)))


def test_dual_norm_factors_once():
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 32))
    G = np.linspace(-1.0, 1.0, ops.N)
    r = np.linalg.solve(ops.stiffness + np.diag(ops.vol_weights), G)
    assert ops.dual_norm(G) == pytest.approx(math.sqrt(G @ r), rel=1e-12)
    assert np.allclose(ops.riesz(G), r, rtol=1e-10, atol=0)
    assert ops.w12_cho is ops.w12_cho


def test_sobolev_norm_rounding_at_N512():
    # the factored norm stays within 1e-13 of its long-double value on smooth
    # offsets and on the states they displace the constant to; the dense
    # quadratic form u'(S+M)u erred by up to 8e-12 on these offsets and
    # 1.3e-10 on these states, through S's entries of up to 2e6
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 512))
    _, modes = minimize.laplace_modes(ops, 5)
    for seed in (1, 2, 3):
        combo = modes @ np.random.default_rng(seed).standard_normal(5)
        combo /= np.max(np.abs(combo))
        for scale in (1e-3, 1e-2, 1e-1):
            for u in (scale * combo, 1.0 + scale * combo):
                ref = w12_norm_longdouble(ops, u)
                assert abs(float(np.longdouble(ops.w12_norm(u)) - ref)) <= 1e-13 * float(ref)
