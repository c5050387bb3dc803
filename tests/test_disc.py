import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg as sla

from yamstab import disc, energy, minimize, model
from conftest import SUB_RADIUS, as_form, dense, fourier_diff_reference, w12_norm_longdouble


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
    # the diagonal forms are node vectors, and the sums S + diag(d) of the
    # Hessian, the damped polish step and the start pick's floor are Forms
    # built on each use; only the Cholesky factor of S + M is kept beside S,
    # after a multistart run and a Riesz solve too
    m = model.ball(3)
    reports = minimize.run_multistart(m, 32, 2, minimize.MinimizeOptions())
    v = minimize.best_converged(reports, m, 32).v
    ops = v.ops
    G = energy.gradient(v)
    minimize._polish_step(v, energy.second_variation(v), G, 1e-3)
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
    x = disc.BorderedFactor(as_form(A), c).solve(b)
    assert abs(float(c[:, 0] @ x)) <= 1e-12
    g = A @ x - b
    assert np.linalg.norm(g - (c[:, 0] @ g) / (c[:, 0] @ c[:, 0]) * c[:, 0]) <= 1e-12
    with pytest.raises(np.linalg.LinAlgError):
        disc.BorderedFactor(as_form(np.zeros((3, 3))), np.zeros((3, 1))).solve(np.ones(3))


def test_bordered_factor_solves_many_right_hand_sides():
    # an indefinite block with three constraints: Bunch-Kaufman takes 2x2 pivots
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((40, 40))
    A = Q + Q.T
    C = rng.standard_normal((40, 3))
    B = rng.standard_normal((40, 3))
    factor = disc.BorderedFactor(as_form(A), C)
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
        disc.BorderedFactor(as_form(np.zeros((3, 3))), np.zeros((3, 1)))


def test_bordered_factor_block_solve_and_inertia():
    rng = np.random.default_rng(7)
    Q = rng.standard_normal((40, 40))
    C = rng.standard_normal((40, 3))
    B = rng.standard_normal((40, 5))
    for A in (Q + Q.T, Q @ Q.T + np.eye(40)):
        factor = disc.BorderedFactor(as_form(A), C)
        X = factor.solve(B)
        for j in range(B.shape[1]):
            x = factor.solve(B[:, j])
            assert np.linalg.norm(X[:, j] - x) <= 1e-13 * np.linalg.norm(x)
        # Sylvester's law of inertia: the factor's D has the bordered
        # matrix's negative eigenvalues
        K = np.block([[A, C], [C.T, np.zeros((3, 3))]])
        assert factor.negative_eigenvalues() == int(np.sum(np.linalg.eigvalsh(K) < 0))
    # positive definite A: exactly one negative eigenvalue per constraint
    assert factor.negative_eigenvalues() == 3


def test_sobolev_forms_on_column_blocks(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    t = ops.grid.nodes / ops.model.length
    U = np.column_stack([1.0 + 0.1 * np.cos(2 * math.pi * k * t) for k in (1, 2, 5)])
    cb = ops.curv_weights + ops.bdry_weights
    norms, volumes = ops.w12_norm(U), disc.lp_norm(ops, U, 3.0)
    WU, AU = ops.apply_form(U, ops.vol_weights)[0], ops.apply_form(U, cb)[0]
    absD = np.abs(ops.grid.diff_matrix)
    eps = np.finfo(float).eps
    for j in range(U.shape[1]):
        u, col = U[:, j], U[:, j:j + 1]
        assert norms[j] == pytest.approx(ops.w12_norm(u), rel=1e-14)
        assert volumes[j] == pytest.approx(disc.lp_norm(ops, u, 3.0), rel=1e-14)
        # (S+M) u of a smooth u cancels sums of size |D|'(w |D| |u|)
        sums = absD.T @ (ops.stiff_weights * (absD @ np.abs(u)))
        Wu, Au = ops.apply_form(u, ops.vol_weights)[0], ops.apply_form(u, cb)[0]
        assert np.all(np.abs(WU[:, j] - Wu) <= ops.N * eps * sums)
        assert np.all(np.abs(AU[:, j] - Au) <= ops.N * eps * (sums + np.abs(cb * u)))
        assert float(u @ WU[:, j]) == pytest.approx(ops.w12_norm(u) ** 2, rel=1e-13)
        # a one-column block gives the vector call's values to a few eps
        assert ops.w12_norm(col)[0] == pytest.approx(ops.w12_norm(u), rel=4 * eps)
        assert disc.lp_norm(ops, col, 3.0)[0] == pytest.approx(
            disc.lp_norm(ops, u, 3.0), rel=4 * eps)
        for d, Du in ((ops.vol_weights, Wu), (cb, Au)):
            assert np.all(np.abs(ops.apply_form(col, d)[0][:, 0] - Du)
                          <= 4 * eps * (sums + np.abs(d * u)))


def test_dual_norm_factors_once():
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 32))
    G = np.linspace(-1.0, 1.0, ops.N)
    r = np.linalg.solve(ops.stiffness + np.diag(ops.vol_weights), G)
    assert ops.dual_norm(G) == pytest.approx(math.sqrt(G @ r), rel=1e-12)
    assert np.allclose(ops.riesz(G), r, rtol=1e-10, atol=0)
    assert ops.w12_cho is ops.w12_cho


def test_w12_cho_is_factored_in_its_own_fortran_block():
    # S + M is written into one Fortran block and factored there in place,
    # with the bits of the factor of the dense sum
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 64))
    c, lower = ops.w12_cho
    ref, ref_lower = sla.cho_factor(ops.stiffness + np.diag(ops.vol_weights))
    assert c.flags.f_contiguous
    assert lower == ref_lower and np.array_equal(c, ref)


def test_form_products_shifts_and_rounding_floor(frank_nondeg):
    # a Form applies, shifts and bounds like the dense matrix it stands for
    v = frank_nondeg[1].v
    ops = v.ops
    H, W = energy.second_variation(v), ops.form(ops.vol_weights)
    Hd, Wd = dense(H), dense(W)
    X = disc.low_modes(ops.grid, 6)
    eps = np.finfo(float).eps
    bound = ops.N * eps * (np.abs(Hd) @ np.abs(X))
    assert np.all(np.abs(H @ X - Hd @ X) <= bound)
    assert np.all(np.abs(H @ X[:, 0] - Hd @ X[:, 0]) <= bound[:, 0])
    sigma = 0.3
    # a diagonal shift changes only the diagonal, as the dense one does
    Hd_shift = Hd.copy()
    Hd_shift.flat[:: ops.N + 1] -= sigma * ops.vol_weights
    assert np.array_equal(dense(H.shifted(sigma, ops.vol_weights)), Hd_shift)
    assert np.all(np.abs(dense(H.shifted(sigma, W)) - (Hd - sigma * Wd))
                  <= 2 * eps * (np.abs(Hd) + sigma * np.abs(Wd)))
    with pytest.raises(ValueError, match="same matrix"):
        H.shifted(sigma, as_form(Wd))
    # the floor's |A| is taken by row blocks of S (two of them at N = 256)
    for x in (v.u, X):
        ref = 2 * eps * np.einsum("i...,i...->...", np.abs(x), np.abs(Hd) @ np.abs(x))
        assert np.allclose(disc.rounding_floor(H, x), ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("N", [64, 96])
def test_nyquist_term_keeps_the_outer_product_bits(N):
    # the strided in-place Nyquist updates give the stiffness the bits of
    # S += e * np.outer(y, y), also at N = 96, where 1/N is not a power of two
    m = model.frank_product(5, SUB_RADIUS)
    g = disc.build_grid(m, N)
    ops = disc.assemble_operators(m, g)
    e, y = ops.nyquist
    Dw = np.sqrt(ops.stiff_weights)[:, None] * g.diff_matrix
    S = Dw.T @ Dw
    S += e * np.outer(y, y)
    S.flat[:: N + 1] -= S @ np.ones(N)
    assert np.array_equal(ops.stiffness, S)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_riesz_refuses_a_nonfinite_covector(bad):
    # the solve skips the scan of the cached factor, so the covector's own
    # check is what stands between a NaN and a silent result
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 32))
    G = np.linspace(-1.0, 1.0, ops.N)
    G[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        ops.riesz(G)
    with pytest.raises(ValueError, match="infs or NaNs"):
        ops.dual_norm(G)


@pytest.mark.parametrize("kind, N", [("circle", 16), ("interval", 17), ("interval", 64)])
def test_low_modes_are_the_resolved_nonconstant_modes(kind, N):
    # a circle resolves N - 1 modes, which with the constant span the node
    # vectors (the Nyquist sine vanishes at every node); a Chebyshev grid
    # resolves (N - 1) // 2 cosines, which stay mass-orthogonal to round-off
    m = model.frank_product(5, 0.5) if kind == "circle" else model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, N))
    modes = disc.low_modes(ops.grid, 10 * N)
    assert modes.flags.f_contiguous
    t = ops.grid.nodes / ops.grid.length
    if kind == "circle":
        assert modes.shape == (N, N - 1)
        assert np.linalg.matrix_rank(np.column_stack([np.ones(N), modes])) == N
        first = (np.cos(2 * math.pi * t), np.sin(2 * math.pi * t))
    else:
        assert modes.shape == (N, (N - 1) // 2)
        assert np.linalg.cond(modes.T @ (ops.vol_weights[:, None] * modes)) < 10.0
        first = (np.cos(math.pi * t), np.cos(2 * math.pi * t))
    assert np.allclose(modes[:, :2], np.column_stack(first), rtol=0, atol=1e-15)
    assert np.array_equal(disc.low_modes(ops.grid, 2), modes[:, :2])


@pytest.mark.parametrize("kind", ["circle", "interval"])
def test_interpolate_is_exact_on_what_the_coarse_grid_resolves(kind):
    # a circle's N nodes resolve the trigonometric polynomials of degree N/2
    # with the Nyquist cosine as cos(pi N t / T), its real interpolant; a
    # Chebyshev grid's N nodes resolve the polynomials of degree N - 1
    m = model.frank_product(5, 0.5) if kind == "circle" else model.cylinder(3, 1.0)
    coarse, fine = disc.build_grid(m, 16), disc.build_grid(m, 64)
    if kind == "circle":
        def f(t):
            s = 2 * math.pi * t / m.length
            return 1.0 + 0.3 * np.sin(s) - 0.2 * np.cos(7 * s) + 0.1 * np.cos(8 * s)
    else:
        def f(t):
            return np.polynomial.chebyshev.chebval(2 * t / m.length - 1, np.linspace(1, -1, 16))
    u = disc.interpolate(coarse, fine, f(coarse.nodes))
    assert np.allclose(u, f(fine.nodes), rtol=0, atol=1e-13)
    if kind == "interval":  # the shared end nodes keep their values exactly
        assert np.array_equal(u[[0, -1]], f(coarse.nodes)[[0, -1]])


def test_sobolev_norm_rounding_at_N512():
    # the factored norm stays within 1e-13 of its long-double value on smooth
    # offsets and on the states they displace the constant to; the dense
    # quadratic form u'(S+M)u erred by up to 2.3e-12 on these offsets and
    # 1.7e-10 on these states, through S's entries of up to 2e6
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 512))
    modes = disc.low_modes(ops.grid, 5)
    for seed in (1, 2, 3):
        combo = modes @ np.random.default_rng(seed).standard_normal(5)
        combo /= np.max(np.abs(combo))
        for scale in (1e-3, 1e-2, 1e-1):
            for u in (scale * combo, 1.0 + scale * combo):
                ref = w12_norm_longdouble(ops, u)
                assert abs(float(np.longdouble(ops.w12_norm(u)) - ref)) <= 1e-13 * float(ref)
