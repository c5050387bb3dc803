import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from yamstab import disc, energy, lsred, minimize, model, spectrum, stability
from conftest import (BIF_RADIUS, SUB_RADIUS, as_form, frank_mode_eigenvalue,
                      projected_hessian, tangent_frame)


def test_degenerate_kernel_pair(frank_deg):
    # oracle: circle-mode eigenvalues 2((k/r)^2 - 3); k=1 is null at r=1/sqrt(3)
    _, rep, spec, split = frank_deg
    scale = float(np.max(np.abs(spec.eigenvalues)))
    assert split.kernel_dim == 2
    assert np.all(np.abs(spec.eigenvalues[:2]) <= 1e-6 * scale)
    assert split.lambda1 == pytest.approx(frank_mode_eigenvalue(5, BIF_RADIUS, 2),
                                          rel=1e-6)
    # kernel spans the first circle harmonics
    g = rep.v.ops.grid
    c = np.cos(g.nodes / BIF_RADIUS)
    s = np.sin(g.nodes / BIF_RADIUS)
    basis = np.column_stack([c / np.linalg.norm(c), s / np.linalg.norm(s)])
    for j in range(2):
        k = split.K_basis[:, j]
        proj = basis @ (basis.T @ k)
        assert np.linalg.norm(k - proj) <= 1e-6 * np.linalg.norm(k)


def test_nondegenerate_spectrum(frank_nondeg):
    _, _, spec, split = frank_nondeg
    assert split.kernel_dim == 0
    assert np.all(spec.eigenvalues > 0)
    for k in (1, 2, 3):
        expected = frank_mode_eigenvalue(5, SUB_RADIUS, k)
        assert spec.eigenvalues[2 * (k - 1)] == pytest.approx(expected, rel=1e-6)
        assert spec.eigenvalues[2 * k - 1] == pytest.approx(expected, rel=1e-6)


def test_eigenvector_tangency_and_rayleigh(frank_nondeg):
    _, rep, spec, _ = frank_nondeg
    ops = rep.v.ops
    p = rep.v.p
    H = projected_hessian(rep.v)
    for j in range(spec.k):
        w = spec.eigenvectors[:, j]
        assert abs(float(p @ w)) <= 1e-9
        num = float(w @ H @ w)
        den = float(w @ np.diag(ops.vol_weights) @ w)
        assert num / den == pytest.approx(spec.eigenvalues[j],
                                          rel=1e-8, abs=1e-8)
    # lowest eigenvector is mass-orthogonal to the state
    w0 = spec.eigenvectors[:, 0]
    assert abs(float(rep.v.u @ np.diag(ops.vol_weights) @ w0)) <= 1e-9


def test_eigen_decompose_matches_tangent_frame(frank_nondeg, frank_deg):
    # reference: the projected second variation reduced to an explicit
    # M-orthonormal tangent frame B; k = N-1 asks for the whole tangent
    # spectrum, so the deflation shift must sit above all of it
    cases = [(rep.v, spec) for _, rep, spec, _ in (frank_nondeg, frank_deg)]
    for r in (SUB_RADIUS, BIF_RADIUS):
        m = model.frank_product(5, r)
        ops = disc.assemble_operators(m, disc.build_grid(m, 32))
        v = energy.normalize(ops, np.ones(ops.N))
        cases.append((v, spectrum.eigen_decompose(v, ops.N - 1)))
    # a Chebyshev grid, whose end weights fall like 1/N^2, and a minimizer
    # that is not constant, so no pool mode is an eigenvector
    m = model.cylinder(3, 1.0)
    g = disc.build_grid(m, 128)
    deformed = model.frank_product(5, SUB_RADIUS)
    g_def = disc.build_grid(deformed, 128)
    w = np.exp(0.4 * np.cos(2 * math.pi * g_def.nodes / deformed.length))
    for ops, u0 in ((disc.assemble_operators(m, g), np.ones(g.N)),
                    (disc.assemble_operators(model.conformal_deform(deformed, w, g_def),
                                             g_def), 1.0 / w)):
        rep = minimize.minimize_energy(ops, u0)
        assert rep.converged
        cases.append((rep.v, spectrum.eigen_decompose(rep.v, 12)))
    for v, spec in cases:
        B = tangent_frame(v)
        ref = sla.eigh(B.T @ projected_hessian(v) @ B, eigvals_only=True,
                       subset_by_index=(0, spec.k - 1))
        assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-9 * np.max(np.abs(ref))
    # lambda1_w: the (H, S+M) pencil on the frame mass-orthogonal to the kernel
    for _, rep, spec, split in (frank_nondeg, frank_deg):
        v = rep.v
        B = tangent_frame(v, split.K_basis)
        W = v.ops.stiffness + np.diag(v.ops.vol_weights)
        ref = sla.eigh(B.T @ projected_hessian(v) @ B, B.T @ W @ B,
                       eigvals_only=True, subset_by_index=(0, 0))[0]
        got = stability.coercivity_data(v, split, spec).lambda1_w
        assert got == pytest.approx(ref, rel=1e-9)


def test_eigensolves_build_no_square_qr_frames(frank_deg, monkeypatch):
    # both eigensolves border their factor by the constraint covectors, so
    # neither takes a QR
    _, rep, _, split = frank_deg
    shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, *r, **k: shapes.append(np.shape(a)) or qr(a, *r, **k))
    spec = spectrum.eigen_decompose(rep.v, 12)
    stability.coercivity_data(rep.v, split, spec)
    assert len(shapes) == 0


def test_cylinder_lambda1_on_a_fine_chebyshev_grid():
    # at the constant on cylinder(3, 1) the lowest tangent eigenvalue is
    # 2(pi^2 - 1); the mass-scaled dense solve lost it to 1.2e-5 at N=1024,
    # where the Clenshaw-Curtis end weights fall like 1/N^2
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 1024))
    rep = minimize.minimize_energy(ops, np.ones(ops.N))
    assert rep.converged
    spec = spectrum.eigen_decompose(rep.v, 4)
    assert spec.eigenvalues[0] == pytest.approx(2.0 * (math.pi**2 - 1.0), rel=1e-9)


def test_eigen_decompose_past_the_resolved_modes():
    # a 32-node Chebyshev grid resolves 15 cosines, fewer than k + 4 = 16, so
    # the start is the whole tangent space and Rayleigh-Ritz alone is exact
    m = model.cylinder(3, 1.0)
    ops = disc.assemble_operators(m, disc.build_grid(m, 32))
    rep = minimize.minimize_energy(ops, np.ones(ops.N))
    spec = spectrum.eigen_decompose(rep.v, 12)
    B = tangent_frame(rep.v)
    ref = sla.eigh(B.T @ projected_hessian(rep.v) @ B, eigvals_only=True,
                   subset_by_index=(0, 11))
    assert spec.sweeps == 0
    assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_engine_refuses_a_blind_start_block(frank_nondeg):
    # without the k = 1 circle modes the start's Ritz values sit at k = 2 and
    # above; the shift below them has the k = 1 pair under it, and the
    # factor's inertia says so
    _, rep, spec, _ = frank_nondeg
    v = rep.v
    m = v.ops.vol_weights
    C = spectrum.constraint_covectors(v)
    with pytest.raises(spectrum.SpectrumError, match="misses the lowest mode"):
        spectrum.lowest_pairs(energy.second_variation(v), m, C, spec.eigenvectors[:, 2:8], 1)
    # the same block with the k = 1 pair settles on the exact pairs, and
    # diag(m) given as a Form on S with alpha = 0 gives them too
    for B in (m, disc.Form(v.ops.stiffness, 0.0, m)):
        got = spectrum.lowest_pairs(energy.second_variation(v), B, C, spec.eigenvectors[:, :6], 2)
        assert got.sweeps >= 1
        assert np.allclose(got.eigenvalues, frank_mode_eigenvalue(5, SUB_RADIUS, 1),
                           rtol=1e-10, atol=0)


def test_eigenvector_sign_convention(frank_nondeg):
    _, _, spec, _ = frank_nondeg
    for j in range(spec.k):
        col = spec.eigenvectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]
        assert col[nz[0]] > 0


def test_kernel_split_synthetic_positive():
    lam = np.array([1.0, 2.0, 3.0])
    fake = spectrum.SpectrumReport(eigenvalues=lam, eigenvectors=np.zeros((8, 3)))
    split = spectrum.kernel_split(fake, 1e-6)
    assert split.kernel_dim == 0
    assert split.lambda1 == 1.0


def test_kernel_split_gap_guard():
    # threshold inside a near-degenerate cluster must refuse
    lam = np.array([1e-7, 5e-7, 1.0])
    fake = spectrum.SpectrumReport(eigenvalues=lam, eigenvectors=np.zeros((8, 3)))
    with pytest.raises(spectrum.KernelThresholdError):
        spectrum.kernel_split(fake, 2e-7)


def test_kernel_split_all_below_threshold():
    lam = np.zeros(2)
    fake = spectrum.SpectrumReport(eigenvalues=lam, eigenvectors=np.zeros((8, 2)))
    with pytest.raises(spectrum.KernelThresholdError):
        spectrum.kernel_split(fake, 1e-6)


def test_kernel_strong_form_residual(frank_deg):
    # kernel vectors solve the linearized equation with the Robin condition
    _, rep, _, split = frank_deg
    ops = rep.v.ops
    q0 = energy.yamabe_quotient(ops, rep.v.u)
    ts = ops.two_star
    for j in range(split.kernel_dim):
        phi = split.K_basis[:, j]
        lap = model.laplace_profile(ops.model, ops.grid, phi)
        res = (-lap + ops.c_n * ops.curvature * phi
               - (ts - 1.0) * q0 * rep.v.u ** (ts - 2.0) * phi)
        nrm = math.sqrt(float(res @ (ops.vol_weights * res)))
        phin = math.sqrt(float(phi @ (ops.vol_weights * phi)))
        assert nrm <= 1e-6 * phin


def test_kernel_dim_stable_under_refinement():
    for N in (64, 128):
        m = model.frank_product(5, BIF_RADIUS)
        rep = minimize.estimate_yamabe_constant(
            m, N, starts=1, opts=minimize.MinimizeOptions(seed=1))
        spec = spectrum.eigen_decompose(rep.v, 8)
        split = spectrum.kernel_split(spec)
        assert split.kernel_dim == 2
        assert split.lambda1 == pytest.approx(18.0, abs=1e-8)


def test_lambda1_spectral_convergence():
    vals = {}
    for N in (128, 256):
        m = model.frank_product(5, SUB_RADIUS)
        rep = minimize.estimate_yamabe_constant(
            m, N, starts=1, opts=minimize.MinimizeOptions(seed=1))
        split = spectrum.kernel_split(spectrum.eigen_decompose(rep.v, 6))
        vals[N] = split.lambda1
    assert abs(vals[128] - vals[256]) <= 1e-8


def test_warns_at_noncritical_state(frank_nondeg):
    from conftest import random_positive_state
    ops = frank_nondeg[1].v.ops
    st_ = random_positive_state(ops, 77)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectrum.eigen_decompose(st_, 4)
    assert any("non-critical" in str(c.message) for c in caught)


def test_k_range_validation(frank_nondeg):
    _, rep, _, _ = frank_nondeg
    with pytest.raises(ValueError):
        spectrum.eigen_decompose(rep.v, 0)
    with pytest.raises(ValueError):
        spectrum.eigen_decompose(rep.v, rep.v.ops.N)


def test_pole_models_rejected(hemisphere3):
    # the mass form is singular at the pole node; eigensolves refuse clearly
    _, g, ops = hemisphere3
    v = energy.normalize(ops, np.ones(g.N))
    with pytest.raises(ValueError, match="pole"):
        spectrum.eigen_decompose(v, 4)
    # S+M stays positive definite at the pole, so only the constraint
    # covectors stand between coercivity_data and a silent number
    split = spectrum.KernelSplit(K_basis=np.zeros((g.N, 0)), lambda1=1.0,
                                 kernel_dim=0, threshold=0.0)
    spec = spectrum.SpectrumReport(eigenvalues=np.ones(1), eigenvectors=np.ones((g.N, 1)))
    with pytest.raises(ValueError, match="pole"):
        stability.coercivity_data(v, split, spec)


def _peak_arrays(fn, N: int) -> float:
    """The tracemalloc peak of fn() above the size traced before the call, in
    N x N float64 arrays."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / (8.0 * N * N)
    finally:
        tracemalloc.stop()


def test_factors_allocate_only_their_own_block():
    # each stage's one N x N array is its factor's block; the dense second
    # variation, its shifted copy, a dense S + M and |A| made it 2.1 arrays
    # for the chart, 3.3 for eigen_decompose and 4.0 for coercivity_data
    N = 512
    peaks = {}
    for r in (SUB_RADIUS, BIF_RADIUS):
        m = model.frank_product(5, r)
        ops = disc.assemble_operators(m, disc.build_grid(m, N))
        v = energy.normalize(ops, np.ones(N))
        assert v.grad_norm <= 1e-9  # the constant is critical; its Riesz factor exists
        spec = spectrum.eigen_decompose(v, 12)
        split = spectrum.kernel_split(spec)
        if r == SUB_RADIUS:
            peaks["eigen_decompose"] = _peak_arrays(lambda: spectrum.eigen_decompose(v, 12), N)
            peaks["coercivity_data"] = _peak_arrays(
                lambda: stability.coercivity_data(v, split, spec), N)
            sub_case = v, spec
        else:
            peaks["chart"] = _peak_arrays(lambda: lsred.ReductionChart(v=v, split=split), N)
    assert peaks["chart"] < 1.5, peaks
    assert peaks["eigen_decompose"] < 2.0, peaks
    assert peaks["coercivity_data"] < 2.0, peaks
    # the engine shifts into a new Form and leaves every argument as it was
    v, spec = sub_case
    ops = v.ops
    C = spectrum.constraint_covectors(v)
    X = spec.eigenvectors[:, :6]
    for B in (ops.vol_weights, ops.form(ops.vol_weights)):
        H = energy.second_variation(v)
        args = [H.S, H.diag, C, X] + ([B] if isinstance(B, np.ndarray) else [B.S, B.diag])
        before = [a.copy() for a in args]
        spectrum.lowest_pairs(H, B, C, X, 2)
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
        assert H.alpha == 2.0 and (isinstance(B, np.ndarray) or B.alpha == 1.0)


def test_factors_keep_the_dense_blocks_bits(frank_deg, frank_deg_chart, monkeypatch):
    # the chart's factor and eigen_decompose's shifted factor are written
    # from Forms; their LDL' blocks are those factored from the dense closed
    # formula H0 = 2 (S + C + B - (2*-1) Q diag(m v^(2*-2))), the latter
    # shifted on its diagonal by -sigma m
    _, rep, _, _ = frank_deg
    v, ops = rep.v, rep.v.ops
    ts = ops.two_star
    A = ops.stiffness + np.diag(ops.curv_weights) + np.diag(ops.bdry_weights)
    H0 = 2.0 * (A - (ts - 1.0) * v.Q * np.diag(ops.vol_weights * v.u ** (ts - 2.0)))
    chart = frank_deg_chart
    ref = disc.BorderedFactor(as_form(H0), chart._C)
    assert np.array_equal(chart._factor._ldu, ref._ldu)
    assert np.array_equal(chart._factor._ipiv, ref._ipiv)
    shifts, factors = [], []
    shifted, positive = disc.Form.shifted, spectrum.positive_factor
    monkeypatch.setattr(disc.Form, "shifted",
                        lambda self, sigma, B: shifts.append(sigma) or shifted(self, sigma, B))
    monkeypatch.setattr(spectrum, "positive_factor",
                        lambda A, C: factors.append(positive(A, C)) or factors[-1])
    spectrum.eigen_decompose(v, 12)
    (sigma,), (factor,) = shifts, factors
    H0.flat[:: ops.N + 1] -= sigma * ops.vol_weights
    ref = disc.BorderedFactor(as_form(H0), spectrum.constraint_covectors(v))
    assert np.array_equal(factor._ldu, ref._ldu)
    assert np.array_equal(factor._ipiv, ref._ipiv)
