import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from yamstab import disc, energy, minimize, model, spectrum, stability
from conftest import (BIF_RADIUS, SUB_RADIUS, frank_mode_eigenvalue, projected_hessian,
                      tangent_frame)


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
    p = energy.volume_covector(rep.v)
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
    for v, spec in cases:
        B = tangent_frame(v)
        ref = sla.eigh(B.T @ projected_hessian(v) @ B, eigvals_only=True,
                       subset_by_index=(0, spec.k - 1))
        assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-9 * np.max(np.abs(ref))
    # lambda1_w: the (H, S+M) pencil on the frame mass-orthogonal to the kernel
    for _, rep, _, split in (frank_nondeg, frank_deg):
        v = rep.v
        B = tangent_frame(v, split.K_basis)
        ref = sla.eigh(B.T @ projected_hessian(v) @ B, B.T @ v.ops.w12_gram @ B,
                       eigvals_only=True, subset_by_index=(0, 0))[0]
        got = stability.coercivity_data(v, split).lambda1_w
        assert got == pytest.approx(ref, rel=1e-9)


def test_eigensolves_build_no_square_qr_frames(frank_deg, monkeypatch):
    # the only QR left is the thin one of the 1 + kernel_dim constraint covectors
    _, rep, _, split = frank_deg
    shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, *r, **k: shapes.append(np.shape(a)) or qr(a, *r, **k))
    spectrum.eigen_decompose(rep.v, 12)
    stability.coercivity_data(rep.v, split)
    assert len(shapes) == 2
    assert all(cols <= 1 + split.kernel_dim for _, cols in shapes)


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
    q0 = energy.yamabe_quotient(ops, rep.v.u).Q
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
    with pytest.raises(ValueError, match="pole"):
        stability.coercivity_data(v, split)
