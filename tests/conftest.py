import math

import numpy as np
import pytest

from yamstab import disc, energy, minimize, model, spectrum

BIF_RADIUS = 1.0 / math.sqrt(3.0)      # kernel appears at the first circle mode
SUB_RADIUS = 0.8 / math.sqrt(3.0)      # strictly below: nondegenerate constant


def frank_mode_eigenvalue(d: int, r: float, k: int) -> float:
    """Separation-of-variables eigenvalue of the second variation at the
    constant on the circle x half-sphere product: 2((k/r)^2 - (d-2))."""
    return 2.0 * ((k / r) ** 2 - (d - 2))


def random_positive_state(ops, seed: int, amp: float = 0.3) -> energy.NormalizedState:
    """Seeded smooth positive state, bounded away from zero."""
    rng = np.random.default_rng(seed)
    t = ops.grid.nodes
    T = ops.model.length
    pert = np.zeros_like(t)
    for k in range(1, 6):
        if ops.model.topology == "circle":
            pert += rng.standard_normal() * np.cos(2 * math.pi * k * t / T) / k
            pert += rng.standard_normal() * np.sin(2 * math.pi * k * t / T) / k
        else:
            pert += rng.standard_normal() * np.cos(math.pi * k * t / T) / k
    pert /= max(1.0, np.max(np.abs(pert)))
    return energy.normalize(ops, 1.0 + amp * pert)


def tangent_frame(v: energy.NormalizedState, K: np.ndarray | None = None) -> np.ndarray:
    """Explicit M-orthonormal basis of the tangent space at v, mass-orthogonal
    to K: a Householder frame in mass-scaled coordinates, the reference the
    basis-free solvers are checked against."""
    C = spectrum.constraint_covectors(v, K)
    N, k = C.shape
    wd = np.sqrt(v.ops.vol_weights)
    frame = np.column_stack([C / wd[:, None], np.eye(N)[:, : N - k]])
    q = np.linalg.qr(frame, mode="complete")[0]
    return q[:, k:] / wd[:, None]


def projected_hessian(v: energy.NormalizedState) -> np.ndarray:
    """Second variation projected onto the tangent space, P'H0P symmetrized,
    with P = I - v p'; rows and columns of the radial direction vanish."""
    proj = np.eye(v.ops.N) - np.outer(v.u, energy.volume_covector(v))
    H = proj.T @ energy.second_variation(v) @ proj
    return 0.5 * (H + H.T)


def raw_gradient(ops, w: np.ndarray) -> np.ndarray:
    """Nodal gradient of the homogeneous quotient at a positive function w."""
    ts = ops.two_star
    m = ops.vol_weights
    Aw = ops.total_form @ w
    P = float(np.sum(m * w**ts))
    E = float(w @ Aw)
    p = m * w ** (ts - 1.0)
    return 2.0 * P ** (-2.0 / ts) * (Aw - (E / P) * p)


def quotient_three_matvec(ops, u: np.ndarray) -> energy.EnergyReport:
    """The quotient with all three forms applied as N x N matvecs: the
    reference yamabe_quotient's O(N) diagonal terms must match bit for bit."""
    nrm = disc.lp_norm(ops, u, ops.two_star)
    dir_term = float(u @ ops.stiffness @ u)
    curv_term = float(u @ np.diag(ops.curv_weights) @ u)
    bdry_term = float(u @ np.diag(ops.bdry_weights) @ u)
    return energy.EnergyReport(Q=(dir_term + curv_term + bdry_term) / nrm**2,
                               dirichlet=dir_term, curvature_term=curv_term,
                               boundary_term=bdry_term, volume_norm=nrm)


def raw_hessian_reference(ops, w: np.ndarray) -> np.ndarray:
    """Nodal Hessian of the homogeneous quotient through dense diag and outer
    products, symmetrized: the reference for the in-place energy.raw_hessian."""
    ts = ops.two_star
    m = ops.vol_weights
    A = ops.total_form
    Aw = A @ w
    P = float(np.sum(m * w**ts))
    E = float(w @ Aw)
    p = m * w ** (ts - 1.0)
    scale = P ** (-2.0 / ts)
    H = 2.0 * scale * (A - (ts - 1.0) * (E / P) * np.diag(m * w ** (ts - 2.0)))
    H -= (4.0 * scale / P) * (np.outer(Aw, p) + np.outer(p, Aw))
    H += (4.0 + 2.0 * ts) * (E / P) * (scale / P) * np.outer(p, p)
    return 0.5 * (H + H.T)


def fourier_diff_reference(N: int, length: float) -> np.ndarray:
    """Fourier d/dt matrix with its entry formula evaluated on all N^2
    entries: the reference for the Toeplitz layout in disc.fourier_diff."""
    j = np.arange(N)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / N)
    np.fill_diagonal(D, 0.0)
    return (2.0 * np.pi / length) * D


def richardson_first(f, h: float) -> float:
    """Richardson-extrapolated centered first difference of f at 0."""
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h / 2) - f(-h / 2)) / h
    d4 = (f(h / 4) - f(-h / 4)) / (h / 2)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d4 - d2) / 3
    return (16 * r2 - r1) / 15


def richardson_second(f, h: float) -> float:
    """Richardson-extrapolated centered second difference of f at 0."""
    f0 = f(0.0)
    d1 = (f(h) - 2 * f0 + f(-h)) / h**2
    d2 = (f(h / 2) - 2 * f0 + f(-h / 2)) / (h / 2) ** 2
    return (4 * d2 - d1) / 3


def _pipeline(r: float, N: int, seed: int = 2):
    m = model.frank_product(5, r)
    rep = minimize.estimate_yamabe_constant(
        m, N, starts=3, opts=minimize.MinimizeOptions(seed=seed))
    spec = spectrum.eigen_decompose(rep.v, 12)
    split = spectrum.kernel_split(spec)
    return m, rep, spec, split


@pytest.fixture(scope="session")
def frank_nondeg():
    return _pipeline(SUB_RADIUS, 256)


@pytest.fixture(scope="session")
def frank_deg():
    return _pipeline(BIF_RADIUS, 256)


@pytest.fixture(scope="session")
def frank_deg_chart(frank_deg):
    from yamstab import lsred
    _, rep, _, split = frank_deg
    return lsred.ReductionChart(v=rep.v, split=split)


@pytest.fixture(scope="session")
def hemisphere3():
    m = model.hemisphere(3)
    g = disc.build_grid(m, 128)
    return m, g, disc.assemble_operators(m, g)


@pytest.fixture(scope="session")
def ball3():
    m = model.ball(3)
    g = disc.build_grid(m, 128)
    return m, g, disc.assemble_operators(m, g)


@pytest.fixture(scope="session")
def cylinder3():
    m = model.cylinder(3, 1.0)
    g = disc.build_grid(m, 96)
    return m, g, disc.assemble_operators(m, g)
