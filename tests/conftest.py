import math

import numpy as np
import pytest
import scipy.linalg as sla

from yamstab import disc, energy, lsred, minimize, model, spectrum

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


def one_sided(chart, *phis):
    """One-sided corrections at the kernel coordinate vectors phis, solved as
    one block: lsred.solve_corrections' (Z, newton_iters, residual) columns
    with the energy deficits Q(v + phi + F(phi)) - Q(v) in second place.
    Every column must meet the chart's tolerance."""
    coords = np.column_stack(phis).astype(float)
    Z, iters, res, stops = lsred.solve_corrections(chart, coords)
    assert stops == [None] * coords.shape[1], stops
    deficits = energy.energy_deficit(chart.v, chart.kernel_vector(coords) + Z)
    return Z, deficits, iters, res


def dense(A: disc.Form) -> np.ndarray:
    """The N x N matrix of a Form, written as its factor's block holds it:
    the one reference builder of the tests that read a dense matrix."""
    return A.write()


def as_form(X: np.ndarray) -> disc.Form:
    """An exactly symmetric matrix X as a Form with alpha = 1, which writes X."""
    return disc.Form(X, 1.0, np.diagonal(X).copy())


def projected_hessian(v: energy.NormalizedState) -> np.ndarray:
    """Second variation projected onto the tangent space, P'H0P symmetrized,
    with P = I - v p'; rows and columns of the radial direction vanish."""
    proj = np.eye(v.ops.N) - np.outer(v.u, v.p)
    H = proj.T @ dense(energy.second_variation(v)) @ proj
    return 0.5 * (H + H.T)


def raw_gradient(ops, w: np.ndarray) -> np.ndarray:
    """Nodal gradient of the homogeneous quotient at a positive function w."""
    ts = ops.two_star
    m = ops.vol_weights
    Aw = (ops.stiffness + np.diag(ops.curv_weights) + np.diag(ops.bdry_weights)) @ w
    P = float(np.sum(m * w**ts))
    E = float(w @ Aw)
    p = m * w ** (ts - 1.0)
    return 2.0 * P ** (-2.0 / ts) * (Aw - (E / P) * p)


def factored_longdouble(ops, u: np.ndarray) -> tuple[np.longdouble, np.ndarray]:
    """(Q(u), 2(A u - Q(u) m u^(2*-1))) in np.longdouble, with A applied in
    factored form D'(w * D u) + e y (y.u) + (c + b) * u from the operator
    set's float64 data: the reference for the rounding error of the
    float64 quotient and gradient.  The second value is the gradient at a
    normalized u."""
    LD = np.longdouble
    D = ops.grid.diff_matrix.astype(LD)
    u = np.asarray(u).astype(LD)
    du = D @ u
    wdu = ops.stiff_weights.astype(LD) * du
    Au = D.T @ wdu
    dirichlet = wdu @ du
    if ops.nyquist is not None:
        e, y = LD(ops.nyquist[0]), ops.nyquist[1].astype(LD)
        Au += e * (y @ u) * y
        dirichlet += e * (y @ u) ** 2
    diag = ops.curv_weights.astype(LD) + ops.bdry_weights.astype(LD)
    Au += diag * u
    ts = LD(2 * ops.n) / LD(ops.n - 2)
    m = ops.vol_weights.astype(LD)
    Q = (dirichlet + diag @ (u * u)) / np.sum(m * u**ts) ** (LD(2) / ts)
    return Q, 2 * (Au - Q * m * u ** (ts - 1))


def w12_norm_longdouble(ops, u: np.ndarray) -> np.longdouble:
    """Sobolev norm sqrt(u'(S+M)u) in np.longdouble, with S applied in
    factored form sum w (D u)^2 + e (y.u)^2 from the operator set's float64
    data: the reference for the rounding error of ops.w12_norm."""
    LD = np.longdouble
    u = np.asarray(u).astype(LD)
    du = ops.grid.diff_matrix.astype(LD) @ u
    val = (ops.stiff_weights.astype(LD) * du) @ du + ops.vol_weights.astype(LD) @ (u * u)
    if ops.nyquist is not None:
        val += LD(ops.nyquist[0]) * (ops.nyquist[1].astype(LD) @ u) ** 2
    return np.sqrt(val)


def sobolev_gap_reference(v: energy.NormalizedState, split) -> float:
    """lambda1_w by a dense generalized eigensolve: the pencil (H, S+M) on an
    explicit frame of ker C' (tangent_frame, mass-orthogonal to the kernel).
    The reference that the bordered inverse iteration behind
    stability.coercivity_data is checked against."""
    B = tangent_frame(v, split.K_basis)
    W = dense(v.ops.form(v.ops.vol_weights))
    return float(sla.eigh(B.T @ dense(energy.second_variation(v)) @ B, B.T @ W @ B,
                          eigvals_only=True, subset_by_index=(0, 0))[0])


def raw_hessian_reference(ops, w: np.ndarray) -> np.ndarray:
    """Nodal Hessian of the homogeneous quotient at a positive w, through
    dense diag and outer products, symmetrized.  The package's one Hessian
    is second_variation; this is the full Newton Jacobian that the chart's
    chord steps and the finite-difference checks are compared against."""
    ts = ops.two_star
    m = ops.vol_weights
    A = ops.stiffness + np.diag(ops.curv_weights) + np.diag(ops.bdry_weights)
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
