"""Grids, spectral differentiation, quadrature, and bilinear-form assembly.

Interval models use Chebyshev-Lobatto nodes with Clenshaw-Curtis weights and
the dense Chebyshev differentiation matrix; circle models use uniform nodes
with trapezoid weights and the Fourier differentiation matrix.  The stiffness
S = D' diag(w) D is the one dense form an operator set holds (the grids are
desk-scale, N of a few hundred).  Every product of a form with a vector is
taken factored, D'(w * D u), which rounds far less than S u (S has entries
up to 2e6 at N=512).  The mass, curvature and boundary forms are diagonal
and are kept as node vectors; with_diagonal adds them to a fresh copy of S
for the matrices that are factored or eigensolved.  The Sobolev Cholesky
factor is computed once per operator set, and linearly constrained Newton
steps go through a bordered (KKT) factor instead of an explicit null-space
basis: one LAPACK ?sytrf factorization, then one ?sytrs call per
right-hand side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .model import SymmetricModel, eval_profile

MIN_NODES = 16


@dataclass(frozen=True, eq=False)
class Grid:
    nodes: np.ndarray
    quad_weights: np.ndarray
    diff_matrix: np.ndarray
    kind: str  # "lobatto_interval" | "uniform_periodic"
    length: float

    @property
    def N(self) -> int:
        return self.nodes.size


def chebyshev_nodes_diff(N: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes on [0, length], increasing, and d/dt matrix."""
    n = N - 1
    j = np.arange(N)
    x = np.cos(np.pi * j / n)  # decreasing on [-1, 1]
    c = np.ones(N)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    X = np.tile(x, (N, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N))
    D -= np.diag(D.sum(axis=1))
    # t = (length/2)(1 - x) is increasing in j; d/dt = -(2/length) d/dx
    nodes = 0.5 * length * (1.0 - x)
    nodes[0] = 0.0
    nodes[-1] = length
    return nodes, -(2.0 / length) * D


def clenshaw_curtis_weights(N: int, length: float) -> np.ndarray:
    """Clenshaw-Curtis weights for the N Lobatto nodes on [0, length]."""
    n = N - 1
    theta = np.pi * np.arange(N) / n
    w = np.zeros(N)
    ii = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[-1] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
        v -= np.cos(n * theta[ii]) / (n * n - 1)
    else:
        w[0] = w[-1] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
    w[ii] = 2.0 * v / n
    return 0.5 * length * w


def fourier_diff(N: int, length: float) -> np.ndarray:
    """Spectral d/dt matrix for N uniform nodes on a circle of circumference length.

    Entry (i, j) depends only on i - j, so the matrix is Toeplitz: the entry
    formula is evaluated on the 2N-1 distinct differences and laid out from
    that vector.
    """
    diff = np.arange(-(N - 1), N)
    with np.errstate(divide="ignore"):
        d = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / N)
    d[N - 1] = 0.0
    d = (2.0 * np.pi / length) * d
    # row i of the reversed windows is d[N-1+i-j], j = 0..N-1
    return np.lib.stride_tricks.sliding_window_view(d[::-1], N)[::-1].copy()


def build_grid(m: SymmetricModel, N: int) -> Grid:
    """Grid matched to the model topology; N >= 16, even on circles."""
    if N < MIN_NODES:
        raise ValueError(f"N below minimum {MIN_NODES}: got {N}")
    if m.topology == "circle":
        if N % 2 != 0:
            raise ValueError(f"periodic grids require even N, got {N}")
        T = m.length
        nodes = T * np.arange(N) / N
        weights = np.full(N, T / N)
        return Grid(nodes=nodes, quad_weights=weights, diff_matrix=fourier_diff(N, T),
                    kind="uniform_periodic", length=T)
    nodes, D = chebyshev_nodes_diff(N, m.length)
    weights = clenshaw_curtis_weights(N, m.length)
    return Grid(nodes=nodes, quad_weights=weights, diff_matrix=D,
                kind="lobatto_interval", length=m.length)


@dataclass(frozen=True, eq=False)
class DiscreteOperators:
    """Assembled quadratic forms of the boundary Yamabe energy on a grid.

    The stiffness is the one dense form; the other three are diagonal and are
    stored as node vectors, their diagonals:

    stiffness     S with u'Su ~ integral |u'|^2 s dt
    stiff_weights w = max(s, 0) q, with S = D' diag(w) D + e y y' up to
                  round-off (D = grid.diff_matrix, q the quadrature weights)
    nyquist       (e, y) of the rank-one Nyquist term on circle grids, else None
    vol_weights   m with sum m u^2 ~ integral u^2 a dt (the mass M = diag m)
    curv_weights  c with sum c u^2 ~ integral c_n R u^2 a dt
    bdry_weights  b with sum b u^2 ~ sum over boundary ends of ((n-2)/2) h b u(e)^2
    normal_derivs per-boundary-end row functionals approximating du/dnu

    apply_form, dirichlet and w12_norm apply the forms factored.  The dense
    sums S + diag(d) that the Hessian, the eigensolves, the Sobolev Cholesky
    factor and the start pick's rounding floor need are built on each use by
    with_diagonal and not kept.
    """

    model: SymmetricModel
    grid: Grid
    stiffness: np.ndarray
    stiff_weights: np.ndarray
    nyquist: tuple[float, np.ndarray] | None
    vol_weights: np.ndarray
    curv_weights: np.ndarray
    bdry_weights: np.ndarray
    normal_derivs: dict
    curvature: np.ndarray = field(repr=False)        # R at nodes

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def two_star(self) -> float:
        return self.model.two_star

    @property
    def c_n(self) -> float:
        return self.model.c_n

    @property
    def N(self) -> int:
        return self.grid.N

    def dirichlet(self, u: np.ndarray, du: np.ndarray,
                  x: np.ndarray | None = None, dx: np.ndarray | None = None) -> float:
        """Factored stiffness value u'Sx = sum w du dx + e (y.u)(y.x) from the
        nodal derivatives du = D u and dx = D x; x defaults to u."""
        if x is None:
            x, dx = u, du
        val = float((self.stiff_weights * du) @ dx)
        if self.nyquist is not None:
            e, y = self.nyquist
            val += e * float(y @ u) * float(y @ x)
        return val

    def apply_form(self, u: np.ndarray) -> tuple[np.ndarray, float]:
        """(A u, u'Su) of the energy form A = S + C + B in factored form.

        A u = D'(w * D u) + e y (y.u) + (c + b) * u, and u'Su is dirichlet()
        of the same D u: two N x N passes over D and no dense S.  Against a
        long-double evaluation, the gradient built from it on cylinder(3, 1)
        at N=512 errs by about 2e-12 in the Sobolev dual norm; built from
        the dense (S + C + B) @ u it erred by 4e-10 to 1.4e-9.
        """
        D = self.grid.diff_matrix
        du = D @ u
        Au = D.T @ (self.stiff_weights * du)
        if self.nyquist is not None:
            e, y = self.nyquist
            Au += (e * float(y @ u)) * y
        Au += (self.curv_weights + self.bdry_weights) * u
        return Au, self.dirichlet(u, du)

    def with_diagonal(self, *diagonals: np.ndarray) -> np.ndarray:
        """A fresh S + diag(d1) + diag(d2) + ..., with the dense sum's bits:
        the vectors are added in order to the diagonal only."""
        A = self.stiffness.copy()
        for d in diagonals:
            A.flat[:: self.N + 1] += d
        return A

    @functools.cached_property
    def w12_cho(self):
        """Cholesky factor of S + M, computed once per operator set."""
        return sla.cho_factor(self.with_diagonal(self.vol_weights), overwrite_a=True)

    def riesz(self, G: np.ndarray) -> np.ndarray:
        """Sobolev Riesz representative (S+M)^-1 G of a covector."""
        return sla.cho_solve(self.w12_cho, G)

    def dual_norm(self, G: np.ndarray, riesz: np.ndarray | None = None) -> float:
        """Sobolev dual norm sqrt(G'(S+M)^-1 G); pass riesz if already known."""
        if riesz is None:
            riesz = self.riesz(G)
        return math.sqrt(max(float(G @ riesz), 0.0))

    @property
    def volume(self) -> float:
        return float(self.vol_weights.sum())

    def w12_norm(self, u: np.ndarray) -> float:
        """Sobolev norm sqrt(u'(S+M)u), taken factored as dirichlet(u, D u)
        + sum m u^2.  Against a long-double evaluation on cylinder(3, 1) at
        N=512 it errs by at most 7e-15 (relative) on smooth offsets and
        states; the dense quadratic form erred by up to 1.3e-10."""
        return math.sqrt(self.dirichlet(u, self.grid.diff_matrix @ u)
                         + float((self.vol_weights * u) @ u))


def assemble_operators(m: SymmetricModel, grid: Grid) -> DiscreteOperators:
    """Assemble all forms for a model on its grid.

    The stiffness is built as D' diag(s q) D and symmetrized, which is
    positive semidefinite up to round-off and annihilates constants exactly.
    Pole endpoints need no constraint row: the vanishing density removes
    their quadrature weight, which is the natural weak regularity condition.
    """
    nodes = grid.nodes
    q = grid.quad_weights
    D = grid.diff_matrix

    a = eval_profile(m.density, nodes, grid, m.grid)
    interior = a[1:-1] if m.topology == "interval" else a
    if np.any(interior < 0):
        raise ValueError("density must be nonnegative at interior nodes")
    s = eval_profile(m.grad_density, nodes, grid, m.grid)
    curv = eval_profile(m.scalar_curvature, nodes, grid, m.grid)
    sigma = eval_profile(m.lap_scale, nodes, grid, m.grid)

    w = np.clip(s, 0.0, None) * q
    S = D.T @ (w[:, None] * D)
    S = 0.5 * (S + S.T)
    nyquist = None
    if m.topology == "circle":
        # The even-N Fourier derivative matrix annihilates the Nyquist
        # sawtooth, leaving a spurious zero-energy mode.  Restore the exact
        # Dirichlet energy of the Nyquist interpolant cos(pi N t / T) as a
        # rank-one term; for constant density it is exactly orthogonal to
        # every smooth mode, so the low spectrum is untouched.
        N = grid.N
        k_nyq = math.pi * N / m.length
        e_nyq = 0.5 * k_nyq**2 * float(q @ np.clip(s, 0.0, None))
        y = np.where(np.arange(N) % 2 == 0, 1.0, -1.0) / N
        S += e_nyq * np.outer(y, y)
        nyquist = (e_nyq, y)
    # Push the round-off row sums into the diagonal so constants are
    # annihilated exactly by the dense form the Hessian starts from; S stays
    # exactly symmetric, since only its diagonal changes.
    S.flat[:: grid.N + 1] -= S @ np.ones(grid.N)

    mvec = np.clip(a, 0.0, None) * q
    cvec = m.c_n * curv * mvec

    bvec = np.zeros(grid.N)
    normal_derivs = {}
    for side, ep in m.boundary_endpoints():
        idx = 0 if side == "left" else grid.N - 1
        sign = -1.0 if side == "left" else 1.0
        normal_derivs[side] = math.sqrt(max(float(sigma[idx]), 0.0)) * sign * D[idx, :]
        bvec[idx] += 0.5 * (m.n - 2) * ep.h * ep.b

    return DiscreteOperators(
        model=m, grid=grid, stiffness=S, stiff_weights=w, nyquist=nyquist,
        vol_weights=mvec, curv_weights=cvec,
        bdry_weights=bvec, normal_derivs=normal_derivs, curvature=curv,
    )


class BorderedFactor:
    """Bunch-Kaufman LDL' factor of the bordered matrix [[A, C], [C', 0]].

    The matrix is factored once, in place, by LAPACK ?sytrf; each solve(b)
    is then one O(N^2) ?sytrs call and returns the x of

        [ A   C ] [x]   [b]
        [ C'  0 ] [l] = [0],

    which minimizes 1/2 x'Ax - b'x subject to C'x = 0.  This is the
    range-space form of a null-space solve: x equals Z (Z'AZ)^-1 Z'b for any
    basis Z of ker C', without building Z.  An exactly singular pivot raises
    LinAlgError here; an ill-conditioned system gives its (possibly poor)
    solutions silently, and callers judge the steps instead.

    A must be exactly symmetric: ?sytrf reads only one triangle of the
    block.  A is copied into the Fortran-ordered block through its
    transpose, a contiguous copy for a C-ordered A, and the factor is kept
    in the Fortran order ?sytrf returns, so ?sytrs never copies it.
    """

    def __init__(self, A: np.ndarray, C: np.ndarray):
        N, k = C.shape
        n = N + k
        K = np.zeros((n, n), order="F")
        K[:N, :N] = A.T
        K[:N, N:] = C
        K[N:, :N] = C.T
        sytrf, sytrf_lwork, self._sytrs = sla.get_lapack_funcs(
            ("sytrf", "sytrf_lwork", "sytrs"), (K,))
        self._ldu, self._ipiv, info = sytrf(
            K, lwork=int(sytrf_lwork(n)[0]), overwrite_a=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"bordered system is singular (zero pivot {info})")
        self._N = N

    def solve(self, b: np.ndarray) -> np.ndarray:
        rhs = np.zeros(self._ldu.shape[0])
        rhs[:self._N] = b
        x, _ = self._sytrs(self._ldu, self._ipiv, rhs, overwrite_b=True)
        return x[:self._N]


def bordered_solve(A: np.ndarray, C: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One constrained solve: BorderedFactor(A, C).solve(b)."""
    return BorderedFactor(A, C).solve(b)


def lp_norm(ops: DiscreteOperators, u: np.ndarray, p: float) -> float:
    """(integral |u|^p a dt)^(1/p) via the grid quadrature."""
    if not np.isfinite(p) or p < 1:
        raise ValueError(f"p must be a finite real >= 1, got {p}")
    u = np.asarray(u, dtype=float)
    return float(np.sum(ops.vol_weights * np.abs(u) ** p)) ** (1.0 / p)
