"""Spectral analysis of the second variation at a critical state.

lowest_pairs, the one eigensolver, gives the lowest eigenpairs of a pencil
(H, B) on ker C' by block inverse iteration with one shifted bordered factor
whose inertia certifies the shift (Ericsson & Ruhe, Math. Comp. 35 (1980);
Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15 (1994)): B = M in
eigen_decompose, S+M in stability.  H is the unprojected second variation,
equal to P'H0P on the tangent space, and bordered solves stay in ker C'.
H, a B that is not diagonal and the shift H - sigma B are disc.Forms on one
S: the shift is written only into its factor's block, and no input changes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .disc import BorderedFactor, Form, low_modes, rounding_floor
from . import energy

MAX_SWEEPS = 40  # inverse-iteration sweeps of lowest_pairs
POOL_MODES = 48  # analytic low modes in eigen_decompose's start block


class KernelThresholdError(RuntimeError):
    """The kernel threshold falls inside a near-degenerate cluster."""


class SpectrumError(RuntimeError):
    """A shift that fails its inertia certificate, or sweeps that do not settle."""


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray       # ascending
    eigenvectors: np.ndarray      # columns, B-orthonormal, in ker C'
    sweeps: int = 0               # inverse-iteration sweeps they took

    @property
    def k(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True, eq=False)
class KernelSplit:
    K_basis: np.ndarray           # columns (N x kernel_dim), possibly empty
    lambda1: float
    kernel_dim: int
    threshold: float


def constraint_covectors(v: energy.NormalizedState,
                         K: np.ndarray | None = None) -> np.ndarray:
    """Columns [p, M K_1, ..., M K_k]: the volume normal at v and the mass
    covectors of the kernel basis K (if given).  Needs a positive-definite
    mass, which excludes models with pole endpoints.
    """
    mvec = v.ops.vol_weights
    if np.any(mvec <= 0):
        raise ValueError(
            "the constraint geometry needs a positive-definite mass matrix; "
            "models with pole endpoints carry a zero-mass node")
    p = v.p
    return p[:, None] if K is None else np.column_stack([p, mvec[:, None] * K])


def _ritz(A: Form, apply_B, X: np.ndarray):
    """Rayleigh-Ritz step for the pencil (A, B) on the span of X: ascending
    Ritz values, the B-orthonormal Ritz vectors, and B applied to them."""
    BX = apply_B(X)
    theta, Y = sla.eigh(X.T @ (A @ X), X.T @ BX)
    return theta, X @ Y, BX @ Y


def positive_factor(A: Form, C: np.ndarray) -> BorderedFactor | None:
    """The bordered factor of A and C if A is positive definite on ker C', else
    None: certified by its inertia, exactly C.shape[1] negative eigenvalues."""
    try:
        factor = BorderedFactor(A, C)
    except np.linalg.LinAlgError:
        return None
    return factor if factor.negative_eigenvalues() == C.shape[1] else None


def lowest_pairs(H: Form, B, C: np.ndarray, X: np.ndarray, k: int,
                 width: int | None = None, apply_B=None) -> SpectrumReport:
    """The k lowest eigenpairs of the pencil (H, B) on ker C', B positive
    definite there (a Form on H's S, or the node vector of a diagonal B;
    apply_B(Y) is B Y), by block inverse iteration from the columns of X in
    ker C'.  Rayleigh-Ritz keeps the width lowest Ritz pairs of X (all by
    default), theta_1 <= ... <= theta_w.  The Form A = H - sigma B, bordered
    by C, is factored once at sigma = theta_1 - (theta_w - theta_1) / 10, its
    inertia certifying sigma below the spectrum.  Each sweep solves for B X
    and takes a Rayleigh-Ritz step, until each of the k lowest Ritz values
    moves by at most its rounding floor 2 eps |x|'|A||x| (disc.rounding_floor),
    x its start Ritz vector.  A block as wide as ker C' is exact, in 0
    sweeps.  No argument is changed."""
    apply_B = apply_B or (B.__matmul__ if isinstance(B, Form) else lambda Y: B[:, None] * Y)
    theta, X, BX = _ritz(H, apply_B, X)
    if X.shape[1] == H.diag.size - C.shape[1]:  # the block spans ker C'
        return SpectrumReport(eigenvalues=theta[:k], eigenvectors=X[:, :k])
    theta, X, BX = theta[:width], X[:, :width], BX[:, :width]
    # the shift speeds a sweep up from lambda_j / lambda_w+1 of the pencil
    # to (lambda_j - sigma) / (lambda_w+1 - sigma)
    sigma = float(theta[0] - 0.1 * (theta[-1] - theta[0]))
    A = H.shifted(sigma, B)
    factor = positive_factor(A, C)
    if factor is None:
        raise SpectrumError(f"the inertia puts an eigenvalue below the shift {sigma:.6g}, "
                            f"under the start's lowest Ritz value {theta[0]:.6g}: the "
                            "start block misses the lowest mode")
    floor = rounding_floor(A, X[:, :k])
    for sweeps in range(1, MAX_SWEEPS + 1):
        mu, X, BX = _ritz(A, apply_B, factor.solve(BX))
        change = np.abs(sigma + mu[:k] - theta[:k])
        theta = sigma + mu
        if np.all(change <= floor):
            break
    else:
        raise SpectrumError(f"the Ritz values moved by up to {change.max():.3e} in "
                            f"sweep {MAX_SWEEPS}, above their rounding floors")
    return SpectrumReport(eigenvalues=theta[:k], eigenvectors=X[:, :k], sweeps=sweeps)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Columns signed so that their first entry above 1e-8 of their peak is positive."""
    big = np.abs(vecs) > 1e-8 * np.max(np.abs(vecs), axis=0)
    first = vecs[np.argmax(big, axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(first < 0, -1.0, 1.0)


def eigen_decompose(v: energy.NormalizedState, k: int) -> SpectrumReport:
    """Lowest k eigenpairs of the second variation on the tangent space
    against the mass form: lowest_pairs from max(POOL_MODES, k + 4) analytic
    low modes made tangent, keeping k + 4 Ritz vectors, or from N - 1 unit
    vectors, the whole tangent space, past the modes the grid resolves."""
    ops = v.ops
    if not 1 <= k <= ops.N - 1:
        raise ValueError(f"k must lie in [1, {ops.N - 1}], got {k}")
    if v.grad_norm > 1e-6:
        warnings.warn(
            f"spectrum requested at a non-critical state (grad norm {v.grad_norm:.3e}); "
            "reported eigenvalues are not a second-variation spectrum",
            stacklevel=2)

    C = constraint_covectors(v)  # refuses a zero-mass node
    pool = low_modes(ops.grid, max(POOL_MODES, k + 4))
    if pool.shape[1] < k + 4:
        pool = np.eye(ops.N)[:, 1:]
    spec = lowest_pairs(energy.second_variation(v), ops.vol_weights, C,
                        energy.project_tangent(v, pool), k, width=k + 4)
    return replace(spec, eigenvectors=_fix_signs(spec.eigenvectors))


def kernel_split(spec: SpectrumReport, tol_rel: float = 1e-6) -> KernelSplit:
    """Split the computed spectrum into a kernel and its complement.

    Modes with |lambda| below tol_rel times the largest computed magnitude
    form the kernel.  A gap ratio of at least 10 between the last kernel mode
    and the first retained one is demanded; anything tighter means the
    threshold cannot be trusted at this resolution.
    """
    lam = spec.eigenvalues
    scale = float(np.max(np.abs(lam)))
    threshold = tol_rel * scale
    in_kernel = np.abs(lam) <= threshold
    kernel_dim = int(np.sum(in_kernel))
    if kernel_dim == spec.k:
        raise KernelThresholdError(
            "every computed mode falls below the kernel threshold; "
            "increase k or tighten tol_rel")
    retained = lam[~in_kernel]
    lambda1 = float(retained[np.argmin(np.abs(retained))])
    if kernel_dim > 0:
        last_kernel = float(np.max(np.abs(lam[in_kernel])))
        if last_kernel > 0 and abs(lambda1) / last_kernel < 10.0:
            raise KernelThresholdError(
                f"kernel threshold splits a near-degenerate cluster: "
                f"|last kernel| = {last_kernel:.3e}, |first retained| = {abs(lambda1):.3e}; "
                "change the tolerance or the resolution")
    return KernelSplit(K_basis=spec.eigenvectors[:, in_kernel], lambda1=lambda1,
                       kernel_dim=kernel_dim, threshold=threshold)
