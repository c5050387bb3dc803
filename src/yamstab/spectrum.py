"""Spectral analysis of the second variation at a critical state.

The generalized eigenproblem H w = lambda M w is solved on the tangent space
of the constraint manifold without building a basis of it: in mass-scaled
coordinates the constraint directions are deflated by a shifted low-rank
update of the projected operator (constrained_lowest), and eigenvectors are
mapped back.  H is the unprojected second variation (energy.second_variation):
on the tangent space P'H0P and H0 agree, so the projected form is never
built.  Eigenvectors are therefore tangent and M-orthonormal by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import energy


class KernelThresholdError(RuntimeError):
    """The kernel threshold falls inside a near-degenerate cluster."""


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray       # ascending
    eigenvectors: np.ndarray      # columns, M-orthonormal, tangent

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
    cols = [energy.volume_covector(v)]
    if K is not None:
        cols += [mvec * K[:, j] for j in range(K.shape[1])]
    return np.column_stack(cols)


def constrained_lowest(H: np.ndarray, C: np.ndarray,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of the symmetric H restricted to ker C'.

    With Q a thin orthonormal basis of range(C) and P = I - QQ', the
    operator P H P + sigma QQ' (O(N^2) per column of C to form) keeps every
    eigenpair of H on ker C' and sends range(C) to sigma.  sigma is twice the
    largest absolute row sum of H, a Gershgorin bound above the whole spectrum
    of P H P, so the k lowest eigenpairs are those of the restriction (Golub,
    "Some modified matrix eigenvalue problems", SIAM Rev. 15 (1973), sec. 4).
    Eigenvectors come out orthonormal and orthogonal to range(C).
    """
    Q = np.linalg.qr(C)[0]
    sigma = 2.0 * float(np.max(np.sum(np.abs(H), axis=1)))
    HQ = H @ Q
    # P H P + sigma QQ' = H - Q W' - W Q' with W = HQ - Q (Q'HQ + sigma I) / 2
    W = HQ - Q @ (0.5 * (Q.T @ HQ + sigma * np.eye(Q.shape[1])))
    return sla.eigh(H - Q @ W.T - W @ Q.T, subset_by_index=(0, k - 1))


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        scale = np.max(np.abs(col))
        if scale == 0:
            continue
        nz = np.nonzero(np.abs(col) > 1e-8 * scale)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def eigen_decompose(v: energy.NormalizedState, k: int) -> SpectrumReport:
    """Lowest k eigenpairs of the second variation on the tangent space
    against the mass form."""
    ops = v.ops
    if not 1 <= k <= ops.N - 1:
        raise ValueError(f"k must lie in [1, {ops.N - 1}], got {k}")
    grad_norm = ops.dual_norm(energy.gradient(v))
    if grad_norm > 1e-6:
        warnings.warn(
            f"spectrum requested at a non-critical state (grad norm {grad_norm:.3e}); "
            "reported eigenvalues are not a second-variation spectrum",
            stacklevel=2)

    C = constraint_covectors(v)  # refuses a zero-mass node before the scaling
    wd = np.sqrt(ops.vol_weights)
    H = energy.second_variation(v) / np.outer(wd, wd)
    lam, y = constrained_lowest(H, C / wd[:, None], k)
    vecs = _fix_signs(y / wd[:, None])
    return SpectrumReport(eigenvalues=lam, eigenvectors=vecs)


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
        K = spec.eigenvectors[:, in_kernel]
    else:
        K = np.zeros((spec.eigenvectors.shape[0], 0))
    return KernelSplit(K_basis=K, lambda1=lambda1, kernel_dim=kernel_dim,
                       threshold=threshold)
