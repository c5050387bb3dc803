"""End-to-end stability experiment: deficits versus distance to minimizers.

States near (and not so near) a minimizer are sampled in three families --
along the Hessian kernel, transverse to it, and mixed -- and each sample is
recorded as a (energy deficit, normalized Sobolev distance) pair.  The
stability exponent is the slope of the lower envelope of that scatter in
log-log coordinates, and the envelope constant is compared against the
coercivity floor predicted by the smallest nonzero Hessian eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .lsred import FitRejectedError, InsufficientDataError, NOISE_FLOOR, line_fit
from .spectrum import (KernelSplit, SpectrumReport, constrained_lowest,
                       constraint_covectors)
from . import energy


@dataclass(frozen=True, eq=False)
class MinimizerFamily:
    """The minimizer set near an isolated base minimizer: the state itself,
    a locality radius, and the spectral data the samplers draw directions
    from."""

    v: energy.NormalizedState
    delta: float
    split: KernelSplit | None = None
    spectrum: SpectrumReport | None = None

    @property
    def kernel_dim(self) -> int:
        return self.split.kernel_dim if self.split is not None else 0


def single_family(v: energy.NormalizedState, *,
                  split: KernelSplit | None = None,
                  spectrum: SpectrumReport | None = None,
                  member_tol: float = 1e-9) -> MinimizerFamily:
    """Family consisting of one minimizer, with a locality radius of a tenth
    of its Sobolev norm; sampling data rides along."""
    gn = v.ops.dual_norm(energy.gradient(v))
    if gn > member_tol:
        raise ValueError(f"family member has gradient norm {gn:.3e} > {member_tol:.1e}; "
                         "not a usable minimizer")
    return MinimizerFamily(v=v, delta=0.1 * v.ops.w12_norm(v.u),
                           split=split, spectrum=spectrum)


def distance_to_minimizers(u: energy.NormalizedState, fam: MinimizerFamily) -> float:
    """Normalized Sobolev distance |u - v|_W / |u|_W from u to the base
    minimizer v.

    At a degenerate minimizer whose kernel integrates to a manifold of
    minimizers (a rotation orbit, say), this is the distance to one point of
    that manifold, not to the manifold.
    """
    ops = u.ops
    return ops.w12_norm(u.u - fam.v.u) / ops.w12_norm(u.u)


@dataclass(frozen=True)
class StabilityRecord:
    deficit: float
    distance: float
    sample_id: int
    perturbation_kind: str
    scale: float = 0.0
    direction_index: int = 0


@dataclass(frozen=True)
class SampleSpec:
    kinds: tuple = ("transverse",)
    scales: tuple = tuple(np.geomspace(1e-3, 1e-2, 8))
    count: int = 4
    seed: int = 0


@dataclass(frozen=True)
class SampleBatch:
    records: tuple
    n_skipped: int


N_TRANSVERSE_MODES = 6


def _directions(fam: MinimizerFamily, cols: np.ndarray, count: int, rng) -> list[np.ndarray]:
    """The first column, then count - 1 seeded random combinations of cols."""
    dirs = [cols[:, 0]]
    for _ in range(count - 1):
        dirs.append(cols @ rng.standard_normal(cols.shape[1]))
    # Sobolev-normalized so every direction sweeps the same distance ladder
    return [d / fam.v.ops.w12_norm(d) for d in dirs]


def _kernel_directions(fam: MinimizerFamily, count: int, rng) -> list[np.ndarray]:
    split = fam.split
    if split is None or split.kernel_dim == 0:
        raise ValueError("kernel sampling needs a nontrivial kernel")
    return _directions(fam, split.K_basis, count, rng)


def _transverse_directions(fam: MinimizerFamily, count: int, rng) -> list[np.ndarray]:
    spec = fam.spectrum
    if spec is None:
        raise ValueError("transverse sampling needs a computed spectrum")
    kd = fam.kernel_dim
    cols = spec.eigenvectors[:, kd: kd + N_TRANSVERSE_MODES]
    if cols.shape[1] == 0:
        raise ValueError("spectrum holds no modes beyond the kernel")
    return _directions(fam, cols, count, rng)


def sample_deficit_distance(fam: MinimizerFamily, spec: SampleSpec) -> SampleBatch:
    """Deterministic batch of perturbed states with deficits and distances.

    Kernel samples ride the flat directions of the second variation, the
    expensive case of the stability bound; transverse samples probe its
    coercive part; mixed samples combine one of each.  Each perturbed state
    is clipped nonnegative and renormalized.  Samples leaving the locality
    ball of radius delta around the base minimizer are skipped and counted,
    never silently kept.
    """
    rng = np.random.default_rng(spec.seed)
    ops = fam.v.ops
    records = []
    n_skipped = 0
    sample_id = 0
    for kind in spec.kinds:
        if kind == "kernel":
            dirs = _kernel_directions(fam, spec.count, rng)
        elif kind == "transverse":
            dirs = _transverse_directions(fam, spec.count, rng)
        elif kind == "mixed":
            kdirs = _kernel_directions(fam, spec.count, rng)
            tdirs = _transverse_directions(fam, spec.count, rng)
            dirs = []
            for kd_, td_ in zip(kdirs, tdirs):
                z = kd_ + td_
                dirs.append(z / ops.w12_norm(z))
        else:
            raise ValueError(f"unknown perturbation kind {kind!r}")
        for d_idx, direction in enumerate(dirs):
            for scale in spec.scales:
                u = energy.normalize(ops, np.clip(fam.v.u + scale * direction, 0.0, None))
                if ops.w12_norm(u.u - fam.v.u) > fam.delta:
                    n_skipped += 1
                    sample_id += 1
                    continue
                deficit = energy.energy_deficit(fam.v, u.u - fam.v.u)
                dist = distance_to_minimizers(u, fam)
                records.append(StabilityRecord(
                    deficit=deficit, distance=dist, sample_id=sample_id,
                    perturbation_kind=kind, scale=float(scale),
                    direction_index=d_idx))
                sample_id += 1
    return SampleBatch(records=tuple(records), n_skipped=n_skipped)


@dataclass(frozen=True)
class StabilityFit:
    exponent: float
    c_lower: float
    r2: float
    window: tuple
    n_records: int
    n_below_floor: int
    hull_size: int


def _binned_minima(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the per-bin lowest points over a uniform partition of x
    into between 6 and 12 bins, about three points each.

    Pre-filtering the scatter this way keeps the hull from pivoting on
    extreme-abscissa points of non-binding sample directions.
    """
    nbins = max(6, min(12, x.size // 3))
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi <= lo:
        return np.arange(x.size)
    edges = np.linspace(lo, hi, nbins + 1)
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, nbins - 1)
    out = []
    for b in range(nbins):
        members = np.nonzero(which == b)[0]
        if members.size:
            out.append(members[np.argmin(y[members])])
    return np.array(sorted(out))


def _lower_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull, keeping collinear points."""
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    keep = []
    for i in range(xs.size):  # drop duplicate abscissae, keep the lowest point
        if keep and abs(xs[i] - xs[keep[-1]]) < 1e-12 * max(1.0, abs(xs[i])):
            continue
        keep.append(i)
    tol = 1e-9 * (np.ptp(xs) + 1.0) * (np.ptp(ys) + 1.0)
    hull: list[int] = []
    for i in keep:
        while len(hull) >= 2:
            ox, oy = xs[hull[-2]], ys[hull[-2]]
            ax, ay = xs[hull[-1]], ys[hull[-1]]
            if (ax - ox) * (ys[i] - oy) - (ay - oy) * (xs[i] - ox) < -tol:
                hull.pop()
            else:
                break
        hull.append(i)
    return order[np.array(hull)]


def fit_stability_exponent(records) -> StabilityFit:
    """Envelope fit of deficit against distance in log-log coordinates.

    The stability statement is a lower bound, so the binding constant lives
    on the lower envelope of the scatter: the fit runs over the lower convex
    hull, and the reported constant is the minimum of deficit/distance^beta
    over every kept record.
    """
    records = list(records)
    usable = [r for r in records if r.distance > 0 and r.deficit > NOISE_FLOOR]
    n_below = sum(1 for r in records if r.distance > 0 and r.deficit <= NOISE_FLOOR)
    if len(usable) < 8:
        raise InsufficientDataError(f"need >= 8 usable records, have {len(usable)}")
    d = np.array([r.distance for r in usable])
    y = np.array([r.deficit for r in usable])
    if d.max() < 9.5 * d.min():  # a decade, with slack for normalization drift
        raise InsufficientDataError("records span less than one decade of distance")

    log_d, log_y = np.log(d), np.log(y)
    env = _binned_minima(log_d, log_y)
    hull = env[_lower_hull(log_d[env], log_y[env])]
    slope, _, r2 = line_fit(log_d[hull], log_y[hull])
    if r2 < 0.99:
        raise FitRejectedError(f"envelope fit r2 = {r2:.5f} < 0.99")
    c_lower = float(np.min(y / d**slope))
    return StabilityFit(exponent=slope, c_lower=c_lower, r2=r2,
                        window=(float(d.min()), float(d.max())),
                        n_records=len(usable), n_below_floor=n_below,
                        hull_size=int(hull.size))


@dataclass(frozen=True)
class CoercivityData:
    """Conversion between the mass-normalized spectral gap and the envelope.

    lambda1_m is the spectral gap against the mass form; lambda1_w the same
    Hessian minimized against the Sobolev form on the kernel complement.  For
    small transverse perturbations the deficit/distance^2 ratio approaches
    floor = lambda1_w |v|_W^2 / 2, reported alongside the factor that turns
    (lambda1_m / 4) into that floor.
    """

    lambda1_m: float
    lambda1_w: float
    v_norm_sq: float
    conversion: float
    floor: float


def coercivity_data(v: energy.NormalizedState, split: KernelSplit) -> CoercivityData:
    ops = v.ops
    # first: S+M is positive definite even at a pole, so nothing after this
    # call would refuse a zero-mass node
    C = constraint_covectors(v, split.K_basis)
    chol, lower = ops.w12_cho
    trans = "N" if lower else "T"
    half = sla.solve_triangular(chol, energy.second_variation(v), lower=lower, trans=trans)
    H = sla.solve_triangular(chol, half.T, lower=lower, trans=trans)
    C = sla.solve_triangular(chol, C, lower=lower, trans=trans)
    lam_w = float(constrained_lowest(H, C, 1)[0][0])
    vnsq = float(v.u @ ops.w12_gram @ v.u)
    lam_m = split.lambda1
    conversion = 2.0 * vnsq * lam_w / lam_m
    return CoercivityData(lambda1_m=lam_m, lambda1_w=lam_w, v_norm_sq=vnsq,
                          conversion=conversion, floor=0.5 * lam_w * vnsq)
