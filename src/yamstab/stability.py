"""End-to-end stability experiment: deficits versus distance to minimizers.

States near (and not so near) an isolated minimizer are sampled in three
kinds -- along the Hessian kernel, transverse to it, and mixed -- and each
sample is recorded as a (energy deficit, normalized Sobolev distance) pair,
the distance measured to that one minimizer.  The stability exponent is the
slope of the lower envelope of that scatter in log-log coordinates, and the
envelope constant is compared against the coercivity floor predicted by the
smallest nonzero Hessian eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disc import lp_norm
from .lsred import (FitRejectedError, InsufficientDataError, LOCALITY_RADIUS,
                    NOISE_FLOOR, line_fit)
from .spectrum import (KernelSplit, SpectrumError, SpectrumReport, constraint_covectors,
                       lowest_pairs, positive_factor)
from . import energy


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
    kinds: tuple
    scales: tuple
    count: int
    seed: int


@dataclass(frozen=True)
class SampleBatch:
    records: tuple
    n_skipped: int


N_TRANSVERSE_MODES = 6


def _directions(cols: np.ndarray, count: int, rng, ops) -> np.ndarray:
    """N x count block: the first column, then count - 1 seeded random
    combinations of cols."""
    dirs = np.column_stack([cols[:, 0]] + [cols @ rng.standard_normal(cols.shape[1])
                                           for _ in range(count - 1)])
    # Sobolev-normalized so every direction sweeps the same distance ladder
    return dirs / ops.w12_norm(dirs)


def _scale_ladder(v: energy.NormalizedState, direction: np.ndarray,
                  scales: np.ndarray) -> np.ndarray:
    """N x S block of the states v + s direction, clipped nonnegative and
    volume-normalized, a column per scale s."""
    # laid out scale by scale, so each column is contiguous
    U = np.clip(v.u + np.multiply.outer(scales, direction), 0.0, None).T
    return U / lp_norm(v.ops, U, v.ops.two_star)


def sample_deficit_distance(v: energy.NormalizedState, split: KernelSplit,
                            spectrum: SpectrumReport, spec: SampleSpec, *,
                            member_tol: float = 1e-9) -> SampleBatch:
    """Deterministic batch of perturbed states around the minimizer v, with
    deficits and distances.

    v must be critical: its Sobolev dual gradient norm is at most member_tol.
    Kernel samples ride the flat directions of the second variation (the
    columns of split.K_basis), the expensive case of the stability bound;
    transverse samples probe its coercive part (the first
    N_TRANSVERSE_MODES eigenvectors of spectrum past the kernel); mixed
    samples combine one of each.  Each perturbed state is clipped
    nonnegative and renormalized.  Samples leaving the locality ball of
    radius 0.1 |v|_W are skipped and counted, never silently kept.

    A direction's scale ladder is evaluated as one N x S block, a column
    per scale: its volume norms, Sobolev gaps and norms and its energy
    deficits each come from one block evaluation.
    """
    ops = v.ops
    if v.grad_norm > member_tol:
        raise ValueError(f"base state has gradient norm {v.grad_norm:.3e} > {member_tol:.1e}; "
                         "not a usable minimizer")
    delta = LOCALITY_RADIUS * ops.w12_norm(v.u)
    kd = split.kernel_dim
    transverse = spectrum.eigenvectors[:, kd: kd + N_TRANSVERSE_MODES]
    scales = np.asarray(spec.scales, dtype=float)
    rng = np.random.default_rng(spec.seed)
    records = []
    n_skipped = 0
    for kind in spec.kinds:
        if kind not in ("kernel", "transverse", "mixed"):
            raise ValueError(f"unknown perturbation kind {kind!r}")
        if kind != "transverse" and kd == 0:
            raise ValueError(f"{kind} sampling needs a nontrivial kernel")
        if kind != "kernel" and transverse.shape[1] == 0:
            raise ValueError(f"{kind} sampling needs modes beyond the kernel, "
                             "and the spectrum holds none")
        if kind == "transverse":
            dirs = _directions(transverse, spec.count, rng, ops)
        else:
            dirs = _directions(split.K_basis, spec.count, rng, ops)
            if kind == "mixed":
                dirs = dirs + _directions(transverse, spec.count, rng, ops)
                dirs /= ops.w12_norm(dirs)
        for d_idx in range(dirs.shape[1]):
            U = _scale_ladder(v, dirs[:, d_idx], scales)
            gaps = ops.w12_norm(U - v.u[:, None])
            kept = ~(gaps > delta)
            deficits = energy.energy_deficit(v, U[:, kept] - v.u[:, None])
            distances = gaps[kept] / ops.w12_norm(U[:, kept])
            evaluated = zip(deficits.tolist(), distances.tolist())
            for scale, keep in zip(spec.scales, kept):
                if not keep:
                    n_skipped += 1
                    continue
                deficit, distance = next(evaluated)
                records.append(StabilityRecord(
                    deficit=deficit, distance=distance,
                    sample_id=len(records) + n_skipped,
                    perturbation_kind=kind, scale=float(scale),
                    direction_index=d_idx))
    return SampleBatch(records=tuple(records), n_skipped=n_skipped)


@dataclass(frozen=True)
class StabilityFit:
    exponent: float
    c_lower: float
    r2: float
    window: tuple
    n_records: int
    n_below_floor: int


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
                        n_records=len(usable), n_below_floor=n_below)


class CoercivityError(RuntimeError):
    """The Sobolev spectral gap lambda1_w could not be established."""


@dataclass(frozen=True)
class CoercivityData:
    """Conversion between the mass-normalized spectral gap and the envelope.

    lambda1_m is the spectral gap against the mass form; lambda1_w the same
    Hessian minimized against the Sobolev form on the kernel complement.  For
    small transverse perturbations the deficit/distance^2 ratio approaches
    floor = lambda1_w |v|_W^2 / 2, reported alongside the factor that turns
    (lambda1_m / 4) into that floor.  sweeps counts the inverse-iteration
    sweeps that lambda1_w took.
    """

    lambda1_m: float
    lambda1_w: float
    conversion: float
    floor: float
    sweeps: int


def coercivity_data(v: energy.NormalizedState, split: KernelSplit,
                    spectrum: SpectrumReport) -> CoercivityData:
    """The Sobolev spectral gap lambda1_w and its conversion to the envelope.

    lambda1_w is the lowest eigenvalue of the pencil (H, W), H the second
    variation at v and W = S+M the Form ops.form(m), on ker C', C the
    constraint covectors of v and the kernel: spectrum.lowest_pairs with
    k = 1 from the first N_TRANSVERSE_MODES eigenvectors of spectrum past the
    kernel.  Only if it fails is the same H factored, bordered by C, to tell
    a second variation not positive off the kernel (also refused if
    lambda1_w <= 0) from a start block that misses the lowest mode; both are
    CoercivityErrors.
    """
    ops = v.ops
    # first: S+M is positive definite even at a pole, so nothing after this
    # call would refuse a zero-mass node
    C = constraint_covectors(v, split.K_basis)
    kd = split.kernel_dim
    start = spectrum.eigenvectors[:, kd: kd + N_TRANSVERSE_MODES]
    if start.shape[1] == 0:
        raise ValueError("the Sobolev gap needs modes beyond the kernel, "
                         "and the spectrum holds none")
    H = energy.second_variation(v)
    try:
        gap = lowest_pairs(H, ops.form(ops.vol_weights), C, start, 1)
    except SpectrumError as exc:
        if positive_factor(H, C) is not None:
            raise CoercivityError(str(exc)) from exc
        gap = None
    if gap is None or gap.eigenvalues[0] <= 0:
        raise CoercivityError(
            "the second variation is not positive off the kernel against the "
            "Sobolev form; v is not an isolated minimizer or its kernel split is wrong")
    lam_w = float(gap.eigenvalues[0])
    vnsq = ops.w12_norm(v.u) ** 2
    lam_m = split.lambda1
    conversion = 2.0 * vnsq * lam_w / lam_m
    return CoercivityData(lambda1_m=lam_m, lambda1_w=lam_w, conversion=conversion,
                          floor=0.5 * lam_w * vnsq, sweeps=gap.sweeps)
