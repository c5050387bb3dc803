"""Numerical Lyapunov-Schmidt reduction at a degenerate critical state.

Given a critical state v with kernel K of the projected Hessian, the
correction map F sends kernel coordinates phi to the unique small z in the
mass-orthogonal complement of K (inside the tangent space) at which the
complement component of the chart gradient vanishes.  The reduced energy
q(phi) = Q(v + phi + F(phi)) is then a finite-dimensional analytic function
whose growth at 0 carries the stability exponent.

The complement has no basis: with C = [p, M K] the constraint covectors, z
ranges over ker C', the residual is the nodal chart gradient g minus its
range(C) part, r = g - C (C'M^-1 C)^-1 C'M^-1 g, in the norm sqrt(r'M^-1 r),
and a Newton step is one bordered (KKT) solve of [[H, C], [C', 0]] with
right-hand side -r, which lands in ker C' (the range-space form of the
null-space method).  H is the second variation at v, second_variation(v),
the package's one Hessian: on ker C' it differs from the Hessian of the
homogeneous quotient at v only by a multiple of p, and p lies in range(C),
so both give the same bordered steps.  The chart factors this system once,
where it is invertible because the first eigenvalue off the kernel is
strictly positive; a singular factor raises ChartError, since it means the
kernel split is suspect.  By the implicit-function contraction argument a
step with the Jacobian frozen at v contracts at a rate of O(|phi|), so each
solve takes only O(N^2) chord steps with that factor (the chord method).
A step must cut the residual by CHORD_CONTRACTION and keep v + phi + z in
the positive cone; one that does not, or a solve that reaches MAX_NEWTON
steps, ends the solve, and the ChartError that follows names the cause.
A sample's newton_iters counts its accepted chord steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disc import BorderedFactor, DiscreteOperators
from .spectrum import KernelSplit, constraint_covectors
from . import energy


class ChartError(RuntimeError):
    """Correction solve failed: kernel coordinates outside the usable chart."""


class FitRejectedError(RuntimeError):
    """A power-law fit did not meet its goodness-of-fit requirement."""


class InsufficientDataError(RuntimeError):
    """Not enough usable samples for a power-law fit."""


NOISE_FLOOR = 1e-13
CHORD_CONTRACTION = 0.5  # residual ratio a chord step must reach to be kept
MAX_NEWTON = 40          # accepted steps per correction solve
# relative spread of the sampled reduced energy below which it counts as constant
INTEGRABLE_TOL = 1e-8


@dataclass(eq=False)
class ReductionChart:
    v: energy.NormalizedState
    split: KernelSplit
    newton_tol: float = 1e-11
    radius: float = field(init=False)
    _C: np.ndarray = field(init=False, repr=False)
    _factor: BorderedFactor = field(init=False, repr=False)
    _q0: float = field(init=False)

    def __post_init__(self):
        if self.split.kernel_dim < 1:
            raise ValueError(
                "a reduction chart needs a nontrivial kernel; the "
                "nondegenerate case has constant reduced energy and no chart")
        self._C = constraint_covectors(self.v, self.split.K_basis)
        # range(C) component y = (C'M^-1 C)^-1 C'M^-1 g of a covector g
        self._inv_m = 1.0 / self.ops.vol_weights
        minv_c = self._inv_m[:, None] * self._C
        self._range_coeffs = np.linalg.solve(self._C.T @ minv_c, minv_c.T)
        try:
            self._factor = BorderedFactor(energy.second_variation(self.v), self._C)
        except np.linalg.LinAlgError as exc:
            raise ChartError(
                f"the bordered second variation is singular at v ({exc}); the "
                "kernel split is suspect") from exc
        self.radius = 0.1 * self.ops.w12_norm(self.v.u)
        self._q0 = energy.yamabe_quotient(self.ops, self.v.u).Q
        # fixed references for the incremental residual evaluation
        ts = self.ops.two_star
        mvec = self.ops.vol_weights
        self._Av, _ = self.ops.apply_form(self.v.u)
        self._Ev = float(self.v.u @ self._Av)
        self._Pv = float(np.sum(mvec * self.v.u**ts))
        # range(C) holds p = M v^(2*-1), so of g(v) only A v has a complement part
        self._rAv = self._Av - self._C @ (self._range_coeffs @ self._Av)

    def complement_residual(self, xi: np.ndarray) -> np.ndarray:
        """Nodal chart gradient g at offset xi minus its range(C) part.

        Evaluated incrementally around v so the round-off scales with |xi|
        instead of |v|; this is what lets the Newton solve reach residuals
        well below 1e-11.
        """
        ops = self.ops
        ts = ops.two_star
        m = ops.vol_weights
        v = self.v.u
        Axi, _ = ops.apply_form(xi)
        E = self._Ev + 2.0 * float(xi @ self._Av) + float(xi @ Axi)
        P = self._Pv + float(np.sum(m * energy.power_increment(v, xi, ts)))
        dg = Axi - (E / P) * m * energy.power_increment(v, xi, ts - 1.0)
        return 2.0 * P ** (-2.0 / ts) * (self._rAv + dg - self._C @ (self._range_coeffs @ dg))

    def residual_norm(self, r: np.ndarray) -> float:
        """sqrt(r'M^-1 r), which is |Z'g| for r = complement_residual(xi) and
        any M-orthonormal basis Z of ker C'."""
        return math.sqrt(float(r @ (self._inv_m * r)))

    @property
    def ops(self) -> DiscreteOperators:
        return self.v.ops

    @property
    def kernel_dim(self) -> int:
        return self.split.kernel_dim

    @property
    def q0(self) -> float:
        return self._q0

    def kernel_vector(self, phi_coords: np.ndarray) -> np.ndarray:
        return self.split.K_basis @ np.asarray(phi_coords, dtype=float)


@dataclass(frozen=True)
class ReducedSample:
    phi_coords: np.ndarray
    q_value: float
    correction_norm: float
    newton_iters: int
    deficit: float
    residual: float
    direction_index: int = 0
    scale: float = 0.0


def _correction_solve(chart: ReductionChart, phi: np.ndarray):
    """Chord iteration for the nodal correction z at kernel offset phi.

    Returns (z, residual norm, accepted steps, why the solve stopped short),
    the last None when the residual met the chart's tolerance.
    """
    z = np.zeros(chart.ops.N)
    res_vec = chart.complement_residual(phi)
    res = chart.residual_norm(res_vec)
    iters = 0
    while res > chart.newton_tol:
        if iters == MAX_NEWTON:
            return z, res, iters, f"MAX_NEWTON = {MAX_NEWTON} chord steps reached"
        cand = z + chart._factor.solve(-res_vec)
        xi = phi + cand
        if not np.all(chart.v.u + xi > 0):
            return z, res, iters, "a chord step left the positive cone"
        cand_vec = chart.complement_residual(xi)
        cand_res = chart.residual_norm(cand_vec)
        if not cand_res <= CHORD_CONTRACTION * res:  # a NaN residual fails too
            return z, res, iters, (
                f"a chord step's residual ratio {cand_res / res:.3g} exceeds "
                f"CHORD_CONTRACTION = {CHORD_CONTRACTION}")
        z, res_vec, res = cand, cand_vec, cand_res
        iters += 1
    return z, res, iters, None


def solve_correction_full(chart: ReductionChart, phi_coords):
    """Correction F(phi) with its solve diagnostics (newton_iters, residual).

    F(phi) is the nodal function z, mass-orthogonal to the kernel basis and
    to the radial direction, with complement gradient norm below the chart's
    Newton tolerance.  phi = 0 returns the zero function exactly.
    """
    phi_coords = np.atleast_1d(np.asarray(phi_coords, dtype=float))
    if phi_coords.size != chart.kernel_dim:
        raise ValueError(f"expected {chart.kernel_dim} kernel coordinates")
    if not np.any(phi_coords):
        return np.zeros(chart.ops.N), (0, 0.0)

    phi = chart.kernel_vector(phi_coords)
    if chart.ops.w12_norm(phi) > chart.radius * (1.0 + 1e-12):
        raise ChartError(
            f"kernel offset leaves the chart (|phi| = {chart.ops.w12_norm(phi):.3e}, "
            f"radius = {chart.radius:.3e})")

    z, res, iters, stop = _correction_solve(chart, phi)
    if stop is not None:
        raise ChartError(
            f"correction solve stopped at residual {res:.3e} (tolerance "
            f"{chart.newton_tol:.1e}): {stop}")
    return z, (iters, res)


def reduced_energy(chart: ReductionChart, phi_coords) -> ReducedSample:
    """Reduced energy q(phi) = Q(v + phi + F(phi)) with solve diagnostics."""
    phi_coords = np.atleast_1d(np.asarray(phi_coords, dtype=float))
    z, (iters, res) = solve_correction_full(chart, phi_coords)
    xi = chart.kernel_vector(phi_coords) + z
    deficit = energy.energy_deficit(chart.v, xi)
    return ReducedSample(
        phi_coords=phi_coords,
        q_value=chart.q0 + deficit,
        correction_norm=chart.ops.w12_norm(z),
        newton_iters=iters,
        deficit=deficit,
        residual=res,
        scale=float(np.linalg.norm(phi_coords)),
    )


def sample_reduced(chart: ReductionChart, directions, scales) -> list[ReducedSample]:
    """Deterministic sweep of the reduced energy over direction/scale pairs.

    Each pair is evaluated at +phi and -phi and the deficits averaged: a
    chart centered a hair off the true minimizer picks up an odd
    contamination term linear in that offset, and the average cancels it.
    The averaged growth matches the smaller of the two one-sided exponents,
    which is what the minimum-over-directions fit reports anyway.
    """
    out = []
    for d_idx, direction in enumerate(directions):
        direction = np.asarray(direction, dtype=float)
        nrm = np.linalg.norm(direction)
        if nrm == 0:
            raise ValueError("sample directions must be nonzero")
        direction = direction / nrm
        for scale in scales:
            plus = reduced_energy(chart, scale * direction)
            minus = reduced_energy(chart, -scale * direction)
            deficit = 0.5 * (plus.deficit + minus.deficit)
            out.append(ReducedSample(
                phi_coords=plus.phi_coords,
                q_value=chart.q0 + deficit,
                correction_norm=0.5 * (plus.correction_norm + minus.correction_norm),
                newton_iters=max(plus.newton_iters, minus.newton_iters),
                deficit=deficit,
                residual=max(plus.residual, minus.residual),
                direction_index=d_idx,
                scale=float(scale),
            ))
    return out


@dataclass(frozen=True)
class GrowthFit:
    exponent: float
    constant: float
    r2: float
    window: tuple
    direction_index: int
    n_below_floor: int


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept: (slope, intercept, r2)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return float(slope), float(intercept), r2


def _best_window(log_s: np.ndarray, log_y: np.ndarray):
    """Largest contiguous sub-ladder fitting a line with r2 >= 0.999.

    Falls back to the best-r2 window of maximal length; windows must keep at
    least 4 samples spanning at least one decade.
    """
    n = log_s.size
    fallback = None
    for length in range(n, 3, -1):
        candidates = []
        for start in range(0, n - length + 1):
            sl = slice(start, start + length)
            if log_s[sl][-1] - log_s[sl][0] < math.log(10.0) * (1.0 - 1e-9):
                continue
            slope, intercept, r2 = line_fit(log_s[sl], log_y[sl])
            candidates.append((r2, start, slope, intercept, sl))
        for r2, start, slope, intercept, sl in candidates:
            if r2 >= 0.999:
                return slope, intercept, r2, sl
        if candidates and fallback is None:
            fallback = max(candidates, key=lambda c: c[0])
    if fallback is None:
        raise InsufficientDataError(
            "no contiguous window with >= 4 samples spanning a decade")
    r2, start, slope, intercept, sl = fallback
    if r2 < 0.99:
        raise FitRejectedError(f"best available window has r2 = {r2:.5f} < 0.99")
    return slope, intercept, r2, sl


def fit_growth_exponent(samples: list[ReducedSample]) -> GrowthFit:
    """Power-law exponent of the reduced energy growth, per direction.

    Fits log(q(s) - q(0)) against log s on the window policy above and
    reports the minimum exponent across directions.  Samples whose deficit
    sits below the round-off floor are excluded and counted.
    """
    if not samples:
        raise InsufficientDataError("no samples to fit")
    by_dir: dict[int, list[ReducedSample]] = {}
    for s in samples:
        by_dir.setdefault(s.direction_index, []).append(s)

    fits = []
    for d_idx, group in sorted(by_dir.items()):
        group = sorted(group, key=lambda s: s.scale)
        scales = np.array([s.scale for s in group])
        ys = np.array([s.deficit for s in group])
        keep = ys > NOISE_FLOOR
        n_below = int(np.sum(~keep))
        scales, ys = scales[keep], ys[keep]
        if scales.size < 4 or scales.max() < 10.0 * scales.min():
            raise InsufficientDataError(
                f"direction {d_idx}: need >= 4 above-floor samples spanning a decade")
        slope, intercept, r2, sl = _best_window(np.log(scales), np.log(ys))
        window = (float(scales[sl][0]), float(scales[sl][-1]))
        fits.append(GrowthFit(exponent=slope, constant=math.exp(intercept), r2=r2,
                              window=window, direction_index=d_idx,
                              n_below_floor=n_below))
    return min(fits, key=lambda f: f.exponent)


def detect_integrability(samples: list[ReducedSample], *,
                         q0: float, kernel_dim: int) -> str:
    """Classify the critical state from sampled reduced-energy variation.

    A trivial kernel is nondegenerate; a reduced energy that is constant to
    within INTEGRABLE_TOL relative of its base value is integrable; anything
    else is nonintegrable.
    """
    if kernel_dim == 0:
        return "nondegenerate"
    if not samples:
        raise ValueError("integrability detection needs samples when a kernel exists")
    spread = max(abs(s.q_value - q0) for s in samples)
    return "integrable" if spread <= INTEGRABLE_TOL * abs(q0) else "nonintegrable"
