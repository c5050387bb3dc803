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
The offset v + phi must lie in the positive cone, and a step must cut the
residual by CHORD_CONTRACTION and keep v + phi + z there; an offset or step
that does not, or a solve that reaches MAX_NEWTON steps, ends the solve, and
the ChartError that follows names the cause.  A step that stops contracting
ends the solve successfully instead when the residual already meets the
tolerance in the Sobolev dual norm, the floor that float64 can reach at
N=1024.  Each column reports one residual, the bound that met the
tolerance: that dual norm where a chord step stalled, else the M^-1 norm,
which is never smaller (S + M >= M), so no solve is spent on a column whose
M^-1 norm suffices.  A sample's newton_iters counts its accepted chord steps.

The offsets of a chart are solved together: the N x S block Phi = K coords
runs the chord iteration in lockstep, each sweep one multi-column solve of
the factor and one block residual over the columns still active, with
every rule above kept per column.  solve_corrections is this block
iteration and the package's one correction solver; it reports each column's
stop cause instead of raising.  The block runs to completion, and
sample_reduced then raises the ChartError of the first failing sample in
sweep order (direction, then scale, then +, then -), the error a
sample-by-sample sweep would meet.  A column's last bits can depend on the
block's width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disc import BorderedFactor, DiscreteOperators, _colwise
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
# radius of the locality ball around v in units of |v|_W: the chart radius
# and the ball outside which stability samples are skipped
LOCALITY_RADIUS = 0.1
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

    def __post_init__(self):
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError("newton_tol must be a positive finite number")
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
        self.radius = LOCALITY_RADIUS * self.ops.w12_norm(self.v.u)
        # fixed references for the incremental residual evaluation
        ts = self.ops.two_star
        mvec = self.ops.vol_weights
        self._diag = self.ops.curv_weights + self.ops.bdry_weights  # A = S + diag(c + b)
        self._Av = self.ops.apply_form(self.v.u, self._diag)
        self._Ev = float(self.v.u @ self._Av)
        self._Pv = float(np.sum(mvec * self.v.u**ts))
        # range(C) holds p = M v^(2*-1), so of g(v) only A v has a complement part
        self._rAv = self._Av - self._C @ (self._range_coeffs @ self._Av)

    def complement_residual(self, xi: np.ndarray) -> np.ndarray:
        """Nodal chart gradient g at offset xi minus its range(C) part; the
        N x S block of them for an N x S block of offset columns.

        Evaluated incrementally around v so the round-off scales with |xi|
        instead of |v|; this is what lets the Newton solve reach residuals
        well below 1e-11.
        """
        ops = self.ops
        ts = ops.two_star
        m = _colwise(ops.vol_weights, xi)
        v = self.v.u
        Axi = ops.apply_form(xi, self._diag)
        E = self._Ev + 2.0 * (self._Av @ xi) + np.einsum("i...,i...->...", xi, Axi)
        P = self._Pv + np.sum(m * energy.power_increment(v, xi, ts), axis=0)
        dg = Axi - (E / P) * m * energy.power_increment(v, xi, ts - 1.0)
        return 2.0 * P ** (-2.0 / ts) * (
            _colwise(self._rAv, xi) + dg - self._C @ (self._range_coeffs @ dg))

    def residual_norm(self, r: np.ndarray):
        """sqrt(r'M^-1 r), which is |Z'g| for r = complement_residual(xi) and
        any M-orthonormal basis Z of ker C'; the S column norms of a block."""
        return np.sqrt(np.einsum("i,i...,i...->...", self._inv_m, r, r))

    @property
    def ops(self) -> DiscreteOperators:
        return self.v.ops

    @property
    def kernel_dim(self) -> int:
        return self.split.kernel_dim

    def kernel_vector(self, phi_coords: np.ndarray) -> np.ndarray:
        return self.split.K_basis @ np.asarray(phi_coords, dtype=float)


@dataclass(frozen=True)
class ReducedSample:
    phi_coords: np.ndarray
    q_value: float
    correction_norm: float
    newton_iters: int
    deficit: float
    residual: float              # the bound that met newton_tol
    direction_index: int = 0
    scale: float = 0.0


def solve_corrections(chart: ReductionChart, coords: np.ndarray):
    """Corrections F(phi) at the k x S kernel coordinates coords, solved as
    one lockstep chord block.

    Returns per column (Z, newton_iters, residual, stops): the N x S
    corrections, their accepted chord steps, the complement residual's norm
    that met the tolerance (its Sobolev dual norm where a chord step stalled,
    else sqrt(r'M^-1 r); see the module docstring), and the ChartError text
    of a column whose solve failed (None where it met the tolerance).  A
    column of Z is mass-orthogonal to the kernel basis and to the radial
    direction; phi = 0 gives the zero column exactly, with 0 steps.
    """
    if coords.shape[0] != chart.kernel_dim:
        raise ValueError(f"expected {chart.kernel_dim} kernel coordinates")
    ops, tol, vu = chart.ops, chart.newton_tol, chart.v.u[:, None]
    Phi = chart.kernel_vector(coords)
    S = Phi.shape[1]
    Z, R = np.zeros_like(Phi), np.zeros_like(Phi)
    iters, res = np.zeros(S, dtype=int), np.zeros(S)
    stops = [None] * S
    for j, (nrm, low) in enumerate(zip(ops.w12_norm(Phi), np.min(vu + Phi, axis=0))):
        if nrm > chart.radius * (1.0 + 1e-12):
            stops[j] = (f"kernel offset leaves the chart (|phi| = {nrm:.3e}, "
                        f"radius = {chart.radius:.3e})")
        elif not low > 0:
            stops[j] = f"kernel offset leaves the positive cone (min of v + phi = {low:.3e})"
    a = np.flatnonzero(np.array([s is None for s in stops], dtype=bool) & np.any(coords, axis=0))
    R[:, a] = chart.complement_residual(Phi[:, a])
    res[a] = chart.residual_norm(R[:, a])
    active = np.zeros(S, dtype=bool)
    active[a] = res[a] > tol

    def stop(j, why):
        stops[j] = (f"correction solve stopped at residual {res[j]:.3e} (tolerance "
                    f"{tol:.1e}): {why}")
        active[j] = False

    while True:
        for j in np.flatnonzero(active & (iters == MAX_NEWTON)):
            stop(j, f"MAX_NEWTON = {MAX_NEWTON} chord steps reached")
        a = np.flatnonzero(active)
        if not a.size:
            return Z, iters, res, stops
        cand = Z[:, a] + chart._factor.solve(-R[:, a])
        Xi = Phi[:, a] + cand
        inside = np.all(vu + Xi > 0, axis=0)
        for j in a[~inside]:
            stop(j, "a chord step left the positive cone")
        a, cand = a[inside], cand[:, inside]
        cand_R = chart.complement_residual(Xi[:, inside])
        cand_res = chart.residual_norm(cand_R)
        kept = cand_res <= CHORD_CONTRACTION * res[a]  # a NaN residual fails too
        for j, ratio in zip(a[~kept], cand_res[~kept] / res[a[~kept]]):
            dual = ops.dual_norm(R[:, j])
            active[j] = False
            if dual <= tol:
                res[j] = dual
            else:
                stop(j, f"a chord step's residual ratio {ratio:.3g} exceeds "
                        f"CHORD_CONTRACTION = {CHORD_CONTRACTION}, and the residual's "
                        f"dual norm {dual:.3e} misses the tolerance too")
        a = a[kept]
        Z[:, a], R[:, a], res[a] = cand[:, kept], cand_R[:, kept], cand_res[kept]
        iters[a] += 1
        active[a] = res[a] > tol


def sample_reduced(chart: ReductionChart, directions, scales) -> list[ReducedSample]:
    """Deterministic sweep of the reduced energy over direction/scale pairs.

    Each pair is evaluated at +phi and -phi and the deficits averaged: a
    chart centered a hair off the true minimizer picks up an odd
    contamination term linear in that offset, and the average cancels it.
    The averaged growth matches the smaller of the two one-sided exponents,
    which is what the minimum-over-directions fit reports anyway.

    All offsets are solved as one block (see the module docstring), and
    their deficits and correction norms come from one call each.
    """
    units = []
    for direction in directions:
        direction = np.asarray(direction, dtype=float)
        nrm = np.linalg.norm(direction)
        if nrm == 0:
            raise ValueError("sample directions must be nonzero")
        units.append(direction / nrm)
    labels = [(d, float(s), sign) for d in range(len(units)) for s in scales
              for sign in (1.0, -1.0)]
    if not labels:
        return []
    offsets = np.array([sign * s * units[d] for d, s, sign in labels])
    Z, iters, res, stops = solve_corrections(chart, offsets.T)
    for (d, s, sign), why in zip(labels, stops):
        if why is not None:
            raise ChartError(f"sample at direction {d}, scale {s:.3e}, "
                             f"sign {'+' if sign > 0 else '-'}: {why}")
    deficits = energy.energy_deficit(chart.v, chart.kernel_vector(offsets.T) + Z)
    cnorms = chart.ops.w12_norm(Z)
    out = []
    for j in range(0, len(labels), 2):
        deficit = 0.5 * (deficits[j] + deficits[j + 1])
        out.append(ReducedSample(
            phi_coords=offsets[j],
            q_value=chart.v.Q + deficit,
            correction_norm=0.5 * (cnorms[j] + cnorms[j + 1]),
            newton_iters=int(max(iters[j], iters[j + 1])),
            deficit=deficit,
            residual=max(res[j], res[j + 1]),
            direction_index=labels[j][0],
            scale=labels[j][1],
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
