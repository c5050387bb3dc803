"""Constrained minimization of the quotient over the unit-volume manifold.

Projected gradient descent with a Sobolev (W = S+M) Riesz preconditioner and
Armijo backtracking, polished by a damped Newton method on the tangent
space.  Each backtracking starts at the Barzilai-Borwein step
|s|_W^2 / (s.y), s the last accepted change of state and y the change of the
gradient covector (step 1 on the first iteration and whenever s.y <= 0): the
fixed step 1 crawls along the low modes, where the Hessian is small against
W.  Each polish step is one bordered (KKT) solve of
[[H0 + mu W, p], [p', 0]] with H0 the unprojected second variation
(energy.second_variation) and p = v.p the constraint normal: the Levenberg
step restricted to p.d = 0, obtained without building a tangent basis, and
the same step the projected Hessian gives, because the multiplier absorbs the
projection's p term.  H0 + mu W is the disc.Form (2 + mu) S + diag(...),
written only into the factor's block.  A rejected step is retried with ten
times the damping until it shrinks to round-off (POLISH_STEP_FLOOR), where
the polish stops.
A step is accepted when it lowers the gradient norm without raising the
quotient by more than 1e-13 max(|Q|, 1), or when its incremental energy
deficit (energy.energy_deficit) is below minus that allowance: along a
quartic kernel Newton steps lower the energy while the gradient norm rises.
The polish stops once the gradient norm is at most the tolerance.  Convergence
is declared on the preconditioned gradient norm alone: degenerate minimizers
move arbitrarily slowly along their kernel, so state movement is not a usable
criterion.  Each iterate is an energy.NormalizedState, which evaluates its
quotient, constraint normal, gradient and Riesz vector once.  A polish
iteration takes the step floor's |u|_W only once a rung is rejected, and a
MinimizeReport evaluates its strong-form residual (energy.el_residual) on
first read, which only the minimize experiment's outputs do.  A multistart
run starts from the constant and from seeded smooth perturbations of it
along the analytic modes of disc.low_modes.

Nested iteration: run_multistart solves each start first on one coarse
grid of the same model, N/4 nodes rounded up to even (used when that is at
least disc.MIN_NODES), from the same seeded start taken on the coarse nodes;
it interpolates the coarse minimizer to the N-node grid (disc.interpolate)
and finishes there with minimize_energy at the same grad_tol, so
convergence is decided on N alone.  Newton's iteration count does not
depend on the mesh (Allgower, Bohmer, Potra & Rheinboldt, SIAM J. Numer.
Anal. 23, 1986), and at a degenerate minimizer the polish converges only
linearly (Decker & Kelley, SIAM J. Numer. Anal. 17, 1980): its 20-30
factorizations cost (N/4)^3 each on the coarse grid, while the interpolated
state needs 0-3 iterations on N.  A start that the coarse run finds already critical (0 iterations,
as the constant start is) or whose coarse or finishing run does not
converge runs directly on N from its own N-node start, so no start is
dropped and no N-node gradient is evaluated outside minimize_energy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .disc import (MIN_NODES, BorderedFactor, DiscreteOperators, Form,
                   assemble_operators, build_grid, interpolate, low_modes, rounding_floor)
from .model import SymmetricModel, dim_constant, sphere_area
from . import energy


class ConvergenceError(RuntimeError):
    """No minimization run reached the requested gradient tolerance."""


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-11
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be a positive finite number")


@dataclass(frozen=True, eq=False)
class MinimizeReport:
    v: energy.NormalizedState
    Y_est: float
    grad_norm: float
    iterations: int
    converged: bool
    start_index: int = 0
    coarse_iterations: int = 0  # iterations on the coarse grid of a nested start

    @functools.cached_property
    def residual(self) -> energy.ELResidual:
        """energy.el_residual of v, evaluated on first read."""
        return energy.el_residual(self.v)


MAX_ITERS = 500  # descent steps
ARMIJO_C1 = 1e-4
NEWTON_SWITCH = 1e-2
MAX_BACKTRACK = 60
# A rejected polish step whose Sobolev norm is at most this times |u|_W is
# round-off: more damping only shrinks it, so the damping ladder stops there.
POLISH_STEP_FLOOR = np.finfo(float).eps


def _polish_step(state: energy.NormalizedState, H: Form, G: np.ndarray,
                 mu: float) -> np.ndarray:
    """Levenberg step min 1/2 d'(H + mu W)d + G.d over the tangent space p.d = 0,
    with H the unprojected second variation at state (energy.second_variation)
    and H + mu W = (2 + mu) S + diag(h + mu (diag S + m)) its shifted Form.
    """
    if mu > 0.0:
        H = H.shifted(-mu, state.ops.form(state.ops.vol_weights))
    return BorderedFactor(H, state.p[:, None]).solve(-G)


def minimize_energy(ops: DiscreteOperators, u0: np.ndarray,
                    opts: MinimizeOptions = MinimizeOptions()) -> MinimizeReport:
    """Minimize the quotient starting from a finite, nonnegative, nonzero
    function (energy.normalize refuses any other)."""
    state = energy.normalize(ops, u0)
    iterations = 0
    switch_tol = max(opts.grad_tol, NEWTON_SWITCH)

    # --- preconditioned descent phase
    bb_step = 1.0  # Barzilai-Borwein trial step; 1 until a curvature pair exists
    while state.grad_norm > switch_tol and iterations < MAX_ITERS:
        eta = -energy.project_tangent(state, state.riesz)
        slope = float(state.G @ eta)
        if slope >= 0:
            break
        alpha = bb_step
        accepted = False
        for _ in range(MAX_BACKTRACK):
            trial = np.maximum(state.u + alpha * eta, 0.0)
            if not (trial > 0).any():
                alpha *= 0.5
                continue
            trial_state = energy.normalize(ops, trial)
            if trial_state.Q <= state.Q + ARMIJO_C1 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        s_step = trial_state.u - state.u
        curvature = float(s_step @ (trial_state.G - state.G))
        bb_step = ops.w12_norm(s_step) ** 2 / curvature if curvature > 0 else 1.0
        state = trial_state
        iterations += 1

    # --- damped Newton polish on the tangent space
    # Near a degenerate minimizer the energy decrease per step falls under the
    # evaluation noise long before the gradient does, so steps are accepted on
    # gradient-norm decrease with a round-off allowance on the energy.
    mu = 0.0
    newton_iters = 0
    while state.grad_norm > opts.grad_tol and newton_iters < 80:
        H = energy.second_variation(state)
        energy_slack = 1e-13 * max(abs(state.Q), 1.0)
        step_floor = None  # taken on the first rejected rung
        accepted = False
        for _ in range(40):
            try:
                # on a degenerate kernel the undamped system is singular;
                # a garbage step is simply rejected and damping increased
                step = _polish_step(state, H, state.G, mu)
            except sla.LinAlgError:
                mu = max(10.0 * mu, 1e-10)
                continue
            trial = np.maximum(state.u + step, 0.0)
            if not (trial > 0).any():
                mu = max(10.0 * mu, 1e-10)
                continue
            trial_state = energy.normalize(ops, trial)
            if (trial_state.grad_norm < state.grad_norm
                    and trial_state.Q <= state.Q + energy_slack):
                accepted = True
                break
            # along a quartic kernel a Newton step lowers the energy while
            # the gradient norm rises; the incremental deficit sees it
            if energy.energy_deficit(state, trial - state.u) < -energy_slack:
                accepted = True
                break
            if step_floor is None:
                step_floor = POLISH_STEP_FLOOR * ops.w12_norm(state.u)
            if ops.w12_norm(step) <= step_floor:
                break
            mu = max(10.0 * mu, 1e-10)
        if not accepted:
            break
        state = trial_state
        iterations += 1
        newton_iters += 1
        mu *= 0.01

    return MinimizeReport(
        v=state,
        Y_est=state.Q,
        grad_norm=state.grad_norm,
        iterations=iterations,
        converged=bool(state.grad_norm <= opts.grad_tol),
    )


def random_starts(ops: DiscreteOperators, starts: int, seed: int) -> list[np.ndarray]:
    """Constant start plus seeded smooth perturbations of it.

    Perturbations put Gaussian coefficients on the five lowest analytic
    modes of disc.low_modes (cosines with zero end slopes on intervals, so
    pole ends suit them too), are scaled to 10 percent of the constant and
    clipped nonnegative.
    """
    out = [np.ones(ops.N)]
    if starts > 1:
        rng = np.random.default_rng(seed)
        modes = low_modes(ops.grid, 5)
        for _ in range(starts - 1):
            combo = modes @ rng.standard_normal(modes.shape[1])
            peak = np.max(np.abs(combo))
            if peak > 0:
                combo = combo / peak
            out.append(np.clip(1.0 + 0.1 * combo, 0.0, None))
    return out


def run_multistart(m: SymmetricModel, N: int, starts: int,
                   opts: MinimizeOptions) -> list[MinimizeReport]:
    """One report per start, converged or not, in start order; each start is
    solved by nested iteration where the coarse grid allows (module
    docstring)."""
    if starts < 1:
        raise ValueError("starts must be at least 1")
    ops = assemble_operators(m, build_grid(m, N))
    n_coarse = 2 * math.ceil(N / 8)
    coarse = (assemble_operators(m, build_grid(m, n_coarse))
              if n_coarse >= MIN_NODES else None)
    coarse_starts = random_starts(coarse, starts, opts.seed) if coarse is not None else []
    reports = []
    for j, u0 in enumerate(random_starts(ops, starts, opts.seed)):
        rep = _nested(coarse, coarse_starts[j], ops, opts) if coarse is not None else None
        if rep is None:
            rep = minimize_energy(ops, u0, opts)
        reports.append(dataclasses.replace(rep, start_index=j))
    return reports


def _nested(coarse: DiscreteOperators, u0: np.ndarray, ops: DiscreteOperators,
            opts: MinimizeOptions) -> MinimizeReport | None:
    """minimize_energy from u0 on the coarse operators, finished on ops from
    the interpolated coarse minimizer; None unless the coarse run converges
    in at least one iteration and the finish converges."""
    rough = minimize_energy(coarse, u0, opts)
    if not (rough.converged and rough.iterations):
        return None
    u = np.clip(interpolate(coarse.grid, ops.grid, rough.v.u), 0.0, None)
    rep = minimize_energy(ops, u, opts)
    return dataclasses.replace(rep, coarse_iterations=rough.iterations) if rep.converged else None


def best_converged(reports: list[MinimizeReport], m: SymmetricModel,
                   N: int) -> MinimizeReport:
    """The lowest converged report of a multi-start run, up to round-off.

    Converged reports whose Y_est lies within the quotient's rounding floor
    (disc.rounding_floor of the energy form A at the lowest one's state) of
    the lowest one are tied, and the lowest start index among them wins: at
    a degenerate minimizer starts a few 1e-4 apart along the kernel differ in
    Y_est by round-off alone.  The reduction over starts is order-independent.
    """
    converged = [r for r in reports if r.converged]
    if not converged:
        raise ConvergenceError(f"no start converged on {m.label} at N={N}")
    lowest = min(converged, key=lambda r: (r.Y_est, r.start_index))
    ops = lowest.v.ops
    floor = rounding_floor(ops.form(ops.curv_weights, ops.bdry_weights), lowest.v.u)
    tied = [r for r in converged if r.Y_est <= lowest.Y_est + floor]
    return min(tied, key=lambda r: (r.start_index, r.Y_est))


def estimate_yamabe_constant(m: SymmetricModel, N: int, starts: int = 1,
                             opts: MinimizeOptions = MinimizeOptions()) -> MinimizeReport:
    """Multi-start minimization; returns best_converged of the run."""
    return best_converged(run_multistart(m, N, starts, opts), m, N)


def hemisphere_comparison_value(n: int) -> float:
    """Energy of the round half-sphere in this quotient normalization.

    The hypothesis of the stability theory asks the model's constant to lie
    strictly below this level; it is reported for reference only.
    """
    return dim_constant(n) * n * (n - 1) * (sphere_area(n) / 2.0) ** (2.0 / n)
