"""Constrained minimization of the quotient over the unit-volume manifold.

Projected gradient descent with a Sobolev (S+M) Riesz preconditioner and
Armijo backtracking, polished by a damped Newton method on the tangent
space.  Each polish step is one bordered (KKT) solve of
[[H0 + mu W, p], [p', 0]] with H0 the unprojected second variation
(energy.second_variation), W = S + M and p the volume covector: the Levenberg
step restricted to p.d = 0, obtained without building a tangent basis, and
the same step the projected Hessian gives, because the multiplier absorbs the
projection's p term.  A rejected step is retried with ten times the damping
until it shrinks to round-off (POLISH_STEP_FLOOR), where the polish stops.
Below the gradient tolerance the polish continues only while each step halves
the gradient norm, and each such step gets one try at the current damping: a
rejected, singular or vanishing step ends the polish.  Convergence is
declared on the preconditioned gradient norm alone: degenerate minimizers
move arbitrarily slowly along their kernel, so state movement is not a usable
criterion.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .disc import DiscreteOperators, assemble_operators, bordered_solve, build_grid
from .model import SymmetricModel, dim_constant, sphere_area
from . import energy


class ConvergenceError(RuntimeError):
    """No minimization run reached the requested gradient tolerance."""


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-11
    seed: int = 0

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True, eq=False)
class MinimizeReport:
    v: energy.NormalizedState
    Y_est: float
    grad_norm: float
    residual: energy.ELResidual
    iterations: int
    converged: bool
    start_index: int = 0
    q_history: tuple = field(default=())


MAX_ITERS = 500  # descent steps
ARMIJO_C1 = 1e-4
NEWTON_SWITCH = 1e-2
MAX_BACKTRACK = 60
# A rejected polish step whose Sobolev norm is at most this times |u|_W is
# round-off: more damping only shrinks it, so the damping ladder stops there.
POLISH_STEP_FLOOR = np.finfo(float).eps


def _polish_step(state: energy.NormalizedState, H: np.ndarray, G: np.ndarray,
                 mu: float) -> np.ndarray:
    """Levenberg step min 1/2 d'(H + mu W)d + G.d over the tangent space p.d = 0,
    with H the unprojected second variation at state (energy.second_variation).
    """
    p = energy.volume_covector(state)
    if mu > 0.0:
        H = H + mu * state.ops.w12_gram
    return bordered_solve(H, p[:, None], -G)


def minimize_energy(ops: DiscreteOperators, u0: np.ndarray,
                    opts: MinimizeOptions = MinimizeOptions()) -> MinimizeReport:
    """Minimize the quotient starting from a nonnegative nonzero function."""
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 < 0) or not np.any(u0 > 0):
        raise ValueError("starting point must be nonnegative and nonzero")

    state = energy.normalize(ops, u0)
    q_val = energy.yamabe_quotient(ops, state.u).Q
    history = [q_val]
    iterations = 0

    G = energy.gradient(state)
    riesz = ops.riesz(G)
    grad_norm = ops.dual_norm(G, riesz)
    switch_tol = max(opts.grad_tol, NEWTON_SWITCH)

    # --- preconditioned descent phase
    while grad_norm > switch_tol and iterations < MAX_ITERS:
        eta = -energy.project_tangent(state, riesz)
        slope = float(G @ eta)
        if slope >= 0:
            break
        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACK):
            trial = np.clip(state.u + alpha * eta, 0.0, None)
            if not np.any(trial > 0):
                alpha *= 0.5
                continue
            trial_state = energy.normalize(ops, trial)
            trial_q = energy.yamabe_quotient(ops, trial_state.u).Q
            if trial_q <= q_val + ARMIJO_C1 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        state, q_val = trial_state, trial_q
        history.append(q_val)
        iterations += 1
        G = energy.gradient(state)
        riesz = ops.riesz(G)
        grad_norm = ops.dual_norm(G, riesz)

    # --- damped Newton polish on the tangent space
    # Near a degenerate minimizer the energy decrease per step falls under the
    # evaluation noise long before the gradient does, so steps are accepted on
    # gradient-norm decrease with a round-off allowance on the energy.
    if grad_norm > opts.grad_tol:
        mu = 0.0
        newton_iters = 0
        bonus = True  # keep polishing below tolerance while progress is rapid
        while (grad_norm > opts.grad_tol or bonus) and newton_iters < 80:
            H = energy.second_variation(state)
            step_floor = POLISH_STEP_FLOOR * ops.w12_norm(state.u)
            # below tolerance a step is a bonus: one try, no damping ladder
            tries = 1 if grad_norm <= opts.grad_tol else 40
            accepted = False
            for _ in range(tries):
                try:
                    # on a degenerate kernel the undamped system is singular;
                    # a garbage step is simply rejected and damping increased
                    step = _polish_step(state, H, G, mu)
                except sla.LinAlgError:
                    mu = max(10.0 * mu, 1e-10)
                    continue
                trial = np.clip(state.u + step, 0.0, None)
                if not np.any(trial > 0):
                    mu = max(10.0 * mu, 1e-10)
                    continue
                trial_state = energy.normalize(ops, trial)
                trial_q = energy.yamabe_quotient(ops, trial_state.u).Q
                trial_G = energy.gradient(trial_state)
                trial_norm = ops.dual_norm(trial_G)
                if trial_norm < grad_norm and trial_q <= q_val + 1e-13 * max(abs(q_val), 1.0):
                    accepted = True
                    break
                if ops.w12_norm(step) <= step_floor:
                    break
                mu = max(10.0 * mu, 1e-10)
            if not accepted:
                break
            if grad_norm <= opts.grad_tol and trial_norm > 0.5 * grad_norm:
                bonus = False
            state, q_val = trial_state, trial_q
            history.append(q_val)
            iterations += 1
            newton_iters += 1
            mu *= 0.01
            grad_norm, G = trial_norm, trial_G

    return MinimizeReport(
        v=state,
        Y_est=q_val,
        grad_norm=grad_norm,
        residual=energy.el_residual(state),
        iterations=iterations,
        converged=bool(grad_norm <= opts.grad_tol),
        q_history=tuple(history),
    )


def laplace_modes(ops: DiscreteOperators, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k nonconstant modes of the weighted Laplace operator.

    Solved through the pencil M w = theta (S+M) w, whose right-hand matrix is
    positive definite even when the density vanishes at a pole, with
    eigenvalue conversion lambda = (1-theta)/theta.
    """
    m = ops.vol_weights
    theta, vecs = sla.eigh(np.diag(m), ops.w12_gram)
    order = np.argsort(-theta)  # descending: constant first, then low modes
    lam = []
    modes = []
    for idx in order[1: k + 1]:
        th = theta[idx]
        lam.append((1.0 - th) / th)
        w = vecs[:, idx]
        mnorm = math.sqrt(float((w * m) @ w))
        modes.append(w / mnorm if mnorm > 0 else w)
    return np.array(lam), np.column_stack(modes)


def random_starts(ops: DiscreteOperators, starts: int, seed: int) -> list[np.ndarray]:
    """Constant start plus seeded smooth perturbations of it.

    Perturbations put Gaussian coefficients on the five lowest Laplace modes,
    are scaled to 10 percent of the constant and clipped nonnegative.
    """
    out = [np.ones(ops.N)]
    if starts > 1:
        rng = np.random.default_rng(seed)
        _, modes = laplace_modes(ops, min(5, ops.N - 2))
        for _ in range(starts - 1):
            combo = modes @ rng.standard_normal(modes.shape[1])
            peak = np.max(np.abs(combo))
            if peak > 0:
                combo = combo / peak
            out.append(np.clip(1.0 + 0.1 * combo, 0.0, None))
    return out


def run_multistart(m: SymmetricModel, N: int, starts: int,
                   opts: MinimizeOptions) -> list[MinimizeReport]:
    """One report per start, converged or not, in start order."""
    if starts < 1:
        raise ValueError("starts must be at least 1")
    grid = build_grid(m, N)
    ops = assemble_operators(m, grid)
    reports = []
    for j, u0 in enumerate(random_starts(ops, starts, opts.seed)):
        reports.append(dataclasses.replace(minimize_energy(ops, u0, opts), start_index=j))
    return reports


def best_converged(reports: list[MinimizeReport], m: SymmetricModel,
                   N: int) -> MinimizeReport:
    """The lowest converged report of a multi-start run.

    Ties are broken by lower gradient norm, then lower start index, so the
    reduction over starts is order-independent.
    """
    converged = [r for r in reports if r.converged]
    if not converged:
        raise ConvergenceError(f"no start converged on {m.label} at N={N}")
    return min(converged, key=lambda r: (r.Y_est, r.grad_norm, r.start_index))


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
