"""The constrained Yamabe quotient: value, variations, deficit, residuals.

Everything is phrased through the zero-homogeneous quotient

    Q(u) = ( u'Su + u'Cu + u'Bu ) / ||u||_{2*}^2 ,

whose restriction to the unit-volume manifold (||u||_{2*} = 1, u >= 0) is the
energy under study.  Zero-homogeneity is used systematically: the normalized
chart through a state v sends xi to (v+xi)/||v+xi||_{2*}, so the chart pullback
of Q is simply xi -> Q(v+xi), and raw nodal derivatives of Q double as chart
derivatives.

The second variation at a normalized state is second_variation, the
unprojected form and the package's one Hessian: on every tangent direction
it agrees with the projected form P'H0P up to a multiple of the constraint
normal, which the Newton polish, the eigensolves and the chart's bordered
factor absorb, so none of them builds the projection.

A NormalizedState evaluates its quotient, constraint normal, gradient,
Riesz vector and gradient norm once each, on first use, and keeps them;
every stage reads them from the state.  The state keeps the volume norm its
constructor checks, and its Q divides by that norm, so a state's quotient
costs no second norm or input check.  yamabe_quotient, normalize and
energy_deficit refuse infs and NaNs.

The quotient, the gradient and the deficit apply the energy form factored
(ops.apply_form with d = c + b, ops.dirichlet): one N x N pass (D u) for the
quotient, two for the gradient, which reads the state's Q, and two (D v,
D xi) for the deficit.  second_variation is a disc.Form, 2S plus an O(N)
diagonal, and no N x N array of its own.
power_increment and energy_deficit take an offset or a block of offset
columns alike; a vector's deficit is a numpy float64 scalar.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .disc import DiscreteOperators, Form, _colwise, lp_norm
from .model import laplace_profile


@dataclass(frozen=True, eq=False)
class NormalizedState:
    """Nonnegative nodal function with unit critical-exponent norm.  u is
    read-only, so Q (the quotient over the norm volume_norm the constructor
    checks), p (the constraint normal: p.u is the integral of v^(2*-1) u
    dvol), G (gradient), riesz (ops.riesz of G)
    and grad_norm (ops.dual_norm of G) are evaluated on first use and kept."""

    u: np.ndarray
    ops: DiscreteOperators
    volume_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if (u < -1e-12).any():
            raise ValueError("normalized state must be nonnegative")
        u = np.maximum(u, 0.0)
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        nrm = lp_norm(self.ops, self.u, self.ops.two_star)
        if not abs(nrm - 1.0) <= 1e-10:  # a NaN norm fails too
            raise ValueError(f"state is not volume-normalized: ||u|| = {nrm}")
        object.__setattr__(self, "volume_norm", nrm)

    @functools.cached_property
    def Q(self) -> float:
        return _quotient(self.ops, self.u, self.volume_norm)

    @functools.cached_property
    def p(self) -> np.ndarray:
        p = self.ops.vol_weights * self.u ** (self.ops.two_star - 1.0)
        p.flags.writeable = False
        return p

    @functools.cached_property
    def G(self) -> np.ndarray:
        return gradient(self)

    @functools.cached_property
    def riesz(self) -> np.ndarray:
        return self.ops.riesz(self.G)

    @functools.cached_property
    def grad_norm(self) -> float:
        return self.ops.dual_norm(self.G, self.riesz)


@dataclass(frozen=True)
class ELResidual:
    interior: float
    boundary: float


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"the {what} must not contain infs or NaNs")
    return x


def _volume_norm(ops: DiscreteOperators, u: np.ndarray) -> tuple[np.ndarray, float]:
    """u as a float array and its critical-exponent norm; refuses a function
    that is not finite, nonnegative and nonzero."""
    u = _finite(u, "nodal function")
    if (u < 0).any():
        raise ValueError("the energy is only defined for nonnegative functions")
    nrm = lp_norm(ops, u, ops.two_star)
    if nrm == 0.0:
        raise ValueError("the energy is undefined for the zero function")
    return u, nrm


def yamabe_quotient(ops: DiscreteOperators, u: np.ndarray) -> float:
    """Energy quotient of a finite, nonnegative, not identically zero nodal
    function."""
    return _quotient(ops, *_volume_norm(ops, u))


def _quotient(ops: DiscreteOperators, u: np.ndarray, nrm: float) -> float:
    """The quotient of a checked u whose critical-exponent norm is nrm."""
    dir_term = ops.dirichlet(u, ops.grid.diff_matrix @ u)
    return (dir_term + float((u * ops.curv_weights) @ u)
            + float((u * ops.bdry_weights) @ u)) / nrm**2


def normalize(ops: DiscreteOperators, u: np.ndarray) -> NormalizedState:
    """Scale a finite, nonnegative, nonzero function onto the unit-volume
    constraint manifold."""
    u, nrm = _volume_norm(ops, u)
    return NormalizedState(u=u / nrm, ops=ops)


def project_tangent(v: NormalizedState, u: np.ndarray) -> np.ndarray:
    """Project u, or each column of an N x S block, onto the tangent space of
    the constraint manifold at v: u - (p.u) v."""
    return u - np.multiply.outer(v.u, v.p @ u)


def gradient(v: NormalizedState) -> np.ndarray:
    """First-variation covector G at v: G.eta is the derivative along eta.

    G = 2 (A v - Q(v) p) with A the full energy form and p the constraint
    normal; G annihilates the radial direction, so it agrees with the
    manifold-projected first variation on every direction.  Q(v) is the
    state's v.Q.
    """
    ops = v.ops
    Av, _ = ops.apply_form(v.u, ops.curv_weights + ops.bdry_weights)
    return 2.0 * (Av - v.Q * v.p)


def second_variation(v: NormalizedState) -> Form:
    """Unprojected second-variation form at v, a disc.Form built in O(N).

    H0 = 2 ( A - (2*-1) Q(v) diag(m v^(2*-2)) ).

    The projected form P'H0P, P = I - v p', annihilates the radial direction.
    On tangent directions (p.d = 0, so P d = d) the two differ only by a
    multiple of the constraint normal: P'H0P d = H0 d - p (v'H0 d).  A solve
    bordered by p absorbs that term in its multiplier and an eigensolve on the
    tangent space never sees it, so the Newton polish and the eigensolves use
    H0 and skip the projection's two N^3 products.

    The Form 2S + diag(h) keeps the stored S, which makes it exactly
    symmetric, and rounds each entry as the dense formula does: 2 S_ij is
    exact, and h = 2 (diag A - (2*-1) Q m v^(2*-2)).
    """
    ops = v.ops
    ts = ops.two_star
    diag = ops.vol_weights * v.u ** (ts - 2.0)
    A = ops.form(ops.curv_weights, ops.bdry_weights)
    return Form(ops.stiffness, 2.0, 2.0 * (A.diag - (ts - 1.0) * v.Q * diag))


def power_increment(v: np.ndarray, xi: np.ndarray, p: float) -> np.ndarray:
    """Nodal (v + xi)^p - v^p around a nonnegative base function v, for an
    offset xi or an N x S block of offset columns.

    Where v is not negligible and v + xi > 0 the increment goes through
    expm1/log1p, so its round-off scales with |xi| instead of |v|; at the
    remaining nodes it is the plain difference, which is exactly -v^p where
    v + xi = 0.
    """
    floor = 1e-12 * np.max(v)
    v = np.broadcast_to(_colwise(v, xi), xi.shape)  # one base for every column
    w = v + xi
    big = (v > floor) & (w > 0)
    out = np.empty_like(w)
    out[big] = v[big] ** p * np.expm1(p * np.log1p(xi[big] / v[big]))
    out[~big] = w[~big] ** p - v[~big] ** p
    return out


def energy_deficit(v: NormalizedState, xi: np.ndarray):
    """Q(v + xi) - Q(v), evaluated in incremental form; the S deficits of an
    N x S block of offset columns.

    The direct difference of two quotient evaluations loses to round-off once
    it falls below ~1e-12; here the energy increment is expanded exactly
    (the numerator is a quadratic form) and the volume increment goes through
    power_increment, keeping the difference accurate down to ~1e-15 relative
    to the energy scale.  The numerator increment is sum w Dxi (2 Dv + Dxi)
    plus its Nyquist and diagonal terms.  A block takes D v once and D xi as
    one product.
    """
    ops = v.ops
    ts = ops.two_star
    m = ops.vol_weights
    xi = _finite(xi, "offset")
    vu = _colwise(v.u, xi)
    if np.any(vu + xi < 0):
        raise ValueError("perturbed state leaves the nonnegative cone")

    D = ops.grid.diff_matrix
    dv, dxi = D @ v.u, D @ xi
    diag = ops.curv_weights + ops.bdry_weights
    E_v = ops.dirichlet(v.u, dv) + float((v.u * diag) @ v.u)
    two_v_xi = 2.0 * vu + xi
    dE = (ops.dirichlet(xi, dxi, two_v_xi, 2.0 * _colwise(dv, xi) + dxi)
          + np.einsum("i,i...,i...->...", diag, xi, two_v_xi))

    P_v = float(np.sum(m * v.u**ts))
    delta = np.sum(_colwise(m, xi) * power_increment(v.u, xi, ts), axis=0)
    growth = np.expm1((2.0 / ts) * np.log1p(delta / P_v))
    denom = P_v ** (2.0 / ts) * (1.0 + growth)
    return (dE - E_v * growth) / denom


# ---------------------------------------------------------------------------
# strong-form residual
# ---------------------------------------------------------------------------

def el_residual(v: NormalizedState) -> ELResidual:
    """Strong-form Euler-Lagrange residual of the critical-point equation.

    interior: weighted L2 norm over interior nodes of
              -Lap v + c_n R v - Q(v) v^(2*-1)
    boundary: |dv/dnu + ((n-2)/2) h v| summed over boundary endpoints
    """
    ops = v.ops
    m = ops.model
    lap = laplace_profile(m, ops.grid, v.u)
    res = -lap + ops.c_n * ops.curvature * v.u - v.Q * v.u ** (ops.two_star - 1.0)
    if m.topology == "interval":
        sl = slice(1, -1)
    else:
        sl = slice(None)
    interior = math.sqrt(float(np.sum(res[sl] ** 2 * ops.vol_weights[sl])))

    boundary = 0.0
    for side, ep in m.boundary_endpoints():
        idx = 0 if side == "left" else ops.N - 1
        dnu = float(ops.normal_derivs[side] @ v.u)
        boundary += abs(dnu + 0.5 * (m.n - 2) * ep.h * v.u[idx])
    return ELResidual(interior=interior, boundary=boundary)
