"""The constrained Yamabe quotient: value, variations, deficit, residuals.

Everything is phrased through the zero-homogeneous quotient

    Q(u) = ( u'Su + u'Cu + u'Bu ) / ||u||_{2*}^2 ,

whose restriction to the unit-volume manifold (||u||_{2*} = 1, u >= 0) is the
energy under study.  Zero-homogeneity is used systematically: the normalized
chart through a state v sends xi to (v+xi)/||v+xi||_{2*}, so the chart pullback
of Q is simply xi -> Q(v+xi), and raw nodal derivatives of Q double as chart
derivatives.

The second variation at a normalized state is second_variation, the
unprojected form: on every tangent direction it agrees with the projected
form P'H0P up to a multiple of the constraint normal, which the Newton polish
and the eigensolves absorb, so neither builds the projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disc import DiscreteOperators, lp_norm
from .model import laplace_profile


@dataclass(frozen=True, eq=False)
class NormalizedState:
    """Nonnegative nodal function with unit critical-exponent norm."""

    u: np.ndarray
    ops: DiscreteOperators

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if np.any(u < -1e-12):
            raise ValueError("normalized state must be nonnegative")
        object.__setattr__(self, "u", np.clip(u, 0.0, None))
        nrm = lp_norm(self.ops, self.u, self.ops.two_star)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state is not volume-normalized: ||u|| = {nrm!r}")


@dataclass(frozen=True)
class EnergyReport:
    Q: float
    dirichlet: float
    curvature_term: float
    boundary_term: float
    volume_norm: float


@dataclass(frozen=True)
class ELResidual:
    interior: float
    boundary: float


def yamabe_quotient(ops: DiscreteOperators, u: np.ndarray) -> EnergyReport:
    """Energy quotient of a nonnegative, not identically zero nodal function."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("the energy is only defined for nonnegative functions")
    nrm = lp_norm(ops, u, ops.two_star)
    if nrm == 0.0:
        raise ValueError("the energy is undefined for the zero function")
    # the curvature and boundary forms are diagonal: (u @ diag c) @ u is
    # exactly (u * c) @ u, an O(N) dot in place of an N x N matvec
    dir_term = float(u @ ops.stiffness @ u)
    curv_term = float((u * ops.curv_weights) @ u)
    bdry_term = float((u * ops.bdry_weights) @ u)
    return EnergyReport(
        Q=(dir_term + curv_term + bdry_term) / nrm**2,
        dirichlet=dir_term,
        curvature_term=curv_term,
        boundary_term=bdry_term,
        volume_norm=nrm,
    )


def normalize(ops: DiscreteOperators, u: np.ndarray) -> NormalizedState:
    """Scale a nonnegative function onto the unit-volume constraint manifold."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("cannot normalize a function with negative values")
    nrm = lp_norm(ops, u, ops.two_star)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero function")
    return NormalizedState(u=u / nrm, ops=ops)


def volume_covector(v: NormalizedState) -> np.ndarray:
    """p with p.u = integral of v^(2*-1) u dvol; the constraint normal at v."""
    return v.ops.vol_weights * v.u ** (v.ops.two_star - 1.0)


def project_tangent(v: NormalizedState, u: np.ndarray) -> np.ndarray:
    """Project onto the tangent space of the constraint manifold at v."""
    p = volume_covector(v)
    return u - float(p @ u) * v.u


def gradient(v: NormalizedState) -> np.ndarray:
    """First-variation covector G at v: G.eta is the derivative along eta.

    G = 2 (A v - Q(v) p) with A the full energy form and p the constraint
    normal; G annihilates the radial direction, so it agrees with the
    manifold-projected first variation on every direction.
    """
    ops = v.ops
    rep = yamabe_quotient(ops, v.u)
    return 2.0 * (ops.total_form @ v.u - rep.Q * volume_covector(v))


def second_variation(v: NormalizedState) -> np.ndarray:
    """Unprojected second-variation form at v, O(N^2) to build.

    H0 = 2 ( A - (2*-1) Q(v) diag(m v^(2*-2)) ).

    The projected form P'H0P, P = I - v p', annihilates the radial direction.
    On tangent directions (p.d = 0, so P d = d) the two differ only by a
    multiple of the constraint normal: P'H0P d = H0 d - p (v'H0 d).  A solve
    bordered by p absorbs that term in its multiplier and an eigensolve on the
    tangent space never sees it, so the Newton polish and the eigensolves use
    H0 and skip the projection's two N^3 products.

    Built as 2A with its diagonal replaced, each entry rounded as the formula
    reads: one N x N pass, and exactly symmetric because total_form is.
    """
    ops = v.ops
    rep = yamabe_quotient(ops, v.u)
    ts = ops.two_star
    diag = ops.vol_weights * v.u ** (ts - 2.0)
    A = ops.total_form
    H = 2.0 * A
    H.flat[:: ops.N + 1] = 2.0 * (np.diagonal(A) - (ts - 1.0) * rep.Q * diag)
    return H


# ---------------------------------------------------------------------------
# raw Hessian of the homogeneous quotient (used by the correction solver)
# ---------------------------------------------------------------------------

def raw_hessian(ops: DiscreteOperators, w: np.ndarray) -> np.ndarray:
    """Dense nodal Hessian of the homogeneous quotient at a positive w.

        H = a (A - s diag(m w^(2*-2))) - b (Aw p' + p Aw') + c p p'

    with p = m w^(2*-1), P = sum m w^2*, E = w'Aw, a = 2 P^(-2/2*),
    s = (2*-1) E/P, b = 2a/P and c = (2+2*) (E/P) (a/P).  Every term is
    exactly symmetric (total_form is, and Aw_i p_j + p_i Aw_j is a sum of
    commuting products), so H is too.  Built in place through one N x N
    scratch buffer, with each entry rounded as the formula reads.
    """
    ts = ops.two_star
    m = ops.vol_weights
    A = ops.total_form
    Aw = A @ w
    P = float(np.sum(m * w**ts))
    E = float(w @ Aw)
    p = m * w ** (ts - 1.0)
    scale = P ** (-2.0 / ts)
    a = 2.0 * scale
    dvec = m * w ** (ts - 2.0)
    H = np.multiply.outer(Aw, p)
    buf = np.multiply.outer(p, Aw)
    H += buf
    H *= -(4.0 * scale / P)          # -(b (Aw p' + p Aw')); negation is exact
    np.multiply(A, a, out=buf)
    buf.flat[:: ops.N + 1] = a * (np.diagonal(A) - (ts - 1.0) * (E / P) * dvec)
    H += buf
    np.multiply.outer(p, p, out=buf)
    buf *= (4.0 + 2.0 * ts) * (E / P) * (scale / P)
    H += buf
    return H


def power_increment(v: np.ndarray, xi: np.ndarray, p: float) -> np.ndarray:
    """Nodal (v + xi)^p - v^p around a nonnegative base function v.

    Where v is not negligible the increment goes through expm1/log1p, so
    its round-off scales with |xi| instead of |v|; at the remaining nodes it
    is the plain difference.
    """
    w = v + xi
    big = v > 1e-12 * np.max(v)
    out = np.empty_like(w)
    out[big] = v[big] ** p * np.expm1(p * np.log1p(xi[big] / v[big]))
    out[~big] = w[~big] ** p - v[~big] ** p
    return out


def energy_deficit(v: NormalizedState, xi: np.ndarray) -> float:
    """Q(v + xi) - Q(v), evaluated in incremental form.

    The direct difference of two quotient evaluations loses to round-off once
    it falls below ~1e-12; here the energy increment is expanded exactly
    (the numerator is a quadratic form) and the volume increment goes through
    power_increment, keeping the difference accurate down to ~1e-15 relative
    to the energy scale.
    """
    ops = v.ops
    ts = ops.two_star
    m = ops.vol_weights
    xi = np.asarray(xi, dtype=float)
    if np.any(v.u + xi < 0):
        raise ValueError("perturbed state leaves the nonnegative cone")

    A = ops.total_form
    Av = A @ v.u
    E_v = float(v.u @ Av)
    dE = 2.0 * float(xi @ Av) + float(xi @ (A @ xi))

    P_v = float(np.sum(m * v.u**ts))
    delta = float(np.sum(m * power_increment(v.u, xi, ts)))

    growth = math.expm1((2.0 / ts) * math.log1p(delta / P_v))
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
    rep = yamabe_quotient(ops, v.u)
    lap = laplace_profile(m, ops.grid, v.u)
    res = -lap + ops.c_n * ops.curvature * v.u - rep.Q * v.u ** (ops.two_star - 1.0)
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
