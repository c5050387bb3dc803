"""Catalog of cohomogeneity-one model manifolds with boundary.

Every manifold handled here is reduced to a weighted profile problem on a
single coordinate t in [0, T]: integrals over the manifold become weighted
1D integrals against the full volume density a(t), and boundary integrals
become endpoint evaluations against a boundary measure b.  Functions are
restricted to the symmetric class (profiles of t only).

A model carries four profiles:

    density           a(t)   with  vol = integral of a dt
    grad_density      s(t)   with  Dirichlet energy = integral of |u'|^2 s dt
    lap_scale         s/a    (finite everywhere, including poles)
    lap_drift         s'/s   (singular at poles; never evaluated there)

plus a scalar curvature profile and per-endpoint data.  For the catalog
models the coordinate is arc length, so s = a.  Conformal deformation by a
positive factor w produces a model whose coordinate is no longer arc length
(s and a transform with different powers of w), which is why the profiles
are kept separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

TWO_PI = 2.0 * math.pi

Profile = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, float]


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere, 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    half = (k + 1) / 2.0
    return math.exp(math.log(2.0) + half * math.log(math.pi) - math.lgamma(half))


def dim_constant(n: int) -> float:
    """Conformal coupling constant (n-2)/(4(n-1))."""
    return (n - 2) / (4.0 * (n - 1))


def critical_exponent(n: int) -> float:
    """Critical Sobolev exponent 2n/(n-2)."""
    return 2.0 * n / (n - 2)


@dataclass(frozen=True)
class Pole:
    """Smooth axis point where the density vanishes like t^order."""

    order: int


@dataclass(frozen=True)
class BoundaryData:
    """Genuine boundary component: mean curvature h and boundary measure b."""

    h: float
    b: float


Endpoint = Union[Pole, BoundaryData, None]


@dataclass(frozen=True, eq=False)
class SymmetricModel:
    n: int
    topology: str  # "interval" | "circle"
    length: float
    density: Profile
    grad_density: Profile
    lap_scale: Profile
    lap_drift: Profile
    scalar_curvature: Profile
    left: Endpoint
    right: Endpoint
    label: str
    grid: object | None = None  # set when profiles are nodal vectors

    def __post_init__(self):
        if not float(self.n).is_integer():
            raise ValueError(f"dimension must be a whole number, got {self.n}")
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"length must be finite and positive, got {self.length}")
        if self.topology not in ("interval", "circle"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "circle" and (self.left is not None or self.right is not None):
            raise ValueError("circle topology has no endpoints")

    @property
    def two_star(self) -> float:
        return critical_exponent(self.n)

    @property
    def c_n(self) -> float:
        return dim_constant(self.n)

    def endpoints(self):
        """Yield (side, endpoint) for the interval ends that exist."""
        if self.topology == "circle":
            return
        yield "left", self.left
        yield "right", self.right

    def boundary_endpoints(self):
        for side, ep in self.endpoints():
            if isinstance(ep, BoundaryData):
                yield side, ep

    def pole_endpoints(self):
        for side, ep in self.endpoints():
            if isinstance(ep, Pole):
                yield side, ep


def eval_profile(profile: Profile, nodes: np.ndarray, grid=None, bound_grid=None) -> np.ndarray:
    """Evaluate a profile at grid nodes.

    Nodal profiles are only valid on the grid they were built for; a model
    bound to a grid refuses evaluation anywhere else.
    """
    if callable(profile):
        return np.asarray(profile(nodes), dtype=float) * np.ones_like(nodes)
    if isinstance(profile, np.ndarray):
        if bound_grid is not None and grid is not None and bound_grid is not grid:
            raise ValueError("nodal profile evaluated on a different grid")
        if profile.shape != nodes.shape:
            raise ValueError("nodal profile does not match the grid size")
        return profile.astype(float)
    return float(profile) * np.ones_like(nodes)


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def hemisphere(n: int) -> SymmetricModel:
    """Round unit hemisphere: pole at t=0, totally geodesic equator at t=pi/2."""
    area = sphere_area(n - 1)
    return SymmetricModel(
        n=n,
        topology="interval",
        length=math.pi / 2.0,
        density=lambda t: area * np.sin(t) ** (n - 1),
        grad_density=lambda t: area * np.sin(t) ** (n - 1),
        lap_scale=1.0,
        lap_drift=lambda t: (n - 1) / np.tan(t),
        scalar_curvature=float(n * (n - 1)),
        left=Pole(order=n - 1),
        right=BoundaryData(h=0.0, b=area),
        label=f"hemisphere(n={n})",
    )


def ball(n: int) -> SymmetricModel:
    """Flat unit ball: radial coordinate, boundary sphere of mean curvature 1."""
    area = sphere_area(n - 1)
    return SymmetricModel(
        n=n,
        topology="interval",
        length=1.0,
        density=lambda t: area * t ** (n - 1),
        grad_density=lambda t: area * t ** (n - 1),
        lap_scale=1.0,
        lap_drift=lambda t: (n - 1) / t,
        scalar_curvature=0.0,
        left=Pole(order=n - 1),
        right=BoundaryData(h=1.0, b=area),
        label=f"ball(n={n})",
    )


def spherical_cap(n: int, t0: float) -> SymmetricModel:
    """Geodesic cap of opening angle t0 on the round sphere, h = cot(t0)."""
    if not 0.0 < t0 <= math.pi / 2.0 + 1e-15:
        raise ValueError(f"cap opening angle must lie in (0, pi/2], got {t0}")
    area = sphere_area(n - 1)
    return SymmetricModel(
        n=n,
        topology="interval",
        length=float(t0),
        density=lambda t: area * np.sin(t) ** (n - 1),
        grad_density=lambda t: area * np.sin(t) ** (n - 1),
        lap_scale=1.0,
        lap_drift=lambda t: (n - 1) / np.tan(t),
        scalar_curvature=float(n * (n - 1)),
        left=Pole(order=n - 1),
        right=BoundaryData(h=1.0 / math.tan(t0), b=area * math.sin(t0) ** (n - 1)),
        label=f"spherical_cap(n={n}, t0={t0})",
    )


def frank_product(d: int, r: float) -> SymmetricModel:
    """Circle of radius r times a unit half-sphere of dimension d-1.

    Restricted to the circle-invariant class the problem lives on the circle
    alone: the equatorial boundary is totally geodesic (h = 0) and invariant
    functions have vanishing normal derivative there, so no endpoint data
    survives the reduction.
    """
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")
    if r <= 0:
        raise ValueError(f"circle radius must be positive, got {r}")
    half_area = sphere_area(d - 1) / 2.0
    return SymmetricModel(
        n=d,
        topology="circle",
        length=TWO_PI * r,
        density=half_area,
        grad_density=half_area,
        lap_scale=1.0,
        lap_drift=0.0,
        scalar_curvature=float((d - 1) * (d - 2)),
        left=None,
        right=None,
        label=f"frank_product(d={d}, r={r})",
    )


def cylinder(n: int, length: float) -> SymmetricModel:
    """Product [0, L] x unit sphere: two totally geodesic boundary spheres."""
    if length <= 0:
        raise ValueError(f"cylinder length must be positive, got {length}")
    area = sphere_area(n - 1)
    return SymmetricModel(
        n=n,
        topology="interval",
        length=float(length),
        density=area,
        grad_density=area,
        lap_scale=1.0,
        lap_drift=0.0,
        scalar_curvature=float((n - 1) * (n - 2)),
        left=BoundaryData(h=0.0, b=area),
        right=BoundaryData(h=0.0, b=area),
        label=f"cylinder(n={n}, L={length})",
    )


MODEL_KINDS = {
    "hemisphere": hemisphere,
    "ball": ball,
    "spherical_cap": spherical_cap,
    "frank_product": frank_product,
    "cylinder": cylinder,
}


def make_model(kind: str, **params) -> SymmetricModel:
    """Build a catalog model by kind name; see MODEL_KINDS for parameters."""
    try:
        builder = MODEL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    return builder(**params)


# ---------------------------------------------------------------------------
# conformal deformation
# ---------------------------------------------------------------------------

def conformal_deform(m: SymmetricModel, w: np.ndarray, grid) -> SymmetricModel:
    """Deform the metric by the factor w^(4/(n-2)), profile-wise on a grid.

    The factor must be positive nodally and, at pole endpoints, have vanishing
    derivative (a smooth symmetric-class function).  Profiles transform as

        a   -> a w^(2*)          (volume)
        s   -> s w^2             (Dirichlet)
        R   -> w^(1-2*) ( -(4(n-1)/(n-2)) Lap w + R w )
        b   -> b w^(2(n-1)/(n-2))
        h   -> (2/(n-2)) w^(-n/(n-2)) ( dw/dnu + ((n-2)/2) h w )

    evaluated nodally; the result is bound to the grid it was built on.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != grid.nodes.shape:
        raise ValueError("conformal factor does not match the grid")
    if np.any(w <= 0):
        raise ValueError("conformal factor must be positive at every node")
    if m.grid is not None and m.grid is not grid:
        raise ValueError("model is bound to a different grid")

    n = m.n
    ts = m.two_star
    nodes = grid.nodes
    D = grid.diff_matrix

    a = eval_profile(m.density, nodes, grid, m.grid)
    s = eval_profile(m.grad_density, nodes, grid, m.grid)
    sigma = eval_profile(m.lap_scale, nodes, grid, m.grid)
    curv = eval_profile(m.scalar_curvature, nodes, grid, m.grid)

    dw = D @ w
    lap_w = laplace_profile(m, grid, w)
    kappa = 4.0 * (n - 1) / (n - 2)
    new_curv = w ** (1.0 - ts) * (-kappa * lap_w + curv * w)

    # s'/s picks up 2 w'/w; the singular pole part is inherited from the base.
    new_drift = _nodal_drift(m, grid) + 2.0 * dw / w

    def deform_endpoint(ep: Endpoint, side: str) -> Endpoint:
        if ep is None or isinstance(ep, Pole):
            return ep
        idx = 0 if side == "left" else -1
        sign = -1.0 if side == "left" else 1.0
        normal_scale = math.sqrt(float(sigma[idx]))
        dnu_w = normal_scale * sign * dw[idx]
        we = float(w[idx])
        h_new = (2.0 / (n - 2)) * we ** (-n / (n - 2)) * (dnu_w + 0.5 * (n - 2) * ep.h * we)
        b_new = ep.b * we ** (2.0 * (n - 1) / (n - 2))
        return BoundaryData(h=float(h_new), b=float(b_new))

    return SymmetricModel(
        n=n,
        topology=m.topology,
        length=m.length,
        density=a * w ** ts,
        grad_density=s * w ** 2,
        lap_scale=sigma * w ** (2.0 - ts),
        lap_drift=new_drift,
        scalar_curvature=new_curv,
        left=deform_endpoint(m.left, "left"),
        right=deform_endpoint(m.right, "right"),
        label=m.label + "|conformal",
        grid=grid,
    )


def _nodal_drift(m: SymmetricModel, grid) -> np.ndarray:
    """s'/s at the grid nodes, NaN at pole nodes, where it is singular and a
    callable drift is never evaluated."""
    mask = np.ones_like(grid.nodes, dtype=bool)
    if m.topology == "interval":
        mask[0] = not isinstance(m.left, Pole)
        mask[-1] = not isinstance(m.right, Pole)
    out = np.full_like(grid.nodes, np.nan)
    if callable(m.lap_drift):
        out[mask] = m.lap_drift(grid.nodes[mask])
    else:
        out[mask] = eval_profile(m.lap_drift, grid.nodes, grid, m.grid)[mask]
    return out


def laplace_profile(m: SymmetricModel, grid, u: np.ndarray) -> np.ndarray:
    """Strong-form profile Laplacian (1/a)(s u')' = sigma (u'' + (s'/s) u').

    At a pole of order k the drift coefficient is singular, but for smooth
    symmetric-class u the limit is (1+k) sigma u''; that limit is used at
    pole nodes.
    """
    D = grid.diff_matrix
    nodes = grid.nodes
    du = D @ u
    d2u = D @ du
    sigma = eval_profile(m.lap_scale, nodes, grid, m.grid)

    out = sigma * (d2u + _nodal_drift(m, grid) * du)
    if m.topology == "interval":
        if isinstance(m.left, Pole):
            out[0] = (1 + m.left.order) * sigma[0] * d2u[0]
        if isinstance(m.right, Pole):
            out[-1] = (1 + m.right.order) * sigma[-1] * d2u[-1]
    return out
