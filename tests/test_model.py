import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from yamstab import disc, model


def test_sphere_areas():
    assert model.sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert model.sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert model.sphere_area(3) == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert model.sphere_area(4) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)


def test_hemisphere_profile():
    m = model.make_model("hemisphere", n=3)
    t = np.linspace(0.1, math.pi / 2, 7)
    assert np.allclose(model.eval_profile(m.scalar_curvature, t), 6.0)
    assert isinstance(m.right, model.BoundaryData)
    assert m.right.h == 0.0
    assert m.right.b == pytest.approx(4 * math.pi, rel=1e-14)
    assert isinstance(m.left, model.Pole) and m.left.order == 2


def test_hemisphere_volume_quadrature_oracle():
    # oracle: adaptive quadrature of the density profile
    m = model.hemisphere(3)
    vol_oracle, err = quad(lambda t: 4 * math.pi * math.sin(t) ** 2, 0, math.pi / 2)
    assert err < 1e-12
    assert vol_oracle == pytest.approx(math.pi**2, rel=1e-12)
    g = disc.build_grid(m, 64)
    ops = disc.assemble_operators(m, g)
    assert ops.volume == pytest.approx(vol_oracle, rel=1e-13)


def test_frank_product_profile():
    r = 1.0 / math.sqrt(3.0)
    m = model.make_model("frank_product", d=5, r=r)
    assert m.n == 5
    assert m.topology == "circle"
    assert m.length == pytest.approx(2 * math.pi / math.sqrt(3.0), rel=1e-14)
    # d=5 gives (d-1)(d-2) = 12
    assert float(model.eval_profile(m.scalar_curvature, np.array([0.3]))[0]) == 12.0
    assert m.left is None and m.right is None


def test_ball_and_cap_boundary_data():
    b = model.ball(4)
    assert isinstance(b.right, model.BoundaryData)
    assert b.right.h == 1.0
    cap = model.spherical_cap(3, 0.7)
    assert cap.right.h == pytest.approx(1 / math.tan(0.7), rel=1e-14)
    assert cap.right.b == pytest.approx(4 * math.pi * math.sin(0.7) ** 2, rel=1e-14)
    # full hemisphere as the limiting cap
    cap2 = model.spherical_cap(3, math.pi / 2)
    assert cap2.right.h == pytest.approx(0.0, abs=1e-15)


def test_cylinder_profile():
    m = model.cylinder(4, 2.5)
    assert float(model.eval_profile(m.scalar_curvature, np.array([1.0]))[0]) == 6.0
    assert m.left.h == 0.0 and m.right.h == 0.0


@pytest.mark.parametrize("kind,params", [
    ("hemisphere", {"n": 2}),
    ("ball", {"n": 1}),
    ("spherical_cap", {"n": 3, "t0": 2.0}),
    ("spherical_cap", {"n": 3, "t0": 0.0}),
    ("frank_product", {"d": 2, "r": 1.0}),
    ("frank_product", {"d": 5, "r": -1.0}),
    ("cylinder", {"n": 3, "length": 0.0}),
    ("cylinder", {"n": 3.5, "length": 1.0}),
    ("frank_product", {"d": 5.5, "r": 1.0}),
    # nan <= 0 is False, and an infinite radius gives an infinite circle
    ("cylinder", {"n": 3, "length": math.nan}),
    ("frank_product", {"d": 5, "r": math.inf}),
])
def test_make_model_rejects_bad_params(kind, params):
    with pytest.raises(ValueError):
        model.make_model(kind, **params)


def test_make_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        model.make_model("torus")


def test_conformal_identity_factor(hemisphere3):
    m, g, ops = hemisphere3
    md = model.conformal_deform(m, np.ones(g.N), g)
    t = g.nodes
    assert np.allclose(model.eval_profile(md.density, t, g, md.grid),
                       model.eval_profile(m.density, t), rtol=1e-14)
    assert np.allclose(model.eval_profile(md.scalar_curvature, t, g, md.grid)[1:-1],
                       6.0, atol=1e-8)
    assert md.right.h == pytest.approx(0.0, abs=1e-10)
    assert md.right.b == pytest.approx(m.right.b, rel=1e-14)


def test_conformal_constant_factor_scaling_law(hemisphere3):
    # oracle: substituting a constant into the curvature and mean-curvature
    # transformation laws gives pure power scalings
    m, g, _ = hemisphere3
    n = m.n
    c = 1.7
    md = model.conformal_deform(m, np.full(g.N, c), g)
    R_new = model.eval_profile(md.scalar_curvature, g.nodes, g, md.grid)
    assert np.allclose(R_new[1:-1], c ** (-4.0 / (n - 2)) * 6.0, rtol=1e-7)
    assert md.right.h == pytest.approx(c ** (-2.0 / (n - 2)) * m.right.h, abs=1e-10)
    assert md.right.b == pytest.approx(c ** (2.0 * (n - 1) / (n - 2)) * m.right.b,
                                       rel=1e-14)


def test_ball_bubble_factor_gives_round_curvature():
    # the stereographic bubble factor maps the flat ball onto a round cap;
    # oracle: nodal evaluation of the curvature law with analytic derivatives
    m = model.ball(3)
    g = disc.build_grid(m, 128)
    w = np.sqrt(2.0 / (1.0 + g.nodes**2))
    md = model.conformal_deform(m, w, g)
    R_new = model.eval_profile(md.scalar_curvature, g.nodes, g, md.grid)
    assert np.allclose(R_new, 6.0, atol=5e-6)


def test_conformal_round_trip(hemisphere3):
    m, g, _ = hemisphere3
    w = np.exp(0.3 * np.cos(g.nodes))
    m1 = model.conformal_deform(m, w, g)
    m2 = model.conformal_deform(m1, 1.0 / w, g)
    t = g.nodes
    a0 = model.eval_profile(m.density, t)
    a2 = model.eval_profile(m2.density, t, g, m2.grid)
    assert np.allclose(a2, a0, rtol=1e-12)
    s2 = model.eval_profile(m2.grad_density, t, g, m2.grid)
    assert np.allclose(s2, a0, rtol=1e-12)
    # single-application discretization error measured on the forward step
    R1 = model.eval_profile(m1.scalar_curvature, t, g, m1.grid)
    w_exact_err = _curvature_error(m, g, w, R1)
    R2 = model.eval_profile(m2.scalar_curvature, t, g, m2.grid)
    interior = slice(1, -1)
    assert np.max(np.abs(R2[interior] - 6.0)) <= 2 * w_exact_err + 1e-8
    assert m2.right.h == pytest.approx(0.0, abs=1e-8)
    assert m2.right.b == pytest.approx(m.right.b, rel=1e-12)


def _curvature_error(m, g, w, R_num):
    # analytic curvature of the deformed hemisphere metric for w = exp(a cos t)
    t = g.nodes[1:-1]
    a = 0.3
    wv = np.exp(a * np.cos(t))
    dw = -a * np.sin(t) * wv
    d2w = (a**2 * np.sin(t) ** 2 - a * np.cos(t)) * wv
    lap = d2w + 2.0 / np.tan(t) * dw
    R_exact = wv ** (1 - 6.0) * (-8.0 * lap + 6.0 * wv)
    return float(np.max(np.abs(R_num[1:-1] - R_exact)))


def test_deformed_volume_matches_weighted_quadrature(frank_nondeg):
    m, rep, _, _ = frank_nondeg
    ops = rep.v.ops
    g = ops.grid
    w = 1.0 + 0.4 * np.sin(2 * math.pi * g.nodes / m.length)
    md = model.conformal_deform(m, w, g)
    ops_d = disc.assemble_operators(md, g)
    expected = float(np.sum(ops.vol_weights * w**ops.two_star))
    assert ops_d.volume == expected  # identical quadrature, exact equality


@pytest.mark.parametrize("maker,n", [(model.hemisphere, 3), (model.ball, 5),
                                     (model.hemisphere, 5)])
def test_pole_density_order(maker, n):
    m = maker(n)
    g = disc.build_grid(m, 256)
    t = g.nodes[1:30]
    t = t[t < 0.05 * m.length]
    a = model.eval_profile(m.density, t)
    slope = np.polyfit(np.log(t), np.log(a), 1)[0]
    assert slope == pytest.approx(n - 1, abs=0.05)


def test_conformal_deform_rejects_bad_input(hemisphere3):
    m, g, _ = hemisphere3
    with pytest.raises(ValueError, match="positive"):
        model.conformal_deform(m, np.zeros(g.N), g)
    with pytest.raises(ValueError, match="match the grid"):
        model.conformal_deform(m, np.ones(g.N - 1), g)
    g2 = disc.build_grid(m, 64)
    md = model.conformal_deform(m, np.ones(g.N), g)
    with pytest.raises(ValueError, match="different grid"):
        model.conformal_deform(md, np.ones(g2.N), g2)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0))
def test_constant_factor_volume_scaling(c):
    m = model.frank_product(5, 0.5)
    g = disc.build_grid(m, 32)
    md = model.conformal_deform(m, np.full(g.N, c), g)
    vol0 = disc.assemble_operators(m, g).volume
    vol1 = disc.assemble_operators(md, g).volume
    assert vol1 == pytest.approx(c ** m.two_star * vol0, rel=1e-12)
