import math
import re

import numpy as np
import pytest

from yamstab import cli, disc, energy, lsred, minimize, model, spectrum, stability
from conftest import (BIF_RADIUS, as_form, one_sided, projected_hessian,
                      raw_hessian_reference, tangent_frame)


def _synthetic_samples(power, coeff=1.0, scales=None, q0=10.0, direction=0):
    scales = scales if scales is not None else np.geomspace(1e-3, 1e-1, 8)
    out = []
    for s in scales:
        out.append(lsred.ReducedSample(
            phi_coords=np.array([s]), q_value=q0 + coeff * s**power,
            correction_norm=0.0, newton_iters=0, deficit=coeff * s**power,
            residual=0.0, direction_index=direction, scale=float(s)))
    return out


def test_chart_refuses_trivial_kernel(frank_nondeg):
    _, rep, _, split = frank_nondeg
    with pytest.raises(ValueError, match="kernel"):
        lsred.ReductionChart(v=rep.v, split=split)


@pytest.mark.parametrize("newton_tol", [0.0, math.nan, math.inf])
def test_chart_refuses_nonpositive_or_nonfinite_tolerance(frank_deg, newton_tol):
    # a NaN tolerance would end every correction solve before its first step
    _, rep, _, split = frank_deg
    with pytest.raises(ValueError, match="newton_tol"):
        lsred.ReductionChart(v=rep.v, split=split, newton_tol=newton_tol)


def test_correction_at_origin_is_exact_zero(frank_deg_chart):
    Z, deficits, iters, *_ = one_sided(frank_deg_chart, np.zeros(2))
    assert np.all(Z == 0.0)
    assert iters[0] == 0
    assert frank_deg_chart.q0 + deficits[0] == pytest.approx(frank_deg_chart.q0, abs=1e-14)


def test_correction_lives_in_complement(frank_deg_chart):
    chart = frank_deg_chart
    ops = chart.ops
    z = one_sided(chart, [0.02, -0.01])[0][:, 0]
    p = chart.v.p
    assert abs(float(p @ z)) <= 1e-9
    for j in range(chart.kernel_dim):
        k = chart.split.K_basis[:, j]
        assert abs(float(k @ (ops.vol_weights * z))) <= 1e-9


def test_correction_quadratic_smallness(frank_deg_chart):
    # slope of log |F| against log s is 2: the correction has no linear term
    scales = np.array([1e-3, 3e-3, 1e-2])
    Z = one_sided(frank_deg_chart, *([s, 0.0] for s in scales))[0]
    norms = frank_deg_chart.ops.w12_norm(Z)
    slope = np.polyfit(np.log(scales), np.log(norms), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_correction_ratio_stable_under_refinement():
    ratios = {}
    for N in (128, 256):
        m = model.frank_product(5, BIF_RADIUS)
        rep = minimize.estimate_yamabe_constant(
            m, N, starts=1, opts=minimize.MinimizeOptions(seed=1))
        split = spectrum.kernel_split(spectrum.eigen_decompose(rep.v, 8))
        chart = lsred.ReductionChart(v=rep.v, split=split)
        Z = one_sided(chart, [1e-2, 0.0])[0]
        ratios[N] = chart.ops.w12_norm(Z)[0] / 1e-4
    assert ratios[128] == pytest.approx(ratios[256], rel=1e-4)


def test_residual_below_tolerance(frank_deg_chart):
    samples = lsred.sample_reduced(
        frank_deg_chart, [np.array([1.0, 0.0])], np.geomspace(1e-3, 1e-1, 6))
    for s in samples:
        assert s.residual <= frank_deg_chart.newton_tol


def test_reduced_q_evenness(frank_deg_chart):
    qp, qm = frank_deg_chart.q0 + one_sided(frank_deg_chart, [0.01, 0.0], [-0.01, 0.0])[1]
    assert abs(qp - qm) <= 1e-10


def test_reduced_q_rotation_invariance(frank_deg_chart):
    qs = frank_deg_chart.q0 + one_sided(
        frank_deg_chart, *([0.01 * math.cos(a), 0.01 * math.sin(a)]
                           for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)))[1]
    assert max(qs) - min(qs) <= 1e-9


def test_reduced_q_minimality(frank_deg_chart):
    samples = lsred.sample_reduced(
        frank_deg_chart,
        [np.array([1.0, 0.0]), np.array([0.6, 0.8])],
        np.geomspace(1e-3, 1e-1, 6))
    for s in samples:
        assert s.q_value >= frank_deg_chart.q0 - 1e-10


def test_sample_sweep_shape_and_order(frank_deg_chart):
    scales = np.geomspace(1e-3, 1e-1, 8)
    dirs = [np.array([1.0, 0.0]), np.array([1.0, 1.0])]
    samples = lsred.sample_reduced(frank_deg_chart, dirs, scales)
    assert len(samples) == 16
    assert [s.direction_index for s in samples] == [0] * 8 + [1] * 8
    for d in (0, 1):
        grp = [s for s in samples if s.direction_index == d]
        assert [s.scale for s in grp] == sorted(s.scale for s in grp)
        deficits = [s.deficit for s in grp]
        assert deficits == sorted(deficits)  # monotone in scale


def test_sample_sweep_empty_ladder(frank_deg_chart):
    assert lsred.sample_reduced(frank_deg_chart, [np.array([1.0, 0.0])], []) == []
    Z, iters, *_, stops = lsred.solve_corrections(frank_deg_chart, np.zeros((2, 0)))
    assert Z.shape[1] == iters.size == 0 and stops == []


def test_chart_radius_enforced(frank_deg_chart):
    big = 2.0 * frank_deg_chart.radius
    with pytest.raises(lsred.ChartError, match="kernel offset leaves the chart"):
        lsred.sample_reduced(frank_deg_chart, [np.array([1.0, 0.0])], [big])


def test_offset_outside_positive_cone_names_its_cause():
    # a kernel bump inside the chart radius pushes a near-zero state negative:
    # the offset itself is refused before any residual is evaluated there
    m = model.frank_product(5, BIF_RADIUS)
    ops = disc.assemble_operators(m, disc.build_grid(m, 64))
    t = ops.grid.nodes
    v = energy.normalize(ops, 1.0 + 0.999 * np.cos(t))
    bump = np.exp(-0.5 * ((t - math.pi) / 0.3) ** 2)
    bump /= math.sqrt(bump @ (ops.vol_weights * bump))
    split = spectrum.KernelSplit(K_basis=bump[:, None], lambda1=1.0,
                                 kernel_dim=1, threshold=1e-6)
    chart = lsred.ReductionChart(v=v, split=split)
    scale = 0.99 * chart.radius / ops.w12_norm(bump)
    with pytest.raises(lsred.ChartError,
                       match="sign \\+: kernel offset leaves the positive cone"):
        lsred.sample_reduced(chart, [np.array([-1.0])], [scale])


def test_max_newton_stop_names_its_cause(frank_deg, monkeypatch):
    # one chord step cannot reach a 1e-16 residual, so the step budget ends the solve
    _, rep, _, split = frank_deg
    monkeypatch.setattr(lsred, "MAX_NEWTON", 1)
    chart = lsred.ReductionChart(v=rep.v, split=split, newton_tol=1e-16)
    r0 = chart.radius
    with pytest.raises(lsred.ChartError, match=r"MAX_NEWTON = 1 chord steps reached"):
        lsred.sample_reduced(chart, [np.array([1.0, 0.0])], [0.05])
    assert chart.radius == r0


def test_chord_stop_names_its_cause(frank_deg, monkeypatch):
    # no chord step can cut the residual to 0, so the first one ends the solve
    _, rep, _, split = frank_deg
    monkeypatch.setattr(lsred, "CHORD_CONTRACTION", 0.0)
    chart = lsred.ReductionChart(v=rep.v, split=split)
    r0 = chart.radius
    with pytest.raises(lsred.ChartError, match=r"residual ratio \S+ exceeds CHORD_CONTRACTION = 0\.0"):
        lsred.sample_reduced(chart, [np.array([0.02, -0.01])], [0.02])
    assert chart.radius == r0


def test_fit_exact_quartic():
    fit = lsred.fit_growth_exponent(_synthetic_samples(4.0))
    assert fit.exponent == pytest.approx(4.0, abs=1e-6)
    assert fit.constant == pytest.approx(1.0, rel=1e-6)
    assert fit.r2 >= 1.0 - 1e-12


def test_fit_exact_cubic_constant():
    fit = lsred.fit_growth_exponent(_synthetic_samples(3.0, coeff=5.0))
    assert fit.exponent == pytest.approx(3.0, abs=1e-6)
    assert fit.constant == pytest.approx(5.0, rel=1e-6)


def test_fit_mixed_power_small_window():
    # q = 3 s^2 + s^4 sampled at small scales: the quadratic dominates
    scales = np.geomspace(1e-4, 1e-2, 8)
    samples = []
    for s in scales:
        val = 3 * s**2 + s**4
        samples.append(lsred.ReducedSample(
            phi_coords=np.array([s]), q_value=10.0 + val, correction_norm=0.0,
            newton_iters=0, deficit=val, residual=0.0, direction_index=0,
            scale=float(s)))
    fit = lsred.fit_growth_exponent(samples)
    assert fit.exponent == pytest.approx(2.0, abs=0.05)


def test_fit_min_across_directions():
    samples = _synthetic_samples(4.0, direction=0) + _synthetic_samples(
        2.0, direction=1)
    fit = lsred.fit_growth_exponent(samples)
    assert fit.exponent == pytest.approx(2.0, abs=1e-6)
    assert fit.direction_index == 1


def test_fit_excludes_floor_samples():
    scales = np.geomspace(1e-5, 1e-1, 10)
    samples = _synthetic_samples(4.0, scales=scales)
    fit = lsred.fit_growth_exponent(samples)
    # 1e-5^4 and below sit under the floor and are dropped
    assert fit.n_below_floor >= 2
    assert fit.exponent == pytest.approx(4.0, abs=1e-6)


def test_fit_rejects_insufficient_data():
    with pytest.raises(lsred.InsufficientDataError):
        lsred.fit_growth_exponent(_synthetic_samples(4.0, scales=[1e-3, 2e-3]))
    with pytest.raises(lsred.InsufficientDataError):
        lsred.fit_growth_exponent([])


def test_fit_rejects_incoherent_data():
    rng = np.random.default_rng(0)
    scales = np.geomspace(1e-3, 1e-1, 12)
    samples = []
    for s in scales:
        val = math.exp(rng.uniform(-25, -2))  # scrambled, no power law
        samples.append(lsred.ReducedSample(
            phi_coords=np.array([s]), q_value=10.0 + val, correction_norm=0.0,
            newton_iters=0, deficit=val, residual=0.0, direction_index=0,
            scale=float(s)))
    with pytest.raises(lsred.FitRejectedError):
        lsred.fit_growth_exponent(samples)


def test_frank_quartic_growth(frank_deg_chart):
    samples = lsred.sample_reduced(
        frank_deg_chart,
        [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)],
        np.geomspace(1e-3, 1e-1, 8))
    fit = lsred.fit_growth_exponent(samples)
    assert fit.exponent == pytest.approx(4.0, abs=0.2)
    assert fit.r2 >= 0.999


def test_detect_integrability_cases(frank_deg_chart):
    assert lsred.detect_integrability([], q0=1.0, kernel_dim=0) == "nondegenerate"
    const = _synthetic_samples(4.0, coeff=0.0)
    assert lsred.detect_integrability(const, q0=10.0,
                                      kernel_dim=1) == "integrable"
    samples = lsred.sample_reduced(frank_deg_chart, [np.array([1.0, 0.0])],
                                   np.geomspace(1e-2, 1e-1, 4))
    assert lsred.detect_integrability(samples, q0=frank_deg_chart.q0,
                                      kernel_dim=2) == "nonintegrable"


def test_coercivity_off_kernel(frank_deg, frank_deg_chart):
    # on the kernel complement the Hessian dominates the Sobolev norm by the
    # smallest retained eigenvalue of the (H, S+M) pencil
    _, rep, spec, split = frank_deg
    ops = rep.v.ops
    H = projected_hessian(rep.v)
    coer = stability.coercivity_data(rep.v, split, spec)
    rng = np.random.default_rng(8)
    Z = tangent_frame(rep.v, split.K_basis)
    for _ in range(20):
        z = Z @ rng.standard_normal(Z.shape[1])
        z /= ops.w12_norm(z)
        assert float(z @ H @ z) >= 0.5 * coer.lambda1_w - 1e-9


def test_correction_step_matches_projected_hessian_solve(frank_deg_chart):
    # the chart's step is one bordered solve with the constraint covectors;
    # reference: the complement-coordinate system (Z'HZ + mu I) s = -Z'r
    chart = frank_deg_chart
    C = spectrum.constraint_covectors(chart.v, chart.split.K_basis)
    Z = tangent_frame(chart.v, chart.split.K_basis)
    xi = chart.kernel_vector(np.array([0.02, -0.01]))
    res_vec = chart.complement_residual(xi)
    H = raw_hessian_reference(chart.ops, chart.v.u + xi)
    for mu in (0.0, 1e-3):
        ref = Z @ np.linalg.solve(Z.T @ H @ Z + mu * np.eye(Z.shape[1]), -Z.T @ res_vec)
        step = disc.BorderedFactor(as_form(H + mu * np.diag(chart.ops.vol_weights)),
                                   C).solve(-res_vec)
        assert chart.ops.w12_norm(step - ref) <= 1e-9 * chart.ops.w12_norm(ref)


@pytest.mark.parametrize("N", [128, 256])
def test_chart_factor_matches_raw_hessian_step(N, frank_deg):
    # the chart factors the second variation at v; on ker C' it differs from
    # the full Newton Jacobian at v by a multiple of p, which lies in range(C)
    if N == 256:
        v, split = frank_deg[1].v, frank_deg[3]
    else:
        rep = minimize.estimate_yamabe_constant(
            model.frank_product(5, BIF_RADIUS), N, starts=1,
            opts=minimize.MinimizeOptions(seed=1))
        v, split = rep.v, spectrum.kernel_split(spectrum.eigen_decompose(rep.v, 8))
    chart = lsred.ReductionChart(v=v, split=split)
    for phi_coords in ([0.02, -0.01], [0.0, 0.05]):
        res_vec = chart.complement_residual(chart.kernel_vector(np.array(phi_coords)))
        step = chart._factor.solve(-res_vec)
        ref = disc.BorderedFactor(as_form(raw_hessian_reference(chart.ops, v.u)),
                                  chart._C).solve(-res_vec)
        assert chart.ops.w12_norm(step - ref) <= 1e-10 * chart.ops.w12_norm(ref)


def test_newton_loops_build_no_qr_frames(frank_deg, monkeypatch):
    _, base, _, split = frank_deg
    ops = base.v.ops
    calls = []
    qr = np.linalg.qr
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        u0 = 1.0 + 0.05 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
        rep = minimize.minimize_energy(ops, u0)
        assert rep.converged and rep.iterations > 0
        chart = lsred.ReductionChart(v=base.v, split=split)
        F, _, iters, *_ = one_sided(chart, [0.02, -0.01])
        assert iters[0] > 0 and np.any(F)
    assert calls == []
    # the basis-free residual norm is the complement-coordinate norm |Z'g|
    Z = tangent_frame(chart.v, split.K_basis)
    res_vec = chart.complement_residual(chart.kernel_vector(np.array([0.02, -0.01])))
    ref = np.linalg.norm(Z.T @ res_vec)
    assert chart.residual_norm(res_vec) == pytest.approx(ref, rel=1e-12)


def test_chord_correction_matches_full_newton(frank_deg_chart):
    # reference: undamped Newton with a fresh Hessian at every step
    chart = frank_deg_chart
    ops = chart.ops
    Z = tangent_frame(chart.v, chart.split.K_basis)
    for phi_coords in (np.array([0.02, -0.01]), 0.1 * np.array([1.0, 1.0]) / math.sqrt(2)):
        phi = chart.kernel_vector(phi_coords)
        coeffs = np.zeros(Z.shape[1])
        res_vec = Z.T @ chart.complement_residual(phi)
        for _ in range(lsred.MAX_NEWTON):
            if np.linalg.norm(res_vec) <= chart.newton_tol:
                break
            H = raw_hessian_reference(ops, chart.v.u + phi + Z @ coeffs)
            coeffs = coeffs + np.linalg.solve(Z.T @ H @ Z, -res_vec)
            res_vec = Z.T @ chart.complement_residual(phi + Z @ coeffs)
        z_ref = Z @ coeffs
        F, _, _, res, _ = one_sided(chart, phi_coords)
        assert res[0] <= chart.newton_tol
        assert ops.w12_norm(F[:, 0] - z_ref) <= 1e-9 * ops.w12_norm(z_ref)


def test_quartic_sweep_factors_once(frank_deg, monkeypatch):
    _, rep, _, split = frank_deg
    factors = []

    class CountingFactor(lsred.BorderedFactor):
        def __init__(self, *args):
            factors.append(1)
            super().__init__(*args)

        def solve(self, b):
            solves.append(b.shape)
            return super().solve(b)

    solves = []
    monkeypatch.setattr(lsred, "BorderedFactor", CountingFactor)
    chart = lsred.ReductionChart(v=rep.v, split=split)
    samples = lsred.sample_reduced(
        chart, [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)],
        np.geomspace(1e-3, 1e-1, 8))
    assert all(s.residual <= chart.newton_tol for s in samples)
    assert max(s.newton_iters for s in samples) < lsred.MAX_NEWTON
    assert len(factors) == 1
    # one multi-column solve per lockstep sweep, not one per sample and step
    assert len(solves) <= max(s.newton_iters for s in samples) + 1


def test_stalled_chord_step_meets_tolerance_in_dual_norm(frank_deg):
    # at newton_tol 1e-12 on the N=256 grid, the sqrt(r'M^-1 r) residual at
    # the chart's edge stalls near 2e-12, which its chord step cannot halve,
    # while the Sobolev dual norm of the same residual is about 4e-13
    _, rep, _, split = frank_deg
    chart = lsred.ReductionChart(v=rep.v, split=split, newton_tol=1e-12)
    phi_coords = np.array([0.1, 0.0])
    Z, _, _, res, dual = one_sided(chart, phi_coords)
    assert res[0] > chart.newton_tol
    assert dual[0] <= chart.newton_tol
    res_vec = chart.complement_residual(chart.kernel_vector(phi_coords) + Z[:, 0])
    assert chart.ops.dual_norm(res_vec) == dual[0]
    # where the M^-1 norm met the tolerance it bounds the dual norm
    _, _, _, res, dual = one_sided(chart, [1e-3, 0.0])
    assert dual[0] == res[0] <= chart.newton_tol
    # a tolerance below the dual norm's floor still ends in a ChartError
    tight = lsred.ReductionChart(v=rep.v, split=split, newton_tol=1e-14)
    stops = lsred.solve_corrections(tight, phi_coords[:, None])[4]
    assert re.search("dual norm .* misses the tolerance", stops[0])


def _default_ladder(chart, seed=1):
    """The CLI's default sweep: 2 directions x KERNEL_SCALES x +-, as the k x S
    coordinate block in sweep order."""
    dirs = cli._unit_directions(chart.kernel_dim, 2, seed)
    return np.column_stack([sign * s * d for d in dirs for s in cli.KERNEL_SCALES
                            for sign in (1.0, -1.0)])


def test_block_columns_match_one_column_solves(frank_deg_chart):
    chart = frank_deg_chart
    coords = _default_ladder(chart)
    _, deficits, iters, *_ = one_sided(chart, *coords.T)
    alone = [one_sided(chart, phi) for phi in coords.T]
    iters_alone = [int(a[2][0]) for a in alone]
    deficits_alone = [a[1][0] for a in alone]
    assert iters.tolist() == iters_alone
    for d_block, d_alone in zip(deficits, deficits_alone):
        assert d_block == pytest.approx(d_alone, rel=1e-5)
    # the averaged samples carry the same counts and deficits
    samples = lsred.sample_reduced(chart, cli._unit_directions(chart.kernel_dim, 2, 1),
                                   cli.KERNEL_SCALES)
    for j, s in enumerate(samples):
        assert s.newton_iters == max(iters_alone[2 * j], iters_alone[2 * j + 1])
        assert s.deficit == pytest.approx(
            0.5 * (deficits_alone[2 * j] + deficits_alone[2 * j + 1]), rel=1e-5)


def test_first_failing_sample_in_sweep_order_names_it(frank_deg, monkeypatch):
    # the 3rd scale leaves the chart; the 4th would stop on MAX_NEWTON, but
    # the error is the one a sample-by-sample sweep meets first
    _, rep, _, split = frank_deg
    chart = lsred.ReductionChart(v=rep.v, split=split)
    axis, early = [np.array([1.0, 0.0])], (1e-3, 3e-3)
    budget = max(s.newton_iters for s in lsred.sample_reduced(chart, axis, early))
    monkeypatch.setattr(lsred, "MAX_NEWTON", budget)
    with pytest.raises(lsred.ChartError, match="MAX_NEWTON"):
        lsred.sample_reduced(chart, axis, [0.05])
    big = 2.0 * chart.radius
    with pytest.raises(lsred.ChartError) as err:
        lsred.sample_reduced(chart, axis, (*early, big, 0.05))
    msg = str(err.value)
    assert f"direction 0, scale {big:.3e}, sign +: kernel offset leaves the chart" in msg
    assert "MAX_NEWTON" not in msg


def test_zero_direction_refused_before_any_solve(frank_deg_chart, monkeypatch):
    chart = frank_deg_chart
    monkeypatch.setattr(chart._factor, "solve", lambda b: pytest.fail("solve called"))
    with pytest.raises(ValueError, match="nonzero"):
        lsred.sample_reduced(chart, [np.array([1.0, 0.0]), np.zeros(2)], (1e-2,))


def _complement_residual_longdouble(chart, xi):
    """complement_residual's columns for the N x S block xi, evaluated directly
    (not incrementally) in long double around the chart's float64 data."""
    ld = np.longdouble
    ops = chart.ops
    ts = ld(ops.two_star)
    D = ops.grid.diff_matrix.astype(ld)
    m = ops.vol_weights.astype(ld)[:, None]
    inv_m = 1 / m
    u = chart.v.u.astype(ld)[:, None] + xi.astype(ld)
    du = D @ u
    Au = D.T @ (ops.stiff_weights.astype(ld)[:, None] * du) + (
        ops.curv_weights + ops.bdry_weights).astype(ld)[:, None] * u
    if ops.nyquist is not None:
        e, y = ops.nyquist
        y = y.astype(ld)
        Au += ld(e) * np.outer(y, y @ u)
    E = np.sum(u * Au, axis=0)
    P = np.sum(m * u**ts, axis=0)
    g = 2 * P ** (-2 / ts) * (Au - (E / P) * m * u ** (ts - 1))
    # the range(C) part, through an M^-1-orthonormal basis of range(C)
    # (Gram-Schmidt applied twice; numpy has no long-double solve)
    basis = []
    for c in chart._C.T.astype(ld):
        for _ in range(2):
            for q in basis:
                c = c - q * (q @ (inv_m[:, 0] * c))
        basis.append(c / np.sqrt(c @ (inv_m[:, 0] * c)))
    for _ in range(2):
        for q in basis:
            g = g - np.outer(q, q @ (inv_m * g))
    return g


def test_block_residuals_meet_tolerance_in_long_double():
    # the default-ladder chart at the N=1024 bifurcation radius: every column
    # the block solve returns, its residual re-evaluated in long double, meets
    # newton_tol in the Sobolev dual norm (taken in float64 from the rounded
    # long-double residual)
    rep = minimize.estimate_yamabe_constant(
        model.frank_product(5, BIF_RADIUS), 1024, starts=4,
        opts=minimize.MinimizeOptions(seed=1))
    split = spectrum.kernel_split(spectrum.eigen_decompose(rep.v, 12))
    chart = lsred.ReductionChart(v=rep.v, split=split)
    coords = _default_ladder(chart)
    Z = one_sided(chart, *coords.T)[0]
    phi = chart.kernel_vector(coords)
    xi = phi + Z
    exact = _complement_residual_longdouble(chart, xi).astype(float)
    for j in range(coords.shape[1]):
        assert chart.ops.dual_norm(exact[:, j]) <= chart.newton_tol
    # the reference is the chart's residual: at the uncorrected offsets the
    # two agree far below the residual's own size
    ref, fast = _complement_residual_longdouble(chart, phi), chart.complement_residual(phi)
    assert np.max(np.abs(ref.astype(float) - fast)) <= 1e-6 * np.max(np.abs(fast))
