"""Acceptance criteria, one test per criterion, each timed and printed.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from yamstab import (cli, disc, energy, lsred, minimize, model, spectrum,
                     stability)
from conftest import (BIF_RADIUS, SUB_RADIUS, frank_mode_eigenvalue, one_sided,
                      projected_hessian, random_positive_state,
                      richardson_first, richardson_second)
from test_energy import frank_constant_quotient


def _report(n, detail):
    print(f"criterion {n} PASS: {detail}")


def _catalog_trio():
    specs = [(model.hemisphere(3), 7), (model.cylinder(3, 1.0), 7),
             (model.frank_product(5, SUB_RADIUS), 6)]
    for m, n_states in specs:
        g = disc.build_grid(m, 128)
        yield disc.assemble_operators(m, g), n_states


def test_criterion_1_variation_consistency():
    # Directional derivatives along random directions can sit near zero by
    # cancellation, so relative errors are measured against the covector's
    # dual norm (the largest directional derivative over unit directions).
    import scipy.linalg as sla
    t0 = time.perf_counter()
    worst_grad, worst_hess = 0.0, 0.0
    state_id = 0
    for ops, n_states in _catalog_trio():
        gram_chol = ops.w12_cho
        for _ in range(n_states):
            v = random_positive_state(ops, 9000 + state_id)
            rng = np.random.default_rng(500 + state_id)
            state_id += 1

            G = energy.gradient(v)
            dual = math.sqrt(float(G @ sla.cho_solve(gram_chol, G)))
            eta = rng.standard_normal(ops.N)
            eta /= ops.w12_norm(eta)
            fd1 = richardson_first(
                lambda t: energy.yamabe_quotient(ops, v.u + t * eta), 0.02)
            worst_grad = max(worst_grad,
                             abs(fd1 - float(G @ eta)) / max(abs(fd1), dual))

            H = projected_hessian(v)
            phi = energy.project_tangent(v, rng.standard_normal(ops.N))
            phi /= ops.w12_norm(phi)
            fd2 = richardson_second(
                lambda t: energy.yamabe_quotient(ops, v.u + t * phi), 0.01)
            scale2 = float(np.linalg.norm(H @ phi) * np.linalg.norm(phi))
            worst_hess = max(worst_hess,
                             abs(fd2 - float(phi @ H @ phi)) / max(abs(fd2), scale2))
    elapsed = time.perf_counter() - t0
    assert state_id == 20
    assert worst_grad <= 1e-6
    assert worst_hess <= 1e-5
    assert elapsed <= 30.0
    _report(1, f"grad rel err {worst_grad:.2e}, hess rel err {worst_hess:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_2_conformal_covariance():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(model.hemisphere(3), lambda t, T: np.cos(math.pi * t / T)),
             (model.frank_product(5, SUB_RADIUS),
              lambda t, T: np.cos(2 * math.pi * t / T))]
    for m, profile in cases:
        g = disc.build_grid(m, 256)
        ops = disc.assemble_operators(m, g)
        for amp in (0.2, 0.35, 0.5):
            w = np.exp(amp * profile(g.nodes, m.length))
            ops_d = disc.assemble_operators(model.conformal_deform(m, w, g), g)
            for seed in range(10):
                u = random_positive_state(ops, 7000 + seed).u
                q_def = energy.yamabe_quotient(ops_d, u)
                q_pull = energy.yamabe_quotient(ops, u * w)
                worst = max(worst, abs(q_def - q_pull) / abs(q_pull))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed <= 10.0
    _report(2, f"max covariance rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_critical_point_fidelity():
    t0 = time.perf_counter()
    m = model.frank_product(5, SUB_RADIUS)
    g = disc.build_grid(m, 256)
    ops = disc.assemble_operators(m, g)
    u0 = 1.0 + 0.1 * np.cos(2 * math.pi * g.nodes / m.length)
    rep = minimize.minimize_energy(ops, u0)
    target = frank_constant_quotient(5, SUB_RADIUS)
    rel = abs(rep.Y_est - target) / target
    res = rep.residual.interior + rep.residual.boundary
    elapsed = time.perf_counter() - t0
    assert rep.converged
    assert rel <= 1e-7
    assert res <= 1e-8
    assert elapsed <= 20.0
    _report(3, f"Y rel err {rel:.2e}, EL residual {res:.2e}, {elapsed:.1f}s")


def test_criterion_4_kernel_detection():
    t0 = time.perf_counter()
    m_deg = model.frank_product(5, BIF_RADIUS)
    rep_deg = minimize.estimate_yamabe_constant(
        m_deg, 256, starts=2, opts=minimize.MinimizeOptions(seed=1))
    spec_deg = spectrum.eigen_decompose(rep_deg.v, 12)
    split_deg = spectrum.kernel_split(spec_deg)
    scale = float(np.max(np.abs(spec_deg.eigenvalues)))
    kernel_mags = np.abs(spec_deg.eigenvalues[:2])
    gap_ratio = abs(split_deg.lambda1) / max(float(np.max(kernel_mags)), 1e-300)

    m_sub = model.frank_product(5, SUB_RADIUS)
    rep_sub = minimize.estimate_yamabe_constant(
        m_sub, 256, starts=2, opts=minimize.MinimizeOptions(seed=1))
    split_sub = spectrum.kernel_split(spectrum.eigen_decompose(rep_sub.v, 12))
    lam1_target = frank_mode_eigenvalue(5, SUB_RADIUS, 1)
    lam1_rel = abs(split_sub.lambda1 - lam1_target) / lam1_target
    elapsed = time.perf_counter() - t0

    assert split_deg.kernel_dim == 2
    assert np.all(kernel_mags <= 1e-6 * scale)
    assert gap_ratio >= 1e3
    assert split_sub.kernel_dim == 0
    assert lam1_rel <= 1e-6
    assert elapsed <= 20.0
    _report(4, f"kernel_dim 2 with |lambda| <= {kernel_mags.max():.2e} "
               f"(gap {gap_ratio:.1e}), lambda1 rel err {lam1_rel:.2e}, "
               f"{elapsed:.1f}s")


def _degenerate_chart(N=256):
    m = model.frank_product(5, BIF_RADIUS)
    rep = minimize.estimate_yamabe_constant(
        m, N, starts=2, opts=minimize.MinimizeOptions(seed=1))
    spec = spectrum.eigen_decompose(rep.v, 12)
    split = spectrum.kernel_split(spec)
    return rep, spec, split, lsred.ReductionChart(v=rep.v, split=split)


def test_criterion_5_reduction_contract():
    t0 = time.perf_counter()
    _, _, _, chart = _degenerate_chart()
    dirs = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)]
    samples = lsred.sample_reduced(chart, dirs, np.geomspace(1e-3, 1e-1, 8))
    worst_res = max(s.residual for s in samples)

    slope_scales = np.array([1e-3, 3e-3, 1e-2])
    norms = chart.ops.w12_norm(one_sided(chart, *([s, 0.0] for s in slope_scales))[0])
    slope = float(np.polyfit(np.log(slope_scales), np.log(norms), 1)[0])
    elapsed = time.perf_counter() - t0

    assert worst_res <= 1e-11
    assert abs(slope - 2.0) <= 0.1
    assert elapsed <= 60.0
    _report(5, f"max complement residual {worst_res:.2e}, correction slope "
               f"{slope:.3f}, {elapsed:.1f}s")


def run_quartic_fit(N=256):
    _, _, split, chart = _degenerate_chart(N)
    dirs = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)]
    samples = lsred.sample_reduced(chart, dirs, np.geomspace(1e-3, 1e-1, 8))
    fit = lsred.fit_growth_exponent(samples)
    classification = lsred.detect_integrability(samples, q0=chart.v.Q,
                                                kernel_dim=split.kernel_dim)
    return fit, classification


def test_criterion_6_quartic_degeneracy():
    t0 = time.perf_counter()
    fit, classification = run_quartic_fit()
    elapsed = time.perf_counter() - t0
    assert abs(fit.exponent - 4.0) <= 0.2
    assert fit.r2 >= 0.999
    assert classification == "nonintegrable"
    assert elapsed <= 90.0
    _report(6, f"exponent {fit.exponent:.4f} (r2 {fit.r2:.6f}), "
               f"{classification}, {elapsed:.1f}s")


def run_stability_fit(N=256):
    m = model.frank_product(5, SUB_RADIUS)
    rep = minimize.estimate_yamabe_constant(
        m, N, starts=2, opts=minimize.MinimizeOptions(seed=1))
    spec = spectrum.eigen_decompose(rep.v, 12)
    split = spectrum.kernel_split(spec)
    batch = stability.sample_deficit_distance(rep.v, split, spec, stability.SampleSpec(
        kinds=("transverse",), scales=tuple(np.geomspace(1e-3, 1.5e-2, 8)),
        count=4, seed=1))
    fit = stability.fit_stability_exponent(batch.records)
    coer = stability.coercivity_data(rep.v, split, spec)
    return fit, coer


def test_criterion_7_quadratic_stability():
    t0 = time.perf_counter()
    fit, coer = run_stability_fit()
    floor = 0.9 * (coer.lambda1_m / 4.0) * coer.conversion
    elapsed = time.perf_counter() - t0
    assert abs(fit.exponent - 2.0) <= 0.1
    assert fit.c_lower >= floor
    assert elapsed <= 90.0
    _report(7, f"exponent {fit.exponent:.4f}, c_lower {fit.c_lower:.4f} >= "
               f"0.9*(lambda1/4)*conversion = {floor:.4f}, {elapsed:.1f}s")


def test_criterion_8_determinism_and_convergence(tmp_path):
    t0 = time.perf_counter()
    # byte-identical CLI reruns
    cfg = {
        "model": {"kind": "frank_product", "params": {"d": 5, "r": BIF_RADIUS}},
        "N": 128, "experiment": "spectrum", "seed": 3,
        "sampling": {"count": 2},
        "output": str(tmp_path / "crit8"),
    }
    cfg_path = tmp_path / "crit8_config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["spectrum", "--config", str(cfg_path)]) == 0
    first = [(tmp_path / "crit8.json").read_bytes(),
             (tmp_path / "crit8.csv").read_bytes()]
    assert cli.main(["spectrum", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "crit8.json").read_bytes() == first[0]
    assert (tmp_path / "crit8.csv").read_bytes() == first[1]

    # resolution stability under N doubling
    y_est, lam1 = {}, {}
    for N in (256, 512):
        rep = minimize.estimate_yamabe_constant(
            model.frank_product(5, SUB_RADIUS), N, starts=2,
            opts=minimize.MinimizeOptions(seed=1))
        y_est[N] = rep.Y_est
        lam1[N] = spectrum.kernel_split(spectrum.eigen_decompose(rep.v, 12)).lambda1
    dy = abs(y_est[512] - y_est[256]) / abs(y_est[256])
    dlam = abs(lam1[512] - lam1[256]) / abs(lam1[256])

    quartic = {N: run_quartic_fit(N)[0].exponent for N in (256, 512)}
    quad = {N: run_stability_fit(N)[0].exponent for N in (256, 512)}
    dq4 = abs(quartic[512] - quartic[256])
    dq2 = abs(quad[512] - quad[256])
    elapsed = time.perf_counter() - t0

    assert dy <= 1e-6
    assert dlam <= 1e-6
    assert dq4 <= 0.05
    assert dq2 <= 0.05
    _report(8, f"byte-identical reruns; doubling drift: Y {dy:.2e}, "
               f"lambda1 {dlam:.2e}, exponents {dq4:.3f}/{dq2:.3f}, "
               f"{elapsed:.1f}s")


def test_criterion_8_quartic_exponent_doubling_to_N1024():
    # the N=1024 contract: the quartic exponent moves by at most criterion
    # 8's bound when the grid doubles from 512
    t0 = time.perf_counter()
    quartic = {N: run_quartic_fit(N)[0].exponent for N in (512, 1024)}
    dq4 = abs(quartic[1024] - quartic[512])
    elapsed = time.perf_counter() - t0
    assert dq4 <= 0.05
    _report(8, f"quartic exponent {quartic[512]:.10f} -> {quartic[1024]:.10f} "
               f"(N 512 -> 1024), drift {dq4:.2e}, {elapsed:.1f}s")
