import math

import numpy as np
import pytest

from yamstab import energy, lsred, stability
from conftest import random_positive_state


def _synthetic_records(power, coeff=1.0, n=12, d_lo=1e-3, d_hi=1e-1):
    ds = np.geomspace(d_lo, d_hi, n)
    return [stability.StabilityRecord(deficit=coeff * d**power, distance=float(d),
                                      sample_id=i, perturbation_kind="synthetic")
            for i, d in enumerate(ds)]


@pytest.fixture(scope="module")
def nondeg_family(frank_nondeg):
    _, rep, spec, split = frank_nondeg
    return stability.single_family(rep.v, split=split, spectrum=spec)


@pytest.fixture(scope="module")
def deg_family(frank_deg):
    _, rep, spec, split = frank_deg
    return stability.single_family(rep.v, split=split, spectrum=spec)


def test_family_rejects_noncritical_state(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    wobbly = random_positive_state(ops, 5)
    with pytest.raises(ValueError, match="gradient norm"):
        stability.single_family(wobbly)


def test_distance_to_self_and_members(nondeg_family):
    assert stability.distance_to_minimizers(nondeg_family.v, nondeg_family) == 0.0


def test_distance_chart_linearization(deg_family):
    # the normalized chart is tangent to the identity, so small kernel
    # perturbations move by t |phi| / |u| to first order
    fam = deg_family
    ops = fam.v.ops
    phi = fam.split.K_basis[:, 0]
    for t in (1e-3, 1e-2):
        u = energy.normalize(ops, np.clip(fam.v.u + t * phi, 0, None))
        d = stability.distance_to_minimizers(u, fam)
        pred = t * ops.w12_norm(phi) / ops.w12_norm(u.u)
        assert d == pytest.approx(pred, rel=50 * t)


def test_distance_rotation_invariance(deg_family):
    # rotating the circle is an isometry: rolled samples keep their distance
    fam = deg_family
    ops = fam.v.ops
    phi = fam.split.K_basis[:, 0]
    u = energy.normalize(ops, np.clip(fam.v.u + 0.01 * phi, 0, None))
    d0 = stability.distance_to_minimizers(u, fam)
    for shift in (ops.N // 4, ops.N // 2):
        u_rot = energy.NormalizedState(u=np.roll(u.u, shift), ops=ops)
        d1 = stability.distance_to_minimizers(u_rot, fam)
        assert abs(d1 - d0) <= 1e-9


def test_empty_family_refused(nondeg_family):
    broken = stability.MinimizerFamily(
        v=nondeg_family.v, y_est=nondeg_family.y_est, members=(),
        delta=nondeg_family.delta)
    with pytest.raises(ValueError, match="empty"):
        stability.distance_to_minimizers(nondeg_family.v, broken)


def test_transverse_samples_quadratic_bracket(nondeg_family, frank_nondeg):
    # second-order expansion: deficit/distance^2 lies between the coercivity
    # floor and the largest sampled mode ratio
    _, rep, spec, split = frank_nondeg
    fam = nondeg_family
    batch = stability.sample_deficit_distance(fam, stability.SampleSpec(
        kinds=("transverse",), scales=tuple(np.geomspace(1e-3, 1e-2, 6)),
        count=4, seed=3))
    coer = stability.coercivity_data(rep.v, split)
    lam_max_m = float(np.max(spec.eigenvalues))
    lo = 0.8 * (coer.lambda1_m / 4.0) * coer.conversion
    hi = 1.2 * lam_max_m * coer.v_norm_sq  # crude but rigorous upper bound
    for r in batch.records:
        ratio = r.deficit / r.distance**2
        assert lo <= ratio <= hi


def test_kernel_samples_quartic_bracket(deg_family):
    batch = stability.sample_deficit_distance(deg_family, stability.SampleSpec(
        kinds=("kernel",), scales=tuple(np.geomspace(3e-3, 1e-1, 6)),
        count=3, seed=4))
    ratios = [r.deficit / r.distance**4 for r in batch.records]
    assert max(ratios) / min(ratios) <= 1.5


def test_sampling_determinism(deg_family):
    spec_ = stability.SampleSpec(kinds=("kernel", "mixed"),
                                 scales=(1e-3, 1e-2), count=2, seed=9)
    b1 = stability.sample_deficit_distance(deg_family, spec_)
    b2 = stability.sample_deficit_distance(deg_family, spec_)
    assert [(r.deficit, r.distance) for r in b1.records] == \
           [(r.deficit, r.distance) for r in b2.records]


def test_samples_leaving_ball_are_skipped(deg_family):
    fam = deg_family
    batch = stability.sample_deficit_distance(fam, stability.SampleSpec(
        kinds=("kernel",), scales=(1e-2, 10.0 * fam.delta), count=1, seed=0))
    assert batch.n_skipped == 1
    assert len(batch.records) == 1


def test_zero_scale_sample_is_the_minimizer(deg_family):
    batch = stability.sample_deficit_distance(deg_family, stability.SampleSpec(
        kinds=("kernel",), scales=(0.0,), count=1, seed=0))
    rec = batch.records[0]
    assert rec.deficit == 0.0
    assert rec.distance == 0.0


def test_records_nonnegative_deficit(deg_family):
    batch = stability.sample_deficit_distance(deg_family, stability.SampleSpec(
        kinds=("kernel", "transverse", "mixed"),
        scales=tuple(np.geomspace(1e-3, 1e-2, 5)), count=2, seed=5))
    for r in batch.records:
        assert r.deficit >= -1e-10
        assert r.distance >= 0.0


def test_zero_homogeneity_of_record_quantities(deg_family):
    # both sides of the stability inequality ignore rescaling of the state
    fam = deg_family
    ops = fam.v.ops
    phi = fam.split.K_basis[:, 1]
    raw = np.clip(fam.v.u + 0.02 * phi, 0, None)
    u1 = energy.normalize(ops, raw)
    u2 = energy.normalize(ops, 37.0 * raw)
    assert stability.distance_to_minimizers(u1, fam) == pytest.approx(
        stability.distance_to_minimizers(u2, fam), rel=1e-13)
    assert energy.energy_deficit(fam.v, u1.u - fam.v.u) == pytest.approx(
        energy.energy_deficit(fam.v, u2.u - fam.v.u), rel=1e-10, abs=1e-15)


def test_fit_exact_power_law():
    fit = stability.fit_stability_exponent(_synthetic_records(3.0, coeff=5.0))
    assert fit.exponent == pytest.approx(3.0, abs=1e-6)
    assert fit.c_lower == pytest.approx(5.0, rel=1e-6)


def test_fit_envelope_binds_all_records():
    records = (_synthetic_records(2.0, coeff=2.0, n=10)
               + _synthetic_records(2.0, coeff=7.0, n=10))
    fit = stability.fit_stability_exponent(records)
    assert fit.exponent == pytest.approx(2.0, abs=1e-6)
    assert fit.c_lower == pytest.approx(2.0, rel=1e-6)
    for r in records:
        assert r.deficit >= fit.c_lower * r.distance**fit.exponent * (1 - 1e-12)


def test_fit_insufficient_records():
    with pytest.raises(lsred.InsufficientDataError):
        stability.fit_stability_exponent(_synthetic_records(2.0, n=5))
    with pytest.raises(lsred.InsufficientDataError):
        stability.fit_stability_exponent(
            _synthetic_records(2.0, n=10, d_lo=1e-3, d_hi=5e-3))


def test_fit_rejects_scrambled_scatter():
    rng = np.random.default_rng(1)
    ds = np.geomspace(1e-3, 1e-1, 16)
    records = [stability.StabilityRecord(
        deficit=math.exp(rng.uniform(-25, -3)), distance=float(d), sample_id=i,
        perturbation_kind="noise") for i, d in enumerate(ds)]
    with pytest.raises(lsred.FitRejectedError):
        stability.fit_stability_exponent(records)


def test_nondegenerate_stability_exponent(nondeg_family, frank_nondeg):
    _, rep, _, split = frank_nondeg
    batch = stability.sample_deficit_distance(nondeg_family, stability.SampleSpec(
        kinds=("transverse",), scales=tuple(np.geomspace(1e-3, 1.5e-2, 8)),
        count=4, seed=11))
    fit = stability.fit_stability_exponent(batch.records)
    assert fit.exponent == pytest.approx(2.0, abs=0.1)
    coer = stability.coercivity_data(rep.v, split)
    assert fit.c_lower >= 0.9 * (coer.lambda1_m / 4.0) * coer.conversion


def test_degenerate_stability_exponent(deg_family):
    batch = stability.sample_deficit_distance(deg_family, stability.SampleSpec(
        kinds=("kernel",), scales=tuple(np.geomspace(1e-3, 1e-1, 8)),
        count=3, seed=12))
    fit = stability.fit_stability_exponent(batch.records)
    assert fit.exponent == pytest.approx(4.0, abs=0.2)
    assert fit.c_lower > 0


def test_reduced_family_continuum_distance(frank_deg_chart, frank_deg):
    _, rep, spec, _ = frank_deg
    fam = stability.reduced_family(frank_deg_chart, [np.zeros(2)],
                                   continuum=True, spectrum=spec)
    ops = rep.v.ops
    phi = frank_deg_chart.split.K_basis[:, 0]
    u = energy.normalize(ops, np.clip(rep.v.u + 0.005 * phi, 0, None))
    d_cont = stability.distance_to_minimizers(u, fam)
    # the local search may slide along the chart surface toward u
    single = stability.single_family(rep.v, split=fam.split, spectrum=spec)
    d_single = stability.distance_to_minimizers(u, single)
    assert d_cont <= d_single + 1e-15
    assert d_cont <= 0.2 * d_single  # genuinely closer along the chart


def test_reduced_family_rejects_noncritical_phi(frank_deg_chart, frank_deg):
    # a non-critical kernel coordinate fails the member gradient check
    _, _, spec, _ = frank_deg
    with pytest.raises(ValueError, match="not a usable minimizer|critical"):
        stability.reduced_family(frank_deg_chart, [np.array([0.05, 0.0])],
                                 spectrum=spec)


def test_distance_search_penalizes_only_chart_errors(frank_deg_chart, frank_deg, monkeypatch):
    # a chart failure is a penalty point for the local search; any other
    # exception is a bug and must reach the caller
    _, rep, spec, _ = frank_deg
    fam = stability.reduced_family(frank_deg_chart, [np.zeros(2)],
                                   continuum=True, spectrum=spec)
    ops = rep.v.ops
    u = energy.normalize(ops, np.clip(rep.v.u + 0.005 * fam.split.K_basis[:, 0], 0, None))
    d_member = ops.w12_norm(u.u - rep.v.u) / ops.w12_norm(u.u)

    def failing(exc):
        def solve(chart, phi):
            raise exc("injected")
        return solve

    monkeypatch.setattr(stability, "solve_correction_full", failing(lsred.ChartError))
    assert stability.distance_to_minimizers(u, fam) == pytest.approx(d_member, rel=1e-12)
    monkeypatch.setattr(stability, "solve_correction_full", failing(ZeroDivisionError))
    with pytest.raises(ZeroDivisionError):
        stability.distance_to_minimizers(u, fam)
