import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

from yamstab import disc, energy, lsred, minimize, model, spectrum, stability
from conftest import (BIF_RADIUS, SUB_RADIUS, random_positive_state,
                      sobolev_gap_reference)


def _synthetic_records(power, coeff=1.0, n=12, d_lo=1e-3, d_hi=1e-1):
    ds = np.geomspace(d_lo, d_hi, n)
    return [stability.StabilityRecord(deficit=coeff * d**power, distance=float(d),
                                      sample_id=i, perturbation_kind="synthetic")
            for i, d in enumerate(ds)]


@pytest.fixture(scope="module")
def nondeg(frank_nondeg):
    _, rep, spec, split = frank_nondeg
    return rep.v, split, spec


@pytest.fixture(scope="module")
def deg(frank_deg):
    _, rep, spec, split = frank_deg
    return rep.v, split, spec


def _spec(kinds, scales=(1e-3, 1e-2), count=2, seed=0):
    return stability.SampleSpec(kinds=kinds, scales=tuple(scales), count=count, seed=seed)


def test_family_rejects_noncritical_state(nondeg):
    v, split, spec = nondeg
    wobbly = random_positive_state(v.ops, 5)
    with pytest.raises(ValueError, match="gradient norm"):
        stability.sample_deficit_distance(wobbly, split, spec, _spec(("transverse",)))


def test_sampler_rejects_unknown_kind(nondeg):
    with pytest.raises(ValueError, match="unknown perturbation kind 'radial'"):
        stability.sample_deficit_distance(*nondeg, _spec(("radial",)))


@pytest.mark.parametrize("kind", ["kernel", "mixed"])
def test_sampler_rejects_flat_kinds_without_kernel(nondeg, kind):
    assert nondeg[1].kernel_dim == 0
    with pytest.raises(ValueError, match=f"{kind} sampling needs a nontrivial kernel"):
        stability.sample_deficit_distance(*nondeg, _spec((kind,)))


@pytest.mark.parametrize("kind", ["transverse", "mixed"])
def test_sampler_rejects_spectrum_without_transverse_modes(deg, kind):
    v, split, spec = deg
    kd = split.kernel_dim
    kernel_only = spectrum.SpectrumReport(eigenvalues=spec.eigenvalues[:kd],
                                          eigenvectors=spec.eigenvectors[:, :kd])
    with pytest.raises(ValueError, match=f"{kind} sampling needs modes beyond the kernel"):
        stability.sample_deficit_distance(v, split, kernel_only, _spec((kind,)))


def _first_kernel_direction(deg):
    phi = deg[1].K_basis[:, 0]
    return phi / deg[0].ops.w12_norm(phi)


def test_distance_to_self_and_members(deg, nondeg):
    # the scale-0 sample is v renormalized: exactly v on deg's grid, v to
    # round-off on nondeg's
    for fixture, kind, tol in ((deg, "kernel", 0.0), (nondeg, "transverse", 1e-15)):
        batch = stability.sample_deficit_distance(*fixture, _spec((kind,), (0.0,), count=1))
        assert batch.records[0].distance <= tol


def test_distance_chart_linearization(deg):
    # the normalized chart is tangent to the identity, so small kernel
    # perturbations move by t |phi| / |u| to first order
    # (the sampler's first kernel direction is K_basis[:, 0], Sobolev-normalized)
    v = deg[0]
    batch = stability.sample_deficit_distance(*deg, _spec(("kernel",), (1e-3, 1e-2), count=1))
    for r in batch.records:
        u = energy.normalize(v.ops, np.clip(v.u + r.scale * _first_kernel_direction(deg), 0, None))
        pred = r.scale / v.ops.w12_norm(u.u)
        assert r.distance == pytest.approx(pred, rel=50 * r.scale)


def test_distance_rotation_invariance(deg):
    # rotating the circle is an isometry: rolled samples keep their distance
    # (v is the constant, so a rolled kernel basis samples the rolled states)
    v, split, spec = deg
    one = _spec(("kernel",), (0.01,), count=1)
    d0 = stability.sample_deficit_distance(v, split, spec, one).records[0].distance
    for shift in (v.ops.N // 4, v.ops.N // 2):
        rolled = dataclasses.replace(split, K_basis=np.roll(split.K_basis, shift, axis=0))
        d1 = stability.sample_deficit_distance(v, rolled, spec, one).records[0].distance
        assert abs(d1 - d0) <= 1e-9


def test_transverse_samples_quadratic_bracket(nondeg):
    # second-order expansion: deficit/distance^2 lies between the coercivity
    # floor and the largest sampled mode ratio
    v, split, spec = nondeg
    batch = stability.sample_deficit_distance(
        v, split, spec, _spec(("transverse",), np.geomspace(1e-3, 1e-2, 6), count=4, seed=3))
    coer = stability.coercivity_data(v, split, spec)
    lam_max_m = float(np.max(spec.eigenvalues))
    lo = 0.8 * (coer.lambda1_m / 4.0) * coer.conversion
    hi = 1.2 * lam_max_m * coer.v_norm_sq  # crude but rigorous upper bound
    for r in batch.records:
        ratio = r.deficit / r.distance**2
        assert lo <= ratio <= hi


def test_kernel_samples_quartic_bracket(deg):
    batch = stability.sample_deficit_distance(
        *deg, _spec(("kernel",), np.geomspace(3e-3, 1e-1, 6), count=3, seed=4))
    ratios = [r.deficit / r.distance**4 for r in batch.records]
    assert max(ratios) / min(ratios) <= 1.5


def test_sampling_determinism(deg):
    spec_ = _spec(("kernel", "mixed"), (1e-3, 1e-2), count=2, seed=9)
    b1 = stability.sample_deficit_distance(*deg, spec_)
    b2 = stability.sample_deficit_distance(*deg, spec_)
    assert [(r.deficit, r.distance) for r in b1.records] == \
           [(r.deficit, r.distance) for r in b2.records]


def test_samples_leaving_ball_are_skipped(deg):
    delta = 0.1 * deg[0].ops.w12_norm(deg[0].u)
    batch = stability.sample_deficit_distance(
        *deg, _spec(("kernel",), (1e-2, 10.0 * delta), count=1))
    assert batch.n_skipped == 1
    assert len(batch.records) == 1


def test_zero_scale_sample_is_the_minimizer(deg):
    batch = stability.sample_deficit_distance(*deg, _spec(("kernel",), (0.0,), count=1))
    rec = batch.records[0]
    assert rec.deficit == 0.0
    assert rec.distance == 0.0


def test_records_nonnegative_deficit(deg):
    batch = stability.sample_deficit_distance(
        *deg, _spec(("kernel", "transverse", "mixed"), np.geomspace(1e-3, 1e-2, 5),
                    count=2, seed=5))
    for r in batch.records:
        assert r.deficit >= -1e-10
        assert r.distance >= 0.0


def test_zero_homogeneity_of_record_quantities(deg):
    # both sides of the stability inequality ignore rescaling of the state
    # a record of the state v + s phi carries the quantities of any rescaling
    v = deg[0]
    ops = v.ops
    rec = stability.sample_deficit_distance(*deg, _spec(("kernel",), (0.02,), count=1)).records[0]
    u2 = energy.normalize(ops, 37.0 * np.clip(v.u + 0.02 * _first_kernel_direction(deg), 0, None))
    assert rec.distance == pytest.approx(
        ops.w12_norm(u2.u - v.u) / ops.w12_norm(u2.u), rel=1e-13)
    assert rec.deficit == pytest.approx(
        energy.energy_deficit(v, u2.u - v.u), rel=1e-10, abs=1e-15)


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


def test_nondegenerate_stability_exponent(nondeg):
    v, split, spec = nondeg
    batch = stability.sample_deficit_distance(
        *nondeg, _spec(("transverse",), np.geomspace(1e-3, 1.5e-2, 8), count=4, seed=11))
    fit = stability.fit_stability_exponent(batch.records)
    assert fit.exponent == pytest.approx(2.0, abs=0.1)
    coer = stability.coercivity_data(v, split, spec)
    assert fit.c_lower >= 0.9 * (coer.lambda1_m / 4.0) * coer.conversion


def test_degenerate_stability_exponent(deg):
    batch = stability.sample_deficit_distance(
        *deg, _spec(("kernel",), np.geomspace(1e-3, 1e-1, 8), count=3, seed=12))
    fit = stability.fit_stability_exponent(batch.records)
    assert fit.exponent == pytest.approx(4.0, abs=0.2)
    assert fit.c_lower > 0


@pytest.fixture(scope="module", params=[SUB_RADIUS, BIF_RADIUS], ids=["sub", "bif"])
def deformed(request):
    # a conformally deformed frank_product: its minimizer, 1/w normalized, is
    # not constant, so the start block is not the Sobolev pencil's answer
    m = model.frank_product(5, request.param)
    g = disc.build_grid(m, 256)
    w = np.exp(0.4 * np.cos(2 * math.pi * g.nodes / m.length))
    ops = disc.assemble_operators(model.conformal_deform(m, w, g), g)
    rep = minimize.minimize_energy(ops, 1.0 / w)
    assert rep.converged
    spec = spectrum.eigen_decompose(rep.v, 12)
    return rep.v, spectrum.kernel_split(spec), spec


@pytest.mark.parametrize("case, r, k", [("nondeg", SUB_RADIUS, 1), ("deg", BIF_RADIUS, 2)])
def test_sobolev_gap_closed_form(request, case, r, k):
    # at the constant the circle mode cos(k t / r) has the mass-form
    # eigenvalue 2((k/r)^2 - (d-2)) and the Sobolev-form one (k/r)^2 + 1;
    # k = 1 is the kernel at the bifurcation radius
    v, split, spec = request.getfixturevalue(case)
    x = (k / r) ** 2
    coer = stability.coercivity_data(v, split, spec)
    assert coer.lambda1_w == pytest.approx(2.0 * (x - 3.0) / (x + 1.0), rel=1e-10)
    assert coer.sweeps == 1


def test_sobolev_gap_matches_dense_reference_off_the_constant(deformed):
    v, split, spec = deformed
    coer = stability.coercivity_data(v, split, spec)
    assert coer.lambda1_w == pytest.approx(sobolev_gap_reference(v, split), rel=1e-10)
    assert 2 <= coer.sweeps <= 10


def test_sobolev_gap_takes_one_factor_and_no_dense_transform(deg, monkeypatch):
    v, split, spec = deg
    factors, eigh_sizes, dense = [], [], []

    class CountingFactor(spectrum.BorderedFactor):
        def __init__(self, *args):
            factors.append(1)
            super().__init__(*args)

    eigh = sla.eigh
    monkeypatch.setattr(spectrum, "BorderedFactor", CountingFactor)
    monkeypatch.setattr(sla, "eigh",
                        lambda a, *r, **k: eigh_sizes.append(a.shape[0]) or eigh(a, *r, **k))
    monkeypatch.setattr(sla, "solve_triangular", lambda *a, **k: dense.append("trsm"))
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: dense.append("qr"))
    stability.coercivity_data(v, split, spec)
    assert factors == [1]
    assert dense == []
    assert eigh_sizes and max(eigh_sizes) <= stability.N_TRANSVERSE_MODES


def test_sobolev_gap_refuses_a_saddle():
    # the constant on frank_product(5, 0.7) is critical, but its circle mode
    # k = 1 lowers the energy; the dense transform returned lambda1_w = -0.631
    # here, and a floor of -1.60 that criterion 7 passes trivially
    m = model.frank_product(5, 0.7)
    ops = disc.assemble_operators(m, disc.build_grid(m, 128))
    v = energy.normalize(ops, np.ones(ops.N))
    assert ops.dual_norm(energy.gradient(v)) <= 1e-12
    spec = spectrum.eigen_decompose(v, 12)
    split = spectrum.kernel_split(spec)
    with pytest.raises(stability.CoercivityError, match="not positive off the kernel"):
        stability.coercivity_data(v, split, spec)
    # a start block without the negative modes has positive Ritz values, and
    # the factor's inertia refuses the saddle all the same
    positive = spectrum.SpectrumReport(eigenvalues=spec.eigenvalues[2:],
                                       eigenvectors=spec.eigenvectors[:, 2:])
    with pytest.raises(stability.CoercivityError, match="not positive off the kernel"):
        stability.coercivity_data(v, split, positive)


def test_sobolev_gap_refuses_a_start_block_without_the_lowest_mode(nondeg):
    # without the k = 1 modes the start's Ritz values sit at k = 2; the shift
    # below them fails its inertia certificate, and the sweeps, blind to
    # k = 1, settle above it
    v, split, spec = nondeg
    blind = spectrum.SpectrumReport(eigenvalues=spec.eigenvalues[2:],
                                    eigenvectors=spec.eigenvectors[:, 2:])
    with pytest.raises(stability.CoercivityError, match="misses the lowest mode"):
        stability.coercivity_data(v, split, blind)


def test_block_sampler_matches_per_sample_evaluation(deg):
    v, split, spec = deg
    ops = v.ops
    scales = np.array([0.0, 1e-3, 1e-2, 5e-2])
    sample_spec = _spec(("kernel", "transverse", "mixed"), scales, count=2, seed=6)
    batch = stability.sample_deficit_distance(v, split, spec, sample_spec)
    records = iter(batch.records)
    # a quartic kernel deficit near the round-off floor of the incremental
    # form, eps |Q|, agrees to that floor only (about 1e-18 apart here)
    floor = np.finfo(float).eps * energy.yamabe_quotient(ops, v.u)
    rng = np.random.default_rng(sample_spec.seed)
    transverse = spec.eigenvectors[:, split.kernel_dim: split.kernel_dim + 6]
    for kind in sample_spec.kinds:
        cols = transverse if kind == "transverse" else split.K_basis
        dirs = stability._directions(cols, sample_spec.count, rng, ops)
        if kind == "mixed":
            dirs = dirs + stability._directions(transverse, sample_spec.count, rng, ops)
            dirs /= ops.w12_norm(dirs)
        for d_idx in range(dirs.shape[1]):
            direction = dirs[:, d_idx]
            assert ops.w12_norm(direction) == pytest.approx(1.0, rel=1e-14)
            U = stability._scale_ladder(v, direction, scales)
            for j, scale in enumerate(scales):
                u = energy.normalize(ops, np.clip(v.u + scale * direction, 0.0, None))
                # every column is a state: nonnegative, of unit volume norm
                state = energy.NormalizedState(u=U[:, j], ops=ops)
                assert np.max(np.abs(state.u - u.u)) <= 1e-14
                rec = next(records)
                assert (rec.perturbation_kind, rec.direction_index, rec.scale) == \
                    (kind, d_idx, scale)
                deficit = energy.energy_deficit(v, u.u - v.u)
                distance = ops.w12_norm(u.u - v.u) / ops.w12_norm(u.u)
                assert rec.deficit == pytest.approx(deficit, rel=1e-12, abs=floor)
                assert rec.distance == pytest.approx(distance, rel=1e-12, abs=1e-15)
    assert next(records, None) is None
