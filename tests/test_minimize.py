import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from yamstab import disc, energy, minimize, model
from conftest import BIF_RADIUS, SUB_RADIUS, as_form, dense, projected_hessian
from test_energy import frank_constant_quotient


def test_options_validation():
    for grad_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="grad_tol"):
            minimize.MinimizeOptions(grad_tol=grad_tol)


def test_minimize_rejects_bad_start(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    with pytest.raises(ValueError):
        minimize.minimize_energy(ops, np.zeros(ops.N))
    with pytest.raises(ValueError):
        minimize.minimize_energy(ops, -np.ones(ops.N))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_minimize_rejects_a_non_finite_start(frank_nondeg, bad):
    ops = frank_nondeg[1].v.ops
    u0 = np.ones(ops.N)
    u0[5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        minimize.minimize_energy(ops, u0)


def test_frank_subbifurcation_minimum():
    # the constant minimizes below the bifurcation radius;
    # oracle: closed-form constant energy plus the strong-form residual
    m = model.frank_product(5, SUB_RADIUS)
    g = disc.build_grid(m, 256)
    ops = disc.assemble_operators(m, g)
    u0 = 1.0 + 0.1 * np.cos(2 * math.pi * g.nodes / m.length)
    rep = minimize.minimize_energy(ops, u0)
    assert rep.converged
    assert rep.Y_est == pytest.approx(frank_constant_quotient(5, SUB_RADIUS), rel=1e-8)
    assert rep.residual.interior + rep.residual.boundary <= 1e-8


def test_critical_start_is_fixed_point(frank_nondeg):
    _, rep, _, _ = frank_nondeg
    ops = rep.v.ops
    again = minimize.minimize_energy(ops, rep.v.u)
    assert again.iterations <= 1
    assert np.allclose(again.v.u, rep.v.u, atol=1e-10)


def _record_iterates(monkeypatch):
    """The quotients of minimize_energy's iterates, in order: each descent
    iteration calls project_tangent and each polish iteration
    second_variation once with its current state."""
    qs = []
    for name in ("project_tangent", "second_variation"):
        fn = getattr(energy, name)
        monkeypatch.setattr(energy, name,
                            lambda v, *args, fn=fn: qs.append(v.Q) or fn(v, *args))
    return qs


def test_monotone_descent(frank_nondeg, monkeypatch):
    ops = frank_nondeg[1].v.ops
    u0 = 1.0 + 0.3 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
    qs = _record_iterates(monkeypatch)
    rep = minimize.minimize_energy(ops, u0)
    qs.append(rep.Y_est)
    assert len(qs) == rep.iterations + 1
    assert all(qs[i + 1] <= qs[i] + 1e-12 * abs(qs[i]) for i in range(len(qs) - 1))


def test_reported_quotient_is_the_returned_states():
    # best_converged ranks starts on Y_est, so it must be Q of the state the
    # report holds, not the lower of two polish iterates
    reports = minimize.run_multistart(model.frank_product(5, BIF_RADIUS), 64, 3,
                                      minimize.MinimizeOptions(seed=0))
    for rep in reports:
        assert rep.Y_est == energy.yamabe_quotient(rep.v.ops, rep.v.u)


def test_converged_implies_small_residual(frank_nondeg, frank_deg):
    for _, rep, _, _ in (frank_nondeg, frank_deg):
        assert rep.converged
        assert rep.grad_norm <= 1e-11
        assert rep.residual.interior + rep.residual.boundary <= 10 * 1e-11


def test_estimate_on_degenerate_radius():
    m = model.frank_product(5, BIF_RADIUS)
    rep = minimize.estimate_yamabe_constant(
        m, 128, starts=2, opts=minimize.MinimizeOptions(seed=5))
    assert rep.Y_est == pytest.approx(frank_constant_quotient(5, BIF_RADIUS), rel=1e-7)


def test_estimate_determinism():
    m = model.frank_product(5, SUB_RADIUS)
    opts = minimize.MinimizeOptions(seed=9)
    r1 = minimize.estimate_yamabe_constant(m, 64, starts=3, opts=opts)
    r2 = minimize.estimate_yamabe_constant(m, 64, starts=3, opts=opts)
    assert r1.Y_est == r2.Y_est
    assert r1.start_index == r2.start_index
    assert np.array_equal(r1.v.u, r2.v.u)


def test_estimate_never_beats_constant_upper_bound(cylinder3):
    m, g, ops = cylinder3
    rep = minimize.estimate_yamabe_constant(
        m, 96, starts=3, opts=minimize.MinimizeOptions(seed=1, grad_tol=1e-9))
    assert rep.Y_est <= energy.yamabe_quotient(ops, np.ones(g.N)) + 1e-12


def test_minimizer_conformal_covariance(frank_nondeg):
    # the minimizer of the deformed model is the pullback of the undeformed one
    m, rep, _, _ = frank_nondeg
    ops = rep.v.ops
    g = ops.grid
    w = np.exp(0.2 * np.cos(2 * math.pi * g.nodes / m.length))
    md = model.conformal_deform(m, w, g)
    ops_d = disc.assemble_operators(md, g)
    rep_d = minimize.minimize_energy(ops_d, np.ones(g.N))
    assert rep_d.converged
    expected = energy.normalize(ops_d, rep.v.u / w)
    diff = ops_d.w12_norm(rep_d.v.u - expected.u)
    assert diff <= 1e-6
    assert rep_d.Y_est == pytest.approx(rep.Y_est, rel=1e-6)


def test_nonconvergence_reported_not_raised(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    u0 = 1.0 + 0.3 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
    # grad_tol 1e-16 lies below the round-off floor of the gradient norm
    rep = minimize.minimize_energy(ops, u0, minimize.MinimizeOptions(grad_tol=1e-16))
    assert not rep.converged
    assert rep.iterations > 0


def test_estimate_raises_when_nothing_converges():
    m = model.frank_product(5, SUB_RADIUS)
    with pytest.raises(minimize.ConvergenceError):
        minimize.estimate_yamabe_constant(
            m, 64, starts=2,
            opts=minimize.MinimizeOptions(grad_tol=1e-16, seed=0))


def test_yamabe_invariant_under_deformation(frank_nondeg):
    m, rep, _, _ = frank_nondeg
    ops = rep.v.ops
    g = ops.grid
    for amp in (0.15, 0.4):
        w = np.exp(amp * np.sin(2 * math.pi * g.nodes / m.length))
        md = model.conformal_deform(m, w, g)
        rep_d = minimize.minimize_energy(disc.assemble_operators(md, g), np.ones(g.N))
        assert rep_d.Y_est == pytest.approx(rep.Y_est, rel=1e-6)


def test_starts_need_no_eigensolve(monkeypatch):
    # the perturbed starts lie on analytic low modes, so no dense eigensolve
    # runs; the cosines' zero end slopes suit pole ends, where every start
    # converges
    def no_eigh(*args, **kwargs):
        raise AssertionError("the starts ran a dense eigensolve")

    monkeypatch.setattr(sla, "eigh", no_eigh)
    poles = (model.hemisphere(3), model.ball(3))
    for m in poles + (model.frank_product(5, SUB_RADIUS),):
        ops = disc.assemble_operators(m, disc.build_grid(m, 64))
        starts = minimize.random_starts(ops, 4, seed=0)
        assert len(starts) == 4
        assert all(np.all(u >= 0) for u in starts)
    for m in poles:
        reports = minimize.run_multistart(m, 64, 4, minimize.MinimizeOptions())
        assert all(r.converged for r in reports)


def test_hemisphere_comparison_value():
    # the round half-sphere level in this normalization: c_n n(n-1) (|S^n|/2)^(2/n);
    # cross-check: the hemisphere constant attains it
    m = model.hemisphere(3)
    g = disc.build_grid(m, 96)
    ops = disc.assemble_operators(m, g)
    q_const = energy.yamabe_quotient(ops, np.ones(g.N))
    assert minimize.hemisphere_comparison_value(3) == pytest.approx(q_const, rel=1e-11)


def test_polish_step_matches_tangent_basis_step():
    # reference: the same Levenberg step through an explicit Householder
    # basis B of the tangent space {p.d = 0}, (B'HB + mu B'WB) s = -B'G with
    # H the projected form; the bordered step from the unprojected form H0
    # matches it too, because the multiplier absorbs P'H0P - H0 on {p.d = 0}
    m = model.frank_product(5, SUB_RADIUS)
    g = disc.build_grid(m, 64)
    ops = disc.assemble_operators(m, g)
    state = energy.normalize(ops, 1.0 + 0.05 * np.cos(2 * math.pi * g.nodes / m.length))
    H = projected_hessian(state)
    H0 = energy.second_variation(state)
    G = energy.gradient(state)
    p = state.p
    frame = np.column_stack([p, np.eye(ops.N)[:, : ops.N - 1]])
    B = np.linalg.qr(frame, mode="complete")[0][:, 1:]
    W = ops.stiffness + np.diag(ops.vol_weights)
    for mu in (0.0, 1e-3):
        ref = B @ np.linalg.solve(B.T @ (H + mu * W) @ B, -(B.T @ G))
        # a Form shifts only by a Form on its own S, so the projected
        # H + mu W is wrapped whole and taken undamped
        for step in (minimize._polish_step(state, as_form(H + mu * W), G, 0.0),
                     minimize._polish_step(state, H0, G, mu)):
            assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)
            assert abs(float(p @ step)) <= 1e-12 * np.linalg.norm(p) * np.linalg.norm(step)


def test_polish_stops_damping_at_roundoff_steps(frank_deg, monkeypatch):
    # grad_tol 1e-15 is out of reach, so the last polish iteration stalls; its
    # damping ladder must stop at round-off-sized steps without changing the result
    _, rep, _, _ = frank_deg
    ops = rep.v.ops
    u0 = 1.0 + 0.05 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
    opts = minimize.MinimizeOptions(grad_tol=1e-15)
    factor = minimize.BorderedFactor
    counts = []

    def run():
        calls = []
        monkeypatch.setattr(minimize, "BorderedFactor",
                            lambda *a: calls.append(1) or factor(*a))
        out = minimize.minimize_energy(ops, u0, opts)
        counts.append(len(calls))
        return out

    stopped = run()
    monkeypatch.setattr(minimize, "POLISH_STEP_FLOOR", 0.0)
    full = run()
    assert not stopped.converged
    assert np.array_equal(stopped.v.u, full.v.u)
    assert stopped.iterations == full.iterations
    assert stopped.grad_norm == full.grad_norm
    assert counts[0] < counts[1]


def test_polish_stops_at_tolerance(monkeypatch):
    # the polish factors only while the gradient norm is above grad_tol
    m = model.frank_product(5, SUB_RADIUS)
    opts = minimize.MinimizeOptions(seed=2, grad_tol=1e-11)
    entry_grads = []  # right-hand side -G of every polish solve

    class CountingFactor(minimize.BorderedFactor):
        def solve(self, rhs):
            entry_grads.append(-rhs)
            return super().solve(rhs)

    monkeypatch.setattr(minimize, "BorderedFactor", CountingFactor)
    reports = minimize.run_multistart(m, 256, 3, opts)
    assert all(r.converged for r in reports)
    assert entry_grads
    # nested starts polish on the coarse grid too: each solve is checked
    # against the operators of its own grid
    ops = {G.size: disc.assemble_operators(m, disc.build_grid(m, G.size))
           for G in entry_grads}
    assert all(ops[G.size].dual_norm(G) > opts.grad_tol for G in entry_grads)


def test_polish_evaluates_one_gradient_per_try(monkeypatch):
    # each polish try evaluates its trial's gradient once, and an accepted
    # trial's gradient is kept rather than evaluated again at the new iterate
    m = model.frank_product(5, BIF_RADIUS)
    ops = disc.assemble_operators(m, disc.build_grid(m, 64))
    t = 2 * math.pi * ops.grid.nodes / m.length
    u0 = 1.0 + 1e-3 * (np.cos(t) + np.sin(2 * t))
    # close enough to the constant that the run is all polish, no descent step
    assert ops.dual_norm(energy.gradient(energy.normalize(ops, u0))) <= minimize.NEWTON_SWITCH
    grads, solves = [], []
    gradient, factor = energy.gradient, minimize.BorderedFactor
    monkeypatch.setattr(energy, "gradient", lambda v: grads.append(1) or gradient(v))
    monkeypatch.setattr(minimize, "BorderedFactor", lambda *a: solves.append(1) or factor(*a))
    rep = minimize.minimize_energy(ops, u0)
    assert rep.converged
    assert len(solves) > rep.iterations > 1  # some iterations climbed the damping ladder
    assert len(grads) == 1 + len(solves)    # the start's, then one per try


def test_polish_takes_no_step_floor_when_its_first_rung_is_accepted(monkeypatch):
    # the step floor's Sobolev norm is taken only for a rejected rung: at a
    # nondegenerate minimizer every undamped Newton step is accepted
    m = model.frank_product(5, SUB_RADIUS)
    ops = disc.assemble_operators(m, disc.build_grid(m, 64))
    t = 2 * math.pi * ops.grid.nodes / m.length
    u0 = 1.0 + 1e-4 * (np.cos(t) + np.sin(2 * t))
    # close enough to the constant that the run is all polish, no descent step
    assert ops.dual_norm(energy.gradient(energy.normalize(ops, u0))) <= minimize.NEWTON_SWITCH
    norms, solves = [], []
    w12_norm, factor = disc.DiscreteOperators.w12_norm, minimize.BorderedFactor
    monkeypatch.setattr(disc.DiscreteOperators, "w12_norm",
                        lambda self, u: norms.append(1) or w12_norm(self, u))
    monkeypatch.setattr(minimize, "BorderedFactor", lambda *a: solves.append(1) or factor(*a))
    rep = minimize.minimize_energy(ops, u0)
    assert rep.converged
    assert len(solves) == rep.iterations >= 1  # all polish, one rung each
    assert norms == []


def test_report_residual_is_evaluated_on_first_read(frank_nondeg, monkeypatch):
    ops = frank_nondeg[1].v.ops
    calls = []
    el_residual = energy.el_residual
    monkeypatch.setattr(energy, "el_residual", lambda v: calls.append(v) or el_residual(v))
    t = 2 * math.pi * ops.grid.nodes / ops.model.length
    rep = minimize.minimize_energy(ops, 1.0 + 0.1 * np.cos(t))
    assert calls == []
    first = rep.residual
    assert rep.residual is first
    assert calls == [rep.v]
    assert first == el_residual(rep.v)


def test_descent_takes_few_iterations_on_cylinder():
    # with Barzilai-Borwein trial steps the descent does not crawl along the
    # low modes: every start here takes at most 5 descent and polish
    # iterations together, well inside the bound; a nested start counts
    # its coarse-grid iterations too
    m = model.cylinder(3, 1.0)
    reports = minimize.run_multistart(
        m, 96, 8, minimize.MinimizeOptions(seed=1, grad_tol=5e-11))
    assert all(r.converged for r in reports)
    assert max(r.coarse_iterations + r.iterations for r in reports) <= 20


@pytest.mark.parametrize("seed", [1, 2])
def test_default_tolerance_converges_every_start_at_N512(seed, monkeypatch):
    # the gradient's rounding error sits well below grad_tol = 1e-11 at the
    # N=512 bifurcation radius, so every start reaches it; with the dense
    # stiffness matvec 2 of these 6 starts did.  The perturbed starts take
    # their ~25 polish iterations on the 128-node grid, and the interpolated
    # minimizer already meets grad_tol on N, so no N-node factor is built
    orders = []
    factor = minimize.BorderedFactor
    monkeypatch.setattr(minimize, "BorderedFactor",
                        lambda A, C: orders.append(A.diag.size + C.shape[1]) or factor(A, C))
    reports = minimize.run_multistart(model.frank_product(5, BIF_RADIUS), 512, 3,
                                      minimize.MinimizeOptions(seed=seed))
    assert [r.converged for r in reports] == [True, True, True]
    assert orders and set(orders) == {512 // 4 + 1}


def _direct_reports(m, N, starts, opts):
    """run_multistart without nested iteration: minimize_energy on N from
    each start."""
    ops = disc.assemble_operators(m, disc.build_grid(m, N))
    return [dataclasses.replace(minimize.minimize_energy(ops, u0, opts), start_index=j)
            for j, u0 in enumerate(minimize.random_starts(ops, starts, opts.seed))]


@pytest.mark.parametrize("N", [128, 256])
@pytest.mark.parametrize("m", [model.hemisphere(3), model.ball(3), model.spherical_cap(3, 1.0),
                               model.cylinder(3, 1.0), model.frank_product(5, BIF_RADIUS)],
                         ids=lambda m: m.label)
def test_nested_agrees_with_direct(m, N):
    opts = minimize.MinimizeOptions(seed=1)
    nested = minimize.run_multistart(m, N, 4, opts)
    direct = _direct_reports(m, N, 4, opts)
    assert [r.converged for r in nested] == [r.converged for r in direct]
    best = minimize.best_converged(direct, m, N)
    assert minimize.best_converged(nested, m, N).start_index == best.start_index
    ops, v = best.v.ops, best.v.u
    floor = 2.0 * np.finfo(float).eps * float(
        v @ (np.abs(dense(ops.form(ops.curv_weights, ops.bdry_weights))) @ v))
    for a, b in zip(nested, direct):
        assert abs(a.Y_est - b.Y_est) <= floor
    # the perturbed starts are not critical on N, so they run nested
    assert all(r.coarse_iterations > 0 for r in nested[1:])


def test_unconverged_coarse_run_falls_back_to_direct(monkeypatch):
    m, N = model.frank_product(5, BIF_RADIUS), 128
    opts = minimize.MinimizeOptions(seed=1)
    run = minimize.minimize_energy
    grids = []

    def coarse_fails(ops, u0, opts):
        grids.append(ops.N)
        rep = run(ops, u0, opts)
        return dataclasses.replace(rep, converged=False) if ops.N < N else rep

    monkeypatch.setattr(minimize, "minimize_energy", coarse_fails)
    nested = minimize.run_multistart(m, N, 3, opts)
    monkeypatch.setattr(minimize, "minimize_energy", run)
    assert grids == [N // 4, N, N // 4, N, N // 4, N]
    for a, b in zip(nested, _direct_reports(m, N, 3, opts), strict=True):
        assert (a.start_index, a.converged, a.coarse_iterations, a.iterations) == \
            (b.start_index, b.converged, 0, b.iterations)
        assert a.Y_est == b.Y_est
        assert np.array_equal(a.v.u, b.v.u)


def test_a_start_critical_on_N_evaluates_one_N_node_gradient(monkeypatch):
    # no N-node gradient is evaluated outside minimize_energy: a start whose
    # run on N takes 0 iterations evaluates only its start state's gradient
    m, N = model.frank_product(5, BIF_RADIUS), 128
    events = []
    gradient, run = energy.gradient, minimize.minimize_energy

    def counted_gradient(v):
        if v.ops.N == N:
            events.append("gradient")
        return gradient(v)

    def marked_run(ops, u0, opts):
        rep = run(ops, u0, opts)
        if ops.N == N:
            events.append(rep)
        return rep

    monkeypatch.setattr(energy, "gradient", counted_gradient)
    monkeypatch.setattr(minimize, "minimize_energy", marked_run)
    reports = minimize.run_multistart(m, N, 3, minimize.MinimizeOptions(seed=1))
    assert all(r.converged for r in reports)
    per_start, count = [], 0
    for event in events:
        if isinstance(event, str):
            count += 1
        else:
            per_start.append((event.iterations, count))
            count = 0
    assert len(per_start) == 3 and count == 0
    assert [c for it, c in per_start if it == 0] == [1] * 3


@pytest.fixture(scope="module")
def real_report():
    m = model.frank_product(5, SUB_RADIUS)
    rep = minimize.run_multistart(m, 64, 1, minimize.MinimizeOptions())[0]
    assert rep.converged
    ops, v = rep.v.ops, rep.v.u
    A = ops.stiffness + np.diag(ops.curv_weights) + np.diag(ops.bdry_weights)
    floor = 2.0 * np.finfo(float).eps * float(v @ (np.abs(A) @ v))
    return m, rep, floor


def _pick(reports, m):
    return minimize.best_converged(reports, m, 64)


def test_tie_within_floor_goes_to_lower_start(real_report):
    m, rep, floor = real_report
    first = dataclasses.replace(rep, start_index=0)
    lower = dataclasses.replace(rep, start_index=1, Y_est=rep.Y_est - 0.5 * floor)
    for reports in ([first, lower], [lower, first]):
        assert _pick(reports, m).start_index == 0


def test_lower_by_more_than_floor_wins(real_report):
    m, rep, floor = real_report
    first = dataclasses.replace(rep, start_index=0)
    lower = dataclasses.replace(rep, start_index=1, Y_est=rep.Y_est - 2.0 * floor)
    for reports in ([first, lower], [lower, first]):
        assert _pick(reports, m).start_index == 1


def test_tie_rule_is_order_independent(real_report):
    m, rep, floor = real_report
    offsets = (0.0, -0.3, -1.5, -1.9, 0.4)  # in units of the floor
    reports = [dataclasses.replace(rep, start_index=j, Y_est=rep.Y_est + d * floor)
               for j, d in enumerate(offsets)]
    picks = {_pick(order, m).start_index
             for order in (reports, reports[::-1], reports[2:] + reports[:2])}
    # start 3 is lowest; start 2 lies within the floor of it and has the lower index
    assert picks == {2}


def test_unconverged_report_never_wins(real_report):
    m, rep, floor = real_report
    first = dataclasses.replace(rep, start_index=1)
    stuck = dataclasses.replace(rep, start_index=0, Y_est=rep.Y_est - 100.0 * floor,
                                converged=False)
    assert _pick([stuck, first], m).start_index == 1
    with pytest.raises(minimize.ConvergenceError):
        _pick([stuck], m)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_degenerate_pick_is_the_constant_start_at_any_thread_count(threads):
    # at the bifurcation radius the perturbed starts stop 1e-4 along the kernel
    # with Y_est within round-off of the constant start's; the tie rule picks
    # start 0 whatever the BLAS thread count does to the last bits
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
    code = ("import math; from yamstab import minimize, model; "
            "print(minimize.estimate_yamabe_constant(model.frank_product(5, 1 / math.sqrt(3)), "
            "256, starts=3, opts=minimize.MinimizeOptions(seed=2)).start_index)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


def _all_polish_start(radius, amp):
    m = model.frank_product(5, radius)
    ops = disc.assemble_operators(m, disc.build_grid(m, 64))
    t = 2 * math.pi * ops.grid.nodes / m.length
    u0 = 1.0 + amp * np.cos(t)
    state = energy.normalize(ops, u0)
    assert ops.dual_norm(energy.gradient(state)) <= minimize.NEWTON_SWITCH
    return ops, t, u0, state


def _first_try_replaced(monkeypatch, step):
    """Make the polish's first try return step; record every call's (state, mu)."""
    calls = []
    polish_step = minimize._polish_step

    def fake(state, H, G, mu):
        calls.append((state.u, mu))
        return step if len(calls) == 1 else polish_step(state, H, G, mu)

    monkeypatch.setattr(minimize, "_polish_step", fake)
    return calls


def test_polish_accepts_an_energy_drop_with_rising_gradient(monkeypatch):
    # trade the low circle mode for a smaller share of the stiff third mode:
    # the energy falls, the Sobolev gradient norm rises
    ops, t, u0, state = _all_polish_start(SUB_RADIUS, 1e-4)
    trial = energy.normalize(ops, 1.0 + 1.5e-5 * np.cos(3 * t))
    step = trial.u - state.u
    q = energy.yamabe_quotient(ops, state.u)
    assert energy.energy_deficit(state, step) < -1e-13 * abs(q)
    assert ops.dual_norm(energy.gradient(trial)) > ops.dual_norm(energy.gradient(state))
    calls = _first_try_replaced(monkeypatch, step)
    qs = _record_iterates(monkeypatch)
    rep = minimize.minimize_energy(ops, u0)
    assert qs[1] == energy.yamabe_quotient(ops, trial.u)
    assert np.array_equal(calls[1][0], trial.u)  # the next iterate is the trial
    assert calls[1][1] == 0.0                    # reached without damping
    assert rep.converged


def test_polish_rejects_rising_gradient_without_energy_drop(monkeypatch):
    ops, t, u0, state = _all_polish_start(SUB_RADIUS, 1e-4)
    trial = energy.normalize(ops, 1.0 + 2e-4 * np.cos(t))
    step = trial.u - state.u
    q = energy.yamabe_quotient(ops, state.u)
    assert energy.energy_deficit(state, step) > -1e-13 * abs(q)
    assert ops.dual_norm(energy.gradient(trial)) > ops.dual_norm(energy.gradient(state))
    calls = _first_try_replaced(monkeypatch, step)
    rep = minimize.minimize_energy(ops, u0)
    assert np.array_equal(calls[1][0], state.u)  # retried from the same state
    assert calls[1][1] > 0.0                     # with damping
    assert rep.converged
