import math

import numpy as np
import pytest

from yamstab import disc, energy, minimize, model
from conftest import BIF_RADIUS, SUB_RADIUS, projected_hessian
from test_energy import frank_constant_quotient


def test_options_validation():
    with pytest.raises(ValueError):
        minimize.MinimizeOptions(grad_tol=0.0)


def test_minimize_rejects_bad_start(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    with pytest.raises(ValueError):
        minimize.minimize_energy(ops, np.zeros(ops.N))
    with pytest.raises(ValueError):
        minimize.minimize_energy(ops, -np.ones(ops.N))


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


def test_monotone_descent(frank_nondeg):
    ops = frank_nondeg[1].v.ops
    u0 = 1.0 + 0.3 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
    rep = minimize.minimize_energy(ops, u0)
    qs = rep.q_history
    assert all(qs[i + 1] <= qs[i] + 1e-12 * abs(qs[i]) for i in range(len(qs) - 1))


def test_reported_quotient_is_the_returned_states():
    # best_converged ranks starts on Y_est, so it must be Q of the state the
    # report holds, not the lower of two polish iterates
    reports = minimize.run_multistart(model.frank_product(5, BIF_RADIUS), 64, 3,
                                      minimize.MinimizeOptions(seed=0))
    for rep in reports:
        assert rep.Y_est == energy.yamabe_quotient(rep.v.ops, rep.v.u).Q


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
    assert rep.Y_est <= energy.yamabe_quotient(ops, np.ones(g.N)).Q + 1e-12


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


def test_laplace_modes_on_pole_model(hemisphere3):
    # the (M, S+M) pencil sidesteps the zero-mass pole node
    _, _, ops = hemisphere3
    lam, modes = minimize.laplace_modes(ops, 3)
    assert np.all(lam > 1e-8)
    assert np.all(np.diff(lam) >= -1e-8)
    for j in range(3):
        w = modes[:, j]
        ray = float(w @ ops.stiffness @ w) / float(w @ np.diag(ops.vol_weights) @ w)
        assert ray == pytest.approx(lam[j], rel=1e-8)


def test_hemisphere_comparison_value():
    # the round half-sphere level in this normalization: c_n n(n-1) (|S^n|/2)^(2/n);
    # cross-check: the hemisphere constant attains it
    m = model.hemisphere(3)
    g = disc.build_grid(m, 96)
    ops = disc.assemble_operators(m, g)
    q_const = energy.yamabe_quotient(ops, np.ones(g.N)).Q
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
    p = energy.volume_covector(state)
    frame = np.column_stack([p, np.eye(ops.N)[:, : ops.N - 1]])
    B = np.linalg.qr(frame, mode="complete")[0][:, 1:]
    for mu in (0.0, 1e-3):
        ref = B @ np.linalg.solve(B.T @ (H + mu * ops.w12_gram) @ B, -(B.T @ G))
        for hess in (H, H0):
            step = minimize._polish_step(state, hess, G, mu)
            assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)
            assert abs(float(p @ step)) <= 1e-12 * np.linalg.norm(p) * np.linalg.norm(step)


def test_polish_stops_damping_at_roundoff_steps(frank_deg, monkeypatch):
    # grad_tol 1e-15 is out of reach, so the last polish iteration stalls; its
    # damping ladder must stop at round-off-sized steps without changing the result
    _, rep, _, _ = frank_deg
    ops = rep.v.ops
    u0 = 1.0 + 0.05 * np.cos(2 * math.pi * ops.grid.nodes / ops.model.length)
    opts = minimize.MinimizeOptions(grad_tol=1e-15)
    solve = minimize.bordered_solve
    counts = []

    def run():
        calls = []
        monkeypatch.setattr(minimize, "bordered_solve",
                            lambda *a: calls.append(1) or solve(*a))
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


def test_polish_bonus_steps_take_one_try(monkeypatch):
    # below grad_tol a polish step is a bonus: one bordered solve, and a
    # rejected one ends the polish instead of climbing the damping ladder
    m = model.frank_product(5, SUB_RADIUS)
    opts = minimize.MinimizeOptions(seed=2, grad_tol=1e-11)
    solve = minimize.bordered_solve
    entry_grads = []  # right-hand side -G of every polish solve

    def counting_solve(K, C, rhs):
        entry_grads.append(-rhs)
        return solve(K, C, rhs)

    monkeypatch.setattr(minimize, "bordered_solve", counting_solve)
    reports = minimize.run_multistart(m, 256, 3, opts)
    assert all(r.converged for r in reports)
    assert len(entry_grads) <= 8
    ops = reports[0].v.ops
    runs = []  # consecutive solves for one iteration share its gradient
    for G in entry_grads:
        if runs and np.array_equal(runs[-1][0], G):
            runs[-1][1] += 1
        else:
            runs.append([G, 1])
    for G, n_solves in runs:
        if ops.dual_norm(G) <= opts.grad_tol:
            assert n_solves == 1


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
    gradient, solve = energy.gradient, minimize.bordered_solve
    monkeypatch.setattr(energy, "gradient", lambda v: grads.append(1) or gradient(v))
    monkeypatch.setattr(minimize, "bordered_solve", lambda *a: solves.append(1) or solve(*a))
    rep = minimize.minimize_energy(ops, u0)
    assert rep.converged
    assert len(solves) > rep.iterations > 1  # some iterations climbed the damping ladder
    assert len(grads) == 1 + len(solves)    # the start's, then one per try
