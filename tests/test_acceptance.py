"""Acceptance gates for the full engine, one criterion per test.

Each test prints a single `criterion N (<name>): PASS/FAIL ...` line with
the measured values (run pytest with -s to see them) and asserts the
stated tolerances and runtime limits.
"""

import math
import time

import numpy as np
import pytest

import _oracle as oracle
from lie_kam import normalform as nf
from lie_kam import operators as ops
from lie_kam import presets as pr
from lie_kam import rigidbody as rb
from lie_kam import series as fts
from lie_kam.operators import AlgebraParams
from lie_kam.series import DomainConfig

PARAMS = AlgebraParams()
TR = pr.DEFAULT_TRUNC
DIO = pr.default_diophantine(PARAMS)
Q_SERIES = ops.generic_curvature(PARAMS, TR)


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_1_operator_identities():
    t0 = time.perf_counter()
    suite = {r["identity"]: r["max_residual"]
             for r in ops.run_identity_suite(PARAMS, trunc=TR, n_trials=1000,
                                             seed=0, dio=DIO)}
    elapsed = time.perf_counter() - t0
    limits = {
        "resonant_idempotent": 1e-9,
        "solvable_after_resonant": 1e-9,
        "derivation_after_resonant": 1e-9,
        "homological": 1e-9,
        "basic_solver_kills_basic_resonant": 1e-12,
        "translation_kills_basic_resonant": 1e-12,
    }
    worst = {k: suite[k] for k in limits}
    ok = all(worst[k] <= limits[k] for k in limits) and elapsed < 60.0
    report(1, "operator identities", ok,
           f"1000 series, worst residuals {max(worst.values()):.3e} "
           f"(loose) / "
           f"{max(worst[k] for k in limits if limits[k] == 1e-12):.3e} "
           f"(exact), {elapsed:.1f}s < 60s")


def test_criterion_2_conjugacy_both_sides():
    t0 = time.perf_counter()
    v = pr.reduced_drive_series(1e-3)
    tol = 1e-12
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        g = fts.random_real_series(TR, PARAMS.rho, rng, n_terms=5,
                                   l_t_max=1, l_theta_max=1, n_x_max=1)
        worst = max(worst, oracle.conjugacy_residual(v, Q_SERIES, PARAMS, g,
                                                 tol=tol, dio=DIO))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5.0 * tol and elapsed < 120.0
    report(2, "conjugacy", ok,
           f"20 probes, worst relative residual {worst:.3e} <= "
           f"{5.0 * tol:.0e}, {elapsed:.1f}s < 120s")


def test_criterion_3_quadratic_smallness():
    eps_grid = [1e-2, 3e-3, 1e-3, 3e-4]
    norms = []
    for eps in eps_grid:
        v = pr.reduced_drive_series(eps)
        res = nf.compute_v_star(v, Q_SERIES, PARAMS, tol=1e-12, dio=DIO)
        # measured on the shrunk strip r - 3 mu = 0.2 of the desk scales
        norms.append(fts.majorant_norm(res.v_star, 0.2))
    slope, intercept = np.polyfit(np.log(eps_grid), np.log(norms), 1)
    kappa = math.exp(intercept)
    ok = abs(slope - 2.0) <= 0.1
    report(3, "quadratic smallness", ok,
           f"slope {slope:.4f} within 2.0 +- 0.1, "
           f"prefactor kappa = {kappa:.4f} (reported, not asserted)")


def test_criterion_4_bound_margins():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    win = ops.identity_window(TR)
    worst = math.inf
    for _ in range(200):
        w = fts.random_real_series(TR, PARAMS.rho, rng, n_terms=25,
                                   l_t_max=win["l_t"],
                                   l_theta_max=win["l_theta"],
                                   n_x_max=win["n_x"])
        z = fts.random_real_series(TR, PARAMS.rho, rng, n_terms=25,
                                   l_t_max=win["l_t"],
                                   l_theta_max=win["l_theta"],
                                   n_x_max=win["n_x"])
        pert = fts.scale(
            fts.random_real_series(TR, PARAMS.rho, rng, n_terms=6,
                                   l_t_max=2, l_theta_max=2, n_x_max=0),
            0.005)
        rep = nf.certify_bounds(w, z, Q_SERIES + pert, PARAMS, DIO,
                                0.5, 0.1, 0.1)
        for row in rep["bounds"].values():
            worst = min(worst, row["margin"])
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.0 and elapsed < 120.0
    report(4, "bound margins", ok,
           f"200 triples (tau = 1, scanned gamma, q = 0.5), min margin "
           f"{worst:.3e} >= 0, {elapsed:.1f}s < 120s")


def test_criterion_5_iteration_contraction_and_schedule():
    # part one: three desk-scale steps contract quadratically
    v0 = pr.reduced_drive_series(1e-3)
    states = nf.kam_iterate(v0, Q_SERIES, PARAMS, DIO, 0.5, steps=3,
                            tol=1e-12)
    ratios = [s.contraction_ratio for s in states[1:]]
    contraction_ok = all(r is not None and r <= 10.0 for r in ratios)

    # part two: the schedule conditions hold on the emitted prefix at a
    # wide strip where the analytic thresholds are feasible
    wide = DomainConfig(x_half=0.25, r_max=40.0)
    r_wide = 30.0
    loss = 0.49 * r_wide
    bc = nf.compute_bound_constants(PARAMS, DIO, r_wide, loss, loss,
                                    domain=wide)
    thr = nf.eps0_threshold(DIO.q, bc.c, r_wide, DIO.tau)
    sched = nf.schedule_sequences(0.9 * thr, DIO.q, DIO.tau, bc.c,
                                  bc.c_tilde, r_wide, max_steps=10)
    conds_ok = (sched["valid"] and len(sched["steps"]) >= 3
                and all(all(step["conditions"].values())
                        for step in sched["steps"]))
    ok = contraction_ok and conds_ok
    report(5, "iteration contraction + schedule", ok,
           f"ratios |V_next|/|V|^2 = "
           f"{', '.join(f'{r:.3f}' for r in ratios)} all <= 10; "
           f"schedule prefix of {len(sched['steps'])} steps at r = 30: "
           f"conditions (a)-(f) all hold")


def test_criterion_6_dynamics_ground_truth():
    t0 = time.perf_counter()
    inertia = rb.InertiaSpec(1.0, 2.0, 3.0)
    y0 = rb.sample_sphere(1, 2.0, 7)[0]
    fieldfn = lambda t, y: rb.throbbing_field(y, t, inertia)
    static = rb.rk4_integrate(y0, fieldfn, 0.001, 100.0, stride=10)
    rep_s = rb.conservation_report(static, inertia)

    throb = pr.preset_inertia("fig2", eps=1.0)
    driven = rb.rk4_integrate(
        y0, lambda t, y: rb.throbbing_field(y, t, throb), 0.001, 100.0,
        stride=10)
    rep_t = rb.conservation_report(driven, throb)
    band_ok = (rep_t["rho_drift_max"] <= 1e-8
               and rep_t["energy_min"] >= 2.0 / 3.0 - 1e-9
               and rep_t["energy_max"] <= 2.0 + 1e-9)

    ref = rb.rk4_integrate(y0, fieldfn, 0.00125, 10.0).y[-1]
    e1 = np.max(np.abs(rb.rk4_integrate(y0, fieldfn, 0.02, 10.0).y[-1] - ref))
    e2 = np.max(np.abs(rb.rk4_integrate(y0, fieldfn, 0.01, 10.0).y[-1] - ref))
    factor = e1 / e2
    elapsed = time.perf_counter() - t0
    ok = (rep_s["rho_drift_max"] <= 1e-8
          and rep_s["energy_drift_max"] <= 1e-8
          and band_ok and 12.0 <= factor <= 20.0 and elapsed < 60.0)
    report(6, "dynamics ground truth", ok,
           f"static drift rho {rep_s['rho_drift_max']:.2e} / energy "
           f"{rep_s['energy_drift_max']:.2e} <= 1e-8; driven rho drift "
           f"{rep_t['rho_drift_max']:.2e}, E in [{rep_t['energy_min']:.3f}, "
           f"{rep_t['energy_max']:.3f}] within [2/3, 2]; halving factor "
           f"{factor:.2f} in [12, 20]; {elapsed:.1f}s < 60s")


def test_criterion_7_cross_representation():
    eps = 1e-3
    inertia = pr.preset_inertia("pert1", eps=eps)
    p = oracle.params_from_inertia(inertia, 2.0, AlgebraParams().x0)
    x_loc0, th0 = 0.05, 1.2

    m0 = rb.from_reduced(p.x0 + x_loc0, th0, 2.0)
    traj_c = rb.rk4_integrate(
        m0, lambda t, y: rb.throbbing_field(y, t, inertia), 0.001, 10.0,
        stride=1000)
    x_c, th_c = rb.to_reduced(traj_c.y[-1], 2.0)

    fieldfn = rb.make_reduced_field(p, pr.reduced_drive_series(eps))
    traj_r = rb.rk4_integrate(np.array([x_loc0, th0]), fieldfn, 0.001, 10.0,
                              stride=1000)
    x_r = p.x0 + traj_r.y[-1, 0]
    th_r = traj_r.y[-1, 1] % (2.0 * math.pi)
    dx = abs(x_c - x_r)
    dth = abs(th_c - th_r)
    dth = min(dth, 2.0 * math.pi - dth)
    ok = dx <= 1e-6 and dth <= 1e-6
    report(7, "cross-representation", ok,
           f"T = 10 endpoint differences |dX| = {dx:.3e}, "
           f"|dtheta| = {dth:.3e} <= 1e-6")


def test_criterion_8_diophantine_machinery():
    with pytest.raises(ValueError) as err:
        pr.default_diophantine(AlgebraParams(x0=0.6))
    pair_named = "(1, 5)" in str(err.value)

    gammas = [ops.estimate_diophantine(PARAMS.omega, 1.0, k)[0]
              for k in (10, 25, 50, 100, 200)]
    gamma50 = ops.estimate_diophantine(PARAMS.omega, 1.0, 50)[0]
    monotone = all(b <= a + 1e-15 for a, b in zip(gammas, gammas[1:]))
    ok = pair_named and gamma50 > 0.0 and monotone
    report(8, "diophantine machinery", ok,
           f"rational omega rejected at (l, m) = (1, 5); golden omega "
           f"gamma_hat(K=50) = {gamma50:.6f} > 0; gamma_hat non-increasing "
           f"over K in (10, 25, 50, 100, 200)")
