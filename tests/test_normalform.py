import json
import math

import numpy as np
import pytest

import _oracle as oracle
from lie_kam import normalform as nf
from lie_kam import operators as ops
from lie_kam import presets as pr
from lie_kam import series as fts
from lie_kam.normalform import DivergenceError, HypothesisError, IterationError
from lie_kam.operators import AlgebraParams, DiophantineParams
from lie_kam.series import DomainConfig, TruncationSpec

PARAMS = AlgebraParams()
TR = pr.DEFAULT_TRUNC
Q_SERIES = ops.generic_curvature(PARAMS, TR)
DIO = pr.default_diophantine(PARAMS)


def small_series(rng, n_terms=15, scale=1.0):
    win = ops.identity_window(TR)
    f = fts.random_real_series(TR, PARAMS.rho, rng, n_terms=n_terms,
                               l_t_max=win["l_t"], l_theta_max=win["l_theta"],
                               n_x_max=win["n_x"])
    return fts.scale(f, scale)


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# -- bound constants ----------------------------------------------------------


def test_constants_frozen_c1():
    dio = DiophantineParams(gamma=0.1, tau=1.0)
    bc = nf.compute_bound_constants(PARAMS, dio, r=0.5, d=0.1, delta=0.1)
    assert math.isclose(bc.c1, 5.0 / (0.2 * math.e ** 2), rel_tol=1e-12)


def test_constants_eps_mu_example():
    dio = DiophantineParams(gamma=0.1, tau=1.0, q=0.5)
    bc = nf.compute_bound_constants(PARAMS, dio, r=0.5, d=0.1, delta=0.1)
    assert math.isclose(bc.eps_mu(0.1), 0.125 * 1e-5 / (2.0 * bc.c),
                        rel_tol=1e-12)


def test_constants_handles_and_positivity():
    bc = nf.compute_bound_constants(PARAMS, DIO, r=0.5, d=0.1, delta=0.05)
    for v in (bc.c1, bc.c2, bc.c3, bc.c4, bc.c, bc.c_tilde):
        assert v > 0
    s = bc.d + bc.delta
    assert math.isclose(
        bc.lam(), bc.c / (bc.q ** 3 * bc.d * s ** (2 * bc.tau + 2)),
        rel_tol=1e-12)
    assert math.isclose(
        bc.xi(), bc.c_tilde / (bc.q ** 3 * bc.delta ** (2 * bc.tau + 3)),
        rel_tol=1e-12)
    assert math.isclose(
        bc.eps_mu(0.2), bc.q ** 3 * 0.2 ** (2 * bc.tau + 3) / (2 * bc.c),
        rel_tol=1e-12)


def test_constants_monotone_in_gamma_and_losses():
    # C falls as the Diophantine constant improves; the assembled bound
    # factor Lambda blows up as the losses close
    cs = []
    for g in (0.05, 0.1, 0.2, 0.4):
        dio = DiophantineParams(gamma=g, tau=1.0)
        cs.append(nf.compute_bound_constants(PARAMS, dio, 0.5, 0.1, 0.1).c)
    assert all(a > b for a, b in zip(cs, cs[1:]))
    # each factor is read at the losses its constants were built at
    lams = [nf.compute_bound_constants(PARAMS, DIO, 0.5, s / 2, s / 2).lam()
            for s in (0.2, 0.1, 0.05, 0.025)]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    xis = [nf.compute_bound_constants(PARAMS, DIO, 0.5, 0.1, x).xi()
           for x in (0.2, 0.1, 0.05)]
    assert all(a < b for a, b in zip(xis, xis[1:]))


def test_constants_validation():
    with pytest.raises(ValueError):
        nf.compute_bound_constants(PARAMS, DIO, r=0.5, d=0.3, delta=0.3)
    with pytest.raises(ValueError):
        nf.compute_bound_constants(PARAMS, DIO, r=0.5, d=-0.1, delta=0.1)
    with pytest.raises(ValueError):
        nf.compute_bound_constants(PARAMS, DIO, r=50.0, d=1.0, delta=1.0)


# -- certify_bounds -----------------------------------------------------------


def test_certify_zero_w():
    z = small_series(np.random.default_rng(1))
    w = fts.zeros(TR, PARAMS.rho)
    rep = nf.certify_bounds(w, z, Q_SERIES, PARAMS, DIO, 0.5, 0.1, 0.1)
    for row in rep["bounds"].values():
        assert row["measured"] == 0.0
        assert row["margin"] == row["bound"]


def test_certify_margins_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = small_series(rng, n_terms=25)
        z = small_series(rng, n_terms=25)
        pert = fts.scale(fts.random_real_series(
            TR, PARAMS.rho, rng, n_terms=6, l_t_max=2, l_theta_max=2,
            n_x_max=0), 0.005)
        rep = nf.certify_bounds(w, z, Q_SERIES + pert, PARAMS, DIO,
                                0.5, 0.1, 0.1)
        for name, row in rep["bounds"].items():
            assert row["margin"] >= 0.0, name


def test_certify_margin_utilization_shrinks_with_d():
    # the certificate is loosest at tiny d: measured/bound falls while the
    # margin itself stays nonnegative throughout
    rng = np.random.default_rng(11)
    w = small_series(rng, n_terms=25)
    z = small_series(rng, n_terms=25)
    utils = []
    for d in (0.2 * 0.5, 0.1 * 0.5, 0.05 * 0.5):
        rep = nf.certify_bounds(w, z, Q_SERIES, PARAMS, DIO, 0.5, d, 0.05)
        row = rep["bounds"]["derivation"]
        assert row["margin"] >= 0.0
        utils.append(row["measured"] / row["bound"])
    assert utils[0] > utils[1] > utils[2]


def test_certify_hypothesis_failures():
    rng = np.random.default_rng(3)
    w = small_series(rng)
    z = small_series(rng)
    # resonant rotation number: omega = -x0/3 rational for x0 = 0.6
    res_params = AlgebraParams(x0=0.6)
    with pytest.raises(HypothesisError):
        nf.certify_bounds(w, z, ops.generic_curvature(res_params, TR),
                          res_params, DIO, 0.5, 0.1, 0.1)
    # average floor violated
    with pytest.raises(HypothesisError):
        nf.certify_bounds(w, z, fts.scale(Q_SERIES, 0.5), PARAMS, DIO,
                          0.5, 0.1, 0.1)
    # norm cap violated: |Q00| fine but ||Q|| above 1/q
    big_q = fts.scale(Q_SERIES, 2.0)
    dio_tight = DiophantineParams(gamma=DIO.gamma, tau=1.0, q=0.9)
    with pytest.raises(HypothesisError):
        nf.certify_bounds(w, z, big_q, PARAMS, dio_tight, 0.5, 0.1, 0.1)


# -- lie_exp_apply ------------------------------------------------------------


def test_lie_exp_zero_generator():
    g = small_series(np.random.default_rng(5))
    out = nf.lie_exp_apply(fts.zeros(TR, PARAMS.rho), g, Q_SERIES, PARAMS, DIO)
    assert oracle.max_coeff_diff(out, g) == 0.0


def test_lie_exp_round_trip():
    rng = np.random.default_rng(9)
    f = small_series(rng, n_terms=10, scale=1e-3)
    g = small_series(rng, n_terms=10)
    tol = 1e-12
    fwd = nf.lie_exp_apply(f, g, Q_SERIES, PARAMS, DIO, tol=tol)
    back = nf.lie_exp_apply(fts.scale(f, -1.0), fwd, Q_SERIES, PARAMS, DIO,
                            tol=tol)
    ng = fts.majorant_norm(g, 0.0)
    assert fts.majorant_norm(back - g, 0.0) <= 2.0 * tol * max(ng, 1.0)


def test_lie_exp_scaling_slope_one():
    rng = np.random.default_rng(13)
    f = small_series(rng, n_terms=10)
    g = small_series(rng, n_terms=10)
    eps = [1e-2, 1e-3, 1e-4, 1e-5]
    gaps = []
    for e in eps:
        out = nf.lie_exp_apply(fts.scale(f, e), g, Q_SERIES, PARAMS, DIO,
                               tol=1e-14)
        gaps.append(fts.majorant_norm(out - g, 0.0))
    assert abs(loglog_slope(eps, gaps) - 1.0) < 0.05


def test_lie_exp_divergence_detected():
    rng = np.random.default_rng(17)
    f = small_series(rng, n_terms=10, scale=50.0)
    g = small_series(rng, n_terms=10)
    with pytest.raises(DivergenceError):
        nf.lie_exp_apply(f, g, Q_SERIES, PARAMS, DIO)


def test_lie_series_term_cap(monkeypatch):
    # at the cap the partial sum is returned with a warning
    monkeypatch.setattr(nf, "_MAX_TERMS", 2)
    rng = np.random.default_rng(9)
    f = small_series(rng, n_terms=10, scale=1e-3)
    g = small_series(rng, n_terms=10)
    with pytest.warns(RuntimeWarning, match="truncated at 2 terms"):
        out = nf.lie_exp_apply(f, g, Q_SERIES, PARAMS, DIO)
    gamma = ops.Derivation(f, Q_SERIES, PARAMS, DIO)
    g1 = gamma(g)
    g2 = fts.scale(gamma(g1), 0.5)
    assert oracle.max_coeff_diff(out, g + g1 + g2) == 0.0
    v = pr.reduced_drive_series(1e-3)
    with pytest.warns(RuntimeWarning, match="truncated at 2 terms"):
        res = nf.compute_v_star(v, Q_SERIES, PARAMS, dio=DIO)
    assert res.series_terms_used == 2
    # V_* is the two-term sum of the one chain u_1 = Gamma V,
    # u_2 = Gamma (u_1 - N V), divided by k!
    gamma = ops.Derivation(v, Q_SERIES, PARAMS, DIO)
    v1 = gamma(v)
    v2 = fts.scale(gamma(v1 - gamma.solvable), 0.5)
    want = v1 + v2
    assert res.v_star.coeffs.tobytes() == want.coeffs.tobytes()


def test_v_star_one_chain_matches_the_two_sums():
    # the one chain sums Gamma^k V / k! - Gamma^k (N V) / (k+1)!, the two
    # sums of the docstring, here summed separately to the same depth
    v = pr.reduced_drive_series(1e-2)
    res = nf.compute_v_star(v, Q_SERIES, PARAMS, tol=1e-15, dio=DIO)
    gamma = ops.Derivation(v, Q_SERIES, PARAMS, DIO)
    g, h = v, gamma.solvable
    want = fts.zeros(v.trunc, v.rho)
    for k in range(1, res.series_terms_used + 1):
        g = fts.scale(gamma(g), 1.0 / k)  # Gamma^k V / k!
        h = fts.scale(gamma(h), 1.0 / k)  # Gamma^k (N V) / k!
        want = want + g - fts.scale(h, 1.0 / (k + 1))
    assert fts.majorant_norm(res.v_star - want, 0.0) <= 1e-13


def test_v_star_forms_one_bracket_per_lie_term(monkeypatch):
    # N V enters at the second term, so even a huge tol sums two terms:
    # V_* = Gamma V + Gamma (Gamma V - N V) / 2
    v = pr.reduced_drive_series(1e-2)
    res = nf.compute_v_star(v, Q_SERIES, PARAMS, tol=1e300, dio=DIO)
    assert res.series_terms_used == 2
    gamma = ops.Derivation(v, Q_SERIES, PARAMS, DIO)
    v1 = gamma(v)
    want = v1 + fts.scale(gamma(v1 - gamma.solvable), 0.5)
    assert res.v_star.coeffs.tobytes() == want.coeffs.tobytes()
    # its first-order part -Gamma (N V) / 2 is kept
    first = fts.scale(gamma(gamma.solvable), -0.5)
    rest = v1 + fts.scale(gamma(v1), 0.5)
    assert fts.majorant_norm(first, 0.0) > 0.0
    assert fts.majorant_norm(res.v_star - rest - first, 0.0) \
        <= 1e-14 * fts.majorant_norm(first, 0.0)

    calls = []
    apply = ops.Derivation.__call__

    def counting_apply(self, *args, **kwargs):
        calls.append(1)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(ops.Derivation, "__call__", counting_apply)
    for eps in (1e-5, 1e-2):
        calls.clear()
        res = nf.compute_v_star(pr.reduced_drive_series(eps), Q_SERIES,
                                PARAMS, dio=DIO)
        assert len(calls) == res.series_terms_used, (eps, len(calls))


class _Blowup:
    """A stand-in derivation that multiplies by 1e200 at each application
    (and by the factor the Lie series passes)."""

    def __call__(self, g, factor=1.0):
        return fts.FourierTaylorSeries(g.coeffs * 1e200 * factor, g.trunc,
                                       g.rho, hermitian=True)


def test_lie_series_term_that_overflows_raises():
    rng = np.random.default_rng(31)
    g = small_series(rng)
    with np.errstate(over="ignore", invalid="ignore"):
        # the second term's coefficients overflow: its weight is checked
        for h in (None, g):
            with pytest.raises(ValueError, match="finite"):
                nf._lie_series(_Blowup(), g, h, g, 1e-12)
        # a real generator this large overflows in a bracket first
        with pytest.raises(ValueError, match="finite"):
            nf.lie_exp_apply(small_series(rng, scale=1e150), g, Q_SERIES,
                             PARAMS, DIO)


# -- compute_v_star -----------------------------------------------------------


def test_v_star_zero_input():
    v = fts.zeros(TR, PARAMS.rho)
    res = nf.compute_v_star(v, Q_SERIES, PARAMS, dio=DIO)
    assert fts.majorant_norm(res.v_star, 0.0) == 0.0
    assert fts.majorant_norm(res.rv, 0.0) == 0.0
    assert oracle.max_coeff_diff(res.q_star, Q_SERIES) == 0.0
    assert res.series_terms_used >= 1


def test_v_star_resonant_input_is_fixed():
    # x^2 e^{i t} sits in the resonant range: no solvable part, no
    # generator, so the step banks it whole and returns zero
    v = fts.from_real_terms({(1, 0, 2): 0.4}, TR, PARAMS.rho)
    res = nf.compute_v_star(v, Q_SERIES, PARAMS, dio=DIO)
    nv = fts.majorant_norm(v, 0.0)
    assert fts.majorant_norm(res.v_star, 0.0) <= 1e-12 * nv
    assert oracle.max_coeff_diff(res.rv, v) <= 1e-12 * nv
    # curvature picks up twice the degree-2 slice
    assert abs(res.q_star.coeff(1, 0, 0) - (Q_SERIES.coeff(1, 0, 0) + 0.8)) \
        <= 1e-12


def test_v_star_quadratic_slope_pert1():
    bc = nf.compute_bound_constants(PARAMS, DIO, r=0.5, d=0.1, delta=0.1)
    mu = bc.delta
    eps = [1e-2, 3e-3, 1e-3, 3e-4]
    norms = []
    for e in eps:
        v = pr.reduced_drive_series(e)
        res = nf.compute_v_star(v, Q_SERIES, PARAMS, tol=1e-14, dio=DIO)
        norms.append(fts.majorant_norm(res.v_star, bc.r - 3 * mu))
    slope = loglog_slope(eps, norms)
    kappa = norms[2] / fts.majorant_norm(pr.reduced_drive_series(eps[2]),
                                         bc.r) ** 2
    print(f"quadratic fit: slope {slope:.4f}, prefactor kappa {kappa:.4f}")
    assert abs(slope - 2.0) <= 0.1


def test_v_star_step_outputs_are_exactly_real():
    box = TruncationSpec(n_x=2, l_theta=2, l_t=2)  # clipped products too
    for trunc in (None, box):
        v = pr.reduced_drive_series(1e-2, trunc=trunc)
        q = ops.generic_curvature(PARAMS, trunc)
        res = nf.compute_v_star(v, q, PARAMS)
        for s in (res.v_star, res.rv, res.q_star):
            assert oracle.hermitian_defect(s.coeffs) == 0.0


def test_v_star_solves_do_not_grow_with_lie_terms(monkeypatch):
    # Gamma_V is built once per step, so the number of small-divisor
    # solves is fixed by the step, not by the Lie terms it sums
    calls = []
    solve = ops.small_divisor_solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ops, "small_divisor_solve", counting_solve)
    solves = {}
    for eps in (1e-5, 1e-2):
        calls.clear()
        res = nf.compute_v_star(pr.reduced_drive_series(eps), Q_SERIES,
                                PARAMS, dio=DIO)
        solves[res.series_terms_used] = len(calls)
    assert len(solves) == 2, solves
    assert len(set(solves.values())) == 1, solves


def test_v_star_builds_one_derivation(monkeypatch):
    # R V, N V and Gamma_V come from one homological solve, so the a_V
    # divisor sum is formed once per step
    calls = []
    coefficient = ops.translation_coefficient

    def counting_coefficient(*args, **kwargs):
        calls.append(1)
        return coefficient(*args, **kwargs)

    monkeypatch.setattr(ops, "translation_coefficient", counting_coefficient)
    for eps in (1e-5, 1e-2):
        calls.clear()
        nf.compute_v_star(pr.reduced_drive_series(eps), Q_SERIES, PARAMS,
                          dio=DIO)
        assert len(calls) == 1, (eps, len(calls))


def test_conjugacy_residual_probes():
    # probes sit deep inside the box so the exponential chains stay exact
    # down to the series tolerance
    rng = np.random.default_rng(21)
    v = pr.reduced_drive_series(1e-3)
    tol = 1e-12
    for _ in range(5):
        g = fts.random_real_series(TR, PARAMS.rho, rng, n_terms=5,
                                   l_t_max=1, l_theta_max=1, n_x_max=1)
        resid = oracle.conjugacy_residual(v, Q_SERIES, PARAMS, g, tol=tol,
                                      dio=DIO)
        assert resid <= 5.0 * tol


def test_normal_form_preserves_degree_ge2():
    # H + {RV, .} maps the zero-jet subspace into the resonant range
    rng = np.random.default_rng(23)
    v = pr.reduced_drive_series(1e-3)
    rv = ops.Derivation(v, Q_SERIES, PARAMS, DIO).resonant
    for _ in range(5):
        s = small_series(rng, n_terms=12)
        c = np.array(s.coeffs)
        c[:, :, :2] = 0.0
        f = fts.FourierTaylorSeries(c, s.trunc, s.rho)
        h = ops.hamiltonian_apply(f, Q_SERIES, PARAMS) \
            + fts.poisson_bracket(rv, f)
        nh = fts.majorant_norm(h, 0.0)
        assert fts.majorant_norm(
            ops.Derivation(h, Q_SERIES, PARAMS, DIO).solvable, 0.0) \
            <= 1e-9 * max(nh, 1e-300)


# -- schedule -----------------------------------------------------------------


def feasible_schedule(max_steps=4, eps_factor=0.9):
    dom = DomainConfig(x_half=0.25, r_max=40.0)
    r = 30.0
    d = delta = 0.49 * r
    bc = nf.compute_bound_constants(PARAMS, DIO, r, d, delta, dom)
    eps0 = eps_factor * nf.eps0_threshold(DIO.q, bc.c, r, DIO.tau)
    return nf.schedule_sequences(eps0, DIO.q, DIO.tau, bc.c, bc.c_tilde, r,
                                 max_steps=max_steps), bc, r


def test_schedule_eps_sequence_frozen():
    sched, _, _ = feasible_schedule(max_steps=2)
    eps0 = sched["steps"][0]["eps"]
    assert math.isclose(sched["steps"][1]["eps"], eps0 / 2 ** 10,
                        rel_tol=1e-12)


def test_schedule_q_sequence():
    sched, _, _ = feasible_schedule(max_steps=8)
    q0 = DIO.q
    assert math.isclose(sched["q_inf"], q0 * 2 ** (-math.pi ** 2 / 3.0),
                        rel_tol=1e-12)
    assert abs(sched["q_inf"] - q0 * 0.1023) <= 2e-4 * q0
    for st in sched["steps"]:
        i = st["i"]
        assert math.isclose(st["q"], q0 * (i + 2) / (2.0 * (i + 1)),
                            rel_tol=1e-12)
        assert st["q"] > sched["q_inf"]


def test_schedule_feasible_point_all_conditions():
    sched, _, r = feasible_schedule(max_steps=4)
    assert sched["valid"], sched["failures"]
    for st in sched["steps"]:
        assert all(st["conditions"].values()), st
    assert sched["mu_sum"] <= sched["mu_analytic_bound"]
    assert sched["mu_analytic_bound"] < r / 3.0
    assert r >= sched["r_floor"]


def test_schedule_detects_eps0_violation():
    sched, _, _ = feasible_schedule(max_steps=4, eps_factor=10.0)
    assert not sched["valid"]
    names = {f["condition"] for f in sched["failures"]}
    assert "eps0" in names


def test_schedule_eps0_zero():
    sched, _, _ = feasible_schedule(max_steps=3, eps_factor=0.0)
    assert sched["mu_sum"] == 0.0
    step_fails = {(f["condition"], f["step"]) for f in sched["failures"]}
    assert ("c", 0) in step_fails


def test_schedule_validation():
    with pytest.raises(ValueError):
        nf.schedule_sequences(1e-3, 1.5, 1.0, 10.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        nf.schedule_sequences(1e-3, 0.5, -1.0, 10.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        nf.schedule_sequences(-1e-3, 0.5, 1.0, 10.0, 10.0, 1.0)


def test_eps0_threshold_scaling():
    # threshold carries the full (r/pi^2)^(2tau+3) smallness in r
    t1 = nf.eps0_threshold(0.5, 100.0, 1.0, 1.0)
    t2 = nf.eps0_threshold(0.5, 100.0, 2.0, 1.0)
    assert math.isclose(t2 / t1, 2.0 ** 5, rel_tol=1e-12)


# -- kam_iterate --------------------------------------------------------------


def test_iterate_zero_fixed_point():
    v0 = fts.zeros(TR, PARAMS.rho)
    states = nf.kam_iterate(v0, Q_SERIES, PARAMS, DIO, r=0.5, steps=3)
    assert len(states) == 4
    for st in states:
        assert st.measured_v_norm == 0.0
        assert oracle.max_coeff_diff(st.curvature, Q_SERIES) == 0.0
    assert states[1].contraction_ratio == 0.0


def test_iterate_desk_scale_contraction():
    v0 = pr.reduced_drive_series(1e-3)
    states = nf.kam_iterate(v0, Q_SERIES, PARAMS, DIO, r=0.5, steps=3)
    assert len(states) == 4
    norms = [st.measured_v_norm for st in states]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    for st in states[1:]:
        assert st.contraction_ratio is not None
        assert st.contraction_ratio <= 10.0
    # radius bookkeeping: r_i = r - sum of consumed losses, positive
    assert states[-1].r_i > 0
    spent = sum(st.mu_i for st in states[:-1])
    assert math.isclose(states[-1].r_i, 0.5 - spent, rel_tol=1e-12)


def test_iterate_eps_doubling_quadratic():
    s1 = nf.kam_iterate(pr.reduced_drive_series(1e-3), Q_SERIES, PARAMS, DIO,
                        r=0.5, steps=1)
    s2 = nf.kam_iterate(pr.reduced_drive_series(2e-3), Q_SERIES, PARAMS, DIO,
                        r=0.5, steps=1)
    factor = s2[1].measured_v_norm / s1[1].measured_v_norm
    assert abs(factor - 4.0) <= 0.5


def test_iterate_divergence_on_fat_input():
    rng = np.random.default_rng(29)
    v0 = small_series(rng, n_terms=10, scale=2e3)
    with pytest.raises(DivergenceError):
        nf.kam_iterate(v0, Q_SERIES, PARAMS, DIO, r=0.5, steps=2)


def test_iteration_error_carries_states():
    err = IterationError("lost contraction", states=[1, 2, 3])
    assert err.states == [1, 2, 3]


def test_iteration_ledger_json():
    states = nf.kam_iterate(pr.reduced_drive_series(1e-3), Q_SERIES, PARAMS,
                            DIO, r=0.5, steps=2)
    led = nf.iteration_ledger(states)
    text = json.dumps(led)
    back = json.loads(text)
    assert len(back) == 3
    for row in back:
        assert sorted(row) == ["contraction_ratio", "i", "measured_norm",
                               "mu_i", "r_i"]
