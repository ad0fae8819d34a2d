import math

import numpy as np
import pytest

import _oracle as oracle
from lie_kam import presets as pr
from lie_kam import rigidbody as rb
from lie_kam import series as fts
from lie_kam.operators import AlgebraParams

RHO = 2.0
ASYM = rb.InertiaSpec(1.0, 2.0, 3.0)
FLAT = fts.zeros(pr.DEFAULT_TRUNC, RHO)  # the unperturbed drive


def static_field(inertia):
    return lambda t, y: rb.throbbing_field(y, t, inertia)


# -- fields -------------------------------------------------------------------


def test_unmodulated_field_principal_axes_are_fixed_points():
    for axis in range(3):
        m = np.zeros(3)
        m[axis] = RHO
        assert np.all(rb.throbbing_field(m, 0.0, ASYM) == 0.0)


def test_unmodulated_field_spherical_top_is_free():
    sphere = rb.InertiaSpec(2.0, 2.0, 2.0)
    for m in rb.sample_sphere(50, RHO, 3):
        assert np.max(np.abs(rb.throbbing_field(m, 0.0, sphere))) <= 1e-15


def test_unmodulated_field_frozen_example():
    # M = (0, m, m) with I = (1, 2, 3) evolves as (m^2/2 - m^2/3, 0, 0)
    m = 1.3
    out = rb.throbbing_field(np.array([0.0, m, m]), 0.0, ASYM)
    assert abs(out[0] - m * m / 6.0) <= 1e-15
    assert out[1] == 0.0 and out[2] == 0.0


def test_unmodulated_field_orthogonal_to_momentum():
    rng = np.random.default_rng(11)
    for m in rb.sample_sphere(200, RHO, rng):
        assert abs(float(rb.throbbing_field(m, 0.0, ASYM) @ m)) <= 1e-13


def test_throbbing_field_orthogonal_to_momentum():
    inertia = pr.preset_inertia("fig2", eps=1.0)
    rng = np.random.default_rng(12)
    ts = rng.uniform(0.0, 20.0, size=1000)
    for m, t in zip(rb.sample_sphere(1000, RHO, rng), ts):
        assert abs(float(rb.throbbing_field(m, t, inertia) @ m)) <= 1e-13


def test_throbbing_field_reduces_to_static():
    inertia = pr.preset_inertia("fig2", eps=0.4)
    m = np.array([0.3, 1.1, -0.7])
    # cos(t) vanishes at t = pi/2, leaving the static moments
    off = rb.throbbing_field(m, math.pi / 2.0, inertia)
    assert np.max(np.abs(off - rb.throbbing_field(m, 0.0, ASYM))) <= 1e-15
    # zero amplitude matches the undriven top at every t
    zero = rb.InertiaSpec(1.0, 2.0, 3.0, drive=0.0)
    for t in (0.0, 0.7, 4.2):
        assert np.all(rb.throbbing_field(m, t, zero)
                      == rb.throbbing_field(m, t, ASYM))


def test_driven_field_and_section_bits():
    # the fig2 drive 0.1 eps cos t on 1/I2, pinned bit for bit off the
    # zeros of cos t, and the first section state of a driven run
    inertia = pr.preset_inertia("fig2", eps=0.7)
    m = np.array([0.3, 1.1, -0.7])
    pinned = {
        0.7: ["-0x1.5b416571ab2f0p-3", "0x1.1eb851eb851ecp-3",
              "0x1.2dbc79d3ac655p-3"],
        4.2: ["-0x1.a16a9249670a4p-4", "0x1.1eb851eb851ecp-3",
              "0x1.691d183dcd64fp-3"],
    }
    for t, bits in pinned.items():
        out = rb.throbbing_field(m, t, inertia)
        assert [float(v).hex() for v in out] == bits
    y0 = rb.sample_sphere(1, RHO, 3)[0]
    sec = rb.rk4_integrate(y0, static_field(inertia), 0.01, 7.0,
                           period=2.0 * math.pi).section
    assert sec.t[1] == 2.0 * math.pi
    assert [float(v).hex() for v in sec.y[1]] == [
        "0x1.907029da730c1p+0", "-0x1.ce824a44076a5p-3",
        "0x1.39c4d27605c02p+0"]


def test_inertia_validation():
    with pytest.raises(ValueError):
        rb.InertiaSpec(1.0, -2.0, 3.0)
    with pytest.raises(ValueError):
        rb.InertiaSpec(1.0, 0.0, 3.0)
    # |drive| >= 1/I_2 makes the inverse moment vanish somewhere
    for drive in (0.5, -0.5):
        with pytest.raises(ValueError):
            rb.InertiaSpec(1.0, 2.0, 3.0, drive=drive)
    ok = rb.InertiaSpec(1.0, 2.0, 3.0, drive=0.49)
    # M = (0, 1, 1) gives the field (inv_2(t) - inv_3, 0, 0), read at t = 0
    field = rb.throbbing_field(np.array([0.0, 1.0, 1.0]), 0.0, ok)
    assert abs(field[0] - (0.5 + 0.49 - 1.0 / 3.0)) <= 1e-15
    assert not oracle.is_symmetric(ok)
    assert oracle.is_symmetric(rb.InertiaSpec(2.0, 2.0, 3.0))


@pytest.mark.parametrize("args", [
    (math.nan, 2.0, 3.0),
    (1.0, math.nan, 3.0),
    (1.0, 2.0, math.inf),
    (1.0, 2.0, 3.0, math.nan),
    (1.0, 2.0, 3.0, math.inf),
    (1.0, math.inf, 3.0, 0.1),
])
def test_inertia_rejects_non_finite(args):
    with pytest.raises(ValueError):
        rb.InertiaSpec(*args)


# -- integrator ---------------------------------------------------------------


def test_rk4_static_conservation():
    y0 = rb.sample_sphere(1, RHO, 42)[0]
    traj = rb.rk4_integrate(y0, static_field(ASYM), 0.001, 20.0, stride=20)
    rep = rb.conservation_report(traj, ASYM)
    assert rep["rho_drift_max"] <= 1e-8
    assert rep["energy_drift_max"] <= 1e-8
    assert rep["in_band"]


def test_rk4_convergence_is_fourth_order():
    # coarse steps keep the error above the rounding floor so halving h
    # shows the h^4 factor
    for seed in (7, 123):
        y0 = rb.sample_sphere(1, RHO, seed)[0]
        ref = rb.rk4_integrate(y0, static_field(ASYM), 0.00125, 10.0).y[-1]
        e1 = np.max(np.abs(
            rb.rk4_integrate(y0, static_field(ASYM), 0.02, 10.0).y[-1] - ref))
        e2 = np.max(np.abs(
            rb.rk4_integrate(y0, static_field(ASYM), 0.01, 10.0).y[-1] - ref))
        assert 12.0 <= e1 / e2 <= 20.0


def test_rk4_zero_span_returns_initial_sample():
    y0 = np.array([1.0, 2.0, 3.0])
    traj = rb.rk4_integrate(y0, static_field(ASYM), 0.1, 0.0)
    assert len(traj) == 1
    assert traj.t[0] == 0.0
    assert np.all(traj.y[0] == y0)
    assert not traj.aborted


def test_rk4_aborts_on_nonfinite_state():
    def blowup(t, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return y ** 3
    traj = rb.rk4_integrate(np.array([5.0]), blowup, 0.5, 10.0)
    assert traj.aborted
    assert len(traj) >= 1
    assert np.all(np.isfinite(traj.y))


def test_rk4_batch_aborts_only_the_failing_member():
    # dy/dt = y^2 blows up at t = 1 / y0: only the middle member does
    # so within T = 1
    def blowup(t, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return y * y
    y0 = np.array([[0.1], [5.0], [-0.2]])
    for stride in (1, 3):
        batch = rb.rk4_integrate(y0, blowup, 0.01, 1.0, stride=stride)
        assert list(batch.aborted) == [False, True, False]
        for k, member in enumerate(batch.members()):
            solo = rb.rk4_integrate(y0[k], blowup, 0.01, 1.0, stride=stride)
            assert member.aborted is solo.aborted
            assert np.array_equal(member.t, solo.t)
            assert np.array_equal(member.y, solo.y)
        assert len(batch.members()[1]) < len(batch)
        assert np.all(np.isfinite(batch.y))
        if stride == 1:
            # the aborted member stays frozen at its last good state
            rows = batch.rows[1]
            assert np.all(batch.y[rows:, 1] == batch.y[rows - 1, 1])


def test_rk4_field_sees_only_live_members_after_an_abort():
    # dy/dt = y^2 blows up at t = 1 / y0: member (0, 1) does at t = 0.2.
    # From its abort step on, every field call gets the other three
    # members only, and their stage states are finite
    calls = []

    def counting(t, y):
        calls.append((y.shape, bool(np.isfinite(y).all())))
        with np.errstate(over="ignore", invalid="ignore"):
            return y * y
    y0 = np.array([[[0.1], [5.0]], [[-0.2], [0.3]]])
    batch = rb.rk4_integrate(y0, counting, 0.01, 1.0)
    assert batch.aborted.tolist() == [[False, True], [False, False]]
    assert len(calls) == 4 * 100
    # rows - 1 whole steps, then the step that failed, with every member
    before = 4 * int(batch.rows[0, 1])
    assert all(shape == (2, 2, 1) for shape, _ in calls[:before])
    assert calls[before:] == [((3, 1), True)] * (len(calls) - before)
    for k, member in enumerate(batch.members()):
        solo = rb.rk4_integrate(y0.reshape(4, 1)[k], counting, 0.01, 1.0)
        assert member.aborted is solo.aborted
        assert np.array_equal(member.y, solo.y)


def test_rk4_validation():
    f = static_field(ASYM)
    with pytest.raises(ValueError):
        rb.rk4_integrate(np.zeros(3), f, -0.1, 1.0)
    with pytest.raises(ValueError):
        rb.rk4_integrate(np.zeros(3), f, 0.1, -1.0)
    with pytest.raises(ValueError):
        rb.rk4_integrate(np.zeros(3), f, 0.1, 1.0, stride=0)


# -- chart --------------------------------------------------------------------


def test_chart_round_trip():
    rng = np.random.default_rng(5)
    pts = rb.sample_sphere(200, RHO, rng)
    pts = pts[np.abs(pts[:, 2] / RHO) < 0.95]
    assert len(pts) > 50
    x_big, theta = rb.to_reduced(pts, RHO)
    back = rb.from_reduced(x_big, theta, RHO)
    assert np.max(np.abs(back - pts)) <= 1e-12


def test_chart_equator_and_rejections():
    x_big, theta = rb.to_reduced(np.array([RHO, 0.0, 0.0]), RHO)
    assert x_big == 0.0 and theta == 0.0
    with pytest.raises(ValueError):
        rb.to_reduced(np.array([0.0, 0.0, RHO]), RHO)
    with pytest.raises(ValueError):
        rb.to_reduced(np.array([0.0, 0.0, -RHO]), RHO)
    with pytest.raises(ValueError):
        rb.to_reduced(np.array([1.5, 0.0, 0.0]), RHO)
    with pytest.raises(ValueError):
        rb.from_reduced(1.0, 0.3, RHO)


def test_params_from_inertia():
    p = oracle.params_from_inertia(rb.InertiaSpec(2.0, 2.0, 3.0), RHO, 0.25)
    assert p.rho == RHO and p.x0 == 0.25
    assert abs(p.delta - (1.0 / 3.0 - 1.0 / 2.0)) <= 1e-15
    with pytest.raises(ValueError):
        oracle.params_from_inertia(ASYM, RHO, 0.25)


# -- reduced field ------------------------------------------------------------


def test_reduced_field_unperturbed():
    p = AlgebraParams()
    fieldfn = rb.make_reduced_field(p, FLAT)
    xd, td = fieldfn(0.0, np.array([0.0, 0.3]))
    assert xd == 0.0
    assert abs(td - p.omega) <= 1e-15
    xd, td = fieldfn(5.0, np.array([0.1, 2.0]))
    assert xd == 0.0
    assert abs(td - p.rho * p.delta * (p.x0 + 0.1)) <= 1e-15


def _term_sum(part, x, th, t):
    """The oracle's term-by-term value of a real series at real points."""
    return oracle.evaluate(oracle.dict_from_series(part), x, th, t).real


def test_reduced_field_matches_dense_evaluation():
    # the compiled field must agree with the oracle's term-by-term sum
    p = AlgebraParams()
    v = pr.reduced_drive_series(2e-3)
    vx = fts.partial_x(v)
    vth = fts.partial_theta(v)
    fieldfn = rb.make_reduced_field(p, v)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(-0.2, 0.2)
        th = rng.uniform(0.0, 2.0 * math.pi)
        t = rng.uniform(0.0, 10.0)
        out = fieldfn(t, np.array([x, th]))
        assert abs(out[0] - (-_term_sum(vth, x, th, t) / p.rho)) <= 1e-15
        want = (p.rho * p.delta * (p.x0 + x)
                + _term_sum(vx, x, th, t) / p.rho)
        assert abs(out[1] - want) <= 1e-14


def test_reduced_field_rejects_domain_exit():
    # the compiled field gives NaN velocities outside the domain, so only
    # the member that left it aborts
    p = AlgebraParams()
    v = pr.reduced_drive_series(1e-3)
    fieldfn = rb.make_reduced_field(p, v)
    assert np.all(np.isnan(fieldfn(0.0, np.array([0.9, 0.3]))))
    out = fieldfn(0.0, np.array([[0.9, 0.3], [0.1, 0.3]]))
    assert np.all(np.isnan(out[0]))
    assert np.array_equal(out[1], fieldfn(0.0, np.array([0.1, 0.3])))
    traj = rb.rk4_integrate(np.array([[0.9, 0.3], [0.0, 0.3]]), fieldfn,
                            0.1, 1.0)
    assert list(traj.aborted) == [True, False]
    assert len(traj.members()[0]) == 1


def _general_series(seed):
    """Random real series over the whole default box, plus l = 0 and m = 0
    harmonics and constant (0, 0, n) terms up to degree n_x."""
    trunc = pr.DEFAULT_TRUNC
    rng = np.random.default_rng(seed)
    extra = fts.from_real_terms(
        [(0, 0, 0, 0.7), (0, 0, 3, -0.4), (0, 0, trunc.n_x, 0.9),
         (0, 3, 2, 0.2 - 0.5j), (0, trunc.l_theta, trunc.n_x, -0.3j),
         (2, 0, 1, 0.6 + 0.1j), (trunc.l_t, 0, 4, -0.25)], trunc, RHO)
    return fts.random_real_series(trunc, RHO, rng) + extra


def _dense_field_tolerance(v, p, x):
    """Bound on |compiled - term sum| for both velocity components.

    Each side sums at most N = nnz(dV) products c x^n e^{i phase}, with
    |x| <= x_half < 1 and a unit-modulus wave, so the sum of the term
    magnitudes is at most sum |c|. Recursive summation of N terms, each
    formed by at most n_x + 4 roundings (power, trig, two products),
    errs by at most (N + n_x + 4) eps sum |c|; allow that for each side,
    both scaled by 1/rho, plus one rounding of rho Delta (x0 + x).
    """
    n_x = v.trunc.n_x
    tols = []
    for part in (fts.partial_theta(v), fts.partial_x(v)):
        nnz = np.count_nonzero(part.coeffs)
        mass = float(np.sum(np.abs(part.coeffs)))
        tols.append(2.0 * (nnz + n_x + 4) * np.finfo(float).eps * mass / p.rho)
    tols[1] += np.finfo(float).eps * abs(p.rho * p.delta * (p.x0 + x))
    return tols


def test_reduced_field_matches_dense_on_general_series():
    # degrees up to n_x (repeated multiplication, not x ** n), l = 0 and
    # m = 0 harmonics and constant (0, 0, n) terms on both outputs
    p = AlgebraParams()
    x_half = fts.DEFAULT_DOMAIN.x_half
    rng = np.random.default_rng(21)
    for seed in range(4):
        v = _general_series(seed)
        vth, vx = fts.partial_theta(v), fts.partial_x(v)
        fieldfn = rb.make_reduced_field(p, v)
        x = rng.uniform(-x_half, x_half, size=40)
        th = rng.uniform(0.0, 2.0 * math.pi, size=40)
        t = float(rng.uniform(0.0, 10.0))
        out = fieldfn(t, np.stack([x, th], axis=-1))
        tol_x, tol_th = _dense_field_tolerance(v, p, x)
        want_x = -_term_sum(vth, x, th, t) / p.rho
        want_th = p.rho * p.delta * (p.x0 + x) + _term_sum(vx, x, th, t) / p.rho
        assert np.all(np.abs(out[:, 0] - want_x) <= tol_x)
        assert np.all(np.abs(out[:, 1] - want_th) <= tol_th)


def test_reduced_field_time_only_drive_has_no_x_velocity():
    # V without theta modes: dV/dtheta is identically zero, so dx/dt is
    # exactly zero while dtheta/dt follows the oracle's dV/dx
    trunc = pr.DEFAULT_TRUNC
    p = AlgebraParams()
    v = fts.from_real_terms([(0, 0, 0, 0.3), (0, 0, 2, -0.2),
                             (1, 0, 3, 0.4 - 0.1j), (3, 0, 1, 0.05j)],
                            trunc, RHO)
    assert not np.any(fts.partial_theta(v).coeffs)
    fieldfn = rb.make_reduced_field(p, v)
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.25, 0.25, size=30)
    th = rng.uniform(0.0, 2.0 * math.pi, size=30)
    t = 1.7
    out = fieldfn(t, np.stack([x, th], axis=-1))
    assert np.all(out[:, 0] == 0.0)
    want = (p.rho * p.delta * (p.x0 + x)
            + _term_sum(fts.partial_x(v), x, th, t) / p.rho)
    assert np.all(np.abs(out[:, 1] - want)
                  <= _dense_field_tolerance(v, p, x)[1])


def test_reduced_field_zero_series_is_unperturbed_in_domain():
    p = AlgebraParams()
    y = np.array([[0.1, 0.4], [-0.2, 5.0], [0.0, 0.0]])
    fieldfn = rb.make_reduced_field(p, FLAT)
    want = np.zeros_like(y)
    want[:, 1] = p.rho * p.delta * (p.x0 + y[:, 0])
    assert np.array_equal(fieldfn(0.3, y), want)
    # a perturbation series, even zero, keeps the domain check
    assert np.all(np.isnan(fieldfn(0.3, np.array([0.3, 0.4]))))


def test_reduced_field_rejects_series_on_another_sphere():
    # V and the drift are added as series, so V must share params.rho
    with pytest.raises(ValueError, match="rho mismatch"):
        rb.make_reduced_field(AlgebraParams(rho=3.0), FLAT)


def test_reduced_field_rejects_non_real_series():
    # a non-real drive never reaches the compiler: it is rejected where it
    # enters, as a series
    with pytest.raises(fts.RealityError):
        fts.from_terms([(1, 2, 1, 0.5)], pr.DEFAULT_TRUNC, RHO)


def test_reduced_field_batch_is_bitwise_solo():
    # a batch of shape (3, 4, 2) holds in-domain members, members beyond
    # the domain and non-finite members; each gets the bits of its solo
    # call, so a NaN member cannot hide another member's domain exit
    fieldfn = rb.make_reduced_field(AlgebraParams(), _general_series(7))
    rng = np.random.default_rng(3)
    y = np.stack([rng.uniform(-0.25, 0.25, size=(3, 4)),
                  rng.uniform(0.0, 2.0 * math.pi, size=(3, 4))], axis=-1)
    y[0, 1, 0] = 0.3
    y[1, 2, 0] = np.nan
    y[1, 3, 0] = -0.26
    y[2, 0, 1] = np.inf
    with np.errstate(invalid="ignore"):
        out = fieldfn(0.9, y)
        solos = [fieldfn(0.9, y[idx]) for idx in np.ndindex(3, 4)]
    assert out.shape == y.shape
    for idx, solo in zip(np.ndindex(3, 4), solos):
        assert np.array_equal(out[idx], solo, equal_nan=True)
    assert np.all(np.isnan(out[0, 1])) and np.all(np.isnan(out[1, 3]))
    assert np.all(np.isfinite(out[2, 1:]))


def test_rk4_reduced_batch_is_bitwise_solo():
    # V adds sin(theta) to a general series, so dx/dt ~ cos(theta) / rho
    # pushes the member at theta = pi out of the domain within T, while
    # the member started beyond it aborts at once and stays frozen there
    v = _general_series(11) + fts.from_real_terms(
        [(0, 1, 0, -0.5j)], pr.DEFAULT_TRUNC, RHO)
    fieldfn = rb.make_reduced_field(AlgebraParams(), v)
    y0 = np.array([[0.0, 0.3], [0.5, 1.0], [0.2, math.pi], [-0.1, 2.0]])
    batch = rb.rk4_integrate(y0, fieldfn, 0.005, 1.0, stride=2)
    assert batch.aborted[1] and batch.aborted[2]
    assert batch.rows[1] == 1 and batch.rows[2] > 1
    for k, member in enumerate(batch.members()):
        solo = rb.rk4_integrate(y0[k], fieldfn, 0.005, 1.0, stride=2)
        assert member.aborted is solo.aborted
        assert np.array_equal(member.t, solo.t)
        assert np.array_equal(member.y, solo.y)


def test_cross_integrator_agreement():
    # the Cartesian throbbing top and the reduced chart flow are the same
    # dynamics written in two charts
    eps = 1e-3
    inertia = pr.preset_inertia("pert1", eps=eps)
    p = oracle.params_from_inertia(inertia, RHO, AlgebraParams().x0)
    x_loc0, th0 = 0.05, 1.2
    h, t_final = 0.001, 10.0

    m0 = rb.from_reduced(p.x0 + x_loc0, th0, RHO)
    traj_c = rb.rk4_integrate(
        m0, lambda t, y: rb.throbbing_field(y, t, inertia), h, t_final,
        stride=1000)
    x_c, th_c = rb.to_reduced(traj_c.y[-1], RHO)

    fieldfn = rb.make_reduced_field(p, pr.reduced_drive_series(eps))
    traj_r = rb.rk4_integrate(np.array([x_loc0, th0]), fieldfn, h, t_final,
                              stride=1000)
    x_r = p.x0 + traj_r.y[-1, 0]
    th_r = traj_r.y[-1, 1] % (2.0 * math.pi)
    dth = abs(th_c - th_r)
    dth = min(dth, 2.0 * math.pi - dth)
    assert abs(x_c - x_r) <= 1e-6
    assert dth <= 1e-6


# -- sections and diagnostics -------------------------------------------------


def test_poincare_unperturbed_reduced_is_flat():
    p = AlgebraParams()
    fieldfn = rb.make_reduced_field(p, FLAT)
    sec = rb.rk4_integrate(np.array([0.07, 0.4]), fieldfn, 0.01, 50.0,
                           period=2.0 * math.pi).section
    assert len(sec) == 8
    assert np.max(np.abs(sec.y[:, 0] - 0.07)) <= 1e-9


def test_poincare_static_section_conserves_energy():
    # near the middle-axis separatrix the section still sits on the
    # energy level of the initial condition
    ang = 0.08
    y0 = np.array([RHO * math.sin(ang), RHO * math.cos(ang), 0.0])
    sec = rb.rk4_integrate(y0, static_field(ASYM), 0.002, 100.0,
                           period=2.0 * math.pi).section
    inv = ASYM.static_inverse()
    e0 = 0.5 * float(y0 * y0 @ inv)
    e_sec = 0.5 * np.sum(sec.y * sec.y * inv, axis=-1)
    assert len(sec) >= 15
    assert np.max(np.abs(e_sec - e0)) <= 1e-6


def test_poincare_throbbing_smears_symmetric_section():
    # a strong drive moves X across the sphere; the static symmetric top
    # keeps the section at a single X
    y0 = np.array([RHO * math.sin(0.9), 0.0, RHO * math.cos(0.9)])
    inertia = pr.preset_inertia("fig2", eps=1.0)
    sec = rb.rk4_integrate(
        y0, lambda t, y: rb.throbbing_field(y, t, inertia), 0.002, 50.0,
        period=2.0 * math.pi).section
    spread = np.ptp(rb.to_reduced(sec.y, RHO)[0])

    sym = rb.InertiaSpec(2.0, 2.0, 3.0)
    sec_s = rb.rk4_integrate(y0, static_field(sym), 0.002, 50.0,
                             period=2.0 * math.pi).section
    spread_s = np.ptp(rb.to_reduced(sec_s.y, RHO)[0])
    assert spread > 0.5
    assert spread_s <= 1e-9


def test_poincare_validation():
    fieldfn = rb.make_reduced_field(AlgebraParams(), FLAT)
    for period in (-1.0, 0.0):
        with pytest.raises(ValueError):
            rb.rk4_integrate(np.array([0.0, 0.1]), fieldfn, 0.1, 2.0,
                             period=period)


def _growth_field(t, y):
    # dx/dt = x, dtheta/dt = 1; beyond |x| = 1 the velocity is NaN
    out = np.empty_like(y)
    out[..., 0] = y[..., 0]
    out[..., 1] = 1.0
    out[np.abs(y[..., 0]) > 1.0] = np.nan
    return out


def test_section_of_an_aborting_batch_member():
    # x = x0 e^t leaves |x| <= 1 at t = ln(1/x0): member 1 before the first
    # section period, member 2 after three sections, member 0 never
    period, h, t_final = 0.2345, 0.01, 2.0
    y0 = np.array([[1e-3, 0.0], [0.9, 0.0], [0.5, 0.0]])
    batch = rb.rk4_integrate(y0, _growth_field, h, t_final, period=period)
    members = batch.members()
    assert [m.aborted for m in members] == [False, True, True]
    every = [k * period for k in range(9)]
    for member in members:
        # the member's last good grid time is its last sample (stride 1)
        times = [s for s in every if s <= member.t[-1] + 1e-12]
        assert member.section.t.tolist() == times
    assert [len(m.section) for m in members] == [9, 1, 3]
    for member, init in zip(members, y0):
        solo = rb.rk4_integrate(init, _growth_field, h, t_final,
                                period=period)
        assert solo.aborted == member.aborted
        assert np.array_equal(solo.section.t, member.section.t)
        assert solo.section.y.tobytes() == member.section.y.tobytes()
    strided = rb.rk4_integrate(y0, _growth_field, h, t_final, stride=7,
                               period=period).members()
    for member, other in zip(members, strided):
        assert np.array_equal(other.section.t, member.section.t)
        assert other.section.y.tobytes() == member.section.y.tobytes()


def test_section_at_grid_times_is_the_grid_state():
    # a period of 25 steps puts every section time on the grid
    y0 = np.array([1e-3, 0.0])
    traj = rb.rk4_integrate(y0, _growth_field, 0.01, 1.0, period=0.25)
    assert traj.section.t.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert traj.section.y.tobytes() == traj.y[::25].tobytes()


def test_conservation_report_band():
    y0 = rb.sample_sphere(1, RHO, 9)[0]
    traj = rb.rk4_integrate(y0, static_field(ASYM), 0.001, 5.0, stride=10)
    rep = rb.conservation_report(traj, ASYM)
    assert abs(rep["band_lo"] - 2.0 / 3.0) <= 1e-12
    assert abs(rep["band_hi"] - 2.0) <= 1e-12
    assert rep["in_band"]

    sphere = rb.InertiaSpec(2.0, 2.0, 2.0)
    traj_s = rb.rk4_integrate(y0, static_field(sphere), 0.01, 1.0)
    rep_s = rb.conservation_report(traj_s, sphere)
    assert abs(rep_s["band_lo"] - rep_s["band_hi"]) <= 1e-12
    assert rep_s["energy_drift_max"] <= 1e-12


def test_sample_sphere_norms_and_determinism():
    pts = rb.sample_sphere(100, RHO, 77)
    assert pts.shape == (100, 3)
    assert np.max(np.abs(np.sqrt(np.sum(pts * pts, axis=-1)) - RHO)) <= 1e-12
    assert np.all(pts == rb.sample_sphere(100, RHO, 77))


# -- CSV ----------------------------------------------------------------------


def test_csv_round_trip_cartesian(tmp_path):
    y0 = rb.sample_sphere(1, RHO, 4)[0]
    traj = rb.rk4_integrate(y0, static_field(ASYM), 0.01, 1.0)
    cfg = {"preset": "fig1", "seed": 4, "h": 0.01, "T": 1.0}
    path = tmp_path / "traj.csv"
    rb.write_trajectory_csv(path, traj, "cartesian", cfg)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "t,M1,M2,M3"
    back, cfg_back = rb.read_trajectory_csv(path)
    assert cfg_back == cfg
    assert np.all(back.t == traj.t)
    assert np.all(back.y == traj.y)


def test_csv_round_trip_reduced(tmp_path):
    fieldfn = rb.make_reduced_field(AlgebraParams(), FLAT)
    traj = rb.rk4_integrate(np.array([0.02, 0.3]), fieldfn, 0.1, 2.0)
    path = tmp_path / "traj.csv"
    rb.write_trajectory_csv(path, traj, "reduced", {"T": 2.0})
    back, cfg = rb.read_trajectory_csv(path)
    assert cfg == {"T": 2.0}
    assert path.read_text().splitlines()[1] == "t,X,theta"
    assert np.all(back.y == traj.y)
    # the reader also takes a file without the config line
    path.write_text("t,X,theta\n0,0.25,1\n0.5,-0.125,2\n")
    back, cfg = rb.read_trajectory_csv(path)
    assert cfg is None
    assert back.t.tolist() == [0.0, 0.5]
    assert back.y.tolist() == [[0.25, 1.0], [-0.125, 2.0]]


def test_csv_empty_trajectory_keeps_header(tmp_path):
    traj = rb.Trajectory(t=np.empty(0), y=np.empty((0, 3)))
    path = tmp_path / "traj.csv"
    rb.write_trajectory_csv(path, traj, "cartesian", {"T": 0.0})
    lines = path.read_text().splitlines()
    assert lines[1] == "t,M1,M2,M3"
    assert len(lines) == 2
    back, cfg = rb.read_trajectory_csv(path)
    assert len(back) == 0
    assert cfg == {"T": 0.0}


def test_csv_kind_validation(tmp_path):
    traj = rb.Trajectory(t=np.zeros(1), y=np.zeros((1, 3)))
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError):
        rb.write_trajectory_csv(path, traj, "spherical", {})
    with pytest.raises(ValueError):
        rb.write_trajectory_csv(path, traj, "reduced", {})
    assert not path.exists()


def test_csv_golden_bytes(tmp_path):
    # the literal bytes of %.17g: signed zero, subnormal-range and 2**53
    # values, the shortest round-trip digits, nan and both infinities
    reduced = rb.Trajectory(t=np.array([-0.0, 0.1]),
                            y=np.array([[1e-300, 2.0 ** 53], [np.nan, np.inf]]))
    path = tmp_path / "traj.csv"
    rb.write_trajectory_csv(path, reduced, "reduced", {"T": 0.1})
    assert path.read_text() == (
        '# config: {"T": 0.1}\n'
        "t,X,theta\n"
        "-0,1e-300,9007199254740992\n"
        "0.10000000000000001,nan,inf\n")
    cartesian = rb.Trajectory(
        t=np.array([0.0, 1.0]),
        y=np.array([[-0.0, 0.1, -np.inf], [2.0 ** 53 + 2, 1e-300, np.nan]]))
    rb.write_trajectory_csv(path, cartesian, "cartesian",
                            {"seed": np.int64(3)})
    assert path.read_text() == ('# config: {"seed": 3}\n'
                                "t,M1,M2,M3\n"
                                "0,-0,0.10000000000000001,-inf\n"
                                "1,9007199254740994,1e-300,nan\n")
