import collections
import math
import random
import warnings

import numpy as np
import pytest

import _oracle as oracle
from lie_kam import operators as ops
from lie_kam import presets as pr
from lie_kam import series as fts
from lie_kam.operators import AlgebraParams, DiophantineParams, ResonanceError
from lie_kam.series import TruncationSpec

PARAMS = AlgebraParams()  # rho=2, i_perp=2, i_3=3, golden x0
TR = TruncationSpec(n_x=6, l_theta=8, l_t=8)


def oracle_q(params):
    q0 = params.rho ** 2 * params.delta
    return {
        (0, 0, 0): complex(q0, 0.0),
        (0, 1, 0): 0.03 + 0.01j, (0, -1, 0): 0.03 - 0.01j,
        (1, 0, 0): -0.02 + 0.04j, (-1, 0, 0): -0.02 - 0.04j,
        (1, 1, 0): 0.01 - 0.02j, (-1, -1, 0): 0.01 + 0.02j,
    }


def rand_f(rng):
    return oracle.rand_real_series(rng, lmax=2, mmax=3, nmax=3)


def as_series(d):
    return oracle.series_from_dict(d, TR, PARAMS.rho)


Q_SERIES = ops.generic_curvature(PARAMS)
Q_DICT = oracle_q(PARAMS)


# -- parameter objects --------------------------------------------------------


def test_params_derived_values():
    p = AlgebraParams(rho=2.0, i_perp=2.0, i_3=3.0, x0=0.5)
    assert p.delta == pytest.approx(1 / 3 - 1 / 2)
    assert p.omega == pytest.approx(-1 / 6)
    assert p.curvature0 == pytest.approx(-2 / 3)


def test_params_cross_validation():
    # delta and omega are derived, never passed
    with pytest.raises(TypeError):
        AlgebraParams(x0=0.5, omega=-1 / 6)
    with pytest.raises(TypeError):
        AlgebraParams(x0=0.5, delta=-1 / 6)
    with pytest.raises(ValueError):
        AlgebraParams(rho=-1.0)
    with pytest.raises(ValueError):
        AlgebraParams(x0=1.5)


def test_diophantine_params_validation():
    d = DiophantineParams(gamma=0.1, tau=1.0)
    assert d.floor(2, 3) == pytest.approx(0.1 / 5.0)
    with pytest.raises(ValueError):
        DiophantineParams(gamma=-1.0, tau=1.0)
    with pytest.raises(ValueError):
        DiophantineParams(gamma=0.1, tau=1.0, q=1.5)


@pytest.mark.parametrize("kwargs", [
    {"rho": math.nan}, {"rho": math.inf}, {"i_perp": math.nan},
    {"i_3": math.inf}, {"x0": math.nan},
])
def test_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError):
        AlgebraParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"gamma": math.nan, "tau": 1.0}, {"gamma": math.inf, "tau": 1.0},
    {"gamma": 0.1, "tau": math.nan}, {"gamma": 0.1, "tau": math.inf},
    {"gamma": 0.1, "tau": 1.0, "q": math.nan},
    {"gamma": 0.1, "tau": 1.0, "k_scan": math.nan},
])
def test_diophantine_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError):
        DiophantineParams(**kwargs)


# -- projections --------------------------------------------------------------


def test_projections_match_oracle():
    rng = random.Random(3)
    for _ in range(15):
        d = rand_f(rng)
        resonant, solvable = ops._split(as_series(d))
        assert oracle.diff_norm(oracle.r_s(d), resonant) < 1e-14
        assert oracle.diff_norm(oracle.n_s(d), solvable) < 1e-14


def test_basic_split_is_exact():
    # one mask and its complement: disjoint supports that add back to f
    # bit for bit, for random series and for one that fills its box
    rng = random.Random(41)
    full = TruncationSpec(n_x=3, l_theta=3, l_t=2)
    filled = oracle.series_from_dict(
        oracle.rand_real_series(rng, lmax=2, mmax=3, nmax=3, density=1.0),
        full, PARAMS.rho)
    assert np.all(filled.coeffs != 0)
    for f in [as_series(rand_f(rng)) for _ in range(10)] + [filled]:
        resonant, solvable = ops._split(f)
        assert not np.any((resonant.coeffs != 0) & (solvable.coeffs != 0))
        assert (resonant + solvable).coeffs.tobytes() == f.coeffs.tobytes()
    resonant, solvable = ops._split(filled)
    assert np.count_nonzero(resonant.coeffs) + np.count_nonzero(
        solvable.coeffs) == filled.coeffs.size
    # a series of degree >= 2 is all resonant
    for _ in range(5):
        f = as_series({k: v for k, v in rand_f(rng).items() if k[2] >= 2})
        resonant, solvable = ops._split(f)
        assert resonant.coeffs.tobytes() == f.coeffs.tobytes()
        assert not np.any(solvable.coeffs)


def test_small_divisor_solve_matches_oracle():
    rng = random.Random(5)
    for _ in range(15):
        d = rand_f(rng)
        ref = oracle.g_s(d, PARAMS.omega)
        got = ops.small_divisor_solve(as_series(d), PARAMS)
        assert oracle.diff_norm(ref, got) < 1e-13


def test_small_divisor_frozen_example():
    # omega = -1/6: mode e^{i(theta + t)} picks divisor 1 - 1/6 = 5/6
    p = AlgebraParams(x0=0.5)
    f = fts.from_real_terms([(1, 1, 0, 1.0)], TR, p.rho)
    got = ops.small_divisor_solve(f, p)
    assert got.coeff(1, 1, 0) == pytest.approx(-1.2j)


def _translation(f, q, params):
    """a_f, as the derivation of f applies it: shift * rho."""
    return ops.Derivation(f, q, params).shift * params.rho


def test_translation_coefficient_matches_oracle():
    rng = random.Random(7)
    for _ in range(15):
        d = rand_f(rng)
        ref = oracle.a_op(d, Q_DICT, PARAMS.rho, PARAMS.omega)
        got = _translation(as_series(d), Q_SERIES, PARAMS)
        assert abs(ref - got) < 1e-13 * max(1.0, abs(ref))


def _bits(z):
    return np.asarray(z, dtype=np.complex128).tobytes()


def _dense_series(rng, trunc):
    c = rng.uniform(-1, 1, trunc.shape) + 1j * rng.uniform(-1, 1, trunc.shape)
    return fts.FourierTaylorSeries(0.5 * (c + np.conj(c[::-1, ::-1, :])), trunc,
                                   PARAMS.rho)


def test_translation_coefficient_matches_per_mode_loop():
    rng = np.random.default_rng(5)
    q_small = ops.generic_curvature(PARAMS)  # a box smaller than f's
    q_wide = fts.from_real_terms(
        [(0, 0, 0, PARAMS.curvature0), (0, 2, 0, 0.02 - 0.01j),
         (3, -1, 0, 0.015j), (9, 9, 0, 0.01)],  # (9, 9) lies outside f's box
        TruncationSpec(0, 9, 9), PARAMS.rho)
    # a real curvature with zeros among its harmonics
    q_real = fts.from_real_terms([(0, 0, 0, -0.6), (1, 0, 0, 0.05),
                                  (0, 2, 0, 0.0)], TruncationSpec(0, 2, 2),
                                 PARAMS.rho)
    # a dense curvature, as an iterated step's Q_* is: a long sum
    q_dense = fts.add(fts.constant(-0.6, TruncationSpec(0, 8, 8), PARAMS.rho),
                      fts.scale(_dense_series(rng, TruncationSpec(0, 8, 8)), 0.01))
    checked = 0
    for trial in range(30):
        p = AlgebraParams(x0=float(rng.uniform(-0.9, 0.9)))
        f = (_dense_series(rng, TR) if trial % 3 == 0 else
             fts.random_real_series(TR, p.rho, rng, n_terms=12))
        for q in (q_small, q_wide, q_real, q_dense):
            want, modes = oracle.translation_coefficient_per_mode(
                f, q, p.omega, p.rho)
            got = _translation(f, q, p)
            assert abs(got - want) <= 1e-13 * abs(want)
            checked += len(modes)
    assert checked > 2000
    # no mode meets a nonzero Q: only the averaged x term is left
    x = fts.from_real_terms([(0, 0, 1, 1.0), (2, 2, 0, 0.3)], TR, PARAMS.rho)
    want, modes = oracle.translation_coefficient_per_mode(x, q_small, PARAMS.omega,
                                                          PARAMS.rho)
    assert modes == []
    assert _bits(_translation(x, q_small, PARAMS)) == _bits(want)


def test_divisor_table_keeps_each_dio_apart():
    box = TruncationSpec(0, 4, 4)
    loose = DiophantineParams(gamma=0.01, tau=1.0)
    tight = DiophantineParams(gamma=100.0, tau=1.0)
    tables = [ops._divisor_table(box, PARAMS.omega, dio)
              for dio in (loose, tight, None)]
    assert ops._divisor_table(box, PARAMS.omega, loose) is tables[0]
    for dio, (divisor, solve, floor, low) in zip((loose, tight), tables):
        for l in range(-4, 5):
            for m in range(-4, 5):
                if (l, m) != (0, 0):
                    assert floor[l + 4, m + 4] == pytest.approx(dio.floor(l, m),
                                                                rel=1e-14)
        for arr in (divisor, solve, floor, low):
            assert not arr.flags.writeable
    assert tables[2][2] is None
    # the demanding floor flags every mode, the loose one a few
    assert tables[1][3].all() and tables[0][3].sum() < tables[1][3].sum()
    assert tables[2][3].sum() == 1  # without dio only the center is flagged


def test_derivation_matches_bracket_and_translation_bit_for_bit():
    rng = np.random.default_rng(17)
    f = fts.random_real_series(TR, PARAMS.rho, rng, n_terms=30, l_t_max=5,
                               l_theta_max=5, n_x_max=3)
    gamma = ops.Derivation(f, Q_SERIES, PARAMS,
                           DiophantineParams(gamma=0.05, tau=1.0))
    boxes = [TR, TruncationSpec(8, 10, 10), TruncationSpec(2, 3, 3),
             TruncationSpec(9, 2, 11), TruncationSpec(0, 8, 8)]
    for box in boxes:
        for g in (_dense_series(rng, box),
                  fts.random_real_series(box, PARAMS.rho, rng, n_terms=4),
                  fts.zeros(box, PARAMS.rho)):
            # the bracket of a fresh copy of the generator, which derives
            # the generator's side of the kernel call anew
            fresh = fts.FourierTaylorSeries(np.array(gamma.generator.coeffs),
                                            gamma.generator.trunc, PARAMS.rho,
                                            hermitian=True)
            want = fts.poisson_bracket(fresh, g) + fts.scale(fts.partial_x(g), -gamma.shift)
            got = gamma(g)
            assert got.trunc == want.trunc
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            for k in (1, 3, 7):
                assert gamma(g, 1.0 / k).coeffs.tobytes() == \
                    fts.scale(want, 1.0 / k).coeffs.tobytes()


def _same_bits(a, b):
    # bit for bit up to the sign of a zero part: scale's complex product
    # turns the real part -0.0 of a coefficient -0.0 - y i (y < 0) into 0.0,
    # where a sum or a product only ever reads it as a zero
    assert a.trunc == b.trunc and a.rho == b.rho
    assert (a.coeffs + 0.0).tobytes() == (b.coeffs + 0.0).tobytes()


@pytest.mark.parametrize("s", [0.5, 0.25, 2.0])
def test_scaled_derivation_is_a_fresh_one_bit_for_bit(s):
    # Gamma_f is linear in f, and scaling by a power of two is exact: the
    # scaled derivation and its first Lie term (scaled by s^2) are those
    # built from scale(f, s)
    trunc = pr.DEFAULT_TRUNC
    q = ops.generic_curvature(PARAMS, trunc)
    dio = pr.default_diophantine(PARAMS)
    drives = [pr.preset_drive_series("pert1", eps, PARAMS, trunc)
              for eps in (1e-3, 2.2e-3, 4.7e-3, 1e-2, 0.1, 1e-100)]
    cases = [(v, q, dio) for v in drives]
    rng = np.random.default_rng(41)
    win = ops.identity_window(TR)
    for _ in range(5):
        f = fts.random_real_series(TR, PARAMS.rho, rng, n_terms=25,
                                   l_t_max=win["l_t"],
                                   l_theta_max=win["l_theta"],
                                   n_x_max=win["n_x"])
        cases.append((f, Q_SERIES, None))
    for f, q, dio in cases:
        gamma = ops.Derivation(f, q, PARAMS, dio)
        fs = fts.scale(f, s)
        scaled, fresh = gamma.scaled(s), ops.Derivation(fs, q, PARAMS, dio)
        for name in ("correction", "resonant", "solvable", "generator"):
            _same_bits(getattr(scaled, name), getattr(fresh, name))
        assert scaled.shift.hex() == fresh.shift.hex()
        _same_bits(scaled(fs), fts.scale(gamma(f), s * s))
        _same_bits(scaled(fs), fresh(fs))


def test_translation_frozen_example():
    # f = x against constant curvature: a = rho / q00
    q0 = fts.from_real_terms([(0, 0, 0, PARAMS.curvature0)],
                             TruncationSpec(0, 1, 1), PARAMS.rho)
    x = fts.from_real_terms([(0, 0, 1, 1.0)], TR, PARAMS.rho)
    got = _translation(x, q0, PARAMS)
    assert got == pytest.approx(PARAMS.rho / PARAMS.curvature0)
    g = ops.homological_derivation(x, x, q0, PARAMS)
    assert g.coeff(0, 0, 0) == pytest.approx(-1.0 / PARAMS.curvature0)


def test_projection_correction_matches_oracle():
    rng = random.Random(11)
    for _ in range(15):
        d = rand_f(rng)
        ref = oracle.restrict(oracle.k_op(d, Q_DICT, PARAMS.rho, PARAMS.omega),
                              TR.l_t, TR.l_theta, TR.n_x)
        got = ops.projection_correction(as_series(d), Q_SERIES, PARAMS)
        assert oracle.diff_norm(ref, got) < 1e-13


def test_full_projections_match_oracle():
    rng = random.Random(13)
    for _ in range(10):
        d = rand_f(rng)
        s = as_series(d)
        ref_r = oracle.restrict(oracle.r_proj(d, Q_DICT, PARAMS.rho, PARAMS.omega),
                                TR.l_t, TR.l_theta, TR.n_x)
        ref_n = oracle.restrict(oracle.n_proj(d, Q_DICT, PARAMS.rho, PARAMS.omega),
                                TR.l_t, TR.l_theta, TR.n_x)
        gamma = ops.Derivation(s, Q_SERIES, PARAMS)
        assert oracle.diff_norm(ref_r, gamma.resonant) < 1e-13
        assert oracle.diff_norm(ref_n, gamma.solvable) < 1e-13


def test_hamiltonian_apply_matches_oracle():
    rng = random.Random(17)
    for _ in range(10):
        d = rand_f(rng)
        ref = oracle.restrict(oracle.ham(d, Q_DICT, PARAMS.rho, PARAMS.omega),
                              TR.l_t, TR.l_theta, TR.n_x)
        got = ops.hamiltonian_apply(as_series(d), Q_SERIES, PARAMS)
        assert oracle.diff_norm(ref, got) < 1e-13


def test_homological_derivation_matches_oracle():
    rng = random.Random(19)
    probes = ops.probe_basket(TR, PARAMS.rho)
    for _ in range(8):
        d = rand_f(rng)
        f = as_series(d)
        for g in probes:
            dg = oracle.dict_from_series(g)
            ref = oracle.restrict(
                oracle.gamma_apply(d, dg, Q_DICT, PARAMS.rho, PARAMS.omega),
                TR.l_t, TR.l_theta, TR.n_x)
            got = ops.homological_derivation(f, g, Q_SERIES, PARAMS)
            assert oracle.diff_norm(ref, got) < 1e-13


def test_derivation_built_once_matches_oracle():
    rng = random.Random(29)
    probes = ops.probe_basket(TR, PARAMS.rho)
    for _ in range(8):
        d = rand_f(rng)
        gamma = ops.Derivation(as_series(d), Q_SERIES, PARAMS)
        for g in probes:
            ref = oracle.restrict(
                oracle.gamma_apply(d, oracle.dict_from_series(g), Q_DICT,
                                   PARAMS.rho, PARAMS.omega),
                TR.l_t, TR.l_theta, TR.n_x)
            assert oracle.diff_norm(ref, gamma(g)) < 1e-13


def _exactly_real(s):
    return oracle.hermitian_defect(s.coeffs) == 0.0


def test_operators_keep_reality_exactly():
    rng = random.Random(37)
    full = TruncationSpec(n_x=3, l_theta=3, l_t=2)  # top degree occupied
    probes = ops.probe_basket(TR, PARAMS.rho)
    inputs = [as_series(rand_f(rng)) for _ in range(4)]
    inputs.append(oracle.series_from_dict(
        oracle.rand_real_series(rng, lmax=2, mmax=3, nmax=3, density=1.0), full, PARAMS.rho))
    # one-sided: every populated mode has l != 0
    inputs.append(as_series({k: v for k, v in rand_f(rng).items() if k[0] != 0}))
    q = ops.generic_curvature(PARAMS, TruncationSpec(n_x=0, l_theta=2, l_t=2))
    for f in inputs:
        assert _exactly_real(f)
        split = ops.Derivation(f, Q_SERIES, PARAMS)
        res, solv = split.resonant, split.solvable
        outs = [*ops._split(f), res, solv,
                ops.projection_correction(f, Q_SERIES, PARAMS),
                ops.small_divisor_solve(f, PARAMS), ops._lift_degree(f),
                ops.half_curvature_x2(q),
                ops.hamiltonian_apply(f, Q_SERIES, PARAMS)]
        gamma = ops.Derivation(f, q, PARAMS)
        outs.append(gamma.generator)
        outs += [gamma(g) for g in probes]
        for out in outs:
            assert _exactly_real(out)
        assert isinstance(ops.Derivation(f, Q_SERIES, PARAMS).shift, float)
    assert ops._lift_degree(inputs[4]).trunc.n_x == full.n_x + 1


def test_curvature_lift_requires_degree0():
    bad = fts.from_real_terms([(0, 0, 1, 1.0)], TruncationSpec(1, 1, 1), PARAMS.rho)
    with pytest.raises(ValueError):
        ops.half_curvature_x2(bad)
    with pytest.raises(ValueError):
        ops.Derivation(fts.constant(1.0, TR, PARAMS.rho), bad, PARAMS)


def test_translation_requires_nonzero_average():
    q = fts.from_real_terms([(0, 1, 0, 0.1)], TruncationSpec(0, 1, 1), PARAMS.rho)
    with pytest.raises(ValueError):
        ops.Derivation(fts.constant(1.0, TR, PARAMS.rho), q, PARAMS)


def test_operations_own_their_output():
    # an operation's array is taken over without a copy, so each result must
    # be a fresh, frozen array that shares memory with no input
    rng = random.Random(61)
    f, g = as_series(rand_f(rng)), as_series(rand_f(rng))
    small = fts.from_real_terms([(1, 1, 1, 0.5)], TruncationSpec(2, 2, 2), PARAMS.rho)
    zero = fts.zeros(TR, PARAMS.rho)
    gamma = ops.Derivation(f, Q_SERIES, PARAMS)
    inputs = [f, g, small, zero, Q_SERIES, gamma.generator, gamma.resonant,
              gamma.solvable, gamma.correction]
    results = {
        "add": fts.add(f, g),
        "add on a merged box": fts.add(small, f),
        "add zero": fts.add(f, zero),
        "scale": fts.scale(f, -0.5),
        "scale by one": fts.scale(f, 1.0),
        "multiply": fts.multiply(f, g),
        "multiply by zero": fts.multiply(f, zero),
        "poisson_bracket": fts.poisson_bracket(f, g),
        "poisson_bracket with zero": fts.poisson_bracket(zero, g),
        "partial_x": fts.partial_x(f),
        "partial_theta": fts.partial_theta(f),
        "partial_t": fts.partial_t(f),
        "_split resonant": ops._split(f)[0],
        "_split solvable": ops._split(f)[1],
        "small_divisor_solve": ops.small_divisor_solve(f, PARAMS),
        "Derivation": gamma(g),
        "Derivation on a smaller box": gamma(small),
    }
    for name, r in results.items():
        assert not r.coeffs.flags.writeable, name
        for s in inputs:
            assert not np.shares_memory(r.coeffs, s.coeffs), name
    arrays = [r.coeffs for r in results.values()]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


# -- resonance handling --------------------------------------------------------


def test_resonance_raises():
    # omega = -1/6 makes (l, m) = (1, 6) an exact resonance
    p = AlgebraParams(x0=0.5)
    f = fts.from_real_terms([(1, 6, 0, 1.0)], TR, p.rho)
    with pytest.raises(ResonanceError):
        ops.small_divisor_solve(f, p)
    # modes the series does not populate are never touched
    g = fts.from_real_terms([(1, 1, 0, 1.0)], TR, p.rho)
    ops.small_divisor_solve(g, p)


def test_small_divisor_warning():
    dio = DiophantineParams(gamma=10.0, tau=1.0)  # absurdly demanding floor
    f = fts.from_real_terms([(1, 1, 0, 1.0)], TR, PARAMS.rho)
    with pytest.warns(ops.SmallDivisorWarning):
        ops.small_divisor_solve(f, PARAMS, dio=dio)


def _divisor_events(call):
    """(ResonanceError message or None, set of warning messages, set of
    warning file names) of call()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
            err = None
        except ResonanceError as exc:
            err = str(exc)
    assert all(issubclass(w.category, ops.SmallDivisorWarning) for w in caught)
    return err, {str(w.message) for w in caught}, {w.filename for w in caught}


def test_divisor_check_matches_per_mode_oracle():
    rng = random.Random(23)
    raised = warned = 0
    for trial in range(40):
        # x0 = 0.5 gives omega = -1/6, an exact resonance at (l, m) = (1, 6)
        x0 = 0.5 if trial % 2 else rng.uniform(-0.9, 0.9)
        p = AlgebraParams(x0=x0)
        d = oracle.rand_real_series(rng, lmax=2, mmax=8, nmax=1)
        modes = sorted({(l, m) for l, m, _ in d if (l, m) != (0, 0)})
        if not modes:
            continue
        # a floor through the middle of the modes' scaled divisors, so that
        # about half fall below it, one of them within rounding of it
        tau = rng.choice([1.0, 1.5])
        scaled = sorted(abs(p.omega * m + l) * (abs(l) + abs(m)) ** tau
                        for l, m in modes)
        dio = DiophantineParams(gamma=max(scaled[len(scaled) // 2], 1e-3), tau=tau)
        want = _divisor_events(lambda: oracle.check_divisors(
            modes, p.omega, dio, ops._MIN_DIVISOR, ResonanceError,
            ops.SmallDivisorWarning))
        got = _divisor_events(lambda: ops.small_divisor_solve(as_series(d), p, dio))
        assert got[:2] == want[:2]
        # stacklevel names the solver's caller: this file
        assert got[2] <= {__file__}
        raised += got[0] is not None
        warned += bool(got[1])
    assert raised >= 5 and warned >= 20


def test_derivation_warns_a_mode_once_per_solve():
    # a_f's divisor sum is read off the inner drive, so the derivation's
    # three solves are the only divisions: at most 3 warnings per mode
    dio = DiophantineParams(gamma=10.0, tau=1.0)
    f = fts.from_real_terms({(1, 1, 0): 1.0, (1, 0, 0): 0.5, (0, 3, 1): 0.2},
                            TR, PARAMS.rho)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ops.Derivation(f, Q_SERIES, PARAMS, dio)
    assert all(issubclass(w.category, ops.SmallDivisorWarning) for w in caught)
    counts = collections.Counter(str(w.message) for w in caught)
    assert counts and max(counts.values()) <= 3, counts


def test_estimate_diophantine_resonant_case():
    gamma_hat, mode = ops.estimate_diophantine(0.5, tau=1.0, k_scan=50)
    assert gamma_hat == 0.0
    assert mode == (-1, 2)


def test_estimate_diophantine_rounded_rational():
    # omega = -0.72 / 3 is -6/25 up to one ulp of 6: a resonance at (6, 25);
    # -4/15 resonates at (4, 15) and (8, 30), and the first is named
    for x0, mode in ((0.72, (6, 25)), (0.80, (4, 15))):
        omega = AlgebraParams(x0=x0).omega
        assert omega * mode[1] + mode[0] != 0.0
        assert ops.estimate_diophantine(omega, tau=1.0, k_scan=50) == \
            (0.0, mode)


def test_estimate_diophantine_default_omega():
    gamma_hat, mode = ops.estimate_diophantine(PARAMS.omega, tau=1.0, k_scan=50)
    assert gamma_hat > 0.05
    l, m = mode
    assert 0 < abs(l) + abs(m) <= 50


# -- identity suite -------------------------------------------------------------


def _l1(s):
    return float(np.sum(np.abs(s.coeffs)))


def test_identity_suite_residuals_are_noise():
    reports = ops.run_identity_suite(PARAMS, TruncationSpec(6, 8, 8),
                                     n_trials=10, seed=42)
    names = {r["identity"] for r in reports}
    assert "homological" in names and "resonant_idempotent" in names
    for r in reports:
        assert r["trials"] == 10
        assert r["max_residual"] < 1e-12, r["identity"]
    # two generators the random inputs never draw, measured as the suite
    # rows "homological" and "derivation_after_resonant" are: a constant,
    # whose Gamma is zero, and x^2 e^{it}, already in the basic resonant range
    const = fts.constant(3.0, TR, PARAMS.rho)
    resonant = fts.from_real_terms({(1, 0, 2): 0.5}, TR, PARAMS.rho)
    gamma_c = ops.Derivation(const, Q_SERIES, PARAMS)
    gamma_rr = ops.Derivation(ops.Derivation(resonant, Q_SERIES, PARAMS).resonant,
                              Q_SERIES, PARAMS)
    for g in ops.probe_basket(TR, PARAMS.rho):
        lhs = ops.hamiltonian_apply(gamma_c(g), Q_SERIES, PARAMS)
        rhs = gamma_c(ops.hamiltonian_apply(g, Q_SERIES, PARAMS))
        assert _l1(lhs - rhs - fts.poisson_bracket(gamma_c.solvable, g)) == 0.0
        assert _l1(gamma_rr(g)) / (_l1(resonant) * _l1(g)) < 1e-12


def test_identity_suite_rejects_tiny_box():
    with pytest.raises(ValueError):
        ops.run_identity_suite(PARAMS, trunc=TruncationSpec(2, 3, 3), n_trials=1)

