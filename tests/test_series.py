import json
import math
import warnings

import numpy as np
import pytest

import _oracle as oracle
from lie_kam import operators as ops
from lie_kam import series as fts
from lie_kam.presets import DEFAULT_TRUNC
from lie_kam.series import (
    DEFAULT_DOMAIN,
    DomainConfig,
    FourierTaylorSeries,
    RealityError,
    TruncationSpec,
)

RHO = 2.0
TR = TruncationSpec(n_x=8, l_theta=8, l_t=6)


def rand_pair(rng):
    """Random real series supported well inside TR so products stay in-box."""
    da = oracle.rand_real_series(rng, lmax=2, mmax=3, nmax=3)
    db = oracle.rand_real_series(rng, lmax=2, mmax=3, nmax=3)
    return da, db


# -- construction and validation -------------------------------------------


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(n_x=-1, l_theta=2, l_t=2)
    merged = TruncationSpec(2, 5, 1).merge(TruncationSpec(4, 2, 3))
    assert merged == TruncationSpec(4, 5, 3)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainConfig(x_half=0.0)
    assert DomainConfig(x_half=0.25).radius(1.5) == 1.75


def test_from_terms_rejects_out_of_box():
    t = TruncationSpec(2, 2, 2)
    with pytest.raises(ValueError):
        fts.from_terms([(0, 3, 0, 1.0)], t, RHO)
    with pytest.raises(ValueError):
        fts.from_terms([(0, 0, 5, 1.0)], t, RHO)


def test_from_real_terms_builds_hermitian_box():
    f = fts.from_real_terms([(1, 2, 1, 0.5 - 0.25j), (0, 0, 2, 3.0)], TR, RHO)
    assert oracle.hermitian_defect(f.coeffs) == 0.0
    assert f.coeff(1, 2, 1) == 0.5 - 0.25j
    assert f.coeff(-1, -2, 1) == 0.5 + 0.25j
    assert f.coeff(0, 0, 2) == 3.0
    with pytest.raises(ValueError):
        fts.from_real_terms([(-1, 0, 0, 1.0)], TR, RHO)
    with pytest.raises(RealityError):
        fts.from_real_terms([(0, 0, 0, 1.0 + 1.0j)], TR, RHO)


def test_random_real_series_mirrors_its_draws():
    # the same draws, in the same order, as writing each term and its mirror
    trunc = TruncationSpec(n_x=3, l_theta=3, l_t=2)
    got = fts.random_real_series(trunc, RHO, np.random.default_rng(5), n_terms=40)
    rng = np.random.default_rng(5)
    c = np.zeros(trunc.shape, dtype=np.complex128)
    for _ in range(40):
        l = int(rng.integers(0, 3))
        m = int(rng.integers(-3, 4))
        n = int(rng.integers(0, 4))
        m = -m if l == 0 and m < 0 else m
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        v = complex(v.real, 0.0) if l == m == 0 else v
        c[l + 2, m + 3, n] += v
        if l or m:
            c[2 - l, 3 - m, n] += v.conjugate()
    assert np.array_equal(got.coeffs, c)


def test_reality_flag_detects_defect():
    # non-real raw data is rejected where it enters
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t + 1, TR.l_theta, 0] = 1.0 + 0.5j  # no mirror partner
    with pytest.raises(RealityError):
        FourierTaylorSeries(c, TR, RHO)
    with pytest.raises(RealityError):
        fts.from_terms([(1, 0, 0, 1.0 + 0.5j)], TR, RHO)
    with pytest.raises(RealityError):
        fts.constant(1.0j, TR, RHO)


def test_raw_entry_stores_real_series_exactly_hermitian():
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t + 1, TR.l_theta + 1, 0] = 0.5 + 1e-15j
    c[TR.l_t - 1, TR.l_theta - 1, 0] = 0.5
    c[TR.l_t, TR.l_theta, 1] = 2.0 + 1e-15j
    f = FourierTaylorSeries(c, TR, RHO)
    assert oracle.hermitian_defect(f.coeffs) == 0.0
    assert f.coeff(0, 0, 1) == 2.0
    assert f.coeff(1, 1, 0) == np.conj(f.coeff(-1, -1, 0))


@pytest.mark.parametrize("action", ["ignore", "error"])
def test_finite_box_near_the_largest_float_does_not_overflow(action):
    # a box within rounding of real is stored as its finite hermitian part,
    # and a non-real one raises RealityError, whether or not overflow
    # warnings are errors
    near = np.zeros(TR.shape, dtype=np.complex128)
    near[TR.l_t + 1, TR.l_theta, 0] = 1e308
    near[TR.l_t - 1, TR.l_theta, 0] = 1e308 * (1 + 1e-13)
    far = np.zeros(TR.shape, dtype=np.complex128)
    far[TR.l_t + 1, TR.l_theta, 0] = 1e308
    far[TR.l_t - 1, TR.l_theta, 0] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        f = FourierTaylorSeries(near, TR, RHO)
        with pytest.raises(RealityError):
            FourierTaylorSeries(far, TR, RHO)
    assert f.coeff(1, 0, 0) == 0.5 * 1e308 + 0.5 * (1e308 * (1 + 1e-13))
    assert _exactly_real(f)


def test_given_reality_still_rejects_non_finite():
    # hermitian=True takes an operation's own array unchecked; finiteness
    # is checked where values enter or overflow (the tests below)
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        c = np.zeros(TR.shape, dtype=np.complex128)
        c[TR.l_t, TR.l_theta, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            FourierTaylorSeries(c, TR, RHO, hermitian=False)


def test_given_reality_takes_the_array_and_freezes_it():
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t, TR.l_theta, 0] = 2.0
    f = FourierTaylorSeries(c, TR, RHO, hermitian=True)
    assert f.coeffs is c
    assert not c.flags.writeable
    # raw data is copied, so the caller's array stays its own
    d = np.zeros(TR.shape, dtype=np.complex128)
    g = FourierTaylorSeries(d, TR, RHO)
    assert not np.shares_memory(g.coeffs, d)
    assert d.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan), complex(math.inf, 1.0)])
def test_non_finite_terms_rejected_where_they_enter(bad):
    # numpy's invalid-value warning is an error here (pyproject), so the
    # ValueError must come without one
    with pytest.raises(ValueError, match="finite"):
        fts.from_terms([(1, 2, 0, bad), (-1, -2, 0, np.conj(bad))], TR, RHO)
    with pytest.raises(ValueError, match="finite"):
        fts.from_real_terms([(1, 2, 0, bad)], TR, RHO)
    doc = fts.to_json_dict(fts.from_real_terms([(1, 2, 0, 1.0)], TR, RHO))
    doc["coeffs"][0]["re"] = complex(bad).real
    doc["coeffs"][0]["im"] = complex(bad).imag
    with pytest.raises(ValueError, match="finite"):
        fts.from_json_dict(doc)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_json_text_with_non_finite_value_rejected(value):
    # json.loads reads these non-standard literals as floats
    text = json.dumps(fts.to_json_dict(
        fts.from_real_terms([(1, 2, 0, 1.0 + 0.5j)], TR, RHO)))
    doc = json.loads(text.replace('"re": 1.0', f'"re": {value}'))
    with pytest.raises(ValueError, match="finite"):
        fts.from_json_dict(doc)


def test_products_that_overflow_raise():
    # finite factors near 1e200 whose products pass 1e308
    big = fts.from_real_terms([(0, 1, 1, 1e200), (1, 0, 2, 3e200j)], TR, RHO)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            fts.multiply(big, big)
        with pytest.raises(ValueError, match="finite"):
            fts.poisson_bracket(big, big)
    # the same factors at 1e100 stay finite
    small = fts.scale(big, 1e-100)
    assert np.isfinite(fts.multiply(small, small).coeffs).all()
    assert np.isfinite(fts.poisson_bracket(small, small).coeffs).all()


def test_coeffs_are_frozen():
    f = fts.constant(2.0, TR, RHO)
    with pytest.raises(ValueError):
        f.coeffs[0, 0, 0] = 1.0


# -- arithmetic against the oracle ------------------------------------------


def test_add_scale_matches_oracle():
    rng = np.random.default_rng(11)
    pyrng = __import__("random").Random(11)
    for _ in range(20):
        da, db = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        b = oracle.series_from_dict(db, TR, RHO)
        c = float(rng.uniform(-2, 2))
        ref = oracle.sadd(da, db, 1.0, c)
        got = a + fts.scale(b, c)
        assert oracle.diff_norm(ref, got) < 1e-14
        assert oracle.diff_norm(oracle.sscale(da, -1.0), -a) < 1e-14


def test_multiply_matches_oracle_in_window():
    pyrng = __import__("random").Random(23)
    for _ in range(20):
        da, db = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        b = oracle.series_from_dict(db, TR, RHO)
        got = fts.multiply(a, b)
        ref = oracle.smul(da, db)
        # supports stay inside the box, so the product is exact
        assert oracle.diff_norm(ref, got) < 1e-13


def test_multiply_clips_to_the_box():
    t = TruncationSpec(n_x=2, l_theta=2, l_t=1)
    da = {(1, 2, 2): 0.5 + 0.0j, (-1, -2, 2): 0.5 - 0.0j}
    a = oracle.series_from_dict(da, t, RHO)
    got = fts.multiply(a, a)
    kept = oracle.restrict(oracle.smul(da, da), 1, 2, 2)
    assert oracle.diff_norm(kept, got) < 1e-14
    # the operator form is the same product
    assert oracle.max_coeff_diff(a * a, got) == 0.0


def test_scale_keeps_reality_for_numpy_real_scalars():
    a = fts.from_real_terms([(1, 2, 1, 0.5 - 0.25j), (0, 0, 2, 3.0)], TR, RHO)
    for c in (np.int64(2), np.float32(0.5), np.array(-1.5), 2.0 + 0.0j, 3):
        out = fts.scale(a, c)
        assert oracle.hermitian_defect(out.coeffs) == 0.0, c
        back = fts.from_json_dict(json.loads(json.dumps(fts.to_json_dict(out))))
        assert back.coeff(1, 2, 1) == out.coeff(1, 2, 1)
    assert fts.scale(a, np.int64(2)).coeff(0, 0, 2) == 6.0
    assert fts.scale(a, np.float32(0.5)).coeff(1, 2, 1) == 0.25 - 0.125j
    for c in (1j, 2j, np.complex64(1j)):
        with pytest.raises(RealityError):
            fts.scale(a, c)


def _real_one_sided(rng, ls, mmax, nmax):
    """Real series whose half-lattice support has l in ls only (all l > 0)."""
    out = {}
    for l in ls:
        for m in range(-mmax, mmax + 1):
            for n in range(nmax + 1):
                v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                out[(l, m, n)] = v
                out[(-l, -m, n)] = v.conjugate()
    return out


def _exactly_real(s):
    return oracle.hermitian_defect(s.coeffs) == 0.0


def test_non_finite_coefficients_rejected():
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        c = np.zeros(TR.shape, dtype=np.complex128)
        c[1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            FourierTaylorSeries(c, TR, RHO)
    for bad in (math.inf, -math.inf, math.nan, np.float64(math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fts.scale(fts.constant(1.0, TR, RHO), bad)


def test_partials_match_oracle():
    pyrng = __import__("random").Random(31)
    for _ in range(20):
        da, _ = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        assert oracle.diff_norm(oracle.dx(da), fts.partial_x(a)) < 1e-14
        assert oracle.diff_norm(oracle.dtheta(da), fts.partial_theta(a)) < 1e-14
        assert oracle.diff_norm(oracle.dt(da), fts.partial_t(a)) < 1e-14


def test_poisson_bracket_matches_oracle():
    pyrng = __import__("random").Random(41)
    for _ in range(20):
        da, db = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        b = oracle.series_from_dict(db, TR, RHO)
        ref = oracle.bracket(da, db, RHO)
        got = fts.poisson_bracket(a, b)
        assert oracle.diff_norm(ref, got) < 1e-13
        assert oracle.hermitian_defect(got.coeffs) == 0.0


def test_bracket_form_is_kept_frozen_and_reused():
    pyrng = __import__("random").Random(43)
    da, db = rand_pair(pyrng)
    a = oracle.series_from_dict(da, TR, RHO)
    b = oracle.series_from_dict(db, TR, RHO)
    first = fts.poisson_bracket(a, b)
    form = fts._bracket_form(a)
    assert fts._bracket_form(a) is form  # kept with a, not derived again
    for arr in form:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    # the kept form gives the bracket a fresh copy of a gives, bit for bit
    fresh = FourierTaylorSeries(np.array(a.coeffs), TR, RHO, hermitian=True)
    for got in (fts.poisson_bracket(a, b), fts.poisson_bracket(fresh, b)):
        assert got.coeffs.tobytes() == first.coeffs.tobytes()
    # the form is a's alone: b, the second factor, keeps none
    assert b._bracket_form is None


def test_bracket_frozen_example():
    # {x^2, e^{i theta}} = (2 i / rho) x e^{i theta}
    x2 = fts.from_real_terms([(0, 0, 2, 1.0)], TR, RHO)
    cos_th = fts.from_real_terms([(0, 1, 0, 0.5)], TR, RHO)
    got = fts.poisson_bracket(x2, cos_th)
    assert got.coeff(0, 1, 1) == pytest.approx(2j * 0.5 / RHO)
    assert got.coeff(0, -1, 1) == pytest.approx(-2j * 0.5 / RHO)


def test_bracket_antisymmetry_and_rho_mismatch():
    pyrng = __import__("random").Random(53)
    da, db = rand_pair(pyrng)
    a = oracle.series_from_dict(da, TR, RHO)
    b = oracle.series_from_dict(db, TR, RHO)
    anti = fts.poisson_bracket(a, b) + fts.poisson_bracket(b, a)
    assert fts.majorant_norm(anti, 0.0) < 1e-13
    b_other = oracle.series_from_dict(db, TR, 3.0)
    with pytest.raises(ValueError):
        fts.poisson_bracket(a, b_other)


def test_reality_preserved_through_op_chain():
    pyrng = __import__("random").Random(61)
    for _ in range(10):
        da, db = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        b = oracle.series_from_dict(db, TR, RHO)
        out = fts.poisson_bracket(a * b, a + 0.5 * b)
        assert _exactly_real(out)
    # each operation on real series is exactly hermitian by construction,
    # also for operands on different boxes, one-sided supports and clipping
    rng = np.random.default_rng(7)
    small = TruncationSpec(n_x=2, l_theta=4, l_t=1)
    wide = TruncationSpec(n_x=4, l_theta=1, l_t=3)
    real = oracle.rand_real_series
    pairs = [(oracle.series_from_dict(real(pyrng, lmax=1, mmax=4, nmax=2, density=0.8), small, RHO),
              oracle.series_from_dict(real(pyrng, lmax=3, mmax=1, nmax=4, density=0.8), wide, RHO)),
             (oracle.series_from_dict(_real_one_sided(pyrng, (1, 2), 2, 2), TR, RHO),
              oracle.series_from_dict(_real_one_sided(pyrng, (2, 3), 1, 3), TR, RHO)),
             (fts.random_real_series(TR, RHO, rng, n_terms=40),
              fts.random_real_series(TR, RHO, rng, n_terms=40))]
    for a, b in pairs:
        assert _exactly_real(a) and _exactly_real(b)
        outs = [a + b, a - b, -a, fts.scale(a, float(rng.uniform(-2, 2))),
                a * b, b * a, a * a,
                fts.partial_x(a), fts.partial_theta(a), fts.partial_t(a),
                fts.poisson_bracket(a, b), fts.poisson_bracket(b, a)]
        for out in outs:
            assert _exactly_real(out)
    # some pair's product leaves the merged box
    assert any(_clipped_axes(_pair_products(oracle.dict_from_series(a), oracle.dict_from_series(b)),
                             a.trunc.merge(b.trunc)) for a, b in pairs)


# -- evaluation --------------------------------------------------------------


def test_evaluate_matches_closed_form():
    # f = x^2 cos(t) + 3 cos(theta) sin(t) evaluated on a grid
    f = fts.from_real_terms(
        [(1, 0, 2, 0.5), (1, 1, 0, -0.75j), (1, -1, 0, -0.75j)], TR, RHO)
    x = np.linspace(-0.2, 0.2, 5)
    th = np.linspace(0, 2 * np.pi, 5)
    t = np.linspace(0, 3, 5)
    got = fts.evaluate(f, x, th, t)
    want = x ** 2 * np.cos(t) + 3 * np.cos(th) * np.sin(t)
    assert np.allclose(got, want, atol=1e-12)
    assert got.dtype == np.float64


def test_evaluate_rejects_outside_domain():
    f = fts.constant(1.0, TR, RHO)
    with pytest.raises(ValueError):
        fts.evaluate(f, 0.3, 0.0, 0.0)
    x_half = DEFAULT_DOMAIN.x_half
    assert fts.evaluate(f, [-x_half, x_half], 0.0, 0.0).tolist() == [1.0, 1.0]


def test_evaluate_batch_matches_solo_calls_bit_for_bit():
    # every point of a (rows, members) batch gets the bits of its solo call
    f = fts.random_real_series(DEFAULT_TRUNC, RHO, np.random.default_rng(4),
                               n_terms=60)
    rng = np.random.default_rng(5)
    x_half = DEFAULT_DOMAIN.x_half
    x = rng.uniform(-x_half, x_half, size=(3, 4))
    th = rng.uniform(0.0, 2 * np.pi, size=(3, 4))
    t = rng.uniform(0.0, 10.0, size=(3, 4))
    got = fts.evaluate(f, x, th, t)
    for i, j in np.ndindex(got.shape):
        solo = fts.evaluate(f, x[i, j], th[i, j], t[i, j])
        assert isinstance(solo, np.float64)
        assert solo == got[i, j]


def test_evaluate_broadcasts():
    f = fts.from_real_terms([(0, 1, 1, 0.5)], TR, RHO)
    x = np.full((3, 1), 0.1)
    th = np.linspace(0, 1, 4)[None, :]
    got = fts.evaluate(f, x, th, 0.0)
    assert got.shape == (3, 4)
    assert np.allclose(got, 0.1 * np.cos(th))


def _table_order_sum(part, x, th, t):
    """A real series at points x, th (trailing unit axis) and scalar t,
    summed term by term in the compiled table's order: cos rows, then sin
    rows; upper-half harmonics in (l, m) order, degrees ascending within
    each; each term (trig * x^n) * c, added to one running sum from +0.

    A zero coefficient is skipped: the running sum starts at +0 and only
    adds, so it is never -0, and adding a zero term leaves its bits."""
    tr = part.trunc
    powers = [np.ones_like(x)]
    for _ in range(tr.n_x):
        powers.append(powers[-1] * x)
    acc = np.zeros_like(x)
    for trig, sign, take in ((np.cos, 1.0, np.real), (np.sin, -1.0, np.imag)):
        for l in range(tr.l_t + 1):
            for m in range(-tr.l_theta if l else 0, tr.l_theta + 1):
                wave = trig(th * float(m) + t * float(l))[..., 0]
                weight = 1.0 if l == m == 0 else 2.0
                for n in range(tr.n_x + 1):
                    c = sign * weight * take(part.coeff(l, m, n))
                    if c != 0.0:
                        acc = acc + (wave * powers[n]) * c
    return acc


def test_compiled_evaluator_sums_in_table_order():
    # einsum picks its own loop order; this pins the one the evaluator
    # needs, bit for bit. It covers one-harmonic series, for which numpy
    # 2.4's einsum sums a lone part at one or two points row by row, and
    # x-only ones
    rng = np.random.default_rng(27)
    x_half = DEFAULT_DOMAIN.x_half
    cases = []
    for k in range(24):
        tr = TruncationSpec(int(rng.integers(0, 9)), int(rng.integers(0, 9)),
                            int(rng.integers(0, 7)))
        # the whole box, x-only, or at most a few low harmonics
        lt, lm = [(tr.l_t, tr.l_theta), (0, 0),
                  (min(1, tr.l_t), min(2, tr.l_theta))][k % 3]
        cases.append([fts.random_real_series(
            tr, RHO, rng, n_terms=int(rng.integers(1, 40)),
            l_t_max=lt, l_theta_max=lm) for _ in range(1 + k // 8)])
    # one harmonic with terms at every degree in both its rows
    for l, m in ((0, 1), (1, -2), (2, 3), (0, 5)):
        cases.append([fts.from_real_terms(
            [(l, m, n, complex(*rng.uniform(-1, 1, size=2)))
             for n in range(TR.n_x + 1)], TR, RHO)])
    for parts in cases:
        sums = fts.compile_evaluator(parts)
        # small calls many times: an order that groups the sum moves the
        # bits of only some values
        for size in [1] * 40 + [2] * 40 + [4, 2000]:
            x = rng.uniform(-x_half, x_half, size=size)
            th = rng.uniform(0.0, 2.0 * math.pi, size=(size, 1))
            t = float(rng.uniform(0.0, 20.0))
            got = sums(x, th, t)
            assert got.shape == (size, len(parts))
            for j, part in enumerate(parts):
                assert np.array_equal(got[:, j],
                                      _table_order_sum(part, x, th, t))
        # batch == solo at the large size
        for i in range(0, size, 7):
            assert np.array_equal(sums(x[i], th[i], t), got[i])


# -- norms -------------------------------------------------------------------


def test_majorant_frozen_values():
    cos_th = fts.from_real_terms([(0, 1, 0, 0.5)], TR, RHO)
    for r in (0.0, 0.5, 1.0):
        assert fts.majorant_norm(cos_th, r) == pytest.approx(math.exp(r))
    x = fts.from_real_terms([(0, 0, 1, 1.0)], TR, RHO)
    assert fts.majorant_norm(x, 0.7) == pytest.approx(DEFAULT_DOMAIN.x_half + 0.7)


def test_majorant_matches_oracle_and_is_monotone():
    pyrng = __import__("random").Random(71)
    for _ in range(10):
        da, _ = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        vals = []
        for r in (0.0, 0.3, 0.9):
            got = fts.majorant_norm(a, r)
            assert got == pytest.approx(
                oracle.majorant(da, r, DEFAULT_DOMAIN.x_half), rel=1e-12)
            vals.append(got)
        assert vals[0] <= vals[1] <= vals[2]


def test_majorant_weights_are_cached_and_frozen():
    # the weights of a (box, r) are computed once and cannot be written; a
    # norm read from them is the sum of the weights' formula, bit for bit
    rng = np.random.default_rng(73)
    boxes = (TR, DEFAULT_TRUNC, TruncationSpec(0, 3, 1))
    series = [fts.random_real_series(box, RHO, rng, n_terms=20)
              for box in boxes]
    first = {}
    for _ in range(3):
        for a in series:
            for r in (0.0, 0.2, 0.45):
                got = fts.majorant_norm(a, r)
                assert first.setdefault((a.trunc, r), got) == got
                powers, weights = fts._majorant_weights(a.trunc, r)
                assert fts._majorant_weights(a.trunc, r)[1] is weights
                for arr in (powers, weights):
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[(0,) * arr.ndim] = 0.0
                t = a.trunc
                ls = np.abs(np.arange(-t.l_t, t.l_t + 1))
                ms = np.abs(np.arange(-t.l_theta, t.l_theta + 1))
                want = np.sum(
                    (np.abs(a.coeffs)
                     @ (DEFAULT_DOMAIN.radius(r) ** np.arange(t.n_x + 1)))
                    * np.exp(r * (ls[:, None] + ms[None, :])))
                assert got == float(want)


def test_majorant_rejects_bad_r():
    f = fts.constant(1.0, TR, RHO)
    with pytest.raises(ValueError):
        fts.majorant_norm(f, -0.1)
    with pytest.raises(ValueError):
        fts.majorant_norm(f, 99.0)


def test_sampled_norm_below_majorant():
    pyrng = __import__("random").Random(83)
    for _ in range(8):
        da, _ = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        for r in (0.0, 0.4):
            sampled = oracle.sampled_norm(da, r, DEFAULT_DOMAIN.x_half)
            assert sampled <= fts.majorant_norm(a, r) * (1 + 1e-12)


def test_sampled_norm_tight_for_single_mode():
    # |cos theta| on the strip |Im theta| <= r has sup cosh r, attained at
    # theta = +-i r, which the sample holds
    f = oracle.dict_from_series(fts.from_real_terms([(0, 1, 0, 0.5)], TR, RHO))
    got = oracle.sampled_norm(f, 0.8, DEFAULT_DOMAIN.x_half)
    assert got == pytest.approx(math.cosh(0.8), rel=1e-9)


def test_cauchy_margins_nonnegative():
    # the Cauchy estimates of derivatives and brackets hold for the
    # majorant coefficient-wise, so their margins are never negative
    r, d, delta = 1.0, 0.4, 0.3
    pyrng = __import__("random").Random(97)
    for _ in range(25):
        da, db = rand_pair(pyrng)
        w = oracle.series_from_dict(da, TR, RHO)
        z = oracle.series_from_dict(db, TR, RHO)
        nw = fts.majorant_norm(w, r)
        checks = {
            "partial_x": (fts.majorant_norm(fts.partial_x(w), r - d), nw / d),
            "partial_theta": (fts.majorant_norm(fts.partial_theta(w), r - d),
                              nw / (math.e * d)),
            "bracket": (fts.majorant_norm(fts.poisson_bracket(w, z), r - d - delta),
                        2.0 / (RHO * math.e * d * (d + delta)) * nw
                        * fts.majorant_norm(z, r - delta)),
        }
        for name, (measured, bound) in checks.items():
            assert bound - measured >= -1e-12 * max(1.0, bound), name


# -- serialization ------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    pyrng = __import__("random").Random(101)
    for _ in range(10):
        da, _ = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        text = json.dumps(fts.to_json_dict(a))
        back = fts.from_json_dict(json.loads(text))
        assert json.dumps(fts.to_json_dict(back)) == text
        assert oracle.max_coeff_diff(a, back) == 0.0


def test_json_rows_are_the_half_lattice_in_index_order():
    # the rows are every nonzero coefficient with l > 0 or (l = 0, m >= 0),
    # sorted by (l, m, n), with the real (0, 0) rows' im written as 0.0
    rng = np.random.default_rng(5)
    for n_terms in (1, 40, 300):
        s = fts.random_real_series(TR, RHO, rng, n_terms=n_terms)
        want = [{"l": l, "m": m, "n": n, "re": c.real,
                 "im": 0.0 if l == m == 0 else c.imag}
                for (l, m, n), c in sorted(oracle.dict_from_series(s).items())
                if l > 0 or (l == 0 and m >= 0)]
        got = fts.to_json_dict(s)["coeffs"]
        assert got == want
        assert all(type(e[k]) is int for e in got for k in "lmn")
        assert all(type(e[k]) is float for e in got for k in ("re", "im"))
    # a center coefficient stored with imaginary part -0.0 is written 0.0
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t, TR.l_theta, 2] = complex(4.0, -0.0)
    (row,) = fts.to_json_dict(FourierTaylorSeries(c, TR, RHO))["coeffs"]
    assert (row["l"], row["m"], row["n"], row["re"]) == (0, 0, 2, 4.0)
    assert math.copysign(1.0, row["im"]) == 1.0


def test_json_rejects_non_real():
    # an imaginary l = m = 0 entry is rejected where the document enters
    doc = fts.to_json_dict(fts.from_real_terms([(0, 0, 1, 4.0)], TR, RHO))
    doc["coeffs"][0]["im"] = 0.5
    with pytest.raises(RealityError):
        fts.from_json_dict(doc)
    # within rounding, the imaginary part is dropped
    doc["coeffs"][0]["im"] = 1e-15
    assert fts.from_json_dict(doc).coeff(0, 0, 1) == 4.0


@pytest.mark.parametrize("entry", [
    {"l": 1, "m": 1, "n": -1},  # a negative degree once wrapped to N_x
    {"l": 1, "m": 3, "n": 0},  # |m| > L_theta
    {"l": 3, "m": 0, "n": 0},  # |l| > L_t
])
def test_json_rejects_entries_outside_the_box(entry):
    t = TruncationSpec(n_x=2, l_theta=2, l_t=2)
    doc = fts.to_json_dict(fts.zeros(t, RHO))
    doc["coeffs"] = [dict(entry, re=1.0, im=0.0)]
    with pytest.raises(ValueError, match="outside truncation box"):
        fts.from_json_dict(doc)


def test_json_layout_and_half_lattice():
    f = fts.from_real_terms([(1, -2, 0, 1.0 + 2.0j), (0, 0, 1, 4.0)], TR, RHO)
    doc = json.loads(json.dumps(fts.to_json_dict(f)))
    assert doc["trunc"] == {"N_x": 8, "L_theta": 8, "L_t": 6}
    stored = {(e["l"], e["m"], e["n"]) for e in doc["coeffs"]}
    assert stored == {(1, -2, 0), (0, 0, 1)}
    entries = doc["coeffs"]
    assert entries == sorted(entries, key=lambda e: (e["l"], e["m"], e["n"]))
    bad = dict(doc)
    bad["coeffs"] = [{"l": -1, "m": 0, "n": 0, "re": 1.0, "im": 0.0}]
    with pytest.raises(ValueError):
        fts.from_json_dict(bad)


def test_json_loads_older_files_with_pad():
    # files written before the pad knob was removed carry trunc.pad
    f = fts.from_real_terms([(1, -2, 0, 1.0 + 2.0j), (0, 0, 1, 4.0)], TR, RHO)
    doc = fts.to_json_dict(f)
    old = dict(doc, trunc=dict(doc["trunc"], pad=2))
    back = fts.from_json_dict(old)
    assert back.trunc == TR
    assert fts.to_json_dict(back) == doc


def test_json_symmetrizes_tiny_defect():
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t + 1, TR.l_theta + 1, 0] = 0.5 + 1e-15j
    c[TR.l_t - 1, TR.l_theta - 1, 0] = 0.5
    s = FourierTaylorSeries(c, TR, RHO)
    assert oracle.hermitian_defect(s.coeffs) == 0.0
    text = json.dumps(fts.to_json_dict(s))
    back = fts.from_json_dict(json.loads(text))
    assert json.dumps(fts.to_json_dict(back)) == text


# -- product kernel ----------------------------------------------------------


def _grid(rng, ls, ms, nmax):
    """Complex coefficients on wave numbers l in ls and m in ms only (not a
    real series)."""
    return {(l, m, n): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for l in ls for m in ms for n in range(nmax + 1)}


def _one_sided(rng, ls, mmax, nmax):
    """Complex coefficients on wave numbers l in ls only (not a real series)."""
    return _grid(rng, ls, range(-mmax, mmax + 1), nmax)


def _kernel_cases(rng):
    """(da, box a, db, box b, axes the product clips) for the kernel test."""
    real = oracle.rand_real_series
    t3 = TruncationSpec(n_x=3, l_theta=3, l_t=2)
    t2 = TruncationSpec(n_x=2, l_theta=2, l_t=2)
    cases = [(real(rng, lmax=2, mmax=3, nmax=3), t3,
              real(rng, lmax=2, mmax=3, nmax=3), t3, {"l", "m", "n"})
             for _ in range(5)]
    # operands on different boxes: the product lives on the merged one
    cases.append((real(rng, lmax=1, mmax=4, nmax=2, density=0.8),
                  TruncationSpec(n_x=2, l_theta=4, l_t=1),
                  real(rng, lmax=3, mmax=1, nmax=4, density=0.8),
                  TruncationSpec(n_x=4, l_theta=1, l_t=3), {"l", "m", "n"}))
    # one-sided supports: every l < 0, so only the low end of l clips
    cases.append((_one_sided(rng, (-2, -1), 1, 1), t2,
                  _one_sided(rng, (-2, -1), 1, 1), t2, {"l"}))
    # clipping in exactly one axis at a time
    cases.append((real(rng, lmax=2, mmax=1, nmax=1, density=0.8), t2,
                  real(rng, lmax=2, mmax=1, nmax=1, density=0.8), t2, {"l"}))
    cases.append((real(rng, lmax=1, mmax=2, nmax=1, density=0.8), t2,
                  real(rng, lmax=1, mmax=2, nmax=1, density=0.8), t2, {"m"}))
    cases.append((real(rng, lmax=1, mmax=1, nmax=2, density=0.8), t2,
                  real(rng, lmax=1, mmax=1, nmax=2, density=0.8), t2, {"n"}))
    # supports that cannot leave the box, also when |l| sums would
    cases.append((real(rng, lmax=1, mmax=1, nmax=1, density=0.8), t2,
                  real(rng, lmax=1, mmax=1, nmax=1, density=0.8), t2, set()))
    cases.append((_one_sided(rng, (-2, -1), 1, 1), t2,
                  _one_sided(rng, (1, 2), 1, 1), t2, set()))
    # the half-lattice split halves every l = m = 0 cell: populate them all
    cases.append((_with_centres(rng, real(rng, lmax=2, mmax=1, nmax=2, density=1.0), 2), t2,
                  _with_centres(rng, real(rng, lmax=2, mmax=1, nmax=2, density=1.0), 2), t2,
                  {"l", "n"}))
    cases.append((_with_centres(rng, real(rng, lmax=1, mmax=1, nmax=1, density=1.0), 1), t2,
                  _with_centres(rng, real(rng, lmax=1, mmax=1, nmax=1, density=1.0), 1), t2,
                  set()))
    # coefficients that are not a real series (a real one times 1j)
    cases.append(({k: 1j * v for k, v in real(rng, lmax=2, mmax=3, nmax=3).items()}, t3,
                  real(rng, lmax=2, mmax=3, nmax=3), t3, {"l", "m", "n"}))
    # the different boxes above with the factors swapped: the other block is
    # now the larger in (m, n), so the other factor forms the strided view
    cases.append((real(rng, lmax=3, mmax=1, nmax=4, density=0.8),
                  TruncationSpec(n_x=4, l_theta=1, l_t=3),
                  real(rng, lmax=1, mmax=4, nmax=2, density=0.8),
                  TruncationSpec(n_x=2, l_theta=4, l_t=1), {"l", "m", "n"}))
    # single-row factors: l = 0 only (its upper half is one row), and one l
    cases.append((real(rng, lmax=0, mmax=2, nmax=1, density=1.0), t2,
                  real(rng, lmax=2, mmax=1, nmax=1, density=0.8), t2, {"m"}))
    cases.append((_one_sided(rng, (-2,), 1, 1), t2,
                  _one_sided(rng, (-1, 0, 1), 2, 1), t2, {"l", "m"}))
    # one row each, every product below -l_t or above l_t: nothing is kept
    cases.append((_one_sided(rng, (-2,), 1, 1), t2,
                  _one_sided(rng, (-1,), 1, 1), t2, {"l"}))
    t_wide = TruncationSpec(n_x=2, l_theta=2, l_t=3)
    cases.append((_one_sided(rng, (2, 3), 1, 1), t_wide,
                  _one_sided(rng, (3,), 1, 1), t_wide, {"l"}))
    # nothing kept while the degrees clip too: every l sum, then every m sum,
    # outside the box
    cases.append((_one_sided(rng, (-2,), 1, 2), t2,
                  _one_sided(rng, (-1,), 1, 2), t2, {"l", "n"}))
    cases.append((_grid(rng, (-1, 0, 1), (2,), 2), t2,
                  _grid(rng, (0,), (1,), 2), t2, {"m", "n"}))
    # a factor of degree above n_x (the kernel's own input, not a series on
    # that box): every product it forms drops, also where (l, m) is kept,
    # in either argument order and where no (l, m) is kept
    t_flat = TruncationSpec(n_x=2, l_theta=2, l_t=1)
    deep = _one_sided(rng, (-1, 0), 1, 4)
    shallow = _one_sided(rng, (0, 1), 1, 1)
    cases += [(deep, t_flat, shallow, t_flat, {"n"}), (shallow, t_flat, deep, t_flat, {"n"}),
              (_one_sided(rng, (1,), 1, 4), t_flat, _one_sided(rng, (1,), 1, 0), t_flat,
               {"l", "n"})]
    # lowest degrees above 0, so the blocks start with empty degrees
    cases.append((_raise_degree(real(rng, lmax=1, mmax=1, nmax=1, density=0.8), 1), t3,
                  _raise_degree(real(rng, lmax=1, mmax=1, nmax=1, density=0.8), 2), t3,
                  {"n"}))
    return cases


def _raise_degree(d, k):
    """d times x^k."""
    return {(l, m, n + k): v for (l, m, n), v in d.items()}


def _mn_block(keys):
    """Entries of the (m, n) face of the kernel's block for these indices."""
    ms = [m for _, m, _ in keys]
    return (max(ms) - min(ms) + 1) * (max(n for _, _, n in keys) + 1)


def _with_centres(rng, d, nmax):
    """d with every (0, 0, n) cell, n <= nmax, set to a random real value."""
    return {**d, **{(0, 0, n): complex(rng.uniform(-1, 1), 0.0) for n in range(nmax + 1)}}


def _is_real_dict(d):
    return all(d.get((-l, -m, n), 0.0) == v.conjugate() for (l, m, n), v in d.items())


def _outside(t, l, m, n):
    return (abs(l) > t.l_t, abs(m) > t.l_theta, n > t.n_x)


def _clipped_axes(products, t):
    """Axes along which some (l, m, n, value) product leaves box t."""
    return {ax for l, m, n, _ in products
            for ax, out in zip("lmn", _outside(t, l, m, n)) if out}


def _pair_products(da, db):
    """(l, m, n, value) of every pair product of two coefficient dicts."""
    return [(l1 + l2, m1 + m2, n1 + n2, v1 * v2)
            for (l1, m1, n1), v1 in da.items() for (l2, m2, n2), v2 in db.items()]


def _coeff_lists(d):
    """(l, m, n, values) arrays of a coefficient dict, as the kernel takes
    them: the values as one channel."""
    keys = sorted(d)
    l, m, n = (np.array(col, dtype=np.int64) for col in zip(*keys))
    return l, m, n, np.array([[d[k] for k in keys]], dtype=np.complex128)


def _kernel(da, db, t):
    """The kernel on two coefficient dicts, output box t, as a product dict."""
    out = fts.convolve_nonzeros(*_coeff_lists(da), *_coeff_lists(db), t.l_t, t.l_theta, t.n_x)
    return {(int(a) - t.l_t, int(b) - t.l_theta, int(c)): complex(out[a, b, c])
            for a, b, c in zip(*np.nonzero(out))}


def test_product_kernel_matches_oracle_across_blocks():
    # real series go through multiply, other coefficient lists (one-sided
    # supports, which clip at one end of l only) straight through the kernel
    pyrng = __import__("random").Random(31)
    cases = _kernel_cases(pyrng)
    real_cases = centred = 0
    views, single_rows, raised = set(), set(), 0
    for da, ta, db, tb, axes in cases:
        t = ta.merge(tb)
        products = _pair_products(da, db)
        assert _clipped_axes(products, t) == axes
        real = _is_real_dict(da) and _is_real_dict(db)
        # the kernel's first factor: multiply passes the upper half of a
        rows = [k for k in da if not real or k[0] > 0 or (k[0] == 0 and k[1] >= 0)]
        views.add(_mn_block(rows) >= _mn_block(db))
        single_rows.add((real, len({l for l, _, _ in rows}) == 1))
        raised += min(n for _, _, n in da) > 0 and min(n for _, _, n in db) > 0
        kept = oracle.restrict(oracle.smul(da, db), t.l_t, t.l_theta, t.n_x)
        if real:
            prod = fts.multiply(oracle.series_from_dict(da, ta, RHO),
                                oracle.series_from_dict(db, tb, RHO))
            assert prod.trunc == t
            # real factors give an exactly hermitian product
            assert oracle.hermitian_defect(prod.coeffs) == 0.0
            assert oracle.diff_norm(kept, prod) < 1e-13
            real_cases += 1
            centred += any(da.get((0, 0, n), 0) != 0 for n in range(ta.n_x + 1))
        else:
            got = _kernel(da, db, t)
            keys = set(kept) | set(got)
            assert max((abs(kept.get(k, 0.0) - got.get(k, 0.0)) for k in keys),
                       default=0.0) < 1e-13
    # both routes ran, and the half-lattice split met populated centre cells
    assert 0 < real_cases < len(cases)
    assert centred >= 2
    # each axis clipped alone and all three together
    assert {frozenset(c[4]) for c in cases} >= {frozenset(ax) for ax in ("l", "m", "n", "lmn")}
    # either factor formed the view; single-row factors on both routes
    assert views == {True, False}
    assert {(True, True), (False, True)} <= single_rows
    assert raised >= 1


def test_kernel_contracts_one_complex_window_per_product(monkeypatch):
    # a product or bracket whose products leave the box contracts its
    # complex values once, and convolves no float weights
    calls = []
    convolve = fts._convolve_window

    def recorded(a, b, lo, hi):
        calls.append(a.dtype)
        return convolve(a, b, lo, hi)

    monkeypatch.setattr(fts, "_convolve_window", recorded)
    t = DEFAULT_TRUNC
    rng = np.random.default_rng(13)
    f, g = fts.random_real_series(t, RHO, rng), fts.random_real_series(t, RHO, rng)
    assert _clipped_axes(_pair_products(oracle.dict_from_series(f), oracle.dict_from_series(g)), t)
    fts.poisson_bracket(f, g)
    fts.multiply(f, g)
    assert calls == [np.complex128] * 2


def test_multiply_by_zero_skips_the_kernel(monkeypatch):
    calls = []
    kernel = fts.convolve_nonzeros

    def counted(*args):
        calls.append(args[0].size * args[4].size)
        return kernel(*args)

    monkeypatch.setattr(fts, "convolve_nonzeros", counted)
    ta, tb = TruncationSpec(n_x=2, l_theta=4, l_t=1), TruncationSpec(n_x=4, l_theta=1, l_t=3)
    f = fts.random_real_series(ta, RHO, np.random.default_rng(5))
    z = fts.zeros(tb, RHO)
    for prod in (fts.multiply(f, z), fts.multiply(z, f)):
        assert prod.trunc == ta.merge(tb)
        assert not prod.coeffs.any()
    assert calls == []
    # the counter does see a product of nonzero factors
    fts.multiply(f, f)
    assert len(calls) == 1


# -- the bracket as one kernel call -------------------------------------------


def _bracket_cases(rng):
    """(da, box a, db, box b, axes the bracket's products clip) for the
    fused-bracket test."""
    real = oracle.rand_real_series
    t3 = TruncationSpec(n_x=3, l_theta=3, l_t=2)
    t2 = TruncationSpec(n_x=2, l_theta=2, l_t=2)
    small = TruncationSpec(n_x=2, l_theta=4, l_t=1)
    wide = TruncationSpec(n_x=4, l_theta=1, l_t=3)
    cases = [(real(rng, lmax=2, mmax=3, nmax=3), t3,
              real(rng, lmax=2, mmax=3, nmax=3), t3, {"l", "m", "n"})
             for _ in range(3)]
    # operands on different boxes, in both argument orders
    da = real(rng, lmax=1, mmax=4, nmax=2, density=0.8)
    db = real(rng, lmax=3, mmax=1, nmax=4, density=0.8)
    cases += [(da, small, db, wide, {"l", "m", "n"}), (db, wide, da, small, {"l", "m", "n"})]
    # clipping in exactly one axis at a time, and in none
    cases.append((real(rng, lmax=2, mmax=1, nmax=1, density=0.8), t2,
                  real(rng, lmax=2, mmax=1, nmax=1, density=0.8), t2, {"l"}))
    cases.append((real(rng, lmax=1, mmax=2, nmax=1, density=0.8), t2,
                  real(rng, lmax=1, mmax=2, nmax=1, density=0.8), t2, {"m"}))
    cases.append((real(rng, lmax=1, mmax=1, nmax=2, density=0.8), t2,
                  real(rng, lmax=1, mmax=1, nmax=2, density=0.8), t2, {"n"}))
    cases.append((real(rng, lmax=1, mmax=1, nmax=1, density=0.8), t2,
                  real(rng, lmax=1, mmax=1, nmax=1, density=0.8), t2, set()))
    # one-sided half-lattice supports: every l of a's upper half is > 0
    cases.append((_real_one_sided(rng, (1, 2), 1, 1), t2,
                  _real_one_sided(rng, (1,), 1, 1), t2, {"l"}))
    cases.append((_real_one_sided(rng, (1,), 1, 1), t2,
                  _real_one_sided(rng, (1,), 1, 1), t2, set()))
    # d_x a = 0 (degree 0 only): only d_theta a d_x b is left, in both orders
    flat = real(rng, lmax=2, mmax=2, nmax=0, density=0.8)
    curved = real(rng, lmax=2, mmax=2, nmax=2, density=0.8)
    cases += [(flat, t2, curved, t2, {"l", "m"}), (curved, t2, flat, t2, {"l", "m"})]
    # d_theta a = 0 (m = 0 only): only d_x a d_theta b is left
    cases.append((real(rng, lmax=2, mmax=0, nmax=2, density=0.8), t2,
                  real(rng, lmax=1, mmax=2, nmax=2, density=0.8), t2, {"l", "n"}))
    # populated l = m = 0 cells, which the half-lattice split halves
    cases.append((_with_centres(rng, real(rng, lmax=2, mmax=1, nmax=2, density=1.0), 2), t2,
                  _with_centres(rng, real(rng, lmax=2, mmax=1, nmax=2, density=1.0), 2), t2,
                  {"l", "n"}))
    return cases


def _bracket_products(da, db):
    """(l, m, n, value) of every pair product of d_x a d_theta b and of
    d_theta a d_x b."""
    return [(l1 + l2, m1 + m2, n1 + n2, v1 * v2)
            for fa, fb in ((oracle.dx(da), oracle.dtheta(db)),
                           (oracle.dtheta(da), oracle.dx(db)))
            for (l1, m1, n1), v1 in fa.items() for (l2, m2, n2), v2 in fb.items()]


def test_bracket_matches_oracle_with_clipping():
    pyrng = __import__("random").Random(71)
    cases = _bracket_cases(pyrng)
    for da, ta, db, tb, axes in cases:
        t = ta.merge(tb)
        products = _bracket_products(da, db)
        assert _clipped_axes(products, t) == axes
        got = fts.poisson_bracket(oracle.series_from_dict(da, ta, RHO),
                                  oracle.series_from_dict(db, tb, RHO))
        assert got.trunc == t
        assert oracle.hermitian_defect(got.coeffs) == 0.0
        kept = oracle.restrict(oracle.bracket(da, db, RHO), t.l_t, t.l_theta, t.n_x)
        assert oracle.diff_norm(kept, got) < 1e-13
    # each axis clipped alone and all three together, and none
    assert {frozenset(c[4]) for c in cases} >= {frozenset(ax) for ax in ("", "l", "m", "n", "lmn")}


def test_bracket_is_one_kernel_call(monkeypatch):
    calls = []
    kernel = fts.convolve_nonzeros

    def counted(*args):
        calls.append(args[0].size * args[4].size)
        return kernel(*args)

    def unused(*args):
        raise AssertionError("the bracket forms no derivative series or products")

    monkeypatch.setattr(fts, "convolve_nonzeros", counted)
    for name in ("multiply", "partial_x", "partial_theta"):
        monkeypatch.setattr(fts, name, unused)
    ta, tb = TruncationSpec(n_x=2, l_theta=4, l_t=1), TruncationSpec(n_x=4, l_theta=1, l_t=3)
    rng = np.random.default_rng(9)
    f = fts.random_real_series(ta, RHO, rng)
    g = fts.random_real_series(tb, RHO, rng)
    for a, b in ((f, g), (g, f), (f, f)):
        calls.clear()
        fts.poisson_bracket(a, b)
        assert len(calls) == 1
    # a factor of t alone gives exact zeros, without a kernel call
    cos_t = fts.from_real_terms([(1, 0, 0, 0.5)], tb, RHO)
    calls.clear()
    for out in (fts.poisson_bracket(f, cos_t), fts.poisson_bracket(cos_t, f)):
        assert out.trunc == ta.merge(tb)
        assert not out.coeffs.any()
    assert calls == []


def test_bracket_values_window_starts_at_degree_one(monkeypatch):
    # every channel product of a bracket vanishes at degree 0, so its
    # values contraction starts at degree 1; a product's starts at 0
    calls = []
    convolve = fts._convolve_window

    def recorded(a, b, lo, hi):
        if a.dtype == np.complex128:
            calls.append(lo[2])
        return convolve(a, b, lo, hi)

    monkeypatch.setattr(fts, "_convolve_window", recorded)
    ta, tb = TruncationSpec(n_x=2, l_theta=4, l_t=1), TruncationSpec(n_x=4, l_theta=1, l_t=3)
    rng = np.random.default_rng(17)
    f = fts.random_real_series(ta, RHO, rng)
    g = fts.random_real_series(tb, RHO, rng)
    h = fts.random_real_series(DEFAULT_TRUNC, RHO, rng)
    for a, b in ((f, g), (g, f), (f, f), (h, g), (h, h)):
        fts.poisson_bracket(a, b)
    assert len(calls) == 5 and set(calls) == {1}
    calls.clear()
    fts.multiply(f, g)
    assert calls == [0]


def test_kernel_lower_degree_bound_keeps_higher_degrees():
    # bracket-shaped channels, (n c, i m c) against (i m c, -n c): the
    # degree-0 products vanish, so starting the window at degree 1 leaves
    # the other degrees as they were, to rounding
    pyrng = __import__("random").Random(73)
    for da, ta, db, tb, _ in _bracket_cases(pyrng):
        t = ta.merge(tb)
        la, ma, na, va = _coeff_lists(da)
        lb, mb, nb, vb = _coeff_lists(db)
        va, vb = np.array((na, 1j * ma)) * va[0], np.array((1j * mb, -nb)) * vb[0]
        args = (la, ma, na, va, lb, mb, nb, vb, t.l_t, t.l_theta, t.n_x + 1)
        full = fts.convolve_nonzeros(*args, 0)
        trimmed = fts.convolve_nonzeros(*args, 1)
        assert not full[:, :, 0].any() and not trimmed[:, :, 0].any()
        assert np.abs(trimmed - full).max() <= 1e-13 * np.abs(full).max()


def test_bracket_of_degree_zero_series_skips_the_values_window(monkeypatch):
    # no product of two x-independent series reaches degree 1, so the
    # bracket asks for no window at all: it is the zero series, also
    # where the harmonics leave the box
    calls = []
    convolve = fts._convolve_window

    def recorded(a, b, lo, hi):
        calls.append((a.dtype, lo, hi))
        return convolve(a, b, lo, hi)

    monkeypatch.setattr(fts, "_convolve_window", recorded)
    pyrng = __import__("random").Random(79)
    t = TruncationSpec(n_x=0, l_theta=2, l_t=2)
    flat = [oracle.series_from_dict(oracle.rand_real_series(pyrng, lmax=2, mmax=2, nmax=0,
                                                            density=0.8), t, RHO)
            for _ in range(2)]
    params = ops.AlgebraParams()
    cases = [(ops.generic_curvature(params),) * 2,
             (ops.generic_curvature(params, DEFAULT_TRUNC),) * 2,
             (flat[0], flat[1]), (flat[1], flat[0]), (flat[0], flat[0])]
    for a, b in cases:
        out = fts.poisson_bracket(a, b)
        assert out.trunc == a.trunc.merge(b.trunc)
        assert not out.coeffs.any()
    assert calls == []
    # the kernel itself: lower bound 1 leaves out as bound 0 has it
    calls.clear()
    la, ma, na, va = _coeff_lists(oracle.rand_real_series(pyrng, lmax=2, mmax=2, nmax=0))
    lb, mb, nb, vb = _coeff_lists(oracle.rand_real_series(pyrng, lmax=2, mmax=2, nmax=0))
    va, vb = np.array((na, 1j * ma)) * va[0], np.array((1j * mb, -nb)) * vb[0]
    args = (la, ma, na, va, lb, mb, nb, vb, 1, 1, 1)
    full = fts.convolve_nonzeros(*args, 0)
    trimmed = fts.convolve_nonzeros(*args, 1)
    assert not full.any() and not trimmed.any()
    assert [lo[2] for _, lo, _ in calls] == [0]
