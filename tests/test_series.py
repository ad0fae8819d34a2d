import cmath
import json
import math

import numpy as np
import pytest

import _oracle as oracle
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


def test_given_reality_still_rejects_non_finite():
    with np.errstate(invalid="ignore"):
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
            c = np.zeros(TR.shape, dtype=np.complex128)
            c[TR.l_t, TR.l_theta, 0] = bad
            for hermitian in (True, False):
                with pytest.raises(ValueError, match="finite"):
                    FourierTaylorSeries(c, TR, RHO, hermitian=hermitian)


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
        got, dropped = fts.multiply(a, b)
        ref = oracle.smul(da, db)
        # supports stay inside the box, so the product is exact
        assert dropped == 0.0
        assert oracle.diff_norm(ref, got) < 1e-13


def test_multiply_tail_accounts_for_dropped_weight():
    t = TruncationSpec(n_x=2, l_theta=2, l_t=1)
    da = {(1, 2, 2): 0.5 + 0.0j, (-1, -2, 2): 0.5 - 0.0j}
    db = dict(da)
    a = oracle.series_from_dict(da, t, RHO)
    ref = oracle.smul(da, db)
    dropped = {k: v for k, v in ref.items()
               if not (abs(k[0]) <= 1 and abs(k[1]) <= 2 and k[2] <= 2)}
    expect_tail = sum(abs(v) * DEFAULT_DOMAIN.x_half ** n
                      for (_, _, n), v in dropped.items())
    got, dropped = fts.multiply(a, a)
    kept = oracle.restrict(ref, 1, 2, 2)
    assert oracle.diff_norm(kept, got) < 1e-14
    assert dropped == pytest.approx(expect_tail, rel=1e-12, abs=0.0)
    # the operator form is the product alone
    assert oracle.max_coeff_diff(a * a, got) == 0.0


def test_bracket_drops_what_its_two_products_drop():
    t = TruncationSpec(n_x=2, l_theta=2, l_t=1)
    a = fts.from_real_terms([(1, 2, 2, 0.5)], t, RHO)
    b = fts.from_real_terms([(1, 2, 1, 0.5)], t, RHO)
    _, p = fts.multiply(fts.partial_x(a), fts.partial_theta(b))
    _, q = fts.multiply(fts.partial_theta(a), fts.partial_x(b))
    assert p + q > 0.0
    assert fts.poisson_bracket(a, b)[1] == pytest.approx((p + q) / RHO, rel=1e-15)


def test_scale_keeps_reality_for_numpy_real_scalars():
    a = fts.from_real_terms([(1, 2, 1, 0.5 - 0.25j), (0, 0, 2, 3.0)], TR, RHO)
    for c in (np.int64(2), np.float32(0.5), np.array(-1.5), 2.0 + 0.0j, 3):
        out = fts.scale(a, c)
        assert oracle.hermitian_defect(out.coeffs) == 0.0, c
        assert fts.from_json(fts.to_json(out)).coeff(1, 2, 1) == out.coeff(1, 2, 1)
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
    with np.errstate(invalid="ignore"):
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
            c = np.zeros(TR.shape, dtype=np.complex128)
            c[1, 2, 3] = bad
            with pytest.raises(ValueError, match="finite"):
                FourierTaylorSeries(c, TR, RHO)
        with pytest.raises(ValueError, match="finite"):
            fts.scale(fts.constant(1.0, TR, RHO), math.inf)


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
        got, _ = fts.poisson_bracket(a, b)
        assert oracle.diff_norm(ref, got) < 1e-13
        assert oracle.hermitian_defect(got.coeffs) == 0.0


def test_bracket_frozen_example():
    # {x^2, e^{i theta}} = (2 i / rho) x e^{i theta}
    x2 = fts.from_real_terms([(0, 0, 2, 1.0)], TR, RHO)
    cos_th = fts.from_real_terms([(0, 1, 0, 0.5)], TR, RHO)
    got, _ = fts.poisson_bracket(x2, cos_th)
    assert got.coeff(0, 1, 1) == pytest.approx(2j * 0.5 / RHO)
    assert got.coeff(0, -1, 1) == pytest.approx(-2j * 0.5 / RHO)


def test_bracket_antisymmetry_and_rho_mismatch():
    pyrng = __import__("random").Random(53)
    da, db = rand_pair(pyrng)
    a = oracle.series_from_dict(da, TR, RHO)
    b = oracle.series_from_dict(db, TR, RHO)
    anti = fts.poisson_bracket(a, b)[0] + fts.poisson_bracket(b, a)[0]
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
        out, _ = fts.poisson_bracket(a * b, a + 0.5 * b)
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
                fts.poisson_bracket(a, b)[0], fts.poisson_bracket(b, a)[0]]
        for out in outs:
            assert _exactly_real(out)
    assert any(fts.multiply(a, b)[1] > 0.0 for a, b in pairs)


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


def test_evaluate_broadcasts():
    f = fts.from_real_terms([(0, 1, 1, 0.5)], TR, RHO)
    x = np.full((3, 1), 0.1)
    th = np.linspace(0, 1, 4)[None, :]
    got = fts.evaluate(f, x, th, 0.0)
    assert got.shape == (3, 4)
    assert np.allclose(got, 0.1 * np.cos(th))


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
            "bracket": (fts.majorant_norm(fts.poisson_bracket(w, z)[0], r - d - delta),
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
        text = fts.to_json(a)
        back = fts.from_json(text)
        assert fts.to_json(back) == text
        assert oracle.max_coeff_diff(a, back) == 0.0


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
    doc = json.loads(fts.to_json(f))
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
    text = fts.to_json(s)
    assert fts.to_json(fts.from_json(text)) == text


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


def _dropped_weight(products, t):
    """Majorant weight at r = 0 of the (l, m, n, value) products outside box t."""
    return sum(abs(v) * DEFAULT_DOMAIN.x_half ** n for l, m, n, v in products
               if any(_outside(t, l, m, n)))


def _coeff_lists(d):
    """(l, m, n, values) arrays of a coefficient dict, as the kernel takes
    them: the values as one channel."""
    keys = sorted(d)
    l, m, n = (np.array(col, dtype=np.int64) for col in zip(*keys))
    return l, m, n, np.array([[d[k] for k in keys]], dtype=np.complex128)


def _kernel(da, db, t):
    """The kernel on two coefficient dicts, output box t; (product dict, tail)."""
    degree = max(n for _, _, n in (*da, *db))
    xpow = DEFAULT_DOMAIN.x_half ** np.arange(max(t.n_x, degree) + 1, dtype=np.float64)
    out, tail = fts.convolve_nonzeros(*_coeff_lists(da), *_coeff_lists(db),
                                      t.l_t, t.l_theta, t.n_x, xpow)
    got = {(int(a) - t.l_t, int(b) - t.l_theta, int(c)): complex(out[a, b, c])
           for a, b, c in zip(*np.nonzero(out))}
    return got, tail


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
            prod, tail = fts.multiply(oracle.series_from_dict(da, ta, RHO),
                                      oracle.series_from_dict(db, tb, RHO))
            assert prod.trunc == t
            # real factors give an exactly hermitian product
            assert oracle.hermitian_defect(prod.coeffs) == 0.0
            assert oracle.diff_norm(kept, prod) < 1e-13
            real_cases += 1
            centred += any(da.get((0, 0, n), 0) != 0 for n in range(ta.n_x + 1))
        else:
            got, tail = _kernel(da, db, t)
            keys = set(kept) | set(got)
            assert max((abs(kept.get(k, 0.0) - got.get(k, 0.0)) for k in keys),
                       default=0.0) < 1e-13
        if not axes:
            assert tail == 0.0
            continue
        assert tail == pytest.approx(_dropped_weight(products, t), rel=1e-12, abs=0.0)
    # both routes ran, and the half-lattice split met populated centre cells
    assert 0 < real_cases < len(cases)
    assert centred >= 2
    # each axis clipped alone and all three together
    assert {frozenset(c[4]) for c in cases} >= {frozenset(ax) for ax in ("l", "m", "n", "lmn")}
    # either factor formed the view; single-row factors on both routes
    assert views == {True, False}
    assert {(True, True), (False, True)} <= single_rows
    assert raised >= 1


def _graded(rng, lmax, mmax, nmax):
    """Complex coefficients of modulus 10**-min(20, 6 (|l| + |m| + n)): the
    farther out, the smaller, down to 1e-20."""
    return {(l, m, n): cmath.rect(10.0 ** -min(20, 6 * (abs(l) + abs(m) + n)),
                                  rng.uniform(0, 2 * math.pi))
            for l in range(-lmax, lmax + 1) for m in range(-mmax, mmax + 1)
            for n in range(nmax + 1)}


def test_kernel_tail_has_no_cancellation():
    # the dropped weight is far below the rounding of the total weight, so
    # a tail formed as total minus kept would be noise
    pyrng = __import__("random").Random(41)
    t2 = TruncationSpec(n_x=2, l_theta=2, l_t=2)
    cases = [((1, 1, 2), {"n"}), ((2, 2, 1), {"l", "m"}), ((2, 2, 2), {"l", "m", "n"})]
    smallest = 1.0
    for (lmax, mmax, nmax), axes in cases:
        da, db = _graded(pyrng, lmax, mmax, nmax), _graded(pyrng, lmax, mmax, nmax)
        products = _pair_products(da, db)
        assert _clipped_axes(products, t2) == axes
        dropped = _dropped_weight(products, t2)
        total = sum(abs(v) * DEFAULT_DOMAIN.x_half ** n for _, _, n, v in products)
        smallest = min(smallest, dropped / total)
        _, tail = _kernel(da, db, t2)
        assert tail == pytest.approx(dropped, rel=1e-12, abs=0.0)
    assert smallest <= 1e-15


def test_kernel_weight_convolutions_span_one_degree(monkeypatch):
    # the tail convolves degree sums and suffix sums, never the weights
    # over the extended degree range
    calls = []
    convolve = fts._convolve_window

    def recorded(a, b, lo, hi):
        calls.append((a.dtype, hi[2] - lo[2]))
        return convolve(a, b, lo, hi)

    monkeypatch.setattr(fts, "_convolve_window", recorded)
    t = DEFAULT_TRUNC
    rng = np.random.default_rng(13)
    f, g = fts.random_real_series(t, RHO, rng), fts.random_real_series(t, RHO, rng)
    for _, dropped in (fts.poisson_bracket(f, g), fts.multiply(f, g)):
        assert dropped > 0.0
    weights = [depth for dtype, depth in calls if dtype == np.float64]
    assert weights and set(weights) == {1}
    # per call one values contraction and both tail slabs
    assert len(calls) == 6 and len(weights) == 4


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
    for prod, dropped in (fts.multiply(f, z), fts.multiply(z, f)):
        assert prod.trunc == ta.merge(tb)
        assert not prod.coeffs.any()
        assert dropped == 0.0
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
        got, tail = fts.poisson_bracket(oracle.series_from_dict(da, ta, RHO),
                                        oracle.series_from_dict(db, tb, RHO))
        assert got.trunc == t
        assert oracle.hermitian_defect(got.coeffs) == 0.0
        kept = oracle.restrict(oracle.bracket(da, db, RHO), t.l_t, t.l_theta, t.n_x)
        assert oracle.diff_norm(kept, got) < 1e-13
        if not axes:
            assert tail == 0.0
            continue
        assert tail > 0.0
        assert tail == pytest.approx(_dropped_weight(products, t) / RHO, rel=1e-12, abs=0.0)
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
    for out, dropped in (fts.poisson_bracket(f, cos_t), fts.poisson_bracket(cos_t, f)):
        assert out.trunc == ta.merge(tb)
        assert not out.coeffs.any()
        assert dropped == 0.0
    assert calls == []
