import json
import math

import numpy as np
import pytest

import _oracle as oracle
from lie_kam import series as fts
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
    assert f.is_real
    assert f.coeff(1, 2, 1) == 0.5 - 0.25j
    assert f.coeff(-1, -2, 1) == 0.5 + 0.25j
    assert f.coeff(0, 0, 2) == 3.0
    with pytest.raises(ValueError):
        fts.from_real_terms([(-1, 0, 0, 1.0)], TR, RHO)
    with pytest.raises(RealityError):
        fts.from_real_terms([(0, 0, 0, 1.0 + 1.0j)], TR, RHO)


def test_reality_flag_detects_defect():
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t + 1, TR.l_theta, 0] = 1.0 + 0.5j  # no mirror partner
    f = FourierTaylorSeries(c, TR, RHO)
    assert not f.is_real
    assert f.hermitian_defect > 0.1


def test_raw_entry_stores_real_series_exactly_hermitian():
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t + 1, TR.l_theta + 1, 0] = 0.5 + 1e-15j
    c[TR.l_t - 1, TR.l_theta - 1, 0] = 0.5
    c[TR.l_t, TR.l_theta, 1] = 2.0 + 1e-15j
    f = FourierTaylorSeries(c, TR, RHO)
    assert f.is_real
    assert f.hermitian_defect == 0.0
    assert f.coeff(0, 0, 1) == 2.0
    assert f.coeff(1, 1, 0) == np.conj(f.coeff(-1, -1, 0))


def test_given_reality_still_rejects_non_finite():
    with np.errstate(invalid="ignore"):
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
            c = np.zeros(TR.shape, dtype=np.complex128)
            c[TR.l_t, TR.l_theta, 0] = bad
            for real in (True, False):
                with pytest.raises(ValueError, match="finite"):
                    FourierTaylorSeries(c, TR, RHO, real=real)


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
        assert got.tail_norm == 0.0
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
    got = fts.multiply(a, a)
    kept = oracle.restrict(ref, 1, 2, 2)
    assert oracle.diff_norm(kept, got) < 1e-14
    assert got.tail_norm == pytest.approx(expect_tail, rel=1e-12)


def test_sums_and_scalar_multiples_carry_the_tail():
    t = TruncationSpec(n_x=2, l_theta=2, l_t=1)
    a = fts.from_real_terms([(1, 2, 2, 0.5)], t, RHO)
    clipped = fts.multiply(a, a)
    tail = clipped.tail_norm
    assert tail > 0.0
    assert (clipped + a).tail_norm == tail
    assert (clipped + clipped).tail_norm == pytest.approx(2.0 * tail, rel=1e-15)
    assert (clipped - clipped).tail_norm == pytest.approx(2.0 * tail, rel=1e-15)
    assert fts.scale(clipped, -3.0).tail_norm == pytest.approx(3.0 * tail, rel=1e-15)
    assert fts.scale(clipped, 2j).tail_norm == pytest.approx(2.0 * tail, rel=1e-15)
    # the bracket reports what its two products dropped, over rho
    b = fts.from_real_terms([(1, 2, 1, 0.5)], t, RHO)
    p = fts.multiply(fts.partial_x(a), fts.partial_theta(b))
    q = fts.multiply(fts.partial_theta(a), fts.partial_x(b))
    assert p.tail_norm + q.tail_norm > 0.0
    assert fts.poisson_bracket(a, b).tail_norm == pytest.approx(
        (p.tail_norm + q.tail_norm) / RHO, rel=1e-15)


def test_scale_keeps_reality_for_numpy_real_scalars():
    a = fts.from_real_terms([(1, 2, 1, 0.5 - 0.25j), (0, 0, 2, 3.0)], TR, RHO)
    for c in (np.int64(2), np.float32(0.5), np.array(-1.5), 2.0 + 0.0j, 3):
        out = fts.scale(a, c)
        assert out.is_real, c
        assert out.hermitian_defect == 0.0
        assert fts.from_json(fts.to_json(out)).coeff(1, 2, 1) == out.coeff(1, 2, 1)
    assert fts.scale(a, np.int64(2)).coeff(0, 0, 2) == 6.0
    assert fts.scale(a, np.float32(0.5)).coeff(1, 2, 1) == 0.25 - 0.125j
    assert not fts.scale(a, 1j).is_real
    assert not fts.scale(a, np.complex64(1j)).is_real


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
    return s.is_real and s.hermitian_defect == 0.0


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
        got = fts.poisson_bracket(a, b)
        assert oracle.diff_norm(ref, got) < 1e-13
        assert got.is_real


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
        out = fts.poisson_bracket(fts.multiply(a, b), a + 0.5 * b)
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
                fts.multiply(a, b), fts.multiply(b, a), fts.multiply(a, a),
                fts.partial_x(a), fts.partial_theta(a), fts.partial_t(a),
                fts.poisson_bracket(a, b), fts.poisson_bracket(b, a)]
        for out in outs:
            assert _exactly_real(out)
    assert any(fts.multiply(a, b).tail_norm > 0.0 for a, b in pairs)


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
            assert fts.sampled_norm(a, r) <= fts.majorant_norm(a, r) * (1 + 1e-12)


def test_sampled_norm_tight_for_single_mode():
    # |0.5 e^{i theta}| on the shifted strip attains 0.5 e^r exactly
    f = fts.from_terms([(0, 1, 0, 0.5)], TR, RHO)
    got = fts.sampled_norm(f, 0.8)
    assert got == pytest.approx(0.5 * math.exp(0.8), rel=1e-9)


def test_cauchy_margins_nonnegative():
    pyrng = __import__("random").Random(97)
    for _ in range(25):
        da, db = rand_pair(pyrng)
        w = oracle.series_from_dict(da, TR, RHO)
        z = oracle.series_from_dict(db, TR, RHO)
        rep = fts.cauchy_bound_check(w, r=1.0, d=0.4, delta=0.3, partner=z)
        for name, entry in rep.items():
            assert entry["margin"] >= -1e-12 * max(1.0, entry["bound"]), name


# -- serialization ------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    pyrng = __import__("random").Random(101)
    for _ in range(10):
        da, _ = rand_pair(pyrng)
        a = oracle.series_from_dict(da, TR, RHO)
        text = fts.to_json(a)
        back = fts.from_json(text)
        assert fts.to_json(back) == text
        assert fts.max_coeff_diff(a, back) == 0.0


def test_json_rejects_non_real():
    c = np.zeros(TR.shape, dtype=np.complex128)
    c[TR.l_t + 1, TR.l_theta, 0] = 1.0j
    s = FourierTaylorSeries(c, TR, RHO)
    with pytest.raises(RealityError):
        fts.to_json(s)


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
    assert s.is_real
    text = fts.to_json(s)
    assert fts.to_json(fts.from_json(text)) == text


# -- product kernel ----------------------------------------------------------


def _one_sided(rng, ls, mmax, nmax):
    """Complex coefficients on wave numbers l in ls only (not a real series)."""
    return {(l, m, n): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for l in ls for m in range(-mmax, mmax + 1) for n in range(nmax + 1)}


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
    # a non-real factor (a real series times 1j) takes the whole first factor
    cases.append(({k: 1j * v for k, v in real(rng, lmax=2, mmax=3, nmax=3).items()}, t3,
                  real(rng, lmax=2, mmax=3, nmax=3), t3, {"l", "m", "n"}))
    return cases


def _with_centres(rng, d, nmax):
    """d with every (0, 0, n) cell, n <= nmax, set to a random real value."""
    return {**d, **{(0, 0, n): complex(rng.uniform(-1, 1), 0.0) for n in range(nmax + 1)}}


def test_product_kernel_matches_oracle_across_blocks(monkeypatch):
    # a tiny block makes one product span many blocks, some of which clip
    monkeypatch.setattr(fts, "_BLOCK", 50)
    pyrng = __import__("random").Random(31)
    cases = _kernel_cases(pyrng)
    real_cases = centred = 0
    for da, ta, db, tb, axes in cases:
        t = ta.merge(tb)
        products = [(l1 + l2, m1 + m2, n1 + n2, v1 * v2)
                    for (l1, m1, n1), v1 in da.items()
                    for (l2, m2, n2), v2 in db.items()]
        clipped = {"l": {abs(l) > t.l_t for l, _, _, _ in products},
                   "m": {abs(m) > t.l_theta for _, m, _, _ in products},
                   "n": {n > t.n_x for _, _, n, _ in products}}
        assert {ax for ax, hit in clipped.items() if True in hit} == axes
        a = oracle.series_from_dict(da, ta, RHO)
        b = oracle.series_from_dict(db, tb, RHO)
        # the kernel's rows: the upper half of a when both factors are real
        rows = [(l, m) for l, m, _ in da
                if not (a.is_real and b.is_real) or l > 0 or (l == 0 and m >= 0)]
        assert len(rows) > max(1, fts._BLOCK // len(db))  # several blocks
        got = fts.multiply(a, b)
        assert got.trunc == t
        kept = oracle.restrict(oracle.smul(da, db), t.l_t, t.l_theta, t.n_x)
        assert oracle.diff_norm(kept, got) < 1e-13
        # real factors give an exactly hermitian product; others stay non-real
        assert got.is_real == (a.is_real and b.is_real)
        if got.is_real:
            assert got.hermitian_defect == 0.0
        real_cases += got.is_real
        centred += a.is_real and any(da.get((0, 0, n), 0) != 0 for n in range(ta.n_x + 1))
        if not axes:
            assert got.tail_norm == 0.0
            continue
        expect_tail = sum(abs(v) * DEFAULT_DOMAIN.x_half ** n
                          for l, m, n, v in products
                          if abs(l) > t.l_t or abs(m) > t.l_theta or n > t.n_x)
        assert got.tail_norm == pytest.approx(expect_tail, rel=1e-12)
    # both kernel paths ran, and the split met populated centre cells
    assert 0 < real_cases < len(cases)
    assert centred >= 2
