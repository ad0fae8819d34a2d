"""Truncated Fourier-Taylor series on the reduced phase space of a spinning body.

A series is a finite sum

    F(x, theta, t) = sum_{l,m,n} c_{l,m,n} x^n exp(i (l t + m theta))

with wave numbers l in [-L_t, L_t], m in [-L_theta, L_theta] and polynomial
degree n in [0, N_x]. Coefficients are stored densely over that index box.
Every series is real: its coefficients satisfy the reality condition
c_{-l,-m,n} = conj(c_{l,m,n}). Reality is checked once, where raw
coefficients enter (the constructor, ``from_terms``, ``from_real_terms``,
JSON); data within rounding of real is stored as its exactly hermitian
part, and anything else raises ``RealityError``, as does ``scale`` by a
non-real scalar. Operations keep the exact symmetry by construction (sums,
real scalings, derivatives and products), so no operation asks again
whether a series is real.

Norms are measured by the one-sided coefficient majorant

    ||F||_r = sum_{l,m} B_{l,m}(r) exp(r (|l| + |m|)),
    B_{l,m}(r) = sum_n |c_{l,m,n}| R(r)^n,   R(r) = x_half + r,

an upper bound for the analytic sup norm on the complex strip of width r
around the real domain |x| <= x_half. All classical Cauchy estimates hold
for this majorant coefficient-wise, which is what makes the bound
certification in :mod:`lie_kam.normalform` meaningful.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationSpec",
    "DomainConfig",
    "FourierTaylorSeries",
    "RealityError",
    "DEFAULT_DOMAIN",
    "zeros",
    "from_terms",
    "from_real_terms",
    "constant",
    "random_real_series",
    "add",
    "scale",
    "convolve_nonzeros",
    "multiply",
    "partial_x",
    "partial_theta",
    "partial_t",
    "poisson_bracket",
    "evaluate",
    "majorant_norm",
    "to_json_dict",
    "from_json_dict",
    "to_json",
    "from_json",
]

# reality defect threshold, scaled by max(1, max |coefficient|)
_REALITY_TOL = 1e-12


class RealityError(ValueError):
    """Non-real data where a real series or value is required."""


@dataclass(frozen=True)
class TruncationSpec:
    """Index box of a truncated series.

    Parameters
    ----------
    n_x : int
        Maximum polynomial degree in x.
    l_theta : int
        Maximum |m| wave number in the body angle.
    l_t : int
        Maximum |l| wave number in time.
    """

    n_x: int
    l_theta: int
    l_t: int

    def __post_init__(self):
        if min(self.n_x, self.l_theta, self.l_t) < 0:
            raise ValueError("truncation orders must be non-negative")

    @property
    def shape(self):
        return (2 * self.l_t + 1, 2 * self.l_theta + 1, self.n_x + 1)

    def merge(self, other: "TruncationSpec") -> "TruncationSpec":
        """Elementwise max of two boxes."""
        if other == self:
            return self
        return TruncationSpec(
            n_x=max(self.n_x, other.n_x),
            l_theta=max(self.l_theta, other.l_theta),
            l_t=max(self.l_t, other.l_t),
        )


@dataclass(frozen=True)
class DomainConfig:
    """Real domain half-width and analyticity budget for norms.

    R(r) = x_half + r is the polynomial weight base of the majorant norm;
    r above r_max raises instead of silently extrapolating. The engine
    works on ``DEFAULT_DOMAIN`` throughout; only the bound constants are
    also evaluated on a wider strip.
    """

    x_half: float = 0.25
    r_max: float = 8.0

    def __post_init__(self):
        if self.x_half <= 0 or self.r_max <= 0:
            raise ValueError("domain widths must be positive")

    def radius(self, r: float) -> float:
        return self.x_half + r

    @property
    def x_cap(self) -> float:
        """Largest |x| accepted as inside the domain: x_half plus rounding slack."""
        return self.x_half * (1 + 1e-12) + 1e-15


DEFAULT_DOMAIN = DomainConfig()


class FourierTaylorSeries:
    """Dense coefficient box with the algebra operations of this module.

    Instances are immutable; operations return new series. The coefficient
    array has shape (2*L_t+1, 2*L_theta+1, N_x+1), axes (l, m, n), with wave
    numbers offset so that index 0 is -L_t (resp. -L_theta).

    Attributes
    ----------
    coeffs : complex ndarray
    trunc : TruncationSpec
    rho : float
        Casimir radius of the momentum sphere the reduced coordinates live on.

    A series holds no truncation record: :func:`multiply` and
    :func:`poisson_bracket` return the weight they dropped beside their result.

    Parameters
    ----------
    coeffs, trunc, rho
        As the attributes; coeffs is copied and must be finite.
    hermitian : bool
        False (raw data) measures the hermitian defect: within
        ``_REALITY_TOL`` (scaled by max(1, max |c|)) the coefficients are
        stored as their hermitian part, and above it ``RealityError`` is
        raised. True promises exactly hermitian coefficients, for operations
        that build their output from real series.
    """

    __slots__ = ("coeffs", "trunc", "rho")

    def __init__(self, coeffs, trunc: TruncationSpec, rho: float,
                 hermitian: bool = False):
        coeffs = np.array(coeffs, dtype=np.complex128, order="C", copy=True)
        if coeffs.shape != trunc.shape:
            raise ValueError(f"coefficient shape {coeffs.shape} != box {trunc.shape}")
        if not rho > 0:
            raise ValueError("rho must be positive")
        if not hermitian:
            defect = _hermitian_defect(coeffs)
            # the defect is NaN or inf exactly when some coefficient is
            if not math.isfinite(defect):
                raise ValueError("series coefficients must be finite")
            if defect > _REALITY_TOL * max(1.0, float(np.max(np.abs(coeffs)))):
                raise RealityError(
                    f"series coefficients are not real: hermitian defect {defect:.3g}")
            if defect > 0.0:
                coeffs = _hermitian_part(coeffs)
        elif not np.isfinite(coeffs).all():
            raise ValueError("series coefficients must be finite")
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        self.trunc = trunc
        self.rho = float(rho)

    # -- basic queries ---------------------------------------------------

    def coeff(self, l: int, m: int, n: int) -> complex:
        """Coefficient c_{l,m,n}; indices outside the box are zero."""
        t = self.trunc
        if abs(l) > t.l_t or abs(m) > t.l_theta or not 0 <= n <= t.n_x:
            return 0.0 + 0.0j
        return complex(self.coeffs[l + t.l_t, m + t.l_theta, n])

    def __repr__(self):
        t = self.trunc
        nnz = int(np.count_nonzero(self.coeffs))
        return (f"FourierTaylorSeries(N_x={t.n_x}, L_theta={t.l_theta}, "
                f"L_t={t.l_t}, rho={self.rho}, nnz={nnz})")

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, FourierTaylorSeries):
            return multiply(self, other)[0]
        return scale(self, other)

    __rmul__ = __mul__


def _hermitian_defect(coeffs) -> float:
    return float(np.max(np.abs(coeffs - np.conj(coeffs[::-1, ::-1, :]))))


def _hermitian_part(coeffs):
    """(c + conj(mirror c)) / 2: exactly hermitian, as addition commutes."""
    return 0.5 * (coeffs + np.conj(coeffs[::-1, ::-1, :]))


# -- construction ----------------------------------------------------------


def zeros(trunc: TruncationSpec, rho: float) -> FourierTaylorSeries:
    return FourierTaylorSeries(np.zeros(trunc.shape, dtype=np.complex128), trunc, rho,
                               hermitian=True)


def from_terms(terms, trunc: TruncationSpec, rho: float) -> FourierTaylorSeries:
    """Series from an iterable of (l, m, n, value) or a {(l,m,n): value} dict.

    Values at the same index add up. Raises ValueError if any index falls
    outside the box, and RealityError if the terms are not a real series.
    """
    if isinstance(terms, dict):
        terms = [(l, m, n, v) for (l, m, n), v in terms.items()]
    c = np.zeros(trunc.shape, dtype=np.complex128)
    for l, m, n, v in terms:
        if abs(l) > trunc.l_t or abs(m) > trunc.l_theta or not 0 <= n <= trunc.n_x:
            raise ValueError(f"term ({l},{m},{n}) outside truncation box")
        c[l + trunc.l_t, m + trunc.l_theta, n] += v
    return FourierTaylorSeries(c, trunc, rho)


def from_real_terms(terms, trunc: TruncationSpec, rho: float) -> FourierTaylorSeries:
    """Real series from half-lattice terms; mirror coefficients are implied.

    Terms must have l > 0, or l = 0 and m >= 0 (else ValueError).
    Coefficients at l = m = 0 must be real (else RealityError); an
    imaginary part within rounding is dropped. The conjugate mirror of every
    off-center term is added automatically, so the result is exactly
    hermitian.
    """
    if isinstance(terms, dict):
        terms = [(l, m, n, v) for (l, m, n), v in terms.items()]
    full = []
    for l, m, n, v in terms:
        if l < 0 or (l == 0 and m < 0):
            raise ValueError("pass half-lattice terms only (l > 0, or l = 0 and m >= 0)")
        v = complex(v)
        if l == 0 and m == 0:
            if abs(v.imag) > _REALITY_TOL * max(1.0, abs(v)):
                raise RealityError("center coefficients of a real series must be real")
            full.append((l, m, n, complex(v.real, 0.0)))
        else:
            full.append((l, m, n, v))
            full.append((-l, -m, n, v.conjugate()))
    return from_terms(full, trunc, rho)


def constant(value, trunc: TruncationSpec, rho: float) -> FourierTaylorSeries:
    return from_terms([(0, 0, 0, value)], trunc, rho)


def random_real_series(trunc: TruncationSpec, rho: float, rng, n_terms: int = 30,
                       l_t_max=None, l_theta_max=None, n_x_max=None) -> FourierTaylorSeries:
    """Seeded random real series with support limited to a sub-window.

    Used by the identity suites; limiting the support keeps composite
    operator chains inside the truncation box so identities hold exactly.
    """
    lt = trunc.l_t if l_t_max is None else int(l_t_max)
    lm = trunc.l_theta if l_theta_max is None else int(l_theta_max)
    nx = trunc.n_x if n_x_max is None else int(n_x_max)
    terms = []
    for _ in range(n_terms):
        l = int(rng.integers(0, lt + 1))
        m = int(rng.integers(-lm, lm + 1))
        n = int(rng.integers(0, nx + 1))
        if l == 0 and m < 0:
            m = -m
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if l == 0 and m == 0:
            v = complex(v.real, 0.0)
        terms.append((l, m, n, v))
    return from_real_terms(terms, trunc, rho)


# -- arithmetic -------------------------------------------------------------


def _check_rho(a: FourierTaylorSeries, b: FourierTaylorSeries):
    if abs(a.rho - b.rho) > 1e-12 * max(1.0, abs(a.rho)):
        raise ValueError(f"rho mismatch: {a.rho} vs {b.rho}")


def _embed(a: FourierTaylorSeries, trunc: TruncationSpec):
    """Coefficients of a placed inside a larger box."""
    if a.trunc == trunc:
        return a.coeffs
    out = np.zeros(trunc.shape, dtype=np.complex128)
    ta = a.trunc
    sl = slice(trunc.l_t - ta.l_t, trunc.l_t + ta.l_t + 1)
    sm = slice(trunc.l_theta - ta.l_theta, trunc.l_theta + ta.l_theta + 1)
    out[sl, sm, : ta.n_x + 1] = a.coeffs
    return out


def add(a: FourierTaylorSeries, b: FourierTaylorSeries) -> FourierTaylorSeries:
    """Sum on the merged truncation box."""
    _check_rho(a, b)
    trunc = a.trunc.merge(b.trunc)
    return FourierTaylorSeries(_embed(a, trunc) + _embed(b, trunc), trunc, a.rho,
                               hermitian=True)


def scale(a: FourierTaylorSeries, c) -> FourierTaylorSeries:
    """Multiply by a real scalar c.

    c is any real Python or numpy number, or a complex one with zero
    imaginary part; a nonzero imaginary part raises RealityError.
    """
    if np.imag(c) != 0:
        raise RealityError(f"scaling a real series by the non-real scalar {c!r}")
    return FourierTaylorSeries(a.coeffs * c, a.trunc, a.rho, hermitian=True)


def _blocks(la, ma, na, va, lb, mb, nb, vb):
    """Dense blocks of two coefficient lists, each over its l range, its m
    range and degrees 0..max n, with the channel axis second, and the wave
    numbers (l, m) of its first row and column: (block a, l, m, block b,
    l, m)."""
    # the bounds of all six index lists, in one min and one max
    rows = np.concatenate((la, ma, lb, mb, na, nb))
    ends = np.cumsum((0, la.size, la.size, lb.size, lb.size, na.size))
    lo = np.minimum.reduceat(rows, ends).tolist()
    hi = np.maximum.reduceat(rows, ends).tolist()
    a = np.zeros((hi[0] - lo[0] + 1, va.shape[0], hi[1] - lo[1] + 1, hi[4] + 1),
                 dtype=va.dtype)
    a[la - lo[0], :, ma - lo[1], na] = va.T
    b = np.zeros((hi[2] - lo[2] + 1, vb.shape[0], hi[3] - lo[3] + 1, hi[5] + 1),
                 dtype=vb.dtype)
    b[lb - lo[2], :, mb - lo[3], nb] = vb.T
    return a, lo[0], lo[1], b, lo[2], lo[3]


def _window(first, half, size):
    """Index range [lo, hi) of the wave numbers first .. first+size-1 in
    [-half, half]; empty (hi == lo) when none is."""
    lo = max(-half - first, 0)
    return lo, max(min(half + 1 - first, size), lo)


def _convolve_window(a, b, lo, hi):
    """Entries lo <= index < hi of the full convolution of blocks a and b,
    summed over their channels.

    Blocks have axes (l, channel, m, n). Entry (i, j, k) of the full
    convolution, of shape a.shape + b.shape - 1 over (l, m, n), is the sum
    of a[i1, c, j1, k1] * b[i - i1, c, j - j1, k - k1].
    """
    if a.shape[2] * a.shape[3] < b.shape[2] * b.shape[3]:
        a, b = b, a  # the larger (m, n) block forms the view
    ja, nc, ka, pa = a.shape
    jb, _, kb, pb = b.shape
    nm, nn = hi[1] - lo[1], hi[2] - lo[2]
    # pad[:, c, j, k] = a[:, c, j + sm, k + sn], zero outside a, and
    # view[:, j, k, c, j2, k2] = pad[:, c, j + j2, k + k2] meets
    # b[:, c, kb-1-j2, pb-1-k2] at window entry (j, k)
    sm, sn = lo[1] - kb + 1, lo[2] - pb + 1
    pad = np.zeros((ja, nc, nm + kb - 1, nn + pb - 1), dtype=a.dtype)
    pad[:, :, max(-sm, 0):ka - sm, max(-sn, 0):pa - sn] = \
        a[:, :, max(sm, 0):hi[1], max(sn, 0):hi[2]]
    s = pad.strides
    view = np.ndarray((ja, nm, nn, nc, kb, pb), a.dtype, pad, 0,
                      (s[0], s[2], s[3], s[1], s[2], s[3]))
    # p[jb-1 + i, i2] = row i of a times row i2 of b, summed over the
    # channels, which lands on l index i + i2. Batched over the rows of a,
    # each BLAS call stays small enough to run on one thread; one large
    # call was threaded and slower on a 2-core host
    q, depth = nm * nn, nc * kb * pb
    p = np.zeros((ja + 2 * jb - 2, jb, q), dtype=a.dtype)
    np.matmul(b[:, :, ::-1, ::-1].reshape(jb, depth),
              view.reshape(ja, q, depth).transpose(0, 2, 1), out=p[jb - 1:ja + jb - 1])
    # l index lo[0] + r sums p[jb-1 + lo[0] + r - i2, i2] over i2: a skewed
    # view reads the shifted copies, and the zero rows of p pad the ends
    s = p.strides
    skew = np.ndarray((jb, hi[0] - lo[0], q), a.dtype, p, (jb - 1 + lo[0]) * s[0],
                      (s[1] - s[0], s[0], s[2]))
    return skew.sum(axis=0).reshape(hi[0] - lo[0], nm, nn)


def convolve_nonzeros(la, ma, na, va, lb, mb, nb, vb, l_t, l_theta, n_x, xpow):
    """Truncated product of two coefficient lists, summed over channels, by
    dense block convolution.

    Each list carries one or more channels of values on its positions;
    the result is the sum over channels c of the products of channel c of
    the first list and channel c of the second. A single product is the
    one-channel case, and a Poisson bracket is two channels (see
    :func:`poisson_bracket`).

    Each list is scattered into its bounding block, spanning its l range,
    its m range and degrees 0..max n. Of the full product of the two
    blocks, only the window that the output box keeps is computed. The
    block with more (m, n) entries (the first on a tie) is zero-padded
    and read through a strided view that lines up, for each window entry,
    the entries the other block meets there. Contracting the view with
    the other block, flipped, over the channels and the (m, n) face is
    one matmul batched over the view's l rows, and the l shifts are added
    through a skewed view. The result depends only on the inputs (and the
    BLAS build), so runs repeat bit for bit.

    When some product can leave the output box (the l, m or n range of
    the products reaches past it), the tail is summed from the weights
    abs(v) * xpow[n] over two disjoint parts of the rest of the extended
    box, each one convolution of depth 1 in degree. Products whose (l, m)
    falls outside the window, at any degree, come from the weights summed
    over degree, convolved over the whole extended (l, m) range with the
    window left out. Products whose (l, m) falls inside the window but
    whose degree reaches past the box come from each degree n1 of the
    first list, taken as a channel, against the second list's weight
    summed over its degrees n2 >= n_x + 1 - n1, over the window only.
    Every term is nonnegative and nothing is subtracted, so the tail is
    exact up to rounding relative to itself, as when each pair was
    weighed alone; when no product can leave the box the tail is exactly
    0.0.

    Parameters
    ----------
    la, ma, na : integer arrays
        Wave numbers (l, m) and polynomial degree n of the nonzero
        coefficients of the first factor, each index at most once.
    va : complex128 array, shape (channels, la.size)
        The matching coefficient values, one row per channel.
    lb, mb, nb, vb : arrays
        Same for the second factor, with as many channels.
    l_t, l_theta, n_x : int
        Half-widths of the output box; degrees run 0..n_x.
    xpow : float64 array
        xpow[n] weights a coefficient of degree n in the reported tail;
        only xpow[:max(na) + 1] and xpow[:max(nb) + 1] are read.

    Returns
    -------
    out : complex128 array, shape (2*l_t+1, 2*l_theta+1, n_x+1)
    tail : float
        Sum over channels c of (abs(va[c]) * xpow[na]) * (abs(vb[c]) *
        xpow[nb]) over the pairs whose product falls outside the output box.
    """
    out = np.zeros((2 * l_t + 1, 2 * l_theta + 1, n_x + 1), dtype=np.complex128)
    if not (la.size and lb.size):
        return out, 0.0
    a, la0, ma0, b, lb0, mb0 = _blocks(la, ma, na, va, lb, mb, nb, vb)
    # entry (i, j, k) of the full product has wave numbers (l0 + i, m0 + j)
    l0, m0 = la0 + lb0, ma0 + mb0
    ext = tuple(a.shape[i] + b.shape[i] - 1 for i in (0, 2, 3))  # (l, m, n)
    (lo_l, hi_l), (lo_m, hi_m) = _window(l0, l_t, ext[0]), _window(m0, l_theta, ext[1])
    lo, hi = (lo_l, lo_m, 0), (hi_l, hi_m, min(n_x + 1, ext[2]))
    if hi_l > lo_l and hi_m > lo_m:
        out[l_t + l0 + lo_l:l_t + l0 + hi_l,
            l_theta + m0 + lo_m:l_theta + m0 + hi_m, :hi[2]] = _convolve_window(a, b, lo, hi)
    if lo == (0, 0, 0) and hi == ext:
        return out, 0.0
    wa, wb = np.abs(a) * xpow[:a.shape[3]], np.abs(b) * xpow[:b.shape[3]]
    # (l, m) outside the window, every degree: the degree sums convolve
    w = _convolve_window(wa.sum(axis=3, keepdims=True), wb.sum(axis=3, keepdims=True),
                         (0, 0, 0), (ext[0], ext[1], 1))
    w[lo_l:hi_l, lo_m:hi_m] = 0.0
    tail = w.sum()
    if hi[2] < ext[2] and hi_l > lo_l and hi_m > lo_m:
        # (l, m) in the window, degree >= hi[2]: degree n1 of a is a channel,
        # met by b's weight summed over its degrees >= hi[2] - n1 (suffix
        # index pb is the empty sum)
        ja, nc, ka, pa = a.shape
        jb, _, kb, pb = b.shape
        suffix = np.zeros((jb, nc, kb, pb + 1))
        suffix[..., :pb] = wb[..., ::-1].cumsum(axis=3)[..., ::-1]
        sb = suffix[..., np.clip(hi[2] - np.arange(pa), 0, pb)]
        tail += _convolve_window(wa.transpose(0, 1, 3, 2).reshape(ja, nc * pa, ka, 1),
                                 sb.transpose(0, 1, 3, 2).reshape(jb, nc * pa, kb, 1),
                                 (lo_l, lo_m, 0), (hi_l, hi_m, 1)).sum()
    return out, float(tail)


def _upper_half(a: FourierTaylorSeries):
    """Coefficients of a at l >= 0, zero at l = 0, m < 0 and halved at
    l = m = 0: the upper half A+ of a, with a = A+ + conj(mirror A+)."""
    t = a.trunc
    src = np.array(a.coeffs[t.l_t:])
    src[0, :t.l_theta] = 0.0
    src[0, t.l_theta] *= 0.5
    return src


def multiply(a: FourierTaylorSeries, b: FourierTaylorSeries):
    """Truncated product on the merged box, and the weight it dropped.

    Returns ``(product, dropped)``: dropped is the majorant weight at r = 0
    (so abs(value) * x_half^degree) of the products outside the box.
    ``a * b`` is the product alone.

    Only half the pairs are formed. The upper half A+ of a (l > 0, or
    l = 0 and m > 0, plus half of each l = m = 0 cell) gives P = A+ * b;
    since a = A+ + conj(mirror A+) and b is hermitian, a * b = P +
    conj(mirror P), which is exactly hermitian, and the dropped weight is
    twice P's. A factor that is identically zero gives the zero series
    on the merged box, without calling the kernel.
    """
    _check_rho(a, b)
    trunc = a.trunc.merge(b.trunc)
    if not (a.coeffs.any() and b.coeffs.any()):
        return zeros(trunc, a.rho), 0.0
    ta, tb = a.trunc, b.trunc
    src = _upper_half(a)
    la, ma, na = np.nonzero(src)
    lb, mb, nb = np.nonzero(b.coeffs)
    xpow = DEFAULT_DOMAIN.x_half ** np.arange(trunc.n_x + 1, dtype=np.float64)
    out, tail = convolve_nonzeros(
        la, ma - ta.l_theta, na, src[None, la, ma, na],
        lb - tb.l_t, mb - tb.l_theta, nb, b.coeffs[None, lb, mb, nb],
        trunc.l_t, trunc.l_theta, trunc.n_x, xpow)
    out = out + np.conj(out[::-1, ::-1, :])
    return FourierTaylorSeries(out, trunc, a.rho, hermitian=True), 2.0 * tail


def partial_x(a: FourierTaylorSeries) -> FourierTaylorSeries:
    c = np.zeros_like(a.coeffs)
    n = np.arange(1, a.trunc.n_x + 1)
    c[:, :, :-1] = a.coeffs[:, :, 1:] * n
    return FourierTaylorSeries(c, a.trunc, a.rho, hermitian=True)


def partial_theta(a: FourierTaylorSeries) -> FourierTaylorSeries:
    m = np.arange(-a.trunc.l_theta, a.trunc.l_theta + 1)
    c = a.coeffs * (1j * m)[None, :, None]
    return FourierTaylorSeries(c, a.trunc, a.rho, hermitian=True)


def partial_t(a: FourierTaylorSeries) -> FourierTaylorSeries:
    l = np.arange(-a.trunc.l_t, a.trunc.l_t + 1)
    c = a.coeffs * (1j * l)[:, None, None]
    return FourierTaylorSeries(c, a.trunc, a.rho, hermitian=True)


def poisson_bracket(a: FourierTaylorSeries, b: FourierTaylorSeries):
    """Reduced bracket {a, b} = (d_x a d_theta b - d_theta a d_x b) / rho,
    and the weight it dropped: ``(bracket, dropped)``.

    One kernel call over two channels: {a, b} = sum_c A_c * B_c / rho with
    A = (d_x a, d_theta a) and B = (d_theta b, -d_x b). Each channel sits
    on its factor's own positions, with d_x taken as n c_n at degree n
    rather than at n - 1, so every channel product lands one degree high:
    the kernel runs on the merged box with degrees 0..n_x + 1, and its
    degree-0 slice, where every channel product vanishes, is dropped.
    As in :func:`multiply`, only the upper half of a enters and the result
    is mirrored once. A factor without x or theta dependence gives the
    zero series on the merged box, without calling the kernel.

    ``dropped`` is the majorant weight at r = 0 that the two derivative
    products d_x a d_theta b and d_theta a d_x b drop outside the box,
    added and divided by rho.
    """
    _check_rho(a, b)
    trunc = a.trunc.merge(b.trunc)
    ta, tb = a.trunc, b.trunc
    # positions where n = m = 0 carry no channel: drop them
    src = _upper_half(a)
    src[:, ta.l_theta, 0] = 0.0
    other = np.array(b.coeffs)
    other[:, tb.l_theta, 0] = 0.0
    la, ma, na = np.nonzero(src)
    lb, mb, nb = np.nonzero(other)
    if not (la.size and lb.size):
        return zeros(trunc, a.rho), 0.0
    va, vb = src[la, ma, na], other[lb, mb, nb]
    ma, mb = ma - ta.l_theta, mb - tb.l_theta
    xpow = DEFAULT_DOMAIN.x_half ** np.arange(trunc.n_x + 1, dtype=np.float64)
    out, tail = convolve_nonzeros(
        la, ma, na, np.array((na, 1j * ma)) * va,
        lb - tb.l_t, mb, nb, np.array((1j * mb, -nb)) * vb,
        trunc.l_t, trunc.l_theta, trunc.n_x + 1, xpow)
    out = out[:, :, 1:]
    c = 1.0 / a.rho
    # each weight carries one x_half too many, as its degree does
    return (FourierTaylorSeries((out + np.conj(out[::-1, ::-1, :])) * c, trunc, a.rho,
                                hermitian=True),
            2.0 * tail / DEFAULT_DOMAIN.x_half * c)


# -- evaluation and norms ---------------------------------------------------


def evaluate(a: FourierTaylorSeries, x, theta, t):
    """Evaluate the series at real points.

    |x| must stay within the domain half-width. The series is real, so the
    value is real up to the rounding of the complex sum; that imaginary
    rounding residue is discarded.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > DEFAULT_DOMAIN.x_cap):
        raise ValueError(
            f"evaluation outside domain radius |x| <= {DEFAULT_DOMAIN.x_half}")
    theta = np.asarray(theta)
    t = np.asarray(t)
    shape = np.broadcast_shapes(x.shape, theta.shape, t.shape)
    xb = np.broadcast_to(x, shape).ravel()
    thb = np.broadcast_to(theta, shape).ravel()
    tb = np.broadcast_to(t, shape).ravel()
    tr = a.trunc
    ls = np.arange(-tr.l_t, tr.l_t + 1)
    ms = np.arange(-tr.l_theta, tr.l_theta + 1)
    ns = np.arange(tr.n_x + 1)
    et = np.exp(1j * tb[:, None] * ls[None, :])
    em = np.exp(1j * thb[:, None] * ms[None, :])
    xn = xb[:, None] ** ns[None, :]
    # contract l in one matmul, then sum over (m, n) point by point
    c = a.coeffs
    g = (et @ c.reshape(c.shape[0], -1)).reshape(-1, c.shape[1], c.shape[2])
    val = np.real(np.einsum("smn,sm,sn->s", g, em, xn))
    return val.reshape(shape) if shape else val[()]


def majorant_norm(a: FourierTaylorSeries, r: float) -> float:
    """One-sided analytic-norm surrogate at strip width r (see module docs)."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if r > DEFAULT_DOMAIN.r_max:
        raise ValueError(
            f"r = {r} exceeds the analyticity budget {DEFAULT_DOMAIN.r_max}")
    tr = a.trunc
    radius = DEFAULT_DOMAIN.radius(r)
    b = np.abs(a.coeffs) @ (radius ** np.arange(tr.n_x + 1))
    ls = np.abs(np.arange(-tr.l_t, tr.l_t + 1))
    ms = np.abs(np.arange(-tr.l_theta, tr.l_theta + 1))
    w = np.exp(r * (ls[:, None] + ms[None, :]))
    return float(np.sum(b * w))


# -- serialization ----------------------------------------------------------


def to_json_dict(a: FourierTaylorSeries) -> dict:
    """Half-lattice JSON form of a series.

    Stores nonzero coefficients with l > 0 or (l = 0, m >= 0); the reality
    condition supplies the rest on load. A series is exactly hermitian, so
    a dump followed by a load gives back the same coefficients, and a load
    followed by a dump reproduces the document byte for byte, up to the
    sign of zero parts ("-0.0" loads as 0.0).
    """
    t = a.trunc
    coeffs = []
    li, mi, ni = np.nonzero(a.coeffs)
    for ia, ib, ic in zip(li, mi, ni):
        l, m, n = int(ia - t.l_t), int(ib - t.l_theta), int(ic)
        if l < 0 or (l == 0 and m < 0):
            continue
        v = a.coeffs[ia, ib, ic]
        re = float(v.real)
        im = 0.0 if (l == 0 and m == 0) else float(v.imag)
        coeffs.append({"l": l, "m": m, "n": n, "re": re, "im": im})
    coeffs.sort(key=lambda e: (e["l"], e["m"], e["n"]))
    return {
        "rho": a.rho,
        "trunc": {"N_x": t.n_x, "L_theta": t.l_theta, "L_t": t.l_t},
        "coeffs": coeffs,
    }


def from_json_dict(doc: dict) -> FourierTaylorSeries:
    """Inverse of :func:`to_json_dict`, through :func:`from_real_terms`.

    Entries outside the box or off the half-lattice raise ValueError, and
    an imaginary l = m = 0 entry raises RealityError. A ``trunc.pad`` key
    of older files is ignored.
    """
    t = doc["trunc"]
    trunc = TruncationSpec(n_x=int(t["N_x"]), l_theta=int(t["L_theta"]),
                           l_t=int(t["L_t"]))
    terms = [(int(e["l"]), int(e["m"]), int(e["n"]),
              complex(float(e["re"]), float(e["im"]))) for e in doc["coeffs"]]
    return from_real_terms(terms, trunc, float(doc["rho"]))


def to_json(a: FourierTaylorSeries) -> str:
    return json.dumps(to_json_dict(a), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> FourierTaylorSeries:
    return from_json_dict(json.loads(text))
