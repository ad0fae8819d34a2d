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
whether a series is real. It also makes the upper half lattice (l > 0, or
l = 0 and m >= 0) hold a whole series: products, brackets, JSON and the
compiled evaluator (``compile_evaluator``, behind ``evaluate``) read only
that half.

Finiteness is checked where values enter or can overflow: raw
coefficients and JSON as they enter, the scalar of ``scale``, and the
output of each product kernel call (``multiply``, ``poisson_bracket``),
where finite inputs can overflow. Input that is not finite raises
ValueError, and an overflow its subclass ``NonFiniteError``; the kernel
call and its check run under a local ``np.errstate`` that ignores
overflow, so this holds also where warnings are errors. An operation
builds its output in a fresh array that the series takes over without a
copy or a scan.

Norms are measured by the one-sided coefficient majorant

    ||F||_r = sum_{l,m} B_{l,m}(r) exp(r (|l| + |m|)),
    B_{l,m}(r) = sum_n |c_{l,m,n}| R(r)^n,   R(r) = x_half + r,

an upper bound for the analytic sup norm on the complex strip of width r
around the real domain |x| <= x_half. All classical Cauchy estimates hold
for this majorant coefficient-wise, which is what makes the bound
certification in :mod:`lie_kam.normalform` meaningful.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationSpec",
    "DomainConfig",
    "FourierTaylorSeries",
    "RealityError",
    "NonFiniteError",
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
    "compile_evaluator",
    "evaluate",
    "majorant_norm",
    "to_json_dict",
    "from_json_dict",
]

# reality defect threshold, scaled by max(1, max |coefficient|)
_REALITY_TOL = 1e-12


class RealityError(ValueError):
    """Non-real data where a real series or value is required."""


class NonFiniteError(ValueError):
    """Finite operands gave a result that is not finite: an overflow."""


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

    Products and brackets keep the part of their result that lies in the
    merged box and drop the rest. Once a series has been the first factor
    of a bracket, it keeps that factor's side of the kernel call, frozen
    (see :func:`_bracket_form`).

    Parameters
    ----------
    coeffs, trunc, rho
        As the attributes.
    hermitian : bool
        False (raw data) copies coeffs, rejects non-finite values with
        ValueError and measures the hermitian defect: within
        ``_REALITY_TOL`` (scaled by max(1, max |c|)) the coefficients are
        stored as their hermitian part, and above it ``RealityError`` is
        raised. True is for operations that build their output from real
        series: coeffs must be a fresh, exactly hermitian and finite array,
        which the series takes over (frozen, not copied) without checking.
    """

    __slots__ = ("coeffs", "trunc", "rho", "_bracket_form")

    def __init__(self, coeffs, trunc: TruncationSpec, rho: float,
                 hermitian: bool = False):
        if hermitian:
            coeffs = np.asarray(coeffs, dtype=np.complex128, order="C")
        else:
            coeffs = np.array(coeffs, dtype=np.complex128, order="C", copy=True)
        if coeffs.shape != trunc.shape:
            raise ValueError(f"coefficient shape {coeffs.shape} != box {trunc.shape}")
        if not rho > 0:
            raise ValueError("rho must be positive")
        if not hermitian:
            coeffs = _checked_hermitian(coeffs)
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        self.trunc = trunc
        self.rho = float(rho)
        self._bracket_form = None

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
            return multiply(self, other)
        return scale(self, other)

    __rmul__ = __mul__


def _checked_hermitian(coeffs):
    """Raw coefficients as a real series stores them.

    A coefficient that is not finite raises ValueError, and a hermitian
    defect max |c - conj(mirror c)| above ``_REALITY_TOL`` max(1, max |c|)
    raises RealityError. Below it, c is kept when the defect is 0 and is
    else replaced by its hermitian part 0.5 c + 0.5 conj(mirror c), which
    is exactly hermitian as addition commutes. max |c| and the hermitian
    part are formed from halved coefficients, which no finite input can
    overflow; the defect is not halved, so that an asymmetry in the last
    subnormal bit still reads nonzero, and a defect that overflows is inf
    and fails. No step warns, also where warnings are errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * coeffs
        defect = float(np.max(np.abs(coeffs - np.conj(coeffs[::-1, ::-1, :]))))
        # |c / 2| is below the largest float for finite c, so the size is
        # inf or NaN exactly when some coefficient is
        size = float(np.max(np.abs(half)))
    if not math.isfinite(size):
        raise ValueError("series coefficients must be finite")
    # the test with both sides halved
    if not 0.5 * defect <= _REALITY_TOL * max(0.5, size):
        raise RealityError(
            f"series coefficients are not real: hermitian defect {defect:.3g}")
    if defect > 0.0:
        return half + np.conj(half[::-1, ::-1, :])
    return coeffs


def _check_finite(coeffs):
    """Raise NonFiniteError unless every entry of a product kernel's output
    is finite."""
    if not np.isfinite(coeffs).all():
        raise NonFiniteError("series product overflowed: coefficients "
                             "must be finite")


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

    c is any finite real Python or numpy number, or a complex one with zero
    imaginary part; a nonzero imaginary part raises RealityError, and an
    infinite or NaN c raises ValueError.
    """
    if np.imag(c) != 0:
        raise RealityError(f"scaling a real series by the non-real scalar {c!r}")
    if not np.isfinite(c):
        raise ValueError("series coefficients must be finite")
    return FourierTaylorSeries(a.coeffs * c, a.trunc, a.rho, hermitian=True)


def _blocks(la, ma, na, va, lb, mb, nb, vb):
    """Dense blocks of two coefficient lists, each over its l range, its
    degrees 0..max n and its m range, with axes (l, channel, n, m), and the
    wave numbers (l, m) of its first row and column: (block a, l, m,
    block b, l, m)."""
    # the bounds of all six index lists, in one min and one max
    rows = np.concatenate((la, ma, lb, mb, na, nb))
    ends = np.cumsum((0, la.size, la.size, lb.size, lb.size, na.size))
    lo = np.minimum.reduceat(rows, ends).tolist()
    hi = np.maximum.reduceat(rows, ends).tolist()
    a = np.zeros((hi[0] - lo[0] + 1, va.shape[0], hi[4] + 1, hi[1] - lo[1] + 1),
                 dtype=va.dtype)
    a[la - lo[0], :, na, ma - lo[1]] = va.T
    b = np.zeros((hi[2] - lo[2] + 1, vb.shape[0], hi[5] + 1, hi[3] - lo[3] + 1),
                 dtype=vb.dtype)
    b[lb - lo[2], :, nb, mb - lo[3]] = vb.T
    return a, lo[0], lo[1], b, lo[2], lo[3]


def _window(first, half, size):
    """Index range [lo, hi) of the wave numbers first .. first+size-1 in
    [-half, half]; empty (hi == lo) when none is."""
    lo = max(-half - first, 0)
    return lo, max(min(half + 1 - first, size), lo)


def _convolve_window(a, b, lo, hi):
    """Entries lo <= index < hi of the full convolution of blocks a and b,
    summed over their channels, as an array over (l, m, n).

    Blocks have axes (l, channel, n, m); lo and hi index (l, m, n). Entry
    (i, j, k) of the full convolution, of shape a.shape + b.shape - 1 over
    (l, m, n), is the sum of a[i1, c, k1, j1] * b[i - i1, c, k - k1, j - j1].
    """
    if a.shape[2] * a.shape[3] < b.shape[2] * b.shape[3]:
        a, b = b, a  # the larger (n, m) block forms the view
    ja, nc, pa, ka = a.shape
    jb, _, pb, kb = b.shape
    nm, nn = hi[1] - lo[1], hi[2] - lo[2]
    # pad[:, c, k, j] = a[:, c, k + sn, j + sm], zero outside a, and
    # view[:, k, j, c, k2, j2] = pad[:, c, k + k2, j + j2] meets
    # b[:, c, pb-1-k2, kb-1-j2] at window entry (j, k); m is the contiguous
    # axis, so the copy that reshapes the view moves runs of kb entries
    sm, sn = lo[1] - kb + 1, lo[2] - pb + 1
    pad = np.zeros((ja, nc, nn + pb - 1, nm + kb - 1), dtype=a.dtype)
    pad[:, :, max(-sn, 0):pa - sn, max(-sm, 0):ka - sm] = \
        a[:, :, max(sn, 0):hi[2], max(sm, 0):hi[1]]
    s = pad.strides
    view = np.ndarray((ja, nn, nm, nc, pb, kb), a.dtype, pad, 0,
                      (s[0], s[2], s[3], s[1], s[2], s[3]))
    # p[jb-1 + i, i2] = row i of a times row i2 of b, summed over the
    # channels, which lands on l index i + i2. Batching over the rows of a
    # keeps the calls of a default-box request below OpenBLAS's threading
    # threshold (one large call was threaded and slower on a 2-core host);
    # larger boxes make larger calls, which may cross it
    q, depth = nn * nm, nc * pb * kb
    p = np.zeros((ja + 2 * jb - 2, jb, q), dtype=a.dtype)
    np.matmul(b[:, :, ::-1, ::-1].reshape(jb, depth),
              view.reshape(ja, q, depth).transpose(0, 2, 1), out=p[jb - 1:ja + jb - 1])
    # l index lo[0] + r sums p[jb-1 + lo[0] + r - i2, i2] over i2: a skewed
    # view reads the shifted copies, and the zero rows of p pad the ends
    s = p.strides
    skew = np.ndarray((jb, hi[0] - lo[0], q), a.dtype, p, (jb - 1 + lo[0]) * s[0],
                      (s[1] - s[0], s[0], s[2]))
    return skew.sum(axis=0).reshape(hi[0] - lo[0], nn, nm).transpose(0, 2, 1)


def convolve_nonzeros(la, ma, na, va, lb, mb, nb, vb, l_t, l_theta, n_x, n_lo=0):
    """Truncated product of two coefficient lists, summed over channels, by
    dense block convolution.

    Each list carries one or more channels of values on its positions;
    the result is the sum over channels c of the products of channel c of
    the first list and channel c of the second. A single product is the
    one-channel case, and a Poisson bracket is two channels (see
    :func:`poisson_bracket`).

    Each list is scattered into its bounding block, spanning its l range,
    degrees 0..max n and its m range, with m the contiguous axis. Of the
    full product of the two blocks, only the window that the output box
    keeps is computed, from degree n_lo up: the caller passes n_lo > 0
    when every product below it vanishes, and those degrees of ``out``
    stay zero; so does all of ``out`` when no product reaches n_lo.
    Products outside the box are not formed. The block with more (n, m)
    entries (the first on a tie) is zero-padded and read through a
    strided view that lines up, for each window entry, the entries the
    other block meets there. Contracting the view with the other block,
    flipped, over the channels and the (n, m) face is one matmul batched
    over the view's l rows, and the l shifts are added through a skewed
    view. The result depends only on the inputs (and the BLAS build), so
    runs repeat bit for bit.

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
    n_lo : int
        Lowest degree computed; every channel product below it must
        vanish.

    Returns
    -------
    out : complex128 array, shape (2*l_t+1, 2*l_theta+1, n_x+1)
    """
    out = np.zeros((2 * l_t + 1, 2 * l_theta + 1, n_x + 1), dtype=np.complex128)
    if not (la.size and lb.size):
        return out
    a, la0, ma0, b, lb0, mb0 = _blocks(la, ma, na, va, lb, mb, nb, vb)
    # entry (i, j, k) of the full product has wave numbers (l0 + i, m0 + j)
    l0, m0 = la0 + lb0, ma0 + mb0
    ext = tuple(a.shape[i] + b.shape[i] - 1 for i in (0, 3, 2))  # (l, m, n)
    (lo_l, hi_l), (lo_m, hi_m) = _window(l0, l_t, ext[0]), _window(m0, l_theta, ext[1])
    lo, hi = (lo_l, lo_m, n_lo), (hi_l, hi_m, min(n_x + 1, ext[2]))
    if hi_l > lo_l and hi_m > lo_m and hi[2] > n_lo:
        out[l_t + l0 + lo_l:l_t + l0 + hi_l,
            l_theta + m0 + lo_m:l_theta + m0 + hi_m, lo[2]:hi[2]] = _convolve_window(a, b, lo, hi)
    return out


def _half_lattice(a: FourierTaylorSeries):
    """Coefficients of a on the upper half lattice, as a fresh array: the
    l >= 0 slab with its l = 0, m < 0 cells cleared, so l > 0, or l = 0
    and m >= 0. The reality condition supplies the cleared half."""
    t = a.trunc
    src = np.array(a.coeffs[t.l_t:])
    src[0, :t.l_theta] = 0.0
    return src


def _upper_half(a: FourierTaylorSeries):
    """The half lattice of a (see :func:`_half_lattice`) halved at
    l = m = 0: the upper half A+ of a, with a = A+ + conj(mirror A+)."""
    src = _half_lattice(a)
    src[0, a.trunc.l_theta] *= 0.5
    return src


def multiply(a: FourierTaylorSeries, b: FourierTaylorSeries) -> FourierTaylorSeries:
    """Truncated product on the merged box, also written ``a * b``.

    Only half the pairs are formed. The upper half A+ of a (l > 0, or
    l = 0 and m > 0, plus half of each l = m = 0 cell) gives P = A+ * b;
    since a = A+ + conj(mirror A+) and b is hermitian, a * b = P +
    conj(mirror P), which is exactly hermitian. A factor that is
    identically zero gives the zero series on the merged box, without
    calling the kernel. A product that overflows raises NonFiniteError.
    """
    _check_rho(a, b)
    trunc = a.trunc.merge(b.trunc)
    if not (a.coeffs.any() and b.coeffs.any()):
        return zeros(trunc, a.rho)
    ta, tb = a.trunc, b.trunc
    src = _upper_half(a)
    la, ma, na = np.nonzero(src)
    lb, mb, nb = np.nonzero(b.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = convolve_nonzeros(
            la, ma - ta.l_theta, na, src[None, la, ma, na],
            lb - tb.l_t, mb - tb.l_theta, nb, b.coeffs[None, lb, mb, nb],
            trunc.l_t, trunc.l_theta, trunc.n_x)
        out += np.conj(out[::-1, ::-1, :])
        _check_finite(out)
    return FourierTaylorSeries(out, trunc, a.rho, hermitian=True)


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


def _bracket_form(a: FourierTaylorSeries):
    """(la, ma, na, channels): a as the first factor of a bracket.

    The positions of the upper half of a (see :func:`_upper_half`) whose
    cells carry a channel (n = m = 0 carries none), with l counted from 0,
    m centered, and the channel values (n, i m) * c. A series is immutable,
    so the form is computed at its first bracket and kept with it, frozen;
    a derivation that brackets its one generator with every Lie term
    derives it once.
    """
    form = a._bracket_form
    if form is None:
        t = a.trunc
        src = _upper_half(a)
        src[:, t.l_theta, 0] = 0.0
        la, ma, na = np.nonzero(src)
        va = src[la, ma, na]
        ma = ma - t.l_theta
        # a channel value that overflows makes the bracket's output not
        # finite, which the bracket raises as NonFiniteError
        with np.errstate(over="ignore", invalid="ignore"):
            form = (la, ma, na, np.array((na, 1j * ma)) * va)
        for arr in form:
            arr.flags.writeable = False
        a._bracket_form = form
    return form


def poisson_bracket(a: FourierTaylorSeries, b: FourierTaylorSeries) -> FourierTaylorSeries:
    """Reduced bracket {a, b} = (d_x a d_theta b - d_theta a d_x b) / rho,
    truncated to the merged box.

    One kernel call over two channels: {a, b} = sum_c A_c * B_c / rho with
    A = (d_x a, d_theta a) and B = (d_theta b, -d_x b). Each channel sits
    on its factor's own positions, with d_x taken as n c_n at degree n
    rather than at n - 1, so every channel product lands one degree high:
    the kernel runs on the merged box with degrees 0..n_x + 1 and computes
    degrees 1..n_x + 1 only, since every channel product vanishes at
    degree 0; they are the bracket's degrees 0..n_x.
    As in :func:`multiply`, only the upper half of a enters and the result
    is mirrored once. A factor without x or theta dependence gives the
    zero series on the merged box, without calling the kernel.

    The first factor's side of the call (its positions and channel
    values) is derived once per series and kept with it (see
    :func:`_bracket_form`), so bracketing one generator with many series,
    as a derivation's Lie series does, forms it once; only b's side is
    derived per call. A bracket that overflows raises NonFiniteError.
    """
    _check_rho(a, b)
    trunc = a.trunc.merge(b.trunc)
    tb = b.trunc
    # positions where n = m = 0 carry no channel: drop them
    la, ma, na, va = _bracket_form(a)
    other = b.coeffs != 0
    other[:, tb.l_theta, 0] = False
    lb, mb, nb = np.nonzero(other)
    if not (la.size and lb.size):
        return zeros(trunc, a.rho)
    vb = b.coeffs[lb, mb, nb]
    mb = mb - tb.l_theta
    c = 1.0 / a.rho
    with np.errstate(over="ignore", invalid="ignore"):
        out = convolve_nonzeros(
            la, ma, na, va,
            lb - tb.l_t, mb, nb, np.array((1j * mb, -nb)) * vb,
            trunc.l_t, trunc.l_theta, trunc.n_x + 1, 1)
        # the mirror sum, scaled, in one fresh array
        res = np.conj(out[::-1, ::-1, 1:])
        res += out[:, :, 1:]
        res *= c
        _check_finite(res)
    return FourierTaylorSeries(res, trunc, a.rho, hermitian=True)


# -- evaluation and norms ---------------------------------------------------


def compile_evaluator(parts):
    """Compile real series on one box into one function that sums them.

    Returns ``sums(x, theta, t)``, the values of the series in ``parts``
    at real points, with shape ``x.shape + (len(parts),)``. x is an array;
    theta and t carry a trailing unit axis, the one the harmonics run
    along, and broadcast with ``x[..., None]`` (t may be a scalar). No
    domain check is made: the caller decides which |x| it accepts.

    A real series pairs c_{l,m,n} with its mirror conj(c_{l,m,n}) at
    (-l, -m), and the pair sums to 2 (Re c cos(phase) - Im c sin(phase))
    x^n, so the upper half lattice (l > 0, or l = 0 and m > 0, weight 2;
    (0, 0) weight 1) holds the whole series. The table is built once, over
    the harmonics where some part is nonzero and the degrees up to the
    highest nonzero one: the wave numbers, and the weighted Re c and -Im c
    with axes (part, cos | sin x harmonic, degree). A call forms one phase
    array, its cosine and sine, the powers of x by repeated multiplication
    and one ``np.einsum`` that contracts them with the table, without a
    (points, parts, terms) temporary. For each point and part it adds the
    terms (trig x^n) c to one running sum from zero in table order: the
    cosine rows, then the sine rows, harmonic-major and degree-minor.
    einsum picks its own loop order, and numpy 2.4 sums a lone part of a
    one-harmonic table at one or two points row by row (each row's
    degrees first), so a lone part is compiled with a zero second part;
    ``tests/test_series.py`` pins the order bit for bit. Every other
    operation is elementwise over the points, so each point of a batch
    gets the bits of its solo call.

    Examples
    --------
    >>> tr = TruncationSpec(n_x=1, l_theta=1, l_t=0)
    >>> f = from_real_terms([(0, 0, 0, 1.0), (0, 1, 1, 0.5)], tr, 2.0)
    >>> sums = compile_evaluator([f, partial_x(f)])
    >>> sums(np.array([0.2]), np.array([[0.0]]), 0.0)
    array([[1.2, 1. ]])
    """
    trunc = parts[0].trunc
    halves = [_half_lattice(p) for p in parts]
    nonzero = np.any([h != 0 for h in halves], axis=0)  # (l, m, n), l >= 0
    used = nonzero.any(axis=2)
    # a zero table keeps the (0, 0) row, so every sum has a term
    used[0, trunc.l_theta] |= not used.any()
    li, mi = np.nonzero(used)
    degrees = np.nonzero(nonzero.any(axis=(0, 1)))[0]
    n_deg = int(degrees[-1]) + 1 if len(degrees) else 1
    center = (li == 0) & (mi == trunc.l_theta)
    weight = np.where(center, 1.0, 2.0)[:, None]
    # a lone part gets a zero second one (see above)
    half = np.stack([h[li, mi, :n_deg] for h in halves]
                    + [np.zeros((len(li), n_deg))] * (len(parts) == 1))
    # axes (part, cos | sin x harmonic, degree)
    table = np.concatenate([weight * half.real, -weight * half.imag], axis=1)
    wave_l = li.astype(np.float64)
    wave_m = (mi - trunc.l_theta).astype(np.float64)

    def sums(x, theta, t):
        phase = theta * wave_m + t * wave_l
        trig = np.concatenate((np.cos(phase), np.sin(phase)), axis=-1)
        powers = np.empty(x.shape + (n_deg,))
        powers[..., 0] = 1.0
        powers[..., 1:] = x[..., None]
        powers = np.multiply.accumulate(powers, axis=-1)
        return np.einsum("...h,...d,phd->...p", trig, powers,
                         table)[..., :len(parts)]
    return sums


def evaluate(a: FourierTaylorSeries, x, theta, t):
    """Evaluate the series at real points through :func:`compile_evaluator`.

    x, theta and t broadcast together, and scalar points give a scalar.
    |x| must stay within the domain half-width (else ValueError).
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > DEFAULT_DOMAIN.x_cap):
        raise ValueError(
            f"evaluation outside domain radius |x| <= {DEFAULT_DOMAIN.x_half}")
    x, theta, t = np.broadcast_arrays(x, np.asarray(theta, dtype=np.float64),
                                      np.asarray(t, dtype=np.float64))
    val = compile_evaluator([a])(x, theta[..., None], t[..., None])[..., 0]
    return val if val.shape else val[()]


@functools.lru_cache(maxsize=64)
def _majorant_weights(trunc: TruncationSpec, r: float):
    """(R(r)^n over the degrees, exp(r (|l| + |m|)) over the (l, m) grid)
    of trunc's box: the weights of :func:`majorant_norm` at r.

    A pure function of its arguments, cached and frozen: a run measures
    few boxes at few radii.
    """
    powers = DEFAULT_DOMAIN.radius(r) ** np.arange(trunc.n_x + 1)
    ls = np.abs(np.arange(-trunc.l_t, trunc.l_t + 1))
    ms = np.abs(np.arange(-trunc.l_theta, trunc.l_theta + 1))
    weights = np.exp(r * (ls[:, None] + ms[None, :]))
    for arr in (powers, weights):
        arr.flags.writeable = False
    return powers, weights


def majorant_norm(a: FourierTaylorSeries, r: float) -> float:
    """One-sided analytic-norm surrogate at strip width r (see module docs)."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if r > DEFAULT_DOMAIN.r_max:
        raise ValueError(
            f"r = {r} exceeds the analyticity budget {DEFAULT_DOMAIN.r_max}")
    powers, weights = _majorant_weights(a.trunc, r)
    return float(np.sum((np.abs(a.coeffs) @ powers) * weights))


# -- serialization ----------------------------------------------------------


def to_json_dict(a: FourierTaylorSeries) -> dict:
    """Half-lattice JSON form of a series.

    Stores nonzero coefficients with l > 0 or (l = 0, m >= 0); the reality
    condition supplies the rest on load. The rows come from one scan of the
    half lattice (:func:`_half_lattice`) in array (C) order, which is
    (l, m, n) order. A series is exactly hermitian, so a dump followed by
    a load gives back the same coefficients, and a load followed by a dump
    reproduces the document byte for byte, up to the sign of zero parts
    ("-0.0" loads as 0.0).
    """
    t = a.trunc
    slab = _half_lattice(a)
    li, mi, ni = np.nonzero(slab)
    vals = slab[li, mi, ni]
    # the (0, 0) coefficients are real: their stored imaginary part is 0.0
    im = np.where((li == 0) & (mi == t.l_theta), 0.0, vals.imag)
    coeffs = [{"l": l, "m": m, "n": n, "re": re, "im": i}
              for l, m, n, re, i in zip(li.tolist(), (mi - t.l_theta).tolist(),
                                        ni.tolist(), vals.real.tolist(),
                                        im.tolist())]
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
