"""Projection and homological-solver operators for the driven top.

The linearized problem splits a perturbation f into a part that can be
removed by a near-identity change of coordinates (the solvable part) and a
part that stays in the normal form (the resonant part). This module builds
that splitting and the derivation that realizes the removal:

- ``_split``: the basic split f = R_s f + N_s f that ignores the curvature
  coupling, stated once as one mask of resonant modes (the time-angle
  averaged degree-0 modes and everything of degree >= 2) and its
  complement (the fluctuating degree-0 and all degree-1 modes).
- ``small_divisor_solve``: inverts the drift ``omega d_theta + d_t`` on
  fluctuating modes of degree <= 1. Every division by a small divisor
  happens here, and only here is a divisor checked.
- ``Derivation``: everything one generator f needs, from one homological
  solve. The coefficient a_f of the x-translation is read off the
  product Q d_theta P0 G_s f that its inner drive already forms. It
  holds the curvature correction K, the full projections
  R f = R_s f - K and N f = N_s f + K, and the derivation Gamma_f with
  H(Gamma_f g) - Gamma_f(H g) = {N f, g} for the generator
  ``H = omega d_theta + d_t + {Q x^2 / 2, .}``, applied as one bracket.
  ``projection_correction`` and ``homological_derivation`` are one-line
  uses of it.

``run_identity_suite`` verifies all of the exact operator identities on
randomized inputs whose support is kept far enough inside the truncation
box that no identity can fail by truncation alone.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import series as fts
from .series import FourierTaylorSeries, TruncationSpec

__all__ = [
    "AlgebraParams",
    "DiophantineParams",
    "ResonanceError",
    "SmallDivisorWarning",
    "small_divisor_solve",
    "projection_correction",
    "half_curvature_x2",
    "hamiltonian_apply",
    "Derivation",
    "homological_derivation",
    "estimate_diophantine",
    "probe_basket",
    "generic_curvature",
    "identity_window",
    "run_identity_suite",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# a divisor below this is an exact resonance for the solver
_MIN_DIVISOR = 1e-13
# |omega m + l| within this many ulp of |omega m| is a resonance of the
# scan: omega = rho (1/i_3 - 1/i_perp) x0 and omega m are a few roundings
# away from the rational they stand for, each at most half an ulp
_RESONANCE_ULPS = 8


class ResonanceError(ArithmeticError):
    """A required small divisor is numerically zero."""


class SmallDivisorWarning(RuntimeWarning):
    """A divisor fell below the configured Diophantine floor."""


@dataclass(frozen=True)
class AlgebraParams:
    """Physical parameters of the reduced system.

    rho is the conserved momentum magnitude, i_perp and i_3 the transverse
    and symmetry-axis moments of inertia, x0 the relative equilibrium around
    which the angle chart is centered. delta and omega are derived:
    delta = 1/i_3 - 1/i_perp and omega = rho * delta * x0.
    """

    rho: float = 2.0
    i_perp: float = 2.0
    i_3: float = 3.0
    x0: float = _GOLDEN
    delta: float = field(init=False)
    omega: float = field(init=False)

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.rho, self.i_perp, self.i_3)):
            raise ValueError(
                "rho and moments of inertia must be finite and positive")
        if not -1.0 < self.x0 < 1.0:
            raise ValueError("x0 must lie strictly inside (-1, 1)")
        delta = 1.0 / self.i_3 - 1.0 / self.i_perp
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "omega", self.rho * delta * self.x0)

    @property
    def curvature0(self) -> float:
        """Flat-system curvature coefficient rho^2 * delta."""
        return self.rho * self.rho * self.delta


@dataclass(frozen=True)
class DiophantineParams:
    """Non-resonance constants: |omega m + l| >= gamma / (|l|+|m|)^tau."""

    gamma: float
    tau: float
    q: float = 0.5
    k_scan: int = 50

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.gamma, self.tau)):
            raise ValueError("gamma and tau must be finite and positive")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if not self.k_scan >= 1:
            raise ValueError("k_scan must be at least 1")

    def floor(self, l: int, m: int) -> float:
        return self.gamma / (abs(l) + abs(m)) ** self.tau


# -- the subalgebra split ----------------------------------------------------


def _split(f: FourierTaylorSeries):
    """(basic resonant part, basic solvable part) of f, from one mask.

    The resonant modes are the time-angle averaged ((l, m) = (0, 0)) modes
    of degree 0 and every mode of degree >= 2; the solvable part is the
    complement, the fluctuating degree-0 and all degree-1 modes. The two
    parts have disjoint supports and add back to f exactly, and each keeps
    or drops whole mirror pairs, so both stay exactly real.
    """
    t = f.trunc
    resonant = np.zeros(t.shape, dtype=bool)
    resonant[t.l_t, t.l_theta, 0] = True
    resonant[:, :, 2:] = True
    parts = np.where(resonant, f.coeffs, 0), np.where(resonant, 0, f.coeffs)
    return tuple(FourierTaylorSeries(c, t, f.rho, hermitian=True) for c in parts)


def _p0(f: FourierTaylorSeries) -> FourierTaylorSeries:
    """P0 f, the degree-0 slice of f on f's box."""
    c = np.zeros(f.trunc.shape, dtype=np.complex128)
    c[:, :, 0] = f.coeffs[:, :, 0]
    return FourierTaylorSeries(c, f.trunc, f.rho, hermitian=True)


# -- small divisors ----------------------------------------------------------


@functools.lru_cache
def _divisor_table(trunc: TruncationSpec, omega: float,
                   dio: DiophantineParams = None):
    """(divisor, solve, floor, low) on the (l, m) grid of trunc's box.

    divisor is l + omega m; solve is divisor with 1.0 wherever it is an
    exact resonance (below ``_MIN_DIVISOR``), for the modes no solve
    divides by; floor is dio's floor gamma / (|l| + |m|)^tau (inf at the
    center; None without dio); low marks the modes ``_check_divisors``
    visits. The table is a pure function of its arguments, cached and
    frozen, so the solves of a run tabulate each box once.
    """
    ls = np.arange(-trunc.l_t, trunc.l_t + 1, dtype=np.float64)[:, None]
    ms = np.arange(-trunc.l_theta, trunc.l_theta + 1, dtype=np.float64)[None, :]
    divisor = ls + omega * ms
    div = np.abs(divisor)
    low = div < _MIN_DIVISOR
    solve = np.where(low, 1.0, divisor)
    floor = None
    if dio is not None:
        with np.errstate(divide="ignore"):
            floor = dio.floor(ls, ms)
        # the array power may differ from the scalar floor in the last bit:
        # take a hair more here, and decide each mode by the scalar floor
        low |= div < floor * (1.0 + 1e-12)
    table = (divisor, solve, floor, low)
    for arr in table:
        if arr is not None:
            arr.flags.writeable = False
    return table


def _check_divisors(trunc: TruncationSpec, li, mi, omega: float,
                    dio: DiophantineParams):
    """Raise or warn for the modes at (li[i], mi[i]) of trunc's (l, m) grid
    actually divided by.

    All modes are tested in one lookup of the divisor table; only the ones
    that fail are visited, in order, to raise ``ResonanceError`` below
    ``_MIN_DIVISOR`` or warn below the Diophantine floor.
    """
    divisor, _, _, low = _divisor_table(trunc, omega, dio)
    for i in np.flatnonzero(low[li, mi]):
        a, b = li[i], mi[i]
        l, m = int(a) - trunc.l_t, int(b) - trunc.l_theta
        d = float(abs(divisor[a, b]))
        if d < _MIN_DIVISOR:
            raise ResonanceError(
                f"divisor |omega*{m} + {l}| = {d:.3e} below {_MIN_DIVISOR:.1e}")
        if d < dio.floor(l, m):
            warnings.warn(
                f"divisor at (l={l}, m={m}) is {d:.3e}, below the "
                f"Diophantine floor {dio.floor(l, m):.3e}",
                SmallDivisorWarning, stacklevel=3)


def small_divisor_solve(f: FourierTaylorSeries, params: AlgebraParams,
                        dio: DiophantineParams = None) -> FourierTaylorSeries:
    """Invert the drift omega*d_theta + d_t on fluctuating modes of degree <= 1.

    Modes of degree >= 2 and the time-angle average are dropped; the result u
    satisfies (omega*d_theta + d_t) u = fluctuating part of degree <= 1 of f.
    Only the modes f actually populates are checked against the divisor
    floors; the divisors themselves come from the cached table of f's box
    (see ``_divisor_table``). The result stays exactly hermitian: the
    divisor is odd, d(-l, -m) = -d(l, m).
    """
    t = f.trunc
    top = min(1, t.n_x)
    src = np.array(f.coeffs[:, :, : top + 1])
    src[t.l_t, t.l_theta, :] = 0.0
    li, mi = np.nonzero(src.any(axis=2))
    _check_divisors(t, li, mi, params.omega, dio)
    solve = _divisor_table(t, params.omega, dio)[1]  # masked entries have src == 0
    c = np.zeros(t.shape, dtype=np.complex128)
    c[:, :, : top + 1] = -1j * src / solve[:, :, None]
    return FourierTaylorSeries(c, t, f.rho, hermitian=True)


@functools.lru_cache
def estimate_diophantine(omega: float, tau: float, k_scan: int = 50):
    """Smallest |omega m + l| (|l| + |m|)^tau over 0 < |l| + |m| <= k_scan.

    Returns (gamma_hat, (l, m)) for the minimizing mode, scanning one
    representative of each +/- pair (m > 0, or m = 0 and l > 0). A zero
    gamma_hat means omega is resonant inside the scanned block, and
    (l, m) is the first resonant mode of the scan (the smallest m).
    omega is a rational up to rounding when |omega m + l| is within
    ``_RESONANCE_ULPS`` ulp of |omega m| at some mode, which therefore
    counts as resonant. The scan is a pure function of its arguments and
    is cached, so a sweep that certifies many triples at one rotation
    number scans once.
    """
    best = math.inf
    arg = None
    for m in range(0, k_scan + 1):
        lo = 1 if m == 0 else -(k_scan - m)
        for l in range(lo, k_scan - m + 1):
            if m == 0 and l <= 0:
                continue
            div = abs(omega * m + l)
            if div <= _RESONANCE_ULPS * math.ulp(omega * m):
                div = 0.0
            val = div * (abs(l) + abs(m)) ** tau
            if val < best:
                best = val
                arg = (l, m)
    return best, arg


# -- curvature-aware operators -----------------------------------------------


def _require_degree0(q: FourierTaylorSeries):
    if q.trunc.n_x > 0 and np.any(q.coeffs[:, :, 1:] != 0):
        raise ValueError("curvature series must be purely degree 0")


def half_curvature_x2(q: FourierTaylorSeries) -> FourierTaylorSeries:
    """Lift a degree-0 curvature series Q(theta, t) to Q x^2 / 2."""
    _require_degree0(q)
    t = q.trunc
    nt = TruncationSpec(n_x=2, l_theta=t.l_theta, l_t=t.l_t)
    c = np.zeros(nt.shape, dtype=np.complex128)
    c[:, :, 2] = 0.5 * q.coeffs[:, :, 0]
    return FourierTaylorSeries(c, nt, q.rho, hermitian=True)


def _curvature_update(q: FourierTaylorSeries,
                      rv: FourierTaylorSeries) -> FourierTaylorSeries:
    """Q* = Q + (d_x^2 rv)(x = 0), the curvature once the resonant part rv
    is banked: the inverse of :func:`half_curvature_x2` on rv's degree-2
    slice, whose coefficient c of x^2 adds 2 c to Q. The sum lies on the
    merged box of q and rv. :func:`lie_kam.normalform.compute_v_star`
    gives it as ``q_star``.
    """
    c = np.zeros(rv.trunc.shape, dtype=np.complex128)
    if rv.trunc.n_x >= 2:
        c[:, :, 0] = 2.0 * rv.coeffs[:, :, 2]
    return fts.add(q, FourierTaylorSeries(c, rv.trunc, rv.rho, hermitian=True))


def _lift_degree(f: FourierTaylorSeries) -> FourierTaylorSeries:
    """Multiply by x, growing the box when the top slice is occupied."""
    t = f.trunc
    if np.any(f.coeffs[:, :, t.n_x] != 0):
        nt = TruncationSpec(n_x=t.n_x + 1, l_theta=t.l_theta, l_t=t.l_t)
        c = np.zeros(nt.shape, dtype=np.complex128)
        c[:, :, 1:] = f.coeffs
        return FourierTaylorSeries(c, nt, f.rho, hermitian=True)
    c = np.zeros(t.shape, dtype=np.complex128)
    c[:, :, 1:] = f.coeffs[:, :, :-1]
    return FourierTaylorSeries(c, t, f.rho, hermitian=True)


def _translation(f: FourierTaylorSeries, q: FourierTaylorSeries,
                 gs: FourierTaylorSeries, params: AlgebraParams):
    """(a_f, Q d_theta P0 G_s f) for f and its solve gs = G_s f.

    a_f = (rho f_001 - (Q d_theta P0 G_s f)_000) / Q_00 is the coefficient
    of the x-translation that kills the averaged linear term: the product's
    average is the divisor sum over f's fluctuating degree-0 modes, each
    divided once, in the solve.
    """
    _require_degree0(q)
    q00 = q.coeff(0, 0, 0)
    if q00 == 0:
        raise ValueError("curvature series must have a nonzero average")
    qv = q * fts.partial_theta(_p0(gs))
    af = (params.rho * f.coeff(0, 0, 1) - qv.coeff(0, 0, 0)) / q00
    if abs(af.imag) > 1e-10 * max(1.0, abs(af)):
        raise fts.RealityError(
            f"translation coefficient should be real, got {af!r}")
    return af.real, qv


def hamiltonian_apply(g: FourierTaylorSeries, q: FourierTaylorSeries,
                      params: AlgebraParams) -> FourierTaylorSeries:
    """Generator H g = omega d_theta g + d_t g + {Q x^2 / 2, g}."""
    lin = fts.scale(fts.partial_theta(g), params.omega) + fts.partial_t(g)
    return lin + fts.poisson_bracket(half_curvature_x2(q), g)


class Derivation:
    """The derivation Gamma_f and the projections of one generator f, built once.

    Gamma_f = {G_s f, .} - (a_f / rho) d_x - {x W_f, .} with W_f built from
    the curvature drive; it satisfies the operator identity
    H(Gamma_f g) - Gamma_f(H g) = {N f, g}.

    Construction meets every divisor in ``small_divisor_solve``: G_s f,
    then the inner drive Q (a_f + d_theta P0 G_s f), whose product
    Q d_theta P0 G_s f has a_f's divisor sum as its average, and from that
    drive both x W_f and the curvature correction K that turns the basic
    projections into R f and N f. By bilinearity of the bracket,
    ``gamma(g)`` is then one bracket with the stored generator
    ``G = G_s f - x W_f`` plus an x-derivative.
    G's side of that bracket (its positions and channel values) is
    derived at the first application and kept with G, so a Lie series
    applying Gamma_f to every term derives it once per step.

    Attributes
    ----------
    correction : FourierTaylorSeries
        K, the curvature correction moving terms between the basic
        projections.
    resonant : FourierTaylorSeries
        R f = R_s f - K, the part that stays in the normal form.
    solvable : FourierTaylorSeries
        N f = N_s f + K, the part Gamma_f removes; R f + N f = f.
        R_s f and N_s f are the basic split of f (see ``_split``).
    generator : FourierTaylorSeries
        G_s f - x W_f.
    shift : float
        a_f / rho, the coefficient of the translation d_x.
    """

    __slots__ = ("correction", "resonant", "solvable", "generator", "shift")

    def __init__(self, f: FourierTaylorSeries, q: FourierTaylorSeries,
                 params: AlgebraParams, dio: DiophantineParams = None):
        # the solve divides mode by mode: its degree-0 slice solves P0 f
        gs = small_divisor_solve(f, params, dio)
        af, qv = _translation(f, q, gs, params)
        inner = fts.scale(q, af) + qv

        const = fts.from_terms([(0, 0, 0, params.rho * params.omega * af)],
                               f.trunc, f.rho)
        u = _p0(fts.partial_x(f))
        w = small_divisor_solve(u + fts.scale(inner, -1.0 / params.rho),
                                params, dio)
        k = const + fts.poisson_bracket(half_curvature_x2(q), _lift_degree(w))
        r_s, n_s = _split(f)
        self.correction = k
        self.resonant = r_s - k
        self.solvable = n_s + k

        xw = _lift_degree(small_divisor_solve(
            fts.scale(inner, 1.0 / params.rho), params, dio))
        self.generator = gs - xw
        self.shift = af / params.rho

    def scaled(self, s) -> "Derivation":
        """Gamma_{s f}, with no solve, product or bracket.

        Every attribute is linear in f, so Gamma_{s f} has this one's
        attributes times the real s. For s a power of two whose products
        stay normal floats this is exact: the attributes are those of
        ``Derivation(scale(f, s), ...)`` bit for bit, up to the sign of a
        zero real or imaginary part (``fts.scale`` multiplies by s as a
        complex number).
        """
        out = object.__new__(Derivation)
        out.correction = fts.scale(self.correction, s)
        out.resonant = fts.scale(self.resonant, s)
        out.solvable = fts.scale(self.solvable, s)
        out.generator = fts.scale(self.generator, s)
        out.shift = self.shift * s
        return out

    def __call__(self, g: FourierTaylorSeries, factor=None):
        """Gamma_f g = {G, g} - (a_f / rho) d_x g, or factor * Gamma_f g.

        ``factor`` is real. The translation term is written into one array
        on the bracket's box, the bracket added to it and the factor
        applied in place: the same roundings as
        ``scale(bracket + scale(partial_x(g), -shift), factor)``, with one
        series built instead of four. The bracket's first factor is the
        generator every call shares, whose side of the kernel call is
        derived once (see ``series.poisson_bracket``).
        """
        bracket = fts.poisson_bracket(self.generator, g)
        t, tg = bracket.trunc, g.trunc
        out = np.zeros(t.shape, dtype=np.complex128)
        dx = out[t.l_t - tg.l_t:t.l_t + tg.l_t + 1,
                 t.l_theta - tg.l_theta:t.l_theta + tg.l_theta + 1, :tg.n_x + 1]
        np.multiply(g.coeffs[:, :, 1:], np.arange(1, tg.n_x + 1), out=dx[:, :, :-1])
        dx *= -self.shift
        out += bracket.coeffs
        if factor is not None:
            out *= factor
        return FourierTaylorSeries(out, t, bracket.rho, hermitian=True)


def projection_correction(f: FourierTaylorSeries, q: FourierTaylorSeries,
                          params: AlgebraParams,
                          dio: DiophantineParams = None) -> FourierTaylorSeries:
    """Curvature correction K moving terms between the basic projections."""
    return Derivation(f, q, params, dio).correction


def homological_derivation(f: FourierTaylorSeries, g: FourierTaylorSeries,
                           q: FourierTaylorSeries, params: AlgebraParams,
                           dio: DiophantineParams = None) -> FourierTaylorSeries:
    """Apply the derivation Gamma_f to g once.

    Builds a :class:`Derivation`; callers applying Gamma_f to several
    series build it themselves and reuse it.
    """
    return Derivation(f, q, params, dio)(g)


# -- verification -------------------------------------------------------------


def probe_basket(trunc: TruncationSpec, rho: float):
    """Low-degree real probes used to test operator identities weakly."""
    return [
        fts.from_real_terms([(0, 0, 1, 1.0)], trunc, rho),            # x
        fts.from_real_terms([(0, 1, 0, 0.5)], trunc, rho),            # cos(theta)
        fts.from_real_terms([(1, 1, 1, 0.5j)], trunc, rho),           # -x sin(theta + t)
        fts.from_real_terms([(1, 0, 2, 0.5)], trunc, rho),            # x^2 cos(t)
    ]


def generic_curvature(params: AlgebraParams, trunc: TruncationSpec = None) -> FourierTaylorSeries:
    """Constant curvature plus small fluctuating harmonics.

    The fluctuating part is what distinguishes the curvature-aware operators
    from the basic ones, so verification defaults to this rather than to the
    flat constant.
    """
    if trunc is None:
        trunc = TruncationSpec(n_x=0, l_theta=1, l_t=1)
    return fts.from_real_terms([
        (0, 0, 0, params.curvature0),
        (0, 1, 0, 0.03 + 0.01j),
        (1, 0, 0, -0.02 + 0.04j),
        (1, 1, 0, 0.01 - 0.02j),
    ], trunc, params.rho)


def _l1(s: FourierTaylorSeries) -> float:
    return float(np.sum(np.abs(s.coeffs)))


def identity_window(trunc: TruncationSpec) -> dict:
    """Sub-window {l_t, l_theta, n_x} of trunc that random identity inputs
    stay in.

    The identity basket grows harmonic support by at most 3 and degree by
    at most 3, so random inputs stay that far inside the box and no
    identity can fail by truncation alone.
    """
    return {
        "l_t": max(trunc.l_t - 3, 0),
        "l_theta": max(trunc.l_theta - 3, 0),
        "n_x": max(trunc.n_x - 3, 0),
    }


def run_identity_suite(params: AlgebraParams, trunc: TruncationSpec,
                       n_trials: int = 50, seed: int = 0,
                       dio: DiophantineParams = None):
    """Measure every exact operator identity on random real series.

    The curvature is ``generic_curvature(params)``. Returns a list of
    dicts {identity, trials, max_residual, window, seed}. Residuals are
    relative (coefficient l1, normalized by the inputs) and are
    floating-point noise when the implementation is correct: random
    supports stay far enough inside the truncation box that no product or
    bracket in any identity can be clipped. A residual that is not finite
    makes its identity's max_residual inf.
    """
    q = generic_curvature(params)
    win = identity_window(trunc)
    if min(win.values()) < 1:
        raise ValueError(f"truncation box {trunc} too small for the identity suite")
    rng = np.random.default_rng(seed)
    # the probes and q are fixed, so each probe's H g is formed once
    probes = [(g, max(_l1(g), 1e-300), hamiltonian_apply(g, q, params))
              for g in probe_basket(trunc, params.rho)]
    names = [
        "resonant_idempotent",
        "solvable_after_resonant",
        "derivation_after_resonant",
        "homological",
        "partition_of_identity",
        "drift_inverse_on_low_degree",
        "basic_solver_kills_basic_resonant",
        "translation_kills_basic_resonant",
    ]
    worst = dict.fromkeys(names, 0.0)

    def record(name, residual):
        # max() drops a NaN, so a non-finite residual is kept as inf
        worst[name] = max(worst[name],
                          residual if math.isfinite(residual) else math.inf)

    for _ in range(n_trials):
        f = fts.random_real_series(trunc, params.rho, rng, n_terms=30,
                                   l_t_max=win["l_t"], l_theta_max=win["l_theta"],
                                   n_x_max=win["n_x"])
        nf = max(_l1(f), 1e-300)
        gamma_f = Derivation(f, q, params, dio)
        gamma_rf = Derivation(gamma_f.resonant, q, params, dio)
        rf, solv = gamma_f.resonant, gamma_f.solvable
        rrf, nrf = gamma_rf.resonant, gamma_rf.solvable

        record("resonant_idempotent", _l1(rrf - rf) / max(_l1(rf), 1e-300))
        record("solvable_after_resonant", _l1(nrf) / nf)
        record("partition_of_identity", _l1(rf + solv - f) / nf)

        rsf, nsf = _split(f)
        gs = small_divisor_solve(f, params, dio)
        drift = fts.scale(fts.partial_theta(gs), params.omega) + fts.partial_t(gs)
        # the fluctuating part of degree <= 1: N_s f less its averaged x term
        target = np.array(nsf.coeffs)
        target[trunc.l_t, trunc.l_theta, 1] = 0.0
        record("drift_inverse_on_low_degree",
               float(np.sum(np.abs(drift.coeffs - target))) / nf)

        grsf = small_divisor_solve(rsf, params, dio)
        record("basic_solver_kills_basic_resonant", _l1(grsf) / nf)
        record("translation_kills_basic_resonant",
               abs(_translation(rsf, q, grsf, params)[0]) / nf)

        for g, ng, hg in probes:
            record("derivation_after_resonant", _l1(gamma_rf(g)) / (nf * ng))
            lhs = hamiltonian_apply(gamma_f(g), q, params)
            rhs = gamma_f(hg)
            commutator = lhs - rhs
            want = fts.poisson_bracket(solv, g)
            record("homological", _l1(commutator - want) / (nf * ng))

    return [
        {"identity": name, "trials": n_trials, "max_residual": worst[name],
         "window": dict(win), "seed": seed}
        for name in names
    ]
