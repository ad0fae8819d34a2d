"""Quantitative normal-form step and iteration for the reduced top.

One step conjugates the generator ``H + {V, .}`` by ``exp(Gamma_V)`` and
returns the transformed perturbation ``V_*`` together with the resonant
part it banked into the normal form and the updated curvature coefficient.
Around the step this module provides the explicit bound constants of the
derivation estimate, a hypothesis/margin certifier, the smallness
threshold and step sequences of the convergence schedule, and a driver
that runs several steps while checking quadratic contraction.

Norms below are the majorant norm of :mod:`lie_kam.series`; all bounds are
one-sided coefficient-sum certificates, not sharp operator norms.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import series as fts
from . import operators as ops
from .series import (
    DEFAULT_DOMAIN,
    DomainConfig,
    FourierTaylorSeries,
    TruncationSpec,
)
from .operators import AlgebraParams, DiophantineParams

__all__ = [
    "DivergenceError",
    "HypothesisError",
    "IterationError",
    "BoundConstants",
    "LieTransformResult",
    "IterationState",
    "compute_bound_constants",
    "certify_bounds",
    "lie_exp_apply",
    "compute_v_star",
    "eps0_threshold",
    "schedule_sequences",
    "kam_iterate",
    "iteration_ledger",
]

_E = math.e
_Q_FLOOR_DROP = 2.0 ** (-math.pi ** 2 / 3.0)

# Lie-series term cap; reaching it warns and returns the partial sum
_MAX_TERMS = 40


def _finite(what: str, x: float) -> float:
    """x where it is finite, else OverflowError naming ``what``."""
    if not math.isfinite(x):
        raise OverflowError(f"{what} is not finite: {x!r}")
    return x


class DivergenceError(ArithmeticError):
    """Exponential Lie series failed to contract."""


class HypothesisError(ValueError):
    """A quantitative hypothesis of the bound package is violated."""


class IterationError(RuntimeError):
    """Iteration lost contraction; carries the states computed so far."""

    def __init__(self, message, states=None):
        super().__init__(message)
        self.states = list(states) if states is not None else []


# -- bound constants ----------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants of the derivation and projection estimates.

    Parameters
    ----------
    c1, c2, c3, c4 : float
        Term-by-term constants of the derivation bound; ``c`` combines
        them so that ``||Gamma_w z|| <= lam() ||w|| ||z||`` with
        the norms taken at radii ``r``, ``r - delta`` and ``r - d - delta``.
    c : float
        Combined derivation constant.
    c_tilde : float
        Projection constant: ``||N w||, ||R w|| <= xi() ||w||_r`` at
        radius ``r - delta``.
    q, tau, gamma, rho : float
        Hypothesis floor for the curvature average, Diophantine exponent
        and constant, and the Casimir radius they were computed for.
    r, d, delta : float
        Analyticity radius and the two losses the constants were built at.
    x_half : float
        Half-width of the real slow-variable domain (enters through the
        polynomial weight base R(r) = x_half + r).
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c: float
    c_tilde: float
    q: float
    tau: float
    gamma: float
    rho: float
    r: float
    d: float
    delta: float
    x_half: float

    def lam(self) -> float:
        """Derivation bound factor C / (q^3 d (d + delta)^(2 tau + 2)).

        C and C~ are built at the constants' own losses, so both factors
        are read there and nowhere else. A factor that is not finite (a
        large tau) raises OverflowError.
        """
        s = self.d + self.delta
        return _finite("bound factor lam", self.c / (
            self.q ** 3 * self.d * s ** (2.0 * self.tau + 2.0)))

    def xi(self) -> float:
        """Projection bound factor C~ / (q^3 delta^(2 tau + 3))."""
        return _finite("bound factor xi", self.c_tilde / (
            self.q ** 3 * self.delta ** (2.0 * self.tau + 3.0)))

    def eps_mu(self, mu: float) -> float:
        """Smallness budget q^3 mu^(2 tau + 3) / (2 C) for a step of loss mu."""
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        return self.q ** 3 * mu ** (2.0 * self.tau + 3.0) / (2.0 * self.c)


def compute_bound_constants(params: AlgebraParams, dio: DiophantineParams,
                            r: float, d: float, delta: float,
                            domain: DomainConfig = DEFAULT_DOMAIN) -> BoundConstants:
    """Evaluate the explicit constants of the one-step estimates.

    All constants are monotone consequences of three hypotheses: the
    Diophantine floor ``|omega m + l| >= gamma (|l| + |m|)^(-tau)``, the
    average floor ``|Q_00| >= q``, and the norm cap ``||Q||_r <= 1/q``
    (the cap is substituted for every curvature norm below).

    Parameters
    ----------
    params : AlgebraParams
        Reduced-system parameters; only rho and omega enter.
    dio : DiophantineParams
        gamma, tau and the average floor q.
    r : float
        Analyticity radius the bounds certify; must not exceed
        ``domain.r_max``.
    d, delta : float
        Derivation losses, ``d + delta < r``. The projection bound is
        evaluated at the single loss ``delta``.
    domain : DomainConfig
        Supplies the weight base R(r) = x_half + r.

    Returns
    -------
    BoundConstants

    Examples
    --------
    >>> import math
    >>> p = AlgebraParams()
    >>> dd = DiophantineParams(gamma=0.1, tau=1.0)
    >>> bc = compute_bound_constants(p, dd, r=0.5, d=0.1, delta=0.1)
    >>> math.isclose(bc.c1, 5.0 / (0.2 * math.e ** 2))
    True
    """
    if not (d > 0 and delta > 0):
        raise ValueError("losses d and delta must be positive")
    if not d + delta < r:
        raise ValueError("need d + delta < r")
    if r > domain.r_max:
        raise ValueError(f"r={r} exceeds domain r_max={domain.r_max}")
    tau, gamma, q, rho = dio.tau, dio.gamma, dio.q, params.rho
    s = d + delta
    big_r = domain.radius(r)
    tt = tau ** tau
    t1 = (tau + 1.0) ** (tau + 1.0)
    e1 = rho * gamma * _E ** (tau + 1.0)

    def c2_at(loss: float) -> float:
        # average part: |A w| / rho <= c2_at(loss) ||w||_r / (q^2 loss^(tau+1))
        return loss ** tau + t1 / e1

    c1 = (tt + t1) / e1
    c2 = c2_at(s)
    c3 = c1 * c2 * big_r
    c4 = ((2.0 * tau) ** tau * (2.0 * (tau + 1.0)) ** (tau + 1.0)
          + big_r * (2.0 * (tau + 1.0)) ** (2.0 * tau + 2.0) / s) \
        / (rho ** 2 * gamma ** 2 * _E ** (2.0 * tau + 2.0))
    c = (c1 * q ** 3 + c2 * q) * s ** (tau + 1.0) + c3 + s * q ** 2 * c4

    # projection constant: identity part, average recentering, and the
    # three divisor-solve pieces of the curvature correction
    c2d = c2_at(delta)
    two_tau = (2.0 * tau / _E) ** tau
    c_tilde = (q ** 3 * delta ** (2.0 * tau + 3.0)
               + rho ** 2 * abs(params.omega) * c2d * q * delta ** (tau + 2.0)
               + (2.0 * big_r ** 2 / (rho * _E * gamma)) * two_tau
               * q ** 2 * delta ** (tau + 1.0)
               + (2.0 * big_r ** 3 / (rho * _E * gamma * q)) * c2d * two_tau
               + (2.0 * big_r ** 3 * q / (rho ** 2 * gamma ** 2 * _E))
               * (4.0 * tau / _E) ** tau
               * (4.0 * (tau + 1.0) / _E) ** (tau + 1.0))
    return BoundConstants(c1=c1, c2=c2, c3=c3, c4=c4, c=c, c_tilde=c_tilde,
                          q=q, tau=tau, gamma=gamma, rho=rho,
                          r=r, d=d, delta=delta, x_half=domain.x_half)


def certify_bounds(w: FourierTaylorSeries, z: FourierTaylorSeries,
                   q: FourierTaylorSeries, params: AlgebraParams,
                   dio: DiophantineParams, r: float, d: float,
                   delta: float) -> dict:
    """Check the bound hypotheses and measure the certified margins.

    Verifies the three hypotheses behind :func:`compute_bound_constants`
    on the concrete data (scanned Diophantine constant over every mode
    the boxes can produce, curvature average floor, curvature norm cap)
    and then compares the measured majorant norms of ``Gamma_w z``,
    ``N w`` and ``R w`` against the certified bounds.

    Parameters
    ----------
    w, z : FourierTaylorSeries
        Generator and probe of the derivation estimate; ``w`` is also the
        input of the projection estimates.
    q : FourierTaylorSeries
        Curvature coefficient series (degree-0 box).
    params, dio, r, d, delta
        As in :func:`compute_bound_constants`, on the default domain.

    Returns
    -------
    dict
        ``constants`` (the BoundConstants), ``hypotheses`` (measured
        gamma_hat, worst mode, |Q_00|, ||Q||_r), and ``bounds`` mapping
        each estimate (``derivation`` for Gamma_w z, ``solvable`` for N w,
        ``resonant`` for R w) to ``{"measured", "bound", "margin"}`` with
        ``margin = bound - measured``.

    Raises
    ------
    HypothesisError
        If any of the three hypotheses fails on the data.
    """
    bc = compute_bound_constants(params, dio, r, d, delta)
    boxes = [w.trunc, z.trunc, q.trunc]
    k_need = max(t.l_t + t.l_theta for t in boxes)
    k_eff = max(dio.k_scan, k_need)
    gamma_hat, worst = ops.estimate_diophantine(params.omega, dio.tau, k_eff)
    if gamma_hat < dio.gamma:
        raise HypothesisError(
            f"scanned Diophantine constant {gamma_hat:.6g} at mode {worst} "
            f"is below the assumed gamma={dio.gamma}")
    q00 = abs(q.coeff(0, 0, 0))
    if q00 < dio.q:
        raise HypothesisError(f"|Q_00|={q00:.6g} is below the floor q={dio.q}")
    qn = fts.majorant_norm(q, r)
    if qn > 1.0 / dio.q:
        raise HypothesisError(
            f"||Q||_r={qn:.6g} exceeds the cap 1/q={1.0 / dio.q:.6g}")

    nw = fts.majorant_norm(w, r)
    nz = fts.majorant_norm(z, r - delta)
    gamma = ops.Derivation(w, q, params, dio)
    measured_g = fts.majorant_norm(gamma(z), r - d - delta)
    bound_g = _finite("derivation bound", bc.lam() * nw * nz)

    measured_n = fts.majorant_norm(gamma.solvable, r - delta)
    measured_r = fts.majorant_norm(gamma.resonant, r - delta)
    bound_p = _finite("projection bound", bc.xi() * nw)

    def row(measured, bound):
        return {"measured": measured, "bound": bound,
                "margin": bound - measured}

    return {
        "constants": bc,
        "hypotheses": {
            "gamma_hat": gamma_hat,
            "worst_mode": worst,
            "k_scan": k_eff,
            "q00": q00,
            "q_norm": qn,
        },
        "bounds": {
            "derivation": row(measured_g, bound_g),
            "solvable": row(measured_n, bound_p),
            "resonant": row(measured_r, bound_p),
        },
    }


# -- exponential of the derivation -------------------------------------------


def _lie_series(gamma: ops.Derivation, g: FourierTaylorSeries,
                h: FourierTaylorSeries, out: FourierTaylorSeries, tol: float):
    """Add ``sum_{k>=1} Gamma^k g / k! - Gamma^k h / (k+1)!`` to out.

    h may be None (no second series), and out lies on g's box. The two
    sums are summed as one chain u_1 = Gamma g, u_2 = Gamma (u_1 - h),
    u_k = Gamma u_{k-1}, whose terms u_k / k! have the same sum, so each
    term costs one application of gamma. Terms are added until the
    majorant weight of the k-th term falls below ``tol`` times the larger
    of 1 and the weight of g; h first enters the second term,
    so with h the stop test starts at k = 2. Five consecutive
    non-decreasing term weights raise :class:`DivergenceError`; reaching
    ``_MAX_TERMS`` terms warns and returns the partial sum. Returns
    ``(sum, terms_used)``. A term whose weight is not finite raises
    ``NonFiniteError``.

    Each application of gamma carries its 1/k into its one output array.
    Every term lies on the same box, that of G, g and h merged, which
    holds out's, so after the first term the running sum is one array
    that each term is added into, in the order the series sum would add
    it, and it becomes a series once, when the sum is returned.
    """
    scale_ = max(fts.majorant_norm(g, 0.0), 1.0)
    prev = math.inf
    rises = 0
    total = None
    for k in range(1, _MAX_TERMS + 1):
        if k == 2 and h is not None:
            g = g - h
        g = gamma(g, 1.0 / k)  # the k-th term, u_k / k!
        if total is None:
            out = out + g
            total = np.array(out.coeffs)
        else:
            total += g.coeffs
        tn = fts.majorant_norm(g, 0.0)
        if not math.isfinite(tn):
            raise fts.NonFiniteError(
                f"Lie series overflowed: term {k} has a weight that is not "
                "finite")
        if tn <= tol * scale_ and (k > 1 or h is None):
            break
        if tn >= prev:
            rises += 1
            if rises >= 5:
                raise DivergenceError(
                    f"Lie series failed to contract: term {k} has weight "
                    f"{tn:.3g} after {rises} non-decreasing steps")
        else:
            rises = 0
        prev = tn
    else:
        warnings.warn(f"Lie series truncated at {_MAX_TERMS} terms with last "
                      f"term weight {prev:.3g}", RuntimeWarning)
    return FourierTaylorSeries(total, out.trunc, out.rho, hermitian=True), k


def lie_exp_apply(f: FourierTaylorSeries, g: FourierTaylorSeries,
                  q: FourierTaylorSeries, params: AlgebraParams,
                  dio: DiophantineParams = None,
                  tol: float = 1e-12) -> FourierTaylorSeries:
    """Apply ``exp(Gamma_f)`` to g by summing the Lie series.

    Terms are added until the majorant weight of the k-th term falls
    below ``tol`` times the larger of 1 and the weight of g; that term is
    the last one added. Five consecutive non-decreasing term weights raise
    :class:`DivergenceError`; reaching the 40-term cap warns and returns
    the partial sum.
    """
    gamma = ops.Derivation(f, q, params, dio)
    return _lie_series(gamma, g, None, g, tol)[0]


# -- one normal-form step ------------------------------------------------------


@dataclass(frozen=True)
class LieTransformResult:
    """Output of a single normal-form step.

    Attributes
    ----------
    v_star : FourierTaylorSeries
        Transformed perturbation (quadratically small in the input).
    rv : FourierTaylorSeries
        Resonant part banked into the normal form.
    q_star : FourierTaylorSeries
        Updated curvature coefficient after absorbing rv.
    series_terms_used : int
        Lie-series terms summed before the tolerance was met.
    derivation : Derivation
        Gamma_V, whose projections and generator the step used.
    """

    v_star: FourierTaylorSeries
    rv: FourierTaylorSeries
    q_star: FourierTaylorSeries
    series_terms_used: int
    derivation: ops.Derivation


def compute_v_star(v: FourierTaylorSeries, q: FourierTaylorSeries,
                   params: AlgebraParams, tol: float = 1e-12,
                   dio: DiophantineParams = None, *,
                   derivation: ops.Derivation = None) -> LieTransformResult:
    """Run one normal-form step on the perturbation v.

    Splits v into its resonant part (banked into the curvature) and the
    solvable rest, and sums the transformed perturbation

        V_* = sum_{k>=1} Gamma_V^k V / k! - sum_{k>=1} Gamma_V^k (N V) / (k+1)!

    so that ``exp(Gamma_V) (H + {V, .}) exp(-Gamma_V) = H' + {V_*, .}``
    with H' the generator carrying curvature ``q_star`` and drift
    ``R V``. The two sums are summed as one chain with the same sum,

        u_1 = Gamma_V V,  u_2 = Gamma_V (u_1 - N V),
        u_k = Gamma_V u_{k-1} (k >= 3),  V_* = sum_{k>=1} u_k / k!,

    so each Lie term applies Gamma_V once, and at least two terms are
    summed, since N V enters at the second. The Lie series stops at 40
    terms with a RuntimeWarning.

    Parameters
    ----------
    v : FourierTaylorSeries
        Perturbation Hamiltonian.
    q : FourierTaylorSeries
        Current curvature coefficient (degree-0 box).
    params : AlgebraParams
    tol : float
        Majorant tolerance for stopping the Lie series, relative to the
        larger of 1 and the weight of v.
    dio : DiophantineParams, optional
        Divisor floor certificate for the small-divisor solves.
    derivation : Derivation, optional
        Gamma_v, for a caller that already holds it (for instance
        ``Derivation.scaled`` of a step at a multiple of v); built from
        v, q, params and dio when omitted.

    Returns
    -------
    LieTransformResult

    Examples
    --------
    >>> tr = TruncationSpec(n_x=6, l_theta=8, l_t=8)
    >>> p = AlgebraParams()
    >>> qs = ops.generic_curvature(p, tr)
    >>> v0 = fts.zeros(tr, p.rho)
    >>> out = compute_v_star(v0, qs, p)
    >>> fts.majorant_norm(out.v_star, 0.0)
    0.0
    """
    gamma = derivation
    if gamma is None:
        gamma = ops.Derivation(v, q, params, dio)
    rv = gamma.resonant
    out, terms = _lie_series(gamma, v, gamma.solvable,
                             fts.zeros(v.trunc, v.rho), tol)
    q_star = ops._curvature_update(q, rv)
    return LieTransformResult(v_star=out, rv=rv, q_star=q_star,
                              series_terms_used=terms, derivation=gamma)


# -- convergence schedule ------------------------------------------------------


def eps0_threshold(q0: float, c: float, r: float, tau: float) -> float:
    """Largest starting size for which the step sequences close.

    The threshold makes the analytic bound on the total radius loss equal
    to r/3; any eps0 at or below it keeps every radius positive.
    """
    if not 0.0 < q0 < 1.0:
        raise ValueError("q0 must lie in (0, 1)")
    if c <= 0 or r <= 0 or tau <= 0:
        raise ValueError("c, r and tau must be positive")
    return (q0 ** 3 / c) * (r / math.pi ** 2) ** (2.0 * tau + 3.0) \
        * 2.0 ** (2.0 * tau + 2.0 - math.pi ** 2)


def schedule_sequences(eps0: float, q0: float, tau: float, c: float,
                       c_tilde: float, r: float, max_steps: int = 20) -> dict:
    """Build the step sequences of the convergence schedule and check them.

    Produces ``max_steps`` rows of the sequences

        eps_i = eps0 / (i + 1)^(2 (2 tau + 3)),
        q_i   = q0 prod_{j<=i} (1 - 1/(j+1)^2) = q0 (i + 2) / (2 (i + 1)),
        mu_i  = (2 c eps_i / q_i^3)^(1 / (2 tau + 3)),
        r_{i+1} = r_i - mu_i,

    and records, per step, the six side conditions of the convergence
    theorem: (a) the smallness identity eps_i = q_i^3 mu_i^(2 tau + 3) /
    (2 c); (b) the curvature floor q_i >= c_tilde / (c r_i^2); (c)
    0 < mu_i < r_i / 3; (d) the radius budget (partial sums below r and
    the analytic bound on the full sum below r / 3); (e) strict decrease
    of eps_i; (f) q_inf < q_i < 1 with q_inf = q0 2^(-pi^2 / 3).

    Returns
    -------
    dict
        ``valid`` (no recorded failure), ``steps`` (one dict per step
        with i, eps, mu, q, r and the per-condition booleans),
        ``failures`` (condition name and step index, step None for the
        eps0 / r preconditions), ``q_inf``, ``mu_sum``,
        ``mu_analytic_bound``, ``eps0_max`` and ``r_floor``.
    """
    if not 0.0 < q0 < 1.0:
        raise ValueError("q0 must lie in (0, 1)")
    if tau <= 0 or c <= 0 or c_tilde <= 0 or r <= 0:
        raise ValueError("tau, c, c_tilde and r must be positive")
    if eps0 < 0:
        raise ValueError("eps0 must be nonnegative")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    twot3 = 2.0 * tau + 3.0
    q_inf = q0 * _Q_FLOOR_DROP
    thr = eps0_threshold(q0, c, r, tau)
    r_floor = math.sqrt(c_tilde / c)
    failures = []
    if eps0 > thr:
        failures.append({"condition": "eps0", "step": None})
    if r < r_floor:
        failures.append({"condition": "r_floor", "step": None})
    analytic = (math.pi ** 2 / 6.0) \
        * (2.0 * c * eps0 / q_inf ** 3) ** (1.0 / twot3)
    if not analytic < r / 3.0:
        failures.append({"condition": "d", "step": None})

    steps = []
    q_i = q0
    r_i = r
    mu_sum = 0.0
    eps_prev = math.inf
    for i in range(max_steps):
        if i > 0:
            q_i *= 1.0 - 1.0 / (i + 1) ** 2
        eps_i = eps0 / (i + 1) ** (2.0 * twot3)
        mu_i = (2.0 * c * eps_i / q_i ** 3) ** (1.0 / twot3)
        conds = {
            "a": math.isclose(eps_i, q_i ** 3 * mu_i ** twot3 / (2.0 * c),
                              rel_tol=1e-9, abs_tol=0.0) or eps_i == mu_i == 0.0,
            "b": q_i >= c_tilde / (c * r_i ** 2),
            "c": 0.0 < mu_i < r_i / 3.0,
            "d": mu_sum + mu_i < r and analytic < r / 3.0,
            "e": eps_i < eps_prev,
            "f": q_inf < q_i < 1.0,
        }
        steps.append({"i": i, "eps": eps_i, "mu": mu_i, "q": q_i, "r": r_i,
                      "conditions": conds})
        for name in "abcdef":
            if not conds[name]:
                failures.append({"condition": name, "step": i})
        mu_sum += mu_i
        r_i -= mu_i
        eps_prev = eps_i
    return {
        "valid": not failures,
        "steps": steps,
        "failures": failures,
        "q_inf": q_inf,
        "mu_sum": mu_sum,
        "mu_analytic_bound": analytic,
        "eps0_max": thr,
        "r_floor": r_floor,
    }


# -- iteration driver ----------------------------------------------------------


@dataclass(frozen=True)
class IterationState:
    """Snapshot of the iteration after i normal-form steps.

    ``mu_i`` = r_i / 6 is the radius the step from state i loses, so the
    next state is measured at r_{i+1} = r_i - mu_i.
    """

    i: int
    v: FourierTaylorSeries
    curvature: FourierTaylorSeries
    r_i: float
    mu_i: float
    measured_v_norm: float
    contraction_ratio: float


def kam_iterate(v0: FourierTaylorSeries, q0: FourierTaylorSeries,
                params: AlgebraParams, dio: DiophantineParams, r: float,
                steps: int = 3, tol: float = 1e-12) -> list:
    """Run several normal-form steps, measuring each state.

    Parameters
    ----------
    v0 : FourierTaylorSeries
        Starting perturbation.
    q0 : FourierTaylorSeries
        Starting curvature coefficient.
    params, dio : AlgebraParams, DiophantineParams
    r : float
        Starting analyticity radius (must not exceed the default domain's
        ``r_max``); each step loses mu_i = r_i / 6 of it.
    steps : int
        Number of normal-form steps; returns steps + 1 states.
    tol : float
        Lie-series tolerance, as in :func:`compute_v_star`.

    Returns
    -------
    list of IterationState
        States 0..steps. State i holds V_i measured at radius r_i; the
        contraction ratio on state i + 1 is
        ``||V_{i+1}||_{r_{i+1}} / ||V_i||_{r_i}^2``. Where that square is
        0 (V_i is 0, or its square underflows) the ratio is 0 if V_{i+1}
        measures 0 and None otherwise.

    Raises
    ------
    IterationError
        If a step increases the measured norm; the states computed so
        far are attached to the exception.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    measured = fts.majorant_norm(v0, r)

    states = []
    v, qs = v0, q0
    r_i = r
    prev_norm = None
    ratio = None
    for i in range(steps + 1):
        if prev_norm is not None and measured > prev_norm:
            raise IterationError(
                f"step {i} increased the measured norm: {measured:.3g} > "
                f"{prev_norm:.3g}", states)
        mu_i = r_i / 6.0
        states.append(IterationState(
            i=i, v=v, curvature=qs, r_i=r_i, mu_i=mu_i,
            measured_v_norm=measured, contraction_ratio=ratio))
        if i == steps:
            break
        res = compute_v_star(v, qs, params, tol, dio)
        prev_norm = measured
        v, qs = res.v_star, res.q_star
        r_i = r_i - mu_i
        # V_{i+1} at r_{i+1}: the next state's norm and this step's ratio
        measured = fts.majorant_norm(v, r_i)
        square = prev_norm ** 2
        if square > 0.0:
            ratio = measured / square
        else:
            ratio = 0.0 if measured == 0.0 else None
    return states


def iteration_ledger(states: list) -> list:
    """JSON-ready per-step summary of an iteration run."""
    return [{"i": st.i, "r_i": st.r_i, "mu_i": st.mu_i,
             "measured_norm": st.measured_v_norm,
             "contraction_ratio": st.contraction_ratio} for st in states]
