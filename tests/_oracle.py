"""Independent reference implementation used to cross-check the package.

Series are plain dicts {(l, m, n): complex} holding coefficients of
x^n e^{i(l t + m theta)}. Products are exact (no truncation box), so a
mismatch against the package on a window where truncation cannot bite is a
real algebra bug. Deliberately no imports from lie_kam in the math itself.

Test-only checks of package series also live here: the sampled sup norm
on the complex strip, the coefficient difference of two series and the
hermitian defect of a coefficient box, the small-divisor check and the
translation coefficient's divisor sum one mode at a time, the conjugacy
residual of one normal-form step on a probe, and the reduced-chart
parameters of a symmetric top.
"""
import math
import warnings

import numpy as np


def sadd(a, b, ca=1.0, cb=1.0):
    out = {}
    for k, v in a.items():
        out[k] = out.get(k, 0.0) + ca * v
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + cb * v
    return {k: v for k, v in out.items() if v != 0.0}


def sscale(a, c):
    return {k: c * v for k, v in a.items()}


def smul(a, b):
    out = {}
    for (l1, m1, n1), v1 in a.items():
        for (l2, m2, n2), v2 in b.items():
            k = (l1 + l2, m1 + m2, n1 + n2)
            out[k] = out.get(k, 0.0) + v1 * v2
    return out


def dx(a):
    return {(l, m, n - 1): n * v for (l, m, n), v in a.items() if n > 0}


def dtheta(a):
    return {(l, m, n): 1j * m * v for (l, m, n), v in a.items() if m != 0}


def dt(a):
    return {(l, m, n): 1j * l * v for (l, m, n), v in a.items() if l != 0}


def bracket(a, b, rho):
    return sscale(sadd(smul(dx(a), dtheta(b)), smul(dtheta(a), dx(b)), 1.0, -1.0), 1.0 / rho)


def avg(a):
    return {k: v for k, v in a.items() if k[0] == 0 and k[1] == 0}


def fluct(a):
    return {k: v for k, v in a.items() if not (k[0] == 0 and k[1] == 0)}


def pdeg(a, n0):
    return {k: v for k, v in a.items() if k[2] == n0}


def pdeg_ge(a, n0):
    return {k: v for k, v in a.items() if k[2] >= n0}


def r_s(a):
    return sadd(avg(pdeg(a, 0)), pdeg_ge(a, 2))


def n_s(a):
    return sadd(fluct(pdeg(a, 0)), pdeg(a, 1))


def g_s(a, omega):
    out = {}
    for (l, m, n), v in a.items():
        if n > 1 or (l == 0 and m == 0):
            continue
        out[(l, m, n)] = -1j * v / (omega * m + l)
    return out


def a_op(f, Q, rho, omega):
    q00 = Q.get((0, 0, 0), 0.0)
    first = rho * f.get((0, 0, 1), 0.0)
    acc = 0.0
    for (l, m, n), v in f.items():
        if n != 0 or (l == 0 and m == 0):
            continue
        acc += m * Q.get((-l, -m, 0), 0.0) * v / (omega * m + l)
    return (first - acc) / q00


def half_qx2(Q):
    return {(l, m, 2): 0.5 * v for (l, m, n), v in Q.items()}


def ham(g, Q, rho, omega):
    lin = sadd(sscale(dtheta(g), omega), dt(g))
    return sadd(lin, bracket(half_qx2(Q), g, rho))


def mul_x(a):
    return {(l, m, n + 1): v for (l, m, n), v in a.items()}


def _third_piece(f, Q, rho, omega):
    af = a_op(f, Q, rho, omega)
    v0 = g_s(pdeg(f, 0), omega)
    inner = sadd(sscale(Q, af), smul(Q, dtheta(v0)))
    return af, mul_x(g_s(sscale(inner, 1.0 / rho), omega))


def gamma_apply(f, g, Q, rho, omega):
    gsf = g_s(f, omega)
    af, xw = _third_piece(f, Q, rho, omega)
    t1 = bracket(gsf, g, rho)
    t2 = sscale(dx(g), -af / rho)
    t3 = sscale(bracket(xw, g, rho), -1.0)
    return sadd(sadd(t1, t2), t3)


def k_op(f, Q, rho, omega):
    af = a_op(f, Q, rho, omega)
    const = {(0, 0, 0): rho * omega * af}
    u = pdeg(dx(f), 0)
    v0 = g_s(pdeg(f, 0), omega)
    inner = sadd(sscale(Q, af), smul(Q, dtheta(v0)))
    w = g_s(sadd(u, sscale(inner, -1.0 / rho)), omega)
    return sadd(const, bracket(half_qx2(Q), mul_x(w), rho))


def r_proj(f, Q, rho, omega):
    return sadd(r_s(f), k_op(f, Q, rho, omega), 1.0, -1.0)


def n_proj(f, Q, rho, omega):
    return sadd(n_s(f), k_op(f, Q, rho, omega))


def norm1(a):
    return sum(abs(v) for v in a.values()) or 1e-300


def majorant(a, r, x_half):
    radius = x_half + r
    return sum(abs(v) * radius ** n * math.exp(r * (abs(l) + abs(m)))
               for (l, m, n), v in a.items())


def evaluate(a, x, theta, t):
    """Value of a at (possibly complex) points, broadcast over x, theta, t."""
    x, theta, t = np.broadcast_arrays(np.asarray(x), np.asarray(theta), np.asarray(t))
    out = np.zeros(x.shape, dtype=np.complex128)
    for (l, m, n), v in a.items():
        out += v * x ** n * np.exp(1j * (l * t + m * theta))
    return out


def sampled_norm(a, r, x_half):
    """Max |F| over a sample of the complex strip of width r.

    A lower bound for the sup norm, hence never above the majorant norm.
    The sample combines 12-point real angle grids with imaginary angle
    excursions of size r, and 7 points of x on the circle of radius
    x_half + r.
    """
    ang = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    phases = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    xx = (x_half + r) * np.exp(1j * phases)[None, None, :]
    best = 0.0
    for s_th in (-r, 0.0, r):
        for s_t in (-r, 0.0, r):
            th = ang[:, None, None] + 1j * s_th
            tt = ang[None, :, None] + 1j * s_t
            best = max(best, float(np.max(np.abs(evaluate(a, xx, th, tt)))))
    return best


def rand_real_series(rng, lmax=2, mmax=2, nmax=3, density=0.5):
    out = {}
    for l in range(0, lmax + 1):
        for m in range(-mmax, mmax + 1):
            if l == 0 and m < 0:
                continue
            for n in range(0, nmax + 1):
                if rng.random() > density:
                    continue
                c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if l == 0 and m == 0:
                    c = complex(c.real, 0.0)
                out[(l, m, n)] = out.get((l, m, n), 0.0) + c
                if not (l == 0 and m == 0):
                    out[(-l, -m, n)] = c.conjugate()
    return out


def check_divisors(modes, omega, dio, min_divisor, resonance_error, warning):
    """The divisor check one mode at a time, in the order of modes.

    Raises resonance_error at the first mode whose divisor |omega m + l|
    is below min_divisor, and warns (category warning, stacklevel 3) at
    each mode before it whose divisor is below dio.floor(l, m).
    """
    for l, m in modes:
        div = abs(omega * m + l)
        if div < min_divisor:
            raise resonance_error(
                f"divisor |omega*{m} + {l}| = {div:.3e} below {min_divisor:.1e}")
        if dio is not None and div < dio.floor(l, m):
            warnings.warn(
                f"divisor at (l={l}, m={m}) is {div:.3e}, below the "
                f"Diophantine floor {dio.floor(l, m):.3e}",
                warning, stacklevel=3)


def restrict(a, l_t, l_theta, n_x):
    """Drop terms outside an index box (mimics the package truncation)."""
    return {(l, m, n): v for (l, m, n), v in a.items()
            if abs(l) <= l_t and abs(m) <= l_theta and 0 <= n <= n_x}


# interop helpers; lazy import keeps the algebra above package-free


def dict_from_series(s):
    t = s.trunc
    return {(int(l) - t.l_t, int(m) - t.l_theta, int(n)): complex(s.coeffs[l, m, n])
            for l, m, n in zip(*np.nonzero(s.coeffs))}


def series_from_dict(d, trunc, rho):
    from lie_kam import series as _s
    return _s.from_terms(d, trunc, rho)


def diff_norm(d_ref, s_pkg):
    """Max abs coefficient difference between oracle dict and package series."""
    got = dict_from_series(s_pkg)
    keys = set(d_ref) | set(got)
    return max((abs(d_ref.get(k, 0.0) - got.get(k, 0.0)) for k in keys), default=0.0)


def max_coeff_diff(a, b):
    """Max abs coefficient difference between two package series."""
    return diff_norm(dict_from_series(a), b)


def hermitian_defect(coeffs):
    """Max |c_{l,m,n} - conj(c_{-l,-m,n})| over a dense (l, m, n) box."""
    return float(np.max(np.abs(coeffs - np.conj(coeffs[::-1, ::-1, :]))))


# package-side checks the commands do not run; lazy imports as above


def conjugacy_residual(v, q, params, g, tol=1e-12, dio=None):
    """Majorant weight of the conjugacy defect on one probe g.

    Measures ``exp(Gamma_V)((H + {V, .}) exp(-Gamma_V) g) - (H g +
    {R V + V_*, g})`` at radius 0, normalized by the probe weight. Exact
    arithmetic would give zero for supports that stay far enough inside
    the index box.
    """
    from lie_kam import normalform as nf
    from lie_kam import operators as ops
    from lie_kam import series as fts
    res = nf.compute_v_star(v, q, params, tol, dio)
    inner = nf.lie_exp_apply(fts.scale(v, -1.0), g, q, params, dio, tol)
    mid = ops.hamiltonian_apply(inner, q, params) \
        + fts.poisson_bracket(v, inner)
    lhs = nf.lie_exp_apply(v, mid, q, params, dio, tol)
    rhs = ops.hamiltonian_apply(g, q, params) \
        + fts.poisson_bracket(res.rv + res.v_star, g)
    ng = max(fts.majorant_norm(g, 0.0), 1e-300)
    return fts.majorant_norm(lhs - rhs, 0.0) / ng


def translation_coefficient_per_mode(f, q, omega, rho):
    """(a_f, modes divided by) of a package series f against the degree-0
    curvature q, as one scalar loop over the nonzero degree-0 modes of f.

    Each term m * q(-l, -m) * f(l, m) / (omega m + l) is formed and added
    with Python and numpy scalar arithmetic, in (l, m) order; the mode
    list is what the divisor check must see. No divisor is checked here.
    """
    q00 = q.coeff(0, 0, 0)
    t = f.trunc
    f0 = f.coeffs[:, :, 0]
    acc = 0.0 + 0.0j
    modes = []
    for a, b in zip(*np.nonzero(f0)):
        l, m = int(a - t.l_t), int(b - t.l_theta)
        if l == 0 and m == 0:
            continue
        qc = q.coeff(-l, -m, 0)
        if qc == 0:
            continue
        modes.append((l, m))
        acc += m * qc * f0[a, b] / (omega * m + l)
    out = (rho * f.coeff(0, 0, 1) - acc) / q00
    return out.real, modes


def is_symmetric(inertia):
    """Whether a top's two transverse moments agree (I1 = I2)."""
    return inertia.i1 == inertia.i2


def params_from_inertia(inertia, rho, x0):
    """Reduced-system parameters for a symmetric top; rejects i1 != i2."""
    from lie_kam.operators import AlgebraParams
    if not is_symmetric(inertia):
        raise ValueError("the reduced chart needs a symmetric top (I1 = I2)")
    return AlgebraParams(rho=rho, i_perp=inertia.i1, i_3=inertia.i3, x0=x0)
