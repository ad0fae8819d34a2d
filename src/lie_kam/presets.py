"""Named parameter sets and the stock perturbation series.

fig1 is the free asymmetric top ensemble, fig2 the throbbing top with the
second inverse moment breathing as 0.1 eps cos t around 1/2, and pert1 the
symmetric-top drive eps (rho^2/2) cos t (1 - (x0 + x)^2) sin^2(theta)
used by the normal-form diagnostics. Every drive is cos t on the second
inverse moment, of period ``rigidbody.DRIVE_PERIOD`` = 2 pi. The drive
amplitude eps is always an explicit argument, and a preset takes one
exactly when it has an amplitude scale; fig2 documents 0.1 eps as the
effective inverse-moment amplitude (0.2 eps on the moment itself).
"""

from . import series as fts
from . import operators as ops
from .series import TruncationSpec
from .operators import AlgebraParams, DiophantineParams
from .rigidbody import InertiaSpec

__all__ = [
    "DEFAULT_TRUNC",
    "PRESETS",
    "default_diophantine",
    "reduced_drive_series",
    "preset_drive_series",
    "preset_inertia",
]

DEFAULT_TRUNC = TruncationSpec(n_x=6, l_theta=8, l_t=8)

# static ensemble / throbbing runs reproduce the reference phenomenology;
# pert1 is the reduced symmetric-top drive (I1 = I2 so the chart applies)
PRESETS = {
    "fig1": {
        "kind": "cartesian",
        "inertia": (1.0, 2.0, 3.0),
        "rho": 2.0,
        "T": 100.0,
    },
    "fig2": {
        "kind": "cartesian",
        "inertia": (1.0, 2.0, 3.0),
        "rho": 2.0,
        "T": 100.0,
        "inverse_amplitude_per_eps": 0.1,
    },
    "pert1": {
        "kind": "reduced",
        "inertia": (2.0, 2.0, 3.0),
        "T": 10.0,
        "inverse_amplitude_per_eps": 1.0,
    },
}


def default_diophantine(params: AlgebraParams, tau: float = 1.0,
                        q: float = 0.5, k_scan: int = 50) -> DiophantineParams:
    """Diophantine certificate with gamma set by scanning the rotation number.

    Scans |omega m + l| (|l| + |m|)^tau over the block |l| + |m| <= k_scan
    and adopts the minimum as gamma, so the floor hypothesis is tight but
    satisfied on every mode the scan covers.

    Raises
    ------
    ValueError
        If the scan finds an exact resonance; the message names the
        integer pair (l, m) with omega m + l = 0.
    """
    gamma_hat, pair = ops.estimate_diophantine(params.omega, tau, k_scan)
    if gamma_hat <= 0.0:
        raise ValueError(
            f"rotation number omega={params.omega!r} is resonant: "
            f"omega*m + l = 0 at (l, m) = {pair}")
    return DiophantineParams(gamma=gamma_hat, tau=tau, q=q, k_scan=k_scan)


def reduced_drive_series(eps: float, x0: float = None,
                         trunc: TruncationSpec = None,
                         rho: float = 2.0) -> fts.FourierTaylorSeries:
    """Reduced drive eps (rho^2/2) cos t (1 - (x0 + x)^2) sin^2(theta).

    This is the chart form of the quadratic M2 modulation: with
    M2 = rho sqrt(1 - X^2) sin(theta) and A22(t) = eps cos t, the
    perturbation (1/2) A22(t) M2^2 becomes the polynomial-trigonometric
    series returned here (exact in the box: degree 2 in x, harmonics
    |m| <= 2, |l| <= 1).

    Parameters
    ----------
    eps : float
        Drive amplitude.
    x0 : float, optional
        Chart center; defaults to the golden equilibrium of
        AlgebraParams.
    trunc : TruncationSpec, optional
        Index box, DEFAULT_TRUNC when omitted; it must hold l = 1.
    rho : float
        Casimir radius.

    Returns
    -------
    FourierTaylorSeries
        Real series with 18 nonzero coefficients (two time harmonics,
        theta modes {0, +-2}, x degrees {0, 1, 2}).
    """
    trunc = DEFAULT_TRUNC if trunc is None else trunc
    x0 = AlgebraParams().x0 if x0 is None else float(x0)
    if trunc.l_t < 1:
        raise ValueError("the drive harmonic l = 1 lies outside the box")
    # P(x) = 1 - (x0 + x)^2, exactly degree 2
    poly = {0: 1.0 - x0 * x0, 1: -2.0 * x0, 2: -1.0}
    base = eps * rho * rho
    terms = {}
    for n, pn in poly.items():
        # cos(t) sin^2(theta) = cos(t)/2 - cos(t)(e^{2i theta}+e^{-2i theta})/4
        terms[(1, 0, n)] = base * pn / 8.0
        terms[(1, 2, n)] = -base * pn / 16.0
        terms[(1, -2, n)] = -base * pn / 16.0
    return fts.from_real_terms(terms, trunc, rho)


def preset_drive_series(name: str, eps: float, params: AlgebraParams,
                        trunc: TruncationSpec) -> fts.FourierTaylorSeries:
    """Reduced drive of a reduced-chart preset at amplitude eps.

    Applies the preset's amplitude scale to :func:`reduced_drive_series`,
    centered at ``params.x0``.
    """
    return reduced_drive_series(PRESETS[name]["inverse_amplitude_per_eps"] * eps,
                                x0=params.x0, trunc=trunc, rho=params.rho)


def preset_inertia(name: str, eps: float = None) -> InertiaSpec:
    """InertiaSpec for a named preset, applying the drive amplitude.

    A preset with an amplitude scale (fig2, pert1) requires eps and drives
    its second inverse moment by scale * eps * cos t; fig1 ignores eps.
    """
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    cfg = PRESETS[name]
    i1, i2, i3 = cfg["inertia"]
    if "inverse_amplitude_per_eps" not in cfg:
        return InertiaSpec(i1, i2, i3)
    if eps is None:
        raise ValueError(f"preset {name!r} requires eps")
    return InertiaSpec(i1, i2, i3,
                       drive=cfg["inverse_amplitude_per_eps"] * eps)
