"""Direct dynamics of the free and throbbing top on the momentum sphere.

One Cartesian field, free or driven by the inertia it is given, moves
the angular momentum 3-vector M under a classical fixed-step RK4; the
reduced chart (X, theta) on the sphere of radius rho drives the same
dynamics through the series algebra, so the two integrators
cross-validate each other. The same RK4 run gives the states at the
stroboscopic section times; chart transforms, conservation diagnostics
and CSV emission live here too.

The reduced field is the compiled vector field of H0 + V: its two
components, drift included, are real series evaluated through one
:func:`lie_kam.series.compile_evaluator` table. RK4 batches are
bit-identical member by member to their solo runs.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import series as fts
from .series import DEFAULT_DOMAIN, FourierTaylorSeries
from .operators import AlgebraParams

__all__ = [
    "DRIVE_PERIOD",
    "InertiaSpec",
    "Trajectory",
    "throbbing_field",
    "rk4_integrate",
    "to_reduced",
    "from_reduced",
    "make_reduced_field",
    "conservation_report",
    "sample_sphere",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

_POLE_TOL = 1e-12

# the period of the drive cos t
DRIVE_PERIOD = 2.0 * math.pi


@dataclass(frozen=True)
class InertiaSpec:
    """Moments of inertia, with the drive of the throbbing top.

    The driven second inverse moment is ``1/I2 + drive cos t``, of period
    :data:`DRIVE_PERIOD`; ``drive`` 0 is the static top. The check
    |drive| < 1/I2 keeps the driven inverse moment, also in floating
    point, at least 1/I2 - |drive| > 0.

    Attributes
    ----------
    i1, i2, i3 : float
        Principal moments of inertia, finite and strictly positive.
    drive : float
        Amplitude of the drive on the second inverse moment.
    """

    i1: float
    i2: float
    i3: float
    drive: float = 0.0

    def __post_init__(self):
        if not all(0 < i < math.inf for i in (self.i1, self.i2, self.i3)):
            raise ValueError("moments of inertia must be finite and positive")
        if not abs(self.drive) < 1.0 / self.i2:
            raise ValueError(
                f"drive amplitude {self.drive} makes the second inverse "
                f"moment {1.0 / self.i2} non-positive")

    def static_inverse(self):
        """Inverse moments (1/I1, 1/I2, 1/I3) without the drive."""
        return np.array([1.0 / self.i1, 1.0 / self.i2, 1.0 / self.i3])


def _cross(a, b):
    # cross product on the last axis, written out to keep ufunc overhead low
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.float64)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def throbbing_field(m, t, inertia: InertiaSpec):
    """Top field ((L + A(t)) M) x M of the momentum-sphere bracket.

    L holds the static inverse moments and A(t) = diag(0, drive cos t, 0)
    the drive; an undriven inertia gives the free top, (LM) x M. The field
    is orthogonal to M, so the Casimir |M| is conserved by the exact flow;
    the energy is conserved for the free top and breathes inside the
    rigid-body band for the driven one. The orientation is fixed by the
    chart convention theta_dot = rho Delta X of the reduced system.

    Parameters
    ----------
    m : array_like, shape (..., 3)
        Angular momentum vector(s).
    t : float
        Time, read only by the drive.
    inertia : InertiaSpec

    Returns
    -------
    ndarray, shape (..., 3)

    Examples
    --------
    >>> throbbing_field(np.array([0.0, 1.0, 1.0]), 0.0, InertiaSpec(1.0, 2.0, 3.0))
    array([0.16666667, 0.        , 0.        ])
    """
    m = np.asarray(m, dtype=np.float64)
    inv = inertia.static_inverse()
    inv[1] += inertia.drive * math.cos(t)
    return _cross(m * inv, m)


@dataclass
class Trajectory:
    """Sampled solution: times t (k,), states y (k, ...), abort flag.

    A batched run of rk4_integrate stores y as (k, ..., d) with one state
    per member, ``aborted`` as a bool array over the member axes and
    ``rows`` as the number of leading samples that belong to each member
    (an aborted member's later samples repeat its frozen last good state).
    ``section``, when the run was asked for one, is a Trajectory of the
    states at the section times, split per member in the same way.
    ``members()`` splits it into one Trajectory per member.
    """

    t: np.ndarray
    y: np.ndarray
    aborted: bool = False
    rows: np.ndarray = None
    section: "Trajectory" = None

    def __len__(self):
        return len(self.t)

    def members(self):
        """Per-member trajectories in C order over the member axes.

        Each holds exactly the samples, the section and the abort flag of
        the member's solo run; a single-state trajectory is its own only
        member.
        """
        if self.rows is None:
            return [self]
        ys = self.y.reshape(len(self.t), -1, self.y.shape[-1])
        sections = (self.section.members() if self.section is not None
                    else [None] * ys.shape[1])
        return [Trajectory(t=self.t[:r], y=ys[:r, k], aborted=bool(a),
                           section=sec)
                for k, (r, a, sec) in enumerate(zip(
                    self.rows.ravel(), self.aborted.ravel(), sections))]


# a section time this close to a grid time takes the grid state
_GRID_TOL = 1e-12


def _rk4_step(fieldfn, t, y, h):
    half = 0.5 * h
    k1 = fieldfn(t, y)
    k2 = fieldfn(t + half, y + half * k1)
    k3 = fieldfn(t + half, y + half * k2)
    k4 = fieldfn(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def rk4_integrate(y0, fieldfn, h, t_final, stride=1,
                  period=None) -> Trajectory:
    """Classical fixed-step RK4 for dy/dt = fieldfn(t, y).

    Integrates ``round(t_final / h)`` whole steps of size h from t = 0 and
    samples every ``stride`` steps (the final state is always included).

    With a ``period``, the run also records as ``section`` the state at
    each k * period in [0, n h]: the grid state within 1e-12 of a
    grid time, else one RK4 step of length k * period - t_i from the grid
    state at the grid time t_i before it, apart from the grid trajectory.
    Sections therefore do not depend on ``stride``.

    A y0 of shape (d,) is one state. A y0 of shape (..., d) is a batch of
    members integrated together through one field call per stage; the
    arithmetic is elementwise, so every member is bit-identical to its
    solo run. A member whose state stops being finite is frozen at its
    last good state and marked aborted while the others go on; from the
    first abort on, the field sees only the live members' states, with
    the member axes flattened to one. The run stops once every member has
    aborted. An aborted member keeps the samples up to its last good
    state and the section times at or before its last good grid time,
    exactly as its solo run would.

    Parameters
    ----------
    y0 : array_like, shape (d,) or (..., d)
        Initial state or states; fields act on the last axis.
    fieldfn : callable
        ``fieldfn(t, y) -> dy/dt`` with the shape of y; y is y0's shape or,
        after an abort, (live members, d).
    h : float
        Step size, positive.
    t_final : float
        Integration span; 0 yields the bare initial sample.
    stride : int
        Sampling stride in steps.
    period : float or None
        Section period, positive; None records no section.

    Returns
    -------
    Trajectory
        For one state: y of shape (k, d) and a bool ``aborted``. For a
        batch: y of shape (k, ..., d), ``aborted`` and ``rows`` per member
        (see Trajectory.members); ``section`` is laid out the same way.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if period is not None and not period > 0:
        raise ValueError("period must be positive")
    y = np.array(y0, dtype=np.float64)
    if y.ndim == 0:
        raise ValueError("y0 needs a state axis")
    n = int(round(t_final / h))
    t_end = n * h
    sec_t = []
    if period is not None:
        k = 0
        while k * period <= t_end + _GRID_TOL:
            sec_t.append(k * period)
            k += 1
    sec_y = []
    pending = iter(sec_t)
    due = next(pending, math.inf)  # the next section time
    ts = [0.0]
    ys = [y]
    live = np.ones(y.shape[:-1], dtype=bool)
    all_live = True
    rows = np.zeros(y.shape[:-1], dtype=np.int64)
    last_good = np.full(y.shape[:-1], t_end)
    for i in range(n):
        t = i * h
        t_next = (i + 1) * h
        state = y if all_live else y[live]
        while due < t_next - _GRID_TOL:
            if due <= t + _GRID_TOL:
                sec_y.append(y)
            elif all_live:
                sec_y.append(_rk4_step(fieldfn, t, y, due - t))
            else:
                part = y.copy()
                part[live] = _rk4_step(fieldfn, t, state, due - t)
                sec_y.append(part)
            due = next(pending, math.inf)
        step = _rk4_step(fieldfn, t, state, h)
        # one check per step while all members are finite; a failed member
        # keeps its last good state and its sample count
        if all_live and np.isfinite(step).all():
            y = step
        else:
            if all_live:
                all_live = False
                step = step[live]  # (live members, d), as state is from now on
            good = np.isfinite(step).all(axis=-1)
            still = live.copy()
            still[live] = good
            rows[live & ~still] = len(ts)
            last_good[live & ~still] = t
            live = still
            if not live.any():
                break
            y = y.copy()  # earlier samples hold the old array
            y[live] = step[good]
        if (i + 1) % stride == 0 or i + 1 == n:
            ts.append(t_next)
            ys.append(y)
    if live.any():
        # the section times at the final grid time
        sec_y += [y] * (len(sec_t) - len(sec_y))
    rows[live] = len(ts)
    section = None
    if period is not None:
        sec_t = np.asarray(sec_t[:len(sec_y)])
        section = Trajectory(
            t=sec_t, y=np.array(sec_y).reshape((-1,) + y.shape),
            aborted=~live,
            rows=np.searchsorted(sec_t, last_good + _GRID_TOL, side="right"))
    traj = Trajectory(t=np.asarray(ts), y=np.stack(ys), aborted=~live,
                      rows=rows, section=section)
    # one state is a batch of one, returned as its only member
    return traj.members()[0] if y.ndim == 1 else traj


# -- chart transforms ---------------------------------------------------------


def to_reduced(m, rho: float):
    """Map momentum vector(s) to the sphere chart (X, theta).

    X = M3 / rho and theta = atan2(M2, M1) in [0, 2 pi). Requires |M| =
    rho within 1e-10 (relative) and rejects the poles |X| = 1 where the
    chart degenerates.
    """
    m = np.asarray(m, dtype=np.float64)
    norms = np.sqrt(np.sum(m * m, axis=-1))
    if np.any(np.abs(norms - rho) > 1e-10 * max(1.0, rho)):
        raise ValueError("input does not lie on the momentum sphere")
    x_big = m[..., 2] / rho
    if np.any(np.abs(x_big) >= 1.0 - _POLE_TOL):
        raise ValueError("pole input: the (X, theta) chart excludes |X| = 1")
    theta = np.mod(np.arctan2(m[..., 1], m[..., 0]), 2.0 * math.pi)
    return x_big, theta


def from_reduced(x_big, theta, rho: float):
    """Inverse chart map; |X| < 1 required."""
    x_big, theta = np.broadcast_arrays(np.asarray(x_big, dtype=np.float64),
                                       np.asarray(theta, dtype=np.float64))
    if np.any(np.abs(x_big) >= 1.0):
        raise ValueError("|X| must be strictly below 1")
    s = rho * np.sqrt(1.0 - x_big * x_big)
    return np.stack([s * np.cos(theta), s * np.sin(theta), rho * x_big],
                    axis=-1)


def make_reduced_field(params: AlgebraParams, v_series: FourierTaylorSeries):
    """Compile the reduced velocity field into an RK4-ready closure.

    States y have shape (..., 2) with columns (x, theta). With the
    perturbation series V (a zero series for the unperturbed top) the
    field is

        dx/dt = -(1/rho) dV/dtheta,
        dtheta/dt = rho Delta (x0 + x) + (1/rho) dV/dx,

    and |x| beyond the domain radius gives NaN velocities, so an
    integrated member that leaves the chart domain aborts. V lives on the
    sphere of ``params.rho`` (else ValueError).

    Both components are built once as real series on V's box merged with
    degree 1: the scaled derivatives, with the drift omega + rho Delta x
    (omega = rho Delta x0) added to dtheta/dt as its (0, 0, 0) and
    (0, 0, 1) coefficients. One :func:`lie_kam.series.compile_evaluator`
    table sums both, so a call is one table sum plus the domain check, and
    a member of a batch (..., 2) gets the bits of its solo call on (2,).

    Examples
    --------
    >>> p = AlgebraParams()
    >>> flat = fts.zeros(fts.TruncationSpec(0, 0, 0), p.rho)
    >>> xd, td = make_reduced_field(p, flat)(0.0, np.array([0.0, 0.3]))
    >>> (bool(xd == 0.0), bool(abs(td - p.omega) < 1e-15))
    (True, True)
    """
    rho = params.rho
    v = v_series + fts.zeros(fts.TruncationSpec(1, 0, 0), rho)
    drift = fts.from_terms([(0, 0, 0, params.omega),
                            (0, 0, 1, rho * params.delta)], v.trunc, rho)
    sums = fts.compile_evaluator(
        (fts.scale(fts.partial_theta(v), -1.0 / rho),
         fts.scale(fts.partial_x(v), 1.0 / rho) + drift))
    x_cap = DEFAULT_DOMAIN.x_cap

    def fieldfn(t, y):
        x = y[..., 0]
        out = sums(x, y[..., 1:], t)
        # one check for the common in-domain batch; a NaN member fails it
        # too, so it cannot hide another's exit
        size = np.abs(x)
        if not size.max() <= x_cap:
            out[size > x_cap] = np.nan
        return out
    return fieldfn


# -- diagnostics --------------------------------------------------------------


def conservation_report(traj: Trajectory, inertia: InertiaSpec) -> dict:
    """Casimir drift and rigid-body energy band occupancy.

    The band is rho^2 / (2 I_max) <= E <= rho^2 / (2 I_min) with E the
    kinetic energy of the static moments; it holds for every point of
    the exact sphere, so in_band failing beyond the 1e-9 slack flags an
    integrator problem, not physics.
    """
    if traj.y.ndim != 2 or traj.y.shape[1] != 3:
        raise ValueError("the report needs a Cartesian trajectory")
    rho_t = np.sqrt(np.sum(traj.y * traj.y, axis=-1))
    rho0 = float(rho_t[0])
    energy = 0.5 * np.sum(traj.y * traj.y * inertia.static_inverse(), axis=-1)
    lo = rho0 ** 2 / (2.0 * max(inertia.i1, inertia.i2, inertia.i3))
    hi = rho0 ** 2 / (2.0 * min(inertia.i1, inertia.i2, inertia.i3))
    e_min, e_max = float(np.min(energy)), float(np.max(energy))
    return {
        "rho0": rho0,
        "rho_drift_max": float(np.max(np.abs(rho_t - rho0))),
        "energy_min": e_min,
        "energy_max": e_max,
        "energy_drift_max": float(np.max(np.abs(energy - energy[0]))),
        "band_lo": lo,
        "band_hi": hi,
        "in_band": bool(e_min >= lo - 1e-9 and e_max <= hi + 1e-9),
    }


def sample_sphere(n: int, rho: float, rng) -> np.ndarray:
    """n points uniform on the sphere of radius rho (seeded Generator)."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    out = np.empty((n, 3))
    k = 0
    while k < n:
        v = rng.normal(size=3)
        s = float(np.sqrt(v @ v))
        if s < 1e-12:
            continue
        out[k] = rho * v / s
        k += 1
    return out


# -- CSV emission -------------------------------------------------------------


def write_trajectory_csv(path, traj: Trajectory, kind: str, config: dict):
    """Write `t,M1,M2,M3` or `t,X,theta` rows after a config comment line.

    kind is "cartesian" or "reduced"; the resolved run configuration is
    embedded as a leading `# config: {...}` JSON comment for provenance.
    """
    if kind == "cartesian":
        header = "t,M1,M2,M3"
        width = 3
    elif kind == "reduced":
        header = "t,X,theta"
        width = 2
    else:
        raise ValueError("kind must be 'cartesian' or 'reduced'")
    if len(traj) and traj.y.shape[1] != width:
        raise ValueError(f"{kind} rows need {width} state columns")
    # numpy scalars in the configuration are written as Python numbers
    line = json.dumps(config, sort_keys=True, default=lambda o: o.item())
    # every value as %.17g, all rows formatted by one call
    values = np.column_stack([traj.t, traj.y]).ravel().tolist()
    row = ",".join(["%.17g"] * (1 + width)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config: {line}\n{header}\n"
                 + row * len(traj) % tuple(values))


def read_trajectory_csv(path):
    """Inverse of write_trajectory_csv: (Trajectory, config_dict_or_None)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    config = None
    idx = 0
    if lines and lines[0].startswith("# config:"):
        config = json.loads(lines[0][len("# config:"):])
        idx = 1
    if idx >= len(lines):
        raise ValueError("missing CSV header")
    idx += 1  # header
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[idx:] if ln]
    if rows:
        arr = np.asarray(rows)
        traj = Trajectory(t=arr[:, 0], y=arr[:, 1:])
    else:
        traj = Trajectory(t=np.empty(0), y=np.empty((0, 0)))
    return traj, config
