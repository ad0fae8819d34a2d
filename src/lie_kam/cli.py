"""Subcommand CLI wiring presets, runs, and report emission.

Exit codes: 0 on success, 1 on usage or configuration problems, 2 on
scientific failure (conservation out of band, aborted trajectory,
identity residual over tolerance, hypothesis or contraction failure,
resonant rotation number). A JSON config file supplies defaults; explicit
flags override it; unknown keys and non-finite numbers (NaN, infinities,
also as strings) are rejected. Identical config and seed give
byte-identical outputs. Ensembles are integrated as one batch.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import normalform as nf
from . import operators as ops
from . import presets as pr
from . import rigidbody as rb
from . import series as fts
from .operators import AlgebraParams
from .series import DomainConfig, TruncationSpec

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flag/config combination; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # scientific failures, so remap
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


_ALGEBRA_KEYS = {"rho", "i_perp", "i_3", "x0"}
_TRUNCATION_KEYS = {"n_x", "l_theta", "l_t"}

# identities measured against the loose (--tol) tolerance; the rest are
# exact cancellations held to 1e-12
_LOOSE_IDENTITIES = {
    "resonant_idempotent",
    "solvable_after_resonant",
    "derivation_after_resonant",
    "homological",
    "partition_of_identity",
}
_STRICT_TOL = 1e-12


def _load_config(args):
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    _reject_non_finite(doc)
    unknown = sorted(set(doc) - args.config_keys)
    if unknown:
        raise UsageError(
            f"unknown config keys for {args.command}: {', '.join(unknown)}")
    for sub, keys in (("algebra", _ALGEBRA_KEYS),
                      ("truncation", _TRUNCATION_KEYS)):
        if sub in doc:
            if not isinstance(doc[sub], dict):
                raise UsageError(f"config key {sub!r} must be an object")
            bad = sorted(set(doc[sub]) - keys)
            if bad:
                raise UsageError(
                    f"unknown {sub} config keys: {', '.join(bad)}")
    return doc


def _reject_non_finite(doc, prefix=""):
    # json accepts NaN and Infinity; they must not reach the engine
    for key, val in doc.items():
        if isinstance(val, dict):
            _reject_non_finite(val, f"{prefix}{key}.")
        elif isinstance(val, float) and not math.isfinite(val):
            raise UsageError(
                f"config key {prefix}{key} must be a finite number, got {val}")


def _finite(val):
    """float(val); ValueError unless it is a finite number."""
    try:
        num = float(val)
    except (TypeError, ValueError):
        raise ValueError(f"invalid float value: {val!r}")
    if not math.isfinite(num):
        raise ValueError(f"must be a finite number, got {val!r}")
    return num


def _finite_float(text):
    """argparse type for float flags: NaN and infinities are usage errors."""
    try:
        return _finite(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _number(val, key, kind=float):
    """A config value as a finite float (or an int); errors name the key.

    JSON strings such as "nan" get past the load-time check, so numbers
    are converted here, where they are read.
    """
    try:
        return _finite(val) if kind is float else int(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"config key {key}: {exc}")


def _get(args, config, key, default):
    val = getattr(args, key, None)
    if val is None:
        val = config.get(key, default)
    return val


def _get_number(args, config, key, default, kind=float):
    return _number(_get(args, config, key, default), key, kind)


def _algebra(config) -> AlgebraParams:
    base = AlgebraParams()
    alg = config.get("algebra", {})
    return AlgebraParams(
        **{key: _number(alg.get(key, getattr(base, key)), f"algebra.{key}")
           for key in ("rho", "i_perp", "i_3", "x0")})


def _truncation(config) -> TruncationSpec:
    base = pr.DEFAULT_TRUNC
    tr = config.get("truncation", {})
    return TruncationSpec(
        **{key: _number(tr.get(key, getattr(base, key)), f"truncation.{key}",
                        int)
           for key in ("n_x", "l_theta", "l_t")})


def _chart_config(params, trunc):
    """The algebra and truncation blocks of a resolved configuration."""
    return {
        "algebra": {"rho": params.rho, "i_perp": params.i_perp,
                    "i_3": params.i_3, "x0": params.x0},
        "truncation": {"n_x": trunc.n_x, "l_theta": trunc.l_theta,
                       "l_t": trunc.l_t},
    }


def _diophantine_flags(args, config):
    """tau, q and gamma_scan as a resolved-config block; usage-checked."""
    tau = _get_number(args, config, "tau", 1.0)
    q = _get_number(args, config, "q", 0.5)
    k_scan = _get_number(args, config, "gamma_scan", 50, int)
    if tau <= 0:
        raise UsageError("--tau must be positive")
    if not 0 < q < 1:
        raise UsageError("q must lie in (0, 1)")
    if k_scan < 1:
        raise UsageError("--gamma-scan must be a positive mode count")
    return {"tau": tau, "q": q, "gamma_scan": k_scan}


def _diophantine(params, resolved, report_path):
    """Diophantine constants from the scan, recording gamma in ``resolved``.

    A resonant rotation number is a scientific failure: the command's
    report is written at ``report_path`` with ``first_failure``
    "diophantine", and None is returned so the command exits 2.
    """
    try:
        dio = pr.default_diophantine(params, tau=resolved["tau"],
                                     q=resolved["q"],
                                     k_scan=resolved["gamma_scan"])
    except ValueError as exc:
        _write_json(report_path, {"config": resolved, "pass": False,
                                  "first_failure": "diophantine",
                                  "error": str(exc)})
        print(f"FAIL diophantine: {exc}", file=sys.stderr)
        print(f"report: {report_path}")
        return None
    resolved["gamma"] = dio.gamma
    return dio


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        # numpy scalars are written as the Python numbers they hold
        json.dump(doc, fh, sort_keys=True, indent=2,
                  default=lambda o: o.item())
        fh.write("\n")


def _out_dir(args, config):
    out = _get(args, config, "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


# -- simulate / section -------------------------------------------------------


def _resolve_simulation(args, config):
    preset = _get(args, config, "preset", None)
    if preset is None:
        raise UsageError("--preset is required")
    if preset not in pr.PRESETS:
        raise UsageError(f"unknown preset {preset!r}; "
                         f"choose from {', '.join(sorted(pr.PRESETS))}")
    cfg = pr.PRESETS[preset]
    eps = _get(args, config, "eps", None)
    if cfg["requires_eps"] and eps is None:
        raise UsageError(f"preset {preset!r} requires --eps")
    if not cfg["requires_eps"] and eps is not None:
        raise UsageError(f"preset {preset!r} takes no --eps")
    n = _get_number(args, config, "n", 1, int)
    seed = _get_number(args, config, "seed", 0, int)
    h = _get_number(args, config, "h", cfg["h"])
    t_final = _get_number(args, config, "T", cfg["T"])
    stride = _get_number(args, config, "stride", 1, int)
    section = (args.command == "section"
               or bool(_get(args, config, "section", False)))
    if n < 1:
        raise UsageError("--n must be at least 1")
    if h <= 0:
        raise UsageError("--h must be positive")
    if t_final < 0:
        raise UsageError("--T must be nonnegative")
    if stride < 1:
        raise UsageError("--stride must be at least 1")
    period = 2.0 * math.pi / cfg.get("drive_frequency", 1.0)
    if section and t_final < period:
        raise UsageError(
            f"sections need --T of at least one period ({period:.6g})")
    resolved = {
        "command": args.command,
        "preset": preset,
        "kind": cfg["kind"],
        "inertia": list(cfg["inertia"]),
        "rho": cfg["rho"],
        "eps": eps if eps is None else _number(eps, "eps"),
        "n": n,
        "seed": seed,
        "h": h,
        "T": t_final,
        "stride": stride,
        "section": section,
        "period": period,
    }
    return preset, cfg, resolved


def _integrate(inits, fieldfn, resolved):
    """One batched RK4 run over the ensemble, split into member trajectories."""
    if resolved["T"] == 0.0:
        empty = np.empty((0, inits.shape[-1]))
        return [rb.Trajectory(t=np.empty(0), y=empty) for _ in inits]
    # a lone member runs unbatched: same bits, less per-call overhead
    y0 = inits[0] if len(inits) == 1 else inits
    return rb.rk4_integrate(y0, fieldfn, resolved["h"], resolved["T"],
                            stride=resolved["stride"]).members()


def _simulate_cartesian(resolved):
    inertia = pr.preset_inertia(resolved["preset"], eps=resolved["eps"])
    rho = resolved["rho"]
    inits = rb.sample_sphere(resolved["n"], rho, resolved["seed"])
    if inertia.modulation is None:
        def fieldfn(t, y):
            return rb.euler_field(y, inertia)
    else:
        def fieldfn(t, y):
            return rb.throbbing_field(y, t, inertia)
    trajs = _integrate(inits, fieldfn, resolved)

    def report(traj):
        if len(traj) == 0:
            return {"rows": 0, "in_band": True, "aborted": False}
        rep = rb.conservation_report(traj, inertia)
        rep["rows"] = len(traj)
        rep["aborted"] = traj.aborted
        return rep

    return trajs, report, "cartesian", rho


def _simulate_reduced(resolved, config):
    params = _algebra(config)
    trunc = _truncation(config)
    if abs(params.rho - resolved["rho"]) > 1e-12:
        resolved["rho"] = params.rho
    v = pr.preset_drive_series(resolved["preset"], resolved["eps"], params,
                               trunc)
    fieldfn = rb.make_reduced_field(params, v)
    inertia = rb.InertiaSpec(params.i_perp, params.i_perp, params.i_3)
    rng = np.random.default_rng(resolved["seed"])
    inits = np.stack([rng.uniform(-0.1, 0.1, size=resolved["n"]),
                      rng.uniform(0.0, 2.0 * math.pi, size=resolved["n"])],
                     axis=-1)
    resolved.update(_chart_config(params, trunc))
    trajs = []
    for traj in _integrate(inits, fieldfn, resolved):
        # store the global chart coordinate X = x0 + x
        y = traj.y.copy()
        y[:, 0] += params.x0
        trajs.append(rb.Trajectory(t=traj.t, y=y, aborted=traj.aborted))

    def report(traj):
        if len(traj) == 0:
            return {"rows": 0, "in_band": True, "aborted": False}
        m = rb.from_reduced(traj.y[:, 0], traj.y[:, 1], params.rho)
        rep = rb.conservation_report(
            rb.Trajectory(t=traj.t, y=m, aborted=traj.aborted), inertia)
        rep["rows"] = len(traj)
        rep["aborted"] = traj.aborted
        rep["x_min"] = float(np.min(traj.y[:, 0]))
        rep["x_max"] = float(np.max(traj.y[:, 0]))
        return rep

    return trajs, report, "reduced", params.rho


def _section(traj, period, rho):
    """Section rows and their times; empty for a member that aborted
    before spanning one period."""
    if traj.aborted and (len(traj) < 2 or traj.t[-1] - traj.t[0] < period):
        return np.empty(0), np.empty((0, 2))
    sec = rb.poincare_section(traj, period, rho=rho)
    k0 = int(math.ceil((traj.t[0] - 1e-12) / period))
    return (k0 + np.arange(len(sec))) * period, sec


def cmd_simulate(args, config):
    preset, cfg, resolved = _resolve_simulation(args, config)
    out = _out_dir(args, config)
    if cfg["kind"] == "cartesian":
        trajs, report, kind, rho = _simulate_cartesian(resolved)
    else:
        trajs, report, kind, rho = _simulate_reduced(resolved, config)

    write_traj = args.command == "simulate"
    rows = []
    for i, traj in enumerate(trajs):
        rep = report(traj)
        if write_traj:
            name = f"{preset}_traj{i:03d}.csv"
            rb.write_trajectory_csv(os.path.join(out, name), traj, kind,
                                    config=resolved)
            rep["file"] = name
        if resolved["section"]:
            times, sec = _section(traj, resolved["period"],
                                  rho if kind == "cartesian" else None)
            sec_name = f"{preset}_section{i:03d}.csv"
            rb.write_trajectory_csv(os.path.join(out, sec_name),
                                    rb.Trajectory(t=times, y=sec), "reduced",
                                    config=resolved)
            rep["section_file"] = sec_name
            rep["section_rows"] = len(sec)
        rows.append(rep)

    aborted = [i for i, rep in enumerate(rows) if rep["aborted"]]
    out_of_band = [i for i, rep in enumerate(rows) if not rep["in_band"]]
    ok = not aborted and not out_of_band
    doc = {"config": resolved, "trajectories": rows, "pass": ok}
    _write_json(os.path.join(out, f"{preset}_report.json"), doc)
    for i, rep in enumerate(rows):
        if rep.get("rows", 0) == 0:
            print(f"traj {i}: empty (T = 0)")
        else:
            print(f"traj {i}: rows {rep['rows']}, "
                  f"rho drift {rep.get('rho_drift_max', 0.0):.3e}, "
                  f"in band {rep['in_band']}"
                  + (", aborted" if rep["aborted"] else ""))
    print(f"report: {os.path.join(out, preset + '_report.json')}")
    if aborted:
        print("trajectory aborted (non-finite state or chart domain exit): "
              f"traj {', '.join(map(str, aborted))}", file=sys.stderr)
    if out_of_band:
        print("conservation failure: "
              f"traj {', '.join(map(str, out_of_band))}", file=sys.stderr)
    return 0 if ok else 2


# -- normalize ----------------------------------------------------------------


def _reduced_setup(args, config):
    preset = _get(args, config, "preset", "pert1")
    if preset not in pr.PRESETS:
        raise UsageError(f"unknown preset {preset!r}")
    if pr.PRESETS[preset]["kind"] != "reduced":
        raise UsageError(f"preset {preset!r} is not a reduced-chart preset")
    return preset, _algebra(config), _truncation(config)


def cmd_normalize(args, config):
    preset, params, trunc = _reduced_setup(args, config)
    dio_flags = _diophantine_flags(args, config)
    eps = _get(args, config, "eps", None)
    if eps is None:
        raise UsageError("--eps is required")
    eps = _number(eps, "eps")
    if eps <= 0:
        raise UsageError("--eps must be positive")
    tol = _get_number(args, config, "tol", 1e-12)
    out = _out_dir(args, config)
    resolved = {"command": "normalize", "preset": preset, "eps": eps,
                "tol": tol, **dio_flags, **_chart_config(params, trunc)}
    report_path = os.path.join(out, "normalize_report.json")
    dio = _diophantine(params, resolved, report_path)
    if dio is None:
        return 2
    q_series = ops.generic_curvature(params, trunc)

    def v_star_norm(e):
        v = pr.preset_drive_series(preset, e, params, trunc)
        res = nf.compute_v_star(v, q_series, params, tol=tol, dio=dio)
        # measured on the shrunk strip r - 3 mu of the desk scales
        return res, fts.majorant_norm(res.v_star, 0.2), fts.majorant_norm(v, 0.2)

    result, n_full, n_v = v_star_norm(eps)
    _, n_half, _ = v_star_norm(0.5 * eps)
    ratio = n_full / n_half if n_half > 0 else float("inf")
    slope = math.log(ratio) / math.log(2.0) if n_half > 0 else float("inf")
    # the band of acceptance criterion 3
    quadratic_ok = abs(slope - 2.0) <= 0.1

    _write_json(os.path.join(out, "v_star.json"),
                {"config": resolved, "series": fts.to_json_dict(result.v_star)})
    doc = {
        "config": resolved,
        "v_norm": n_v,
        "v_star_norm": n_full,
        "series_terms_used": result.series_terms_used,
        "tail_norm": result.tail_norm,
        "quadratic_probe": {
            "eps": eps, "eps_half": 0.5 * eps,
            "norm": n_full, "norm_half": n_half,
            "ratio": ratio, "slope": slope, "pass": quadratic_ok,
        },
    }
    _write_json(report_path, doc)
    print(f"|V| = {n_v:.6e}, |V_star| = {n_full:.6e}")
    print(f"quadratic probe: ratio {ratio:.4f}, slope {slope:.4f}")
    print(f"report: {report_path}")
    if not quadratic_ok:
        print("quadratic smallness failure", file=sys.stderr)
        return 2
    return 0


# -- iterate ------------------------------------------------------------------


def cmd_iterate(args, config):
    preset, params, trunc = _reduced_setup(args, config)
    dio_flags = _diophantine_flags(args, config)
    eps = _get_number(args, config, "eps", 1e-3)
    steps = _get_number(args, config, "steps", 3, int)
    radius = _get_number(args, config, "r", 0.5)
    tol = _get_number(args, config, "tol", 1e-12)
    if eps <= 0:
        raise UsageError("--eps must be positive")
    if steps < 1:
        raise UsageError("--steps must be at least 1")
    if radius <= 0:
        raise UsageError("--r must be positive")
    out = _out_dir(args, config)
    resolved = {"command": "iterate", "preset": preset, "eps": eps,
                "steps": steps, "r": radius, "tol": tol, **dio_flags,
                **_chart_config(params, trunc)}
    path = os.path.join(out, "iterate_ledger.json")
    dio = _diophantine(params, resolved, path)
    if dio is None:
        return 2
    v0 = pr.preset_drive_series(preset, eps, params, trunc)
    q0 = ops.generic_curvature(params, trunc)
    try:
        states = nf.kam_iterate(v0, q0, params, dio, radius, steps=steps,
                                tol=tol)
    except nf.IterationError as exc:
        rows = nf.iteration_ledger(exc.states)
        _write_json(path, {"config": resolved, "steps": rows,
                           "pass": False, "error": str(exc)})
        print(f"contraction failure: {exc}", file=sys.stderr)
        print(f"ledger: {path}")
        return 2
    rows = nf.iteration_ledger(states)
    _write_json(path, {"config": resolved, "steps": rows, "pass": True})
    for row in rows:
        ratio = row["contraction_ratio"]
        shown = "-" if ratio is None else f"{ratio:.3f}"
        print(f"step {row['i']}: |V| = {row['measured_norm']:.6e}, "
              f"ratio = {shown}")
    print(f"ledger: {path}")
    return 0


# -- bounds -------------------------------------------------------------------


def _random_triple(rng, trunc, params, scale_q=0.005):
    win = ops._suite_window(trunc)
    w = fts.random_real_series(trunc, params.rho, rng, n_terms=25,
                               l_t_max=win["l_t"], l_theta_max=win["l_theta"],
                               n_x_max=win["n_x"])
    z = fts.random_real_series(trunc, params.rho, rng, n_terms=25,
                               l_t_max=win["l_t"], l_theta_max=win["l_theta"],
                               n_x_max=win["n_x"])
    pert = fts.scale(fts.random_real_series(trunc, params.rho, rng, n_terms=6,
                                            l_t_max=2, l_theta_max=2,
                                            n_x_max=0), scale_q)
    return w, z, ops.generic_curvature(params, trunc) + pert


def _margin_sweep(params, trunc, dio, trials, seed):
    rng = np.random.default_rng(seed)
    worst = math.inf
    count = 0
    for _ in range(trials):
        w, z, q_series = _random_triple(rng, trunc, params)
        rep = nf.certify_bounds(w, z, q_series, params, dio, 0.5, 0.1, 0.1)
        for row in rep["bounds"].values():
            worst = min(worst, row["margin"])
            count += 1
    return worst, count


def cmd_bounds(args, config):
    params = _algebra(config)
    trunc = _truncation(config)
    dio_flags = _diophantine_flags(args, config)
    trials = _get_number(args, config, "trials", 20, int)
    seed = _get_number(args, config, "seed", 0, int)
    if trials < 1:
        raise UsageError("--trials must be at least 1")
    out = _out_dir(args, config)
    resolved = {"command": "bounds", **dio_flags, "trials": trials,
                "seed": seed, **_chart_config(params, trunc)}
    report_path = os.path.join(out, "bounds_report.json")
    dio = _diophantine(params, resolved, report_path)
    if dio is None:
        return 2

    desk = nf.compute_bound_constants(params, dio, 0.5, 0.1, 0.1)
    worst, count = _margin_sweep(params, trunc, dio, trials, seed)

    # wide strip where the full schedule is feasible
    wide = DomainConfig(x_half=0.25, r_max=40.0)
    r_wide = 30.0
    loss = 0.49 * r_wide
    bc = nf.compute_bound_constants(params, dio, r_wide, loss, loss,
                                    domain=wide)
    thr = nf.eps0_threshold(dio.q, bc.c, r_wide, dio.tau)
    sched = nf.schedule_sequences(0.9 * thr, dio.q, dio.tau, bc.c, bc.c_tilde,
                                  r_wide, max_steps=10)

    doc = {
        "config": resolved,
        "gamma_hat": dio.gamma,
        "constants": {
            "r": desk.r, "d": desk.d, "delta": desk.delta,
            "c1": desk.c1, "c2": desk.c2, "c3": desk.c3, "c4": desk.c4,
            "c": desk.c, "c_tilde": desk.c_tilde,
        },
        "margins": {
            "trials": trials, "checked": count, "min_margin": worst,
            "all_nonnegative": worst >= 0.0,
        },
        "schedule": {
            "r": r_wide, "d": loss, "delta": loss,
            "c": bc.c, "c_tilde": bc.c_tilde,
            "eps0_max": thr, "eps0": 0.9 * thr,
            "r_floor": sched["r_floor"], "q_inf": sched["q_inf"],
            "mu_sum": sched["mu_sum"],
            "mu_analytic_bound": sched["mu_analytic_bound"],
            "steps_checked": len(sched["steps"]),
            "valid": sched["valid"],
        },
    }
    _write_json(report_path, doc)
    print(f"gamma_hat = {dio.gamma:.12g}")
    print(f"margins: min {worst:.6e} over {count} checks "
          f"({trials} triples)")
    print(f"schedule at r = {r_wide:g}: valid = {sched['valid']}, "
          f"eps0_max = {thr:.6e}")
    print(f"report: {report_path}")
    if worst < 0.0 or not sched["valid"]:
        print("bound certification failure", file=sys.stderr)
        return 2
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args, config):
    params = _algebra(config)
    trunc = _truncation(config)
    dio_flags = _diophantine_flags(args, config)
    trials = _get_number(args, config, "trials", 100, int)
    seed = _get_number(args, config, "seed", 0, int)
    tol = _get_number(args, config, "tol", 1e-9)
    if trials < 1:
        raise UsageError("--trials must be at least 1")
    out = _out_dir(args, config)
    resolved = {"command": "verify", **dio_flags, "trials": trials,
                "seed": seed, "tol": tol, **_chart_config(params, trunc)}
    report_path = os.path.join(out, "verify_report.json")
    dio = _diophantine(params, resolved, report_path)
    if dio is None:
        return 2

    suite = ops.run_identity_suite(params, trunc=trunc, n_trials=trials,
                                   seed=seed, dio=dio)
    rows = []
    first_failure = None
    for entry in suite:
        name = entry["identity"]
        limit = tol if name in _LOOSE_IDENTITIES else _STRICT_TOL
        passed = entry["max_residual"] <= limit
        rows.append({"identity": name, "max_residual": entry["max_residual"],
                     "tol": limit, "trials": entry["trials"],
                     "pass": passed})
        if not passed and first_failure is None:
            first_failure = name

    worst_margin, count = _margin_sweep(params, trunc, dio, 5, seed)
    margins_ok = worst_margin >= 0.0
    if first_failure is None and not margins_ok:
        first_failure = "bound_margins"

    doc = {
        "config": resolved,
        "gamma_hat": dio.gamma,
        "identities": rows,
        "margins": {"trials": 5, "checked": count,
                    "min_margin": worst_margin, "pass": margins_ok},
        "pass": first_failure is None,
        "first_failure": first_failure,
    }
    _write_json(report_path, doc)
    for row in rows:
        status = "PASS" if row["pass"] else "FAIL"
        print(f"{row['identity']}: max residual {row['max_residual']:.3e} "
              f"(tol {row['tol']:g}) {status}")
    print(f"bound margins: min {worst_margin:.6e} "
          f"{'PASS' if margins_ok else 'FAIL'}")
    print(f"report: {report_path}")
    if first_failure is not None:
        print(f"FAIL {first_failure}", file=sys.stderr)
        return 2
    return 0


# -- wiring -------------------------------------------------------------------


def _add_common(sp, seed=False, tol=False):
    """--config and --out, plus --seed and --tol for the commands that read them."""
    sp.add_argument("--config", help="JSON config file; flags override it")
    if seed:
        sp.add_argument("--seed", type=int, help="random seed (default 0)")
    sp.add_argument("--out", help="output directory (default .)")
    if tol:
        sp.add_argument("--tol", type=_finite_float, help="numerical tolerance")


def _add_diophantine_flags(sp):
    sp.add_argument("--tau", type=_finite_float, help="Diophantine exponent "
                    "(default 1)")
    sp.add_argument("--q", type=_finite_float, help="curvature floor "
                    "parameter in (0, 1) (default 0.5)")
    sp.add_argument("--gamma-scan", dest="gamma_scan", type=int,
                    help="mode count for the gamma scan (default 50)")


def _add_simulation_flags(sp):
    sp.add_argument("--preset", choices=sorted(pr.PRESETS))
    sp.add_argument("--n", type=int, help="ensemble size (default 1)")
    sp.add_argument("--h", type=_finite_float, help="step size")
    sp.add_argument("--T", type=_finite_float, help="integration span")
    sp.add_argument("--eps", type=_finite_float, help="drive amplitude")
    sp.add_argument("--stride", type=int, help="sampling stride (default 1)")


def _config_keys(sp):
    """Config keys a subcommand accepts: its flags' dests and the blocks."""
    dests = {action.dest for action in sp._actions if action.option_strings}
    return (dests - {"help", "config"}) | {"algebra", "truncation"}


def _build_parser():
    parser = _Parser(prog="lie-kam",
                     description="Normal-form engine and rigid-body "
                                 "simulator on the momentum sphere")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    sp = sub.add_parser("simulate", help="integrate preset trajectories")
    _add_simulation_flags(sp)
    sp.add_argument("--section", action="store_true", default=None,
                    help="also emit stroboscopic sections")
    _add_common(sp, seed=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("section", help="emit stroboscopic sections only")
    _add_simulation_flags(sp)
    _add_common(sp, seed=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("normalize",
                        help="one conjugation step: remainder and probes")
    sp.add_argument("--preset", help="reduced preset (default pert1)")
    sp.add_argument("--eps", type=_finite_float,
                    help="drive amplitude (required)")
    _add_diophantine_flags(sp)
    _add_common(sp, tol=True)
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("iterate", help="iterated conjugation ledger")
    sp.add_argument("--preset", help="reduced preset (default pert1)")
    sp.add_argument("--eps", type=_finite_float, help="drive amplitude "
                    "(default 1e-3)")
    sp.add_argument("--steps", type=int, help="iteration count (default 3)")
    sp.add_argument("--r", type=_finite_float,
                    help="working radius (default 0.5)")
    _add_diophantine_flags(sp)
    _add_common(sp, tol=True)
    sp.set_defaults(func=cmd_iterate)

    sp = sub.add_parser("bounds", help="analytic constants and margins")
    sp.add_argument("--trials", type=int, help="random triples (default 20)")
    _add_diophantine_flags(sp)
    _add_common(sp, seed=True)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="operator identity suite")
    sp.add_argument("--trials", type=int,
                    help="random probes per identity (default 100)")
    _add_diophantine_flags(sp)
    _add_common(sp, seed=True, tol=True)
    sp.set_defaults(func=cmd_verify)

    for sp in sub.choices.values():
        sp.set_defaults(config_keys=_config_keys(sp))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        config = _load_config(args)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (nf.HypothesisError, nf.DivergenceError, ops.ResonanceError) as exc:
        print(f"scientific failure: {exc}", file=sys.stderr)
        return 2
    except nf.IterationError as exc:
        print(f"contraction failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
