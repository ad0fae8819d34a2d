"""Subcommand CLI wiring presets, runs, and report emission.

Exit codes: 0 on success, 1 on usage or configuration problems, 2 on
scientific failure. A usage error writes no file. Every other run writes
the command's report, which has a top-level ``pass``, false on every
exit 2. A failed report names its failure as ``first_failure`` and prints
the one stderr line ``FAIL <first_failure>``; a passing report has no
``first_failure``. A finished run is decided by its command's checks in
``_CHECKS`` (``verify`` checks each identity under its own name), and the
first that fails is named. A failure that stops the run writes ``error``
and the rows computed before it (``iterate``'s ``steps``), and its line is
``FAIL <first_failure>: <error>``. Its name is one of ``diophantine``
(resonant rotation number), ``hypothesis``, ``divergence`` (of a Lie
series), ``resonance`` (a zero divisor), ``contraction`` (of the
iteration) and ``overflow`` (finite values whose product, power or bound
is not finite).

Each subcommand declares its inputs once, in ``_COMMANDS``: key, check,
default and help. An input comes from its flag, else from the JSON config
file (``--config``), else from its default. The key's one check validates
it as flag text or as a JSON value, so both reject the same things
(NaN, infinities, also as strings; wrong types; out-of-range values), and
a usage error names ``--flag`` or ``config key K``. Unknown keys are
rejected. Every report writes the command's inputs as ``config``, a valid
``--config`` document for the same subcommand (every input but ``out``),
and the values computed from them as ``derived``: ``command`` and
``gamma``, or for ``simulate``/``section`` ``command``, ``kind``,
``inertia``, ``period``, ``rho`` and, for ``section``, ``section``.
Trajectory CSVs carry ``config`` on their first line. Identical config
and seed give byte-identical outputs. Ensembles are integrated as one
batch.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import re
import sys
from typing import Callable, NamedTuple

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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -1.5 as negative numbers, so
        # `--eps -1e-3` would take -1e-3 for an option; exponents count too
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # scientific failures, so remap
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


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


# -- inputs -------------------------------------------------------------------


def _number(kind, ok=None, need=""):
    """Check for a float or int input: flag text, a JSON number or a numeric
    string, finite, and ``need`` where ``ok`` says so; ValueError otherwise."""
    # bool is an int subclass, and int() would truncate a float
    accepted = (str, int, float) if kind is float else (str, int)
    what = "a number" if kind is float else "an integer"

    def check(val):
        if isinstance(val, bool) or not isinstance(val, accepted):
            raise ValueError(f"must be {what}, got {val!r}")
        try:
            num = kind(val)
        except (ValueError, OverflowError):
            raise ValueError(f"must be {what}, got {val!r}")
        if not math.isfinite(num):
            raise ValueError(f"must be a finite number, got {val!r}")
        if ok is not None and not ok(num):
            raise ValueError(f"must be {need}, got {val!r}")
        return num
    return check


_REAL = _number(float)
_POSITIVE = _number(float, lambda v: v > 0, "positive")
_NONNEGATIVE = _number(float, lambda v: v >= 0, "nonnegative")
_FRACTION = _number(float, lambda v: 0 < v < 1, "in (0, 1)")
_COUNT = _number(int, lambda v: v >= 1, "at least 1")
_INDEX = _number(int, lambda v: v >= 0, "nonnegative")


def _one_of(names):
    names = sorted(names)

    def check(val):
        if val not in names:
            raise ValueError(f"must be one of {', '.join(names)}, got {val!r}")
        return val
    return check


def _switch(val):
    if not isinstance(val, bool):
        raise ValueError(f"must be true or false, got {val!r}")
    return val


def _path(val):
    if not isinstance(val, str):
        raise ValueError(f"must be a path, got {val!r}")
    return val


# the algebra and truncation blocks: keys are the fields of the stock object,
# which also holds their defaults
_BLOCKS = {"algebra": (AlgebraParams(), _REAL),
           "truncation": (pr.DEFAULT_TRUNC, _INDEX)}


def _block_keys(base):
    return [f.name for f in dataclasses.fields(base) if f.init]


def _flag(key):
    return "--" + key.replace("_", "-")


def _checked(check, val, where):
    try:
        return check(val)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}")


def _load_config(args):
    """The config file as a dict whose keys the subcommand accepts."""
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
    unknown = sorted(set(doc) - set(_COMMANDS[args.command].inputs)
                     - set(_BLOCKS))
    if unknown:
        raise UsageError(
            f"unknown config keys for {args.command}: {', '.join(unknown)}")
    for name, (base, _) in _BLOCKS.items():
        if name in doc:
            if not isinstance(doc[name], dict):
                raise UsageError(f"config key {name!r} must be an object")
            bad = sorted(set(doc[name]) - set(_block_keys(base)))
            if bad:
                raise UsageError(
                    f"unknown {name} config keys: {', '.join(bad)}")
    return doc


_REQUIRED = object()


def _inputs(args, config):
    """The subcommand's inputs, each from its flag, else the config, else
    its default, through its key's check; both blocks are checked even where
    the command does not read them. A JSON null counts as absent, and a key
    with neither value nor default is left out."""
    inputs = {}
    for key, (check, default, _) in _COMMANDS[args.command].inputs.items():
        val, where = getattr(args, key), _flag(key)
        if val is None:
            val, where = config.get(key), f"config key {key}"
        if val is not None:
            inputs[key] = _checked(check, val, where)
        elif default is _REQUIRED:
            raise UsageError(f"{_flag(key)} is required")
        elif default is not None:
            inputs[key] = default
    for name, (base, check) in _BLOCKS.items():
        given = config.get(name, {})
        inputs[name] = {
            key: (_checked(check, given[key], f"config key {name}.{key}")
                  if key in given else getattr(base, key))
            for key in _block_keys(base)}
    return inputs


def _chart(config):
    return (AlgebraParams(**config["algebra"]),
            TruncationSpec(**config["truncation"]))


class _ResonantRotation(ArithmeticError):
    """The gamma scan met an exact resonance of the rotation number."""


def _diophantine(params, config, derived):
    """Diophantine constants from the scan, recording gamma in ``derived``;
    a resonant rotation number raises _ResonantRotation."""
    try:
        dio = pr.default_diophantine(params, tau=config["tau"], q=config["q"],
                                     k_scan=config["gamma_scan"])
    except ValueError as exc:
        # the block's values are checked inputs: only a resonance is left
        raise _ResonantRotation(str(exc)) from None
    derived["gamma"] = dio.gamma
    return dio


def _output(out, name):
    """The path of output file ``name``, its directory made on first use."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _reported(x):
    """x as a report writes it: a value that is not finite is null."""
    return x if math.isfinite(x) else None


# a coefficient row of ``fts.to_json_dict`` (Python ints and floats) as
# json.dump(sort_keys=True, indent=2) writes it in doc["series"]["coeffs"],
# with its values in sorted key order (_ROW_VALUES): json writes a finite
# float with float.__repr__ and an int with int.__repr__, as %r does
_ROW = ("      {\n        \"im\": %r,\n        \"l\": %r,\n"
        "        \"m\": %r,\n        \"n\": %r,\n"
        "        \"re\": %r\n      }")
_ROW_VALUES = operator.itemgetter("im", "l", "m", "n", "re")


def _write_json(path, doc):
    """Write to ``path`` the bytes of json.dump(doc, sort_keys=True,
    indent=2) and a newline; numpy scalars are written as the Python
    numbers they hold.

    The coefficient rows of a ``series`` are formatted here, not by json's
    pure-Python encoder (which ``indent`` selects): they are nearly all of
    ``v_star.json``. All rows are written by one ``%`` over the row
    template repeated once per row, with every row's values in one tuple.
    Series values are finite, so no row needs json's NaN.
    """
    rows = doc["series"]["coeffs"] if "series" in doc else []
    if rows:
        doc = {**doc, "series": {**doc["series"], "coeffs": []}}
    text = json.dumps(doc, sort_keys=True, indent=2,
                      default=lambda o: o.item())
    if rows:
        rows_text = ",\n".join([_ROW] * len(rows)) % tuple(
            itertools.chain.from_iterable(map(_ROW_VALUES, rows)))
        text = text.replace('\n    "coeffs": []',
                            f'\n    "coeffs": [\n{rows_text}\n    ]', 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- simulate / section -------------------------------------------------------


def _resolve_simulation(config, derived):
    """Complete ``config`` from the preset and check the inputs against it."""
    preset = config["preset"]
    cfg = pr.PRESETS[preset]
    # a preset takes eps exactly when it has an amplitude scale
    driven = "inverse_amplitude_per_eps" in cfg
    if driven and "eps" not in config:
        raise UsageError(f"preset {preset!r} requires --eps")
    if not driven and "eps" in config:
        raise UsageError(f"preset {preset!r} takes no --eps")
    config.setdefault("T", float(cfg["T"]))
    if cfg["kind"] == "cartesian":
        # checked, but a Cartesian preset reads neither block
        del config["algebra"], config["truncation"]
    sections_only = derived["command"] == "section"
    period = rb.DRIVE_PERIOD
    if (sections_only or config["section"]) and config["T"] < period:
        raise UsageError(
            f"sections need --T of at least one period ({period:.6g})")
    derived.update(kind=cfg["kind"], period=period)
    if sections_only:
        derived["section"] = True
    return cfg


def _integrate(inits, fieldfn, config, period):
    """One batched RK4 run over the ensemble (with sections at a period),
    split into member trajectories."""
    if config["T"] == 0.0:
        empty = np.empty((0, inits.shape[-1]))
        return [rb.Trajectory(t=np.empty(0), y=empty) for _ in inits]
    return rb.rk4_integrate(inits, fieldfn, config["h"], config["T"],
                            stride=config["stride"], period=period).members()


def _simulate_cartesian(config, cfg, derived, period):
    inertia = pr.preset_inertia(config["preset"], eps=config.get("eps"))
    rho = cfg["rho"]
    derived.update(inertia=list(cfg["inertia"]), rho=rho)
    inits = rb.sample_sphere(config["n"], rho, config["seed"])

    def fieldfn(t, y):
        return rb.throbbing_field(y, t, inertia)

    trajs = _integrate(inits, fieldfn, config, period)
    for traj in trajs:
        if traj.section is not None:
            # sections are written in the chart (X, theta)
            traj.section.y = np.column_stack(rb.to_reduced(traj.section.y, rho))
    return trajs, lambda traj: rb.conservation_report(traj, inertia)


def _simulate_reduced(config, derived, period):
    params, trunc = _chart(config)
    # the preset's drive on the algebra block's top: |drive| < 1 / i_perp
    drive = pr.PRESETS[config["preset"]]["inverse_amplitude_per_eps"] \
        * config["eps"]
    inertia = rb.InertiaSpec(params.i_perp, params.i_perp, params.i_3,
                             drive=drive)
    derived.update(inertia=[params.i_perp, params.i_perp, params.i_3],
                   rho=params.rho)
    v = pr.preset_drive_series(config["preset"], config["eps"], params, trunc)
    fieldfn = rb.make_reduced_field(params, v)
    rng = np.random.default_rng(config["seed"])
    inits = np.stack([rng.uniform(-0.1, 0.1, size=config["n"]),
                      rng.uniform(0.0, 2.0 * math.pi, size=config["n"])],
                     axis=-1)
    trajs = _integrate(inits, fieldfn, config, period)
    for traj in trajs:
        # store the global chart coordinate X = x0 + x, and section angles
        # in [0, 2 pi)
        traj.y = np.column_stack([params.x0 + traj.y[:, 0], traj.y[:, 1]])
        if traj.section is not None:
            sec = traj.section.y
            traj.section.y = np.column_stack(
                [params.x0 + sec[:, 0], np.mod(sec[:, 1], 2.0 * math.pi)])

    def report(traj):
        m = rb.from_reduced(traj.y[:, 0], traj.y[:, 1], params.rho)
        return dict(rb.conservation_report(rb.Trajectory(t=traj.t, y=m),
                                           inertia),
                    x_min=float(np.min(traj.y[:, 0])),
                    x_max=float(np.max(traj.y[:, 0])))

    return trajs, report


def cmd_simulate(config, derived, out):
    cfg = _resolve_simulation(config, derived)
    preset, kind = config["preset"], derived["kind"]
    sections = "section" in derived or config["section"]
    period = derived["period"] if sections else None
    if kind == "cartesian":
        trajs, report = _simulate_cartesian(config, cfg, derived, period)
    else:
        trajs, report = _simulate_reduced(config, derived, period)

    write_traj = derived["command"] == "simulate"
    rows = []
    for i, traj in enumerate(trajs):
        # the conservation report of the member's states (none for T = 0)
        rep = report(traj) if len(traj) else {"in_band": True}
        rep.update(rows=len(traj), aborted=traj.aborted)
        if write_traj:
            name = f"{preset}_traj{i:03d}.csv"
            rb.write_trajectory_csv(_output(out, name), traj, kind, config)
            rep["file"] = name
        if sections:
            sec_name = f"{preset}_section{i:03d}.csv"
            rb.write_trajectory_csv(_output(out, sec_name), traj.section,
                                    "reduced", config)
            rep["section_file"] = sec_name
            rep["section_rows"] = len(traj.section)
        rows.append(rep)

    for i, rep in enumerate(rows):
        if rep.get("rows", 0) == 0:
            print(f"traj {i}: empty (T = 0)")
        else:
            print(f"traj {i}: rows {rep['rows']}, "
                  f"rho drift {rep.get('rho_drift_max', 0.0):.3e}, "
                  f"in band {rep['in_band']}"
                  + (", aborted" if rep["aborted"] else ""))
    return {"trajectories": rows}


# -- normalize ----------------------------------------------------------------


def cmd_normalize(config, derived, out):
    params, trunc = _chart(config)
    preset, eps, tol = config["preset"], config["eps"], config["tol"]
    dio = _diophantine(params, config, derived)
    q_series = ops.generic_curvature(params, trunc)

    v = pr.preset_drive_series(preset, eps, params, trunc)
    result = nf.compute_v_star(v, q_series, params, tol=tol, dio=dio)
    # the probe at eps / 2: the drive and Gamma_V are linear in eps, and
    # halving a normal float is exact, so both are the step's, halved
    half = nf.compute_v_star(fts.scale(v, 0.5), q_series, params, tol=tol,
                             dio=dio, derivation=result.derivation.scaled(0.5))
    # measured on the shrunk strip r - 3 mu of the desk scales
    n_v = fts.majorant_norm(v, 0.2)
    n_full = fts.majorant_norm(result.v_star, 0.2)
    n_half = fts.majorant_norm(half.v_star, 0.2)
    ratio = n_full / n_half if n_half > 0 else float("inf")
    slope = math.log(ratio) / math.log(2.0) if n_half > 0 else float("inf")

    _write_json(_output(out, "v_star.json"),
                {"config": config, "derived": derived,
                 "series": fts.to_json_dict(result.v_star)})
    doc = {
        "v_norm": n_v,
        "v_star_norm": n_full,
        "series_terms_used": result.series_terms_used,
        "quadratic_probe": {
            "eps": eps, "eps_half": 0.5 * eps,
            "norm": n_full, "norm_half": n_half,
            "ratio": _reported(ratio), "slope": _reported(slope),
            # the band of acceptance criterion 3
            "pass": abs(slope - 2.0) <= 0.1,
        },
    }
    print(f"|V| = {n_v:.6e}, |V_star| = {n_full:.6e}")
    print(f"quadratic probe: ratio {ratio:.4f}, slope {slope:.4f}")
    return doc


# -- iterate ------------------------------------------------------------------


def cmd_iterate(config, derived, out):
    params, trunc = _chart(config)
    dio = _diophantine(params, config, derived)
    v0 = pr.preset_drive_series(config["preset"], config["eps"], params, trunc)
    q0 = ops.generic_curvature(params, trunc)
    states = nf.kam_iterate(v0, q0, params, dio, config["r"],
                            steps=config["steps"], tol=config["tol"])
    rows = nf.iteration_ledger(states)
    for row in rows:
        ratio = row["contraction_ratio"]
        shown = "-" if ratio is None else f"{ratio:.3f}"
        print(f"step {row['i']}: |V| = {row['measured_norm']:.6e}, "
              f"ratio = {shown}")
    return {"steps": rows}


# -- bounds -------------------------------------------------------------------


def _random_triple(rng, trunc, params, scale_q=0.005):
    win = ops.identity_window(trunc)
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
            # a margin that is not finite certifies nothing: it counts as
            # -inf, which fails, where min() would drop a NaN
            margin = row["margin"]
            worst = min(worst, margin if math.isfinite(margin) else -math.inf)
            count += 1
    return worst, count


def cmd_bounds(config, derived, out):
    params, trunc = _chart(config)
    trials = config["trials"]
    dio = _diophantine(params, config, derived)

    desk = nf.compute_bound_constants(params, dio, 0.5, 0.1, 0.1)
    worst, count = _margin_sweep(params, trunc, dio, trials, config["seed"])

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
        "gamma_hat": dio.gamma,
        "constants": {
            "r": desk.r, "d": desk.d, "delta": desk.delta,
            "c1": desk.c1, "c2": desk.c2, "c3": desk.c3, "c4": desk.c4,
            "c": desk.c, "c_tilde": desk.c_tilde,
        },
        "margins": {
            "trials": trials, "checked": count, "min_margin": _reported(worst),
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
    print(f"gamma_hat = {dio.gamma:.12g}")
    print(f"margins: min {worst:.6e} over {count} checks "
          f"({trials} triples)")
    print(f"schedule at r = {r_wide:g}: valid = {sched['valid']}, "
          f"eps0_max = {thr:.6e}")
    return doc


# -- verify -------------------------------------------------------------------


def cmd_verify(config, derived, out):
    params, trunc = _chart(config)
    tol, seed = config["tol"], config["seed"]
    dio = _diophantine(params, config, derived)

    suite = ops.run_identity_suite(params, trunc=trunc,
                                   n_trials=config["trials"], seed=seed,
                                   dio=dio)
    rows = []
    for entry in suite:
        name = entry["identity"]
        limit = tol if name in _LOOSE_IDENTITIES else _STRICT_TOL
        rows.append({"identity": name,
                     "max_residual": _reported(entry["max_residual"]),
                     "tol": limit, "trials": entry["trials"],
                     # a residual that is not finite is inf here, and fails
                     "pass": entry["max_residual"] <= limit})

    worst_margin, count = _margin_sweep(params, trunc, dio, 5, seed)
    margins_ok = worst_margin >= 0.0
    doc = {
        "gamma_hat": dio.gamma,
        "identities": rows,
        "margins": {"trials": 5, "checked": count,
                    "min_margin": _reported(worst_margin), "pass": margins_ok},
    }
    for entry, row in zip(suite, rows):
        status = "PASS" if row["pass"] else "FAIL"
        print(f"{row['identity']}: max residual {entry['max_residual']:.3e} "
              f"(tol {row['tol']:g}) {status}")
    print(f"bound margins: min {worst_margin:.6e} "
          f"{'PASS' if margins_ok else 'FAIL'}")
    return doc


# -- wiring -------------------------------------------------------------------


class _Command(NamedTuple):
    help: str
    # (config, derived, out) -> report document, whose checks are _CHECKS
    run: Callable
    # the report's file name, formatted with the config
    report: str
    # key -> (check, default, help); default None: no value unless given
    inputs: dict


_OUT = {"out": (_path, ".", "output directory")}
_DIOPHANTINE = {
    "tau": (_POSITIVE, 1.0, "Diophantine exponent"),
    "q": (_FRACTION, 0.5, "curvature floor parameter in (0, 1)"),
    "gamma_scan": (_COUNT, 50, "mode count for the gamma scan"),
}
_SIMULATION = {
    "preset": (_one_of(pr.PRESETS), _REQUIRED,
               f"preset: {', '.join(sorted(pr.PRESETS))}"),
    "n": (_COUNT, 1, "ensemble size"),
    "h": (_POSITIVE, 0.001, "step size"),
    "T": (_NONNEGATIVE, None, "integration span (default: the preset's)"),
    "eps": (_REAL, None, "drive amplitude (fig2 and pert1 only)"),
    "stride": (_COUNT, 1, "sampling stride"),
    "seed": (_INDEX, 0, "random seed"),
    **_OUT,
}
_REDUCED_PRESET = (
    _one_of(k for k, cfg in pr.PRESETS.items() if cfg["kind"] == "reduced"),
    "pert1", "reduced preset")

_COMMANDS = {
    "simulate": _Command("integrate preset trajectories", cmd_simulate,
                         "{preset}_report.json", {
        **_SIMULATION,
        "section": (_switch, False, "also emit stroboscopic sections"),
    }),
    "section": _Command("emit stroboscopic sections only", cmd_simulate,
                        "{preset}_report.json", _SIMULATION),
    "normalize": _Command(
        "one conjugation step: remainder and probes", cmd_normalize,
        "normalize_report.json", {
            "preset": _REDUCED_PRESET,
            "eps": (_POSITIVE, _REQUIRED, "drive amplitude"),
            **_DIOPHANTINE,
            "tol": (_POSITIVE, 1e-12, "numerical tolerance"),
            **_OUT,
        }),
    "iterate": _Command("iterated conjugation ledger", cmd_iterate,
                        "iterate_ledger.json", {
        "preset": _REDUCED_PRESET,
        "eps": (_POSITIVE, 1e-3, "drive amplitude"),
        "steps": (_COUNT, 3, "iteration count"),
        "r": (_POSITIVE, 0.5, "working radius"),
        **_DIOPHANTINE,
        "tol": (_POSITIVE, 1e-12, "numerical tolerance"),
        **_OUT,
    }),
    "bounds": _Command("analytic constants and margins", cmd_bounds,
                       "bounds_report.json", {
        "trials": (_COUNT, 20, "random triples"),
        **_DIOPHANTINE,
        "seed": (_INDEX, 0, "random seed"),
        **_OUT,
    }),
    "verify": _Command("operator identity suite", cmd_verify,
                       "verify_report.json", {
        "trials": (_COUNT, 100, "random probes per identity"),
        **_DIOPHANTINE,
        "seed": (_INDEX, 0, "random seed"),
        "tol": (_POSITIVE, 1e-9, "tolerance of the loose identities"),
        **_OUT,
    }),
}


# built on the first main() call and kept for the process: parse_args
# leaves the parser as it was, also on a usage error
@functools.cache
def _build_parser():
    parser = _Parser(prog="lie-kam",
                     description="Normal-form engine and rigid-body "
                                 "simulator on the momentum sphere")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for key, (check, default, about) in command.inputs.items():
            if check is _switch:
                sp.add_argument(_flag(key), dest=key, action="store_true",
                                default=None, help=about)
                continue
            if default is _REQUIRED:
                about += " (required)"
            elif default is not None:
                about += f" (default {default})"
            sp.add_argument(_flag(key), dest=key, help=about)
    return parser


# the scientific failures that stop a run, by the exception that signals
# each, named as the report's first_failure
_FAILURES = {
    _ResonantRotation: "diophantine",
    nf.HypothesisError: "hypothesis",
    nf.DivergenceError: "divergence",
    ops.ResonanceError: "resonance",
    nf.IterationError: "contraction",
    fts.NonFiniteError: "overflow",
    OverflowError: "overflow",
}


def _trajectory_checks(doc):
    rows = doc["trajectories"]
    return [("aborted", not any(r["aborted"] for r in rows)),
            ("conservation", all(r["in_band"] for r in rows))]


# the checks of a finished run, by command: each maps the report document to
# its ordered (name, passed) pairs, and the first that fails is the report's
# first_failure
_CHECKS = {
    "simulate": _trajectory_checks,
    "section": _trajectory_checks,
    "normalize": lambda d: [("quadratic_probe", d["quadratic_probe"]["pass"])],
    "iterate": lambda d: [],
    "bounds": lambda d: [("bound_margins", d["margins"]["all_nonnegative"]),
                         ("schedule", d["schedule"]["valid"])],
    "verify": lambda d: [*((r["identity"], r["pass"]) for r in d["identities"]),
                         ("bound_margins", d["margins"]["pass"])],
}


def _run(command, config, derived, out):
    """Run ``command`` and write its report; returns the exit code.

    The report holds ``config``, ``derived``, ``pass`` and the document the
    command returns; a scientific failure that stops the run gives instead
    ``error`` and the rows computed before it. A failed report names its
    failure, the first failed check of ``_CHECKS`` or the stopping failure
    of ``_FAILURES``, as ``first_failure``, and stderr gets the one line
    ``FAIL <first_failure>`` (``: <error>`` for a stopped run).
    """
    try:
        doc = command.run(config, derived, out)
    except tuple(_FAILURES) as exc:
        failures, why = [_FAILURES[type(exc)]], f": {exc}"
        doc = {"error": str(exc)}
        if isinstance(exc, nf.IterationError):
            doc["steps"] = nf.iteration_ledger(exc.states)
    else:
        failures = [name for name, ok in _CHECKS[derived["command"]](doc)
                    if not ok]
        why = ""
    if failures:
        doc["first_failure"] = failures[0]
        print(f"FAIL {failures[0]}{why}", file=sys.stderr)
    path = _output(out, command.report.format(**config))
    _write_json(path, {"config": config, "derived": derived,
                       "pass": not failures, **doc})
    print(f"report: {path}")
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        config = _inputs(args, _load_config(args))
        # where the outputs go is not an input of the run
        out = config.pop("out")
        return _run(_COMMANDS[args.command], config,
                    {"command": args.command}, out)
    except ValueError as exc:
        # a UsageError, or an input the engine rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
