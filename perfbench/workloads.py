"""The closed-loop CLI workloads, their output checks and reference numbers.

Every workload has one client that calls ``lie_kam.cli.main(argv)`` in
process, one request after another. A request's argv comes only from the
workload seed and the request index; the program sees nothing else. All
requests use ``DEFAULT_TRUNC`` and the default tau / q / gamma scan.

Drive amplitudes follow a golden-ratio sequence started at a seeded
offset: each amplitude is still log-uniform over its range,
but any prefix of requests covers the range evenly, so the median request
time of a run does not depend on how a few random draws fell.
"""
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# reference numbers must match the values recorded at the benchmark's
# first commit within this relative tolerance; quantities that are rounding
# noise there (identity residuals, Casimir drift) also get an absolute floor
REF_RTOL = 1e-4
REF_NOISE_ATOL = 1e-13


class CheckError(Exception):
    """A request's outputs violate the workload's invariants."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    # work(argvs) -> units of work in one request, fixed by its inputs
    work: Callable
    # request(seed, i) -> list of argv lists (without --out)
    request: Callable
    reference: list
    # check(out_dir, argvs) raises CheckError
    check: Callable
    # scientific(out_dir) -> {"values": {...}, "noise": {...}}
    scientific: Callable


def _uniform(seed: int, i: int) -> float:
    u0 = np.random.default_rng([seed, 0]).random()
    return (u0 + i * _GOLDEN) % 1.0


def _request_seed(seed: int, i: int) -> str:
    return str(int(np.random.default_rng([seed, 1, i]).integers(0, 2 ** 31)))


def _log_eps(seed: int, i: int) -> str:
    return f"{10.0 ** (-3.0 + _uniform(seed, i)):.6g}"


def _load(out_dir, name):
    path = os.path.join(out_dir, name)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{name}: unreadable report ({exc})")


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _csv_rows(path):
    """Data rows of a trajectory CSV (comment and header lines skipped)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
    except OSError as exc:
        raise CheckError(f"unreadable CSV ({exc})")
    _require(len(lines) >= 2 and lines[0].startswith("# config:"),
             f"{os.path.basename(path)}: missing config or header line")
    return [[float(v) for v in ln.split(",")] for ln in lines[2:]]


def _flag(argv, name):
    return argv[argv.index(name) + 1]


# -- normal_form ------------------------------------------------------------


def _normal_form_request(seed, i):
    eps = _log_eps(seed, i)
    return [["normalize", "--preset", "pert1", "--eps", eps],
            ["iterate", "--preset", "pert1", "--eps", eps, "--steps", "3"]]


def _normal_form_check(out_dir, argvs):
    rep = _load(out_dir, "normalize_report.json")
    probe = rep.get("quadratic_probe", {})
    _require(probe.get("pass") is True, "normalize: quadratic probe failed")
    _require(1.5 <= probe.get("slope", 0.0) <= 2.5,
             f"normalize: slope {probe.get('slope')} outside [1.5, 2.5]")
    _require(rep.get("series_terms_used", 0) >= 1, "normalize: no Lie terms")
    _require("series" in _load(out_dir, "v_star.json"), "v_star.json: no series")
    ledger = _load(out_dir, "iterate_ledger.json")
    _require(ledger.get("pass") is True, "iterate: ledger failed")
    steps = int(_flag(argvs[1], "--steps"))
    _require(len(ledger.get("steps", [])) == steps + 1,
             "iterate: wrong number of ledger rows")
    for row in ledger["steps"]:
        ratio = row["contraction_ratio"]
        _require(ratio is None or ratio <= 10.0,
                 f"iterate: contraction ratio {ratio} above 10 at step {row['i']}")


def _normal_form_scientific(out_dir):
    rep = _load(out_dir, "normalize_report.json")
    ledger = _load(out_dir, "iterate_ledger.json")
    values = {
        "v_norm": rep["v_norm"],
        "v_star_norm": rep["v_star_norm"],
        "v_star_norm_half": rep["quadratic_probe"]["norm_half"],
        "series_terms_used": rep["series_terms_used"],
    }
    for row in ledger["steps"]:
        values[f"ledger_norm_{row['i']}"] = row["measured_norm"]
    return {"values": values, "noise": {}}


# -- identity_suite ---------------------------------------------------------


def _identity_request(seed, i):
    return [["verify", "--trials", "5", "--seed", _request_seed(seed, i)]]


def _identity_check(out_dir, argvs):
    rep = _load(out_dir, "verify_report.json")
    _require(rep.get("pass") is True,
             f"verify: failed at {rep.get('first_failure')}")
    rows = rep.get("identities", [])
    _require(len(rows) == 8, "verify: expected 8 identities")
    for row in rows:
        _require(row["pass"] is True, f"verify: {row['identity']} failed")
    _require(rep.get("margins", {}).get("pass") is True,
             "verify: bound margins failed")


def _identity_scientific(out_dir):
    rep = _load(out_dir, "verify_report.json")
    noise = {f"residual_{row['identity']}": row["max_residual"]
             for row in rep["identities"]}
    values = {"gamma_hat": rep["gamma_hat"],
              "min_margin": rep["margins"]["min_margin"]}
    return {"values": values, "noise": noise}


# -- reduced_chart ------------------------------------------------------------


def _reduced_request(seed, i):
    return [["simulate", "--preset", "pert1", "--eps", _log_eps(seed, i),
             "--n", "4", "--T", "0.5", "--h", "0.001",
             "--seed", _request_seed(seed, i)]]


def _reduced_steps(argv):
    """RK4 steps per member: round(T / h)."""
    return int(round(float(_flag(argv, "--T")) / float(_flag(argv, "--h"))))


def _reduced_check(out_dir, argvs):
    argv = argvs[0]
    rep = _load(out_dir, "pert1_report.json")
    _require(rep.get("pass") is True, "simulate: report pass flag is false")
    _require(rep["config"]["h"] == float(_flag(argv, "--h")),
             f"simulate: report step {rep['config']['h']} is not --h")
    rows = rep.get("trajectories", [])
    _require(len(rows) == int(_flag(argv, "--n")),
             "simulate: wrong number of members")
    expected = _reduced_steps(argv) + 1
    for k, row in enumerate(rows):
        _require(row["in_band"] is True, f"member {k} left the energy band")
        _require(row["aborted"] is False, f"member {k} aborted")
        _require(row["rows"] == expected,
                 f"member {k}: {row['rows']} rows, expected {expected}")
        rows_k = _csv_rows(os.path.join(out_dir, row["file"]))
        _require(len(rows_k) == expected, f"member {k}: trajectory CSV row count")


def _reduced_scientific(out_dir):
    rep = _load(out_dir, "pert1_report.json")
    values, noise = {}, {}
    for k, row in enumerate(rep["trajectories"]):
        noise[f"rho_drift_{k}"] = row["rho_drift_max"]
        for key in ("x_min", "x_max", "energy_max"):
            values[f"{key}_{k}"] = row[key]
        last = _csv_rows(os.path.join(out_dir, row["file"]))[-1]
        values[f"final_X_{k}"] = last[1]
        values[f"final_theta_{k}"] = last[2]
    return {"values": values, "noise": noise}


WORKLOADS = {
    "normal_form": Workload(
        name="normal_form",
        # Lie-series sums on a V_* that is dense after the first step
        # (~867 nonzeros); the product kernel is ~70% of self time and
        # rigidbody is not used. ROADMAP items 2 and 3 show up here.
        why="pert1 normalize + 3-step iterate, eps log-uniform in [1e-3, 1e-2]: "
            "dense Lie-series sums dominated by the product kernel; no rigidbody",
        work_unit="conjugation steps (2 in normalize, 3 in iterate)",
        work=lambda argvs: 2 + int(_flag(argvs[1], "--steps")),
        request=_normal_form_request,
        reference=[["normalize", "--preset", "pert1", "--eps", "0.01"],
                   ["iterate", "--preset", "pert1", "--eps", "0.01",
                    "--steps", "3"]],
        check=_normal_form_check,
        scientific=_normal_form_scientific,
    ),
    "identity_suite": Workload(
        name="identity_suite",
        # thousands of ops on sparse 30-term series: object construction
        # (eager hermitian defect + reality guard) is ~30% and the kernel is
        # small, so a kernel-only gain barely moves it and a per-object
        # overhead gain moves it most
        why="verify --trials 5: many ops on sparse 30-term series, dominated by "
            "per-object overhead rather than the kernel",
        work_unit="identity-suite trials",
        work=lambda argvs: int(_flag(argvs[0], "--trials")),
        request=_identity_request,
        reference=[["verify", "--trials", "5", "--seed", "0"]],
        check=_identity_check,
        scientific=_identity_scientific,
    ),
    "reduced_chart": Workload(
        name="reduced_chart",
        # rk4_integrate over a 4-member ensemble on the field compiled from a
        # series drive: the per-term loop in _compile_terms is ~85% and the
        # request writes trajectory CSVs. ROADMAP item 4 (batching) and any
        # field change show up here; no Lie series is summed.
        why="pert1 simulate, 4 members, T 0.5, eps log-uniform in [1e-3, 1e-2]: "
            "RK4 ensemble on the series-compiled reduced field plus trajectory CSV "
            "output",
        work_unit="RK4 member-steps (--n members x round(T/h) steps)",
        work=lambda argvs: int(_flag(argvs[0], "--n")) * _reduced_steps(argvs[0]),
        request=_reduced_request,
        reference=[["simulate", "--preset", "pert1", "--eps", "0.01", "--n", "4",
                    "--T", "0.5", "--h", "0.001", "--seed", "0"]],
        check=_reduced_check,
        scientific=_reduced_scientific,
    ),
}


def compare_reference(recorded: dict, measured: dict) -> list:
    """Mismatches between recorded and measured reference numbers."""
    problems = []
    for kind, atol in (("values", 0.0), ("noise", REF_NOISE_ATOL)):
        want, got = recorded[kind], measured[kind]
        if set(want) != set(got):
            problems.append(f"{kind}: keys differ")
            continue
        for key, old in want.items():
            new = got[key]
            if not abs(new - old) <= REF_RTOL * abs(old) + atol:
                problems.append(f"{key}: {new!r} vs recorded {old!r}")
    return problems
