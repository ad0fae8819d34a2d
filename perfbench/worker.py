"""One workload run in its own process: closed loop, one client, in process.

Run by ``run.py``; prints nothing on stdout and writes its result as JSON to
``--result``. Untraced runs time requests and, between them, sample the
import time of lie_kam.cli, and scale both by a calibration loop timed
after each; traced runs alternate an untraced and a
traced request on the same inputs, compare their output files byte for
byte, and turn the spans into per-layer metrics.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import lie_kam  # noqa: E402
import lie_kam.cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError, compare_reference  # noqa: E402

# traced runs always complete this many traced requests, so that the exact
# per-request counts come from the same requests in every run of a seed
MIN_TRACED = 3
REFERENCE_FILE = os.path.join(HERE, "reference.json")
# setup_s is the time a fresh interpreter takes to import lie_kam.cli. It
# is sampled between requests, every SETUP_EVERY_S seconds over the whole
# run, calibrated like the requests, and the median is reported.
SETUP_EVERY_S = 2.0
SETUP_MIN_SAMPLES = 5
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); "
              "t = time.perf_counter(); import lie_kam.cli; "
              "print(repr(time.perf_counter() - t))")
# The speed of a shared host drifts by up to ~30% over seconds to minutes,
# and a run's wall-clock median follows it. So every timed request and
# import is followed by a fixed calibration loop (interpreter work plus
# small numpy ops, the program's own mix), and its time is scaled by
# CALIB_REF_S over the mean of the two calibrations around it: seconds on
# a host whose calibration takes CALIB_REF_S (a 2-core Xeon VM).
CALIB_REF_S = 0.015
_CALIB_DATA = np.random.default_rng(0).random(1600)


def provenance(seed):
    revision = None
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        # a checkout without .git may sit inside another repository
        if rev.returncode == 0 and os.path.samefile(lines[0], ROOT):
            revision = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": lie_kam.BACKEND_NAME,
        "LIE_KAM_BACKEND": os.environ.get("LIE_KAM_BACKEND"),
        "LIE_KAM_THREADS": os.environ.get("LIE_KAM_THREADS"),
        "seed": seed,
    }


class Runner:
    """Runs requests of one workload into scratch output directories."""

    def __init__(self, workload, work_dir, main=None):
        self.workload = workload
        self.work_dir = work_dir
        self.main = main

    def out_dir(self, tag):
        return os.path.join(self.work_dir, tag)

    def run(self, argvs, tag):
        """Run one request; returns (seconds, error message or None)."""
        out = self.out_dir(tag)
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        # look main up on every call, so an installed tracer wraps it
        main = self.main or (lambda a: lie_kam.cli.main(a))
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                for argv in argvs:
                    code = main(argv + ["--out", out])
                    if code != 0:
                        error = f"{argv[0]} exited {code}"
                        break
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
        if error is None:
            try:
                self.workload.check(out, argvs)
            except (CheckError, LookupError, TypeError, ValueError) as exc:
                error = f"output check failed: {exc!r}"
        if error is not None:
            error = f"{error}\n{sink.getvalue()[-2000:]}"
        return elapsed, error


def same_files(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def report_bytes(out):
    return sum(os.path.getsize(os.path.join(out, f))
               for f in os.listdir(out) if f.endswith(".json"))


def run_reference(runner, errors):
    """Untimed warm-up on the fixed reference inputs, checked against the
    numbers recorded for this workload."""
    wl = runner.workload
    _, err = runner.run(wl.reference, "ref")
    if err is None:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            recorded = json.load(fh)[wl.name]
        try:
            problems = compare_reference(
                recorded, wl.scientific(runner.out_dir("ref")))
        except (CheckError, LookupError, TypeError, ValueError) as exc:
            problems = [repr(exc)]
        if problems:
            err = "reference mismatch: " + "; ".join(problems[:5])
    if err is not None:
        errors.append(err)
    return err is None


def import_time():
    """Seconds a fresh interpreter takes to import lie_kam.cli."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing lie_kam.cli failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def calibrate():
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    s, d = 0.0, {}
    for k in range(30000):
        s += (k * 7 % 13) * 0.5
        d[k & 255] = s
    x = _CALIB_DATA[:64].copy()
    for k in range(1500):
        x = np.sin(x) * 0.5 + _CALIB_DATA[k:k + 64]
        s = float(x.sum())
    return time.perf_counter() - t0


def untraced_loop(runner, seed, seconds, errors):
    """Closed loop for --seconds. ``times`` and ``setup_samples`` are
    calibrated seconds (see CALIB_REF_S), ``wall_times`` the raw ones."""
    wl = runner.workload
    times, wall, work, failed, attempted, setup = [], [], 0, 0, 0, []
    calibrations = [calibrate()]

    def calibrated(seconds):
        calibrations.append(calibrate())
        return seconds * 2.0 * CALIB_REF_S / sum(calibrations[-2:])

    t_end = time.perf_counter() + seconds
    next_setup = time.perf_counter()
    i = 0
    while time.perf_counter() < t_end:
        if time.perf_counter() >= next_setup:
            setup.append(calibrated(import_time()))
            next_setup += SETUP_EVERY_S
        argvs = wl.request(seed, i)
        elapsed, err = runner.run(argvs, "req")
        scaled = calibrated(elapsed)
        attempted += 1
        if err is None:
            times.append(scaled)
            wall.append(elapsed)
            work += wl.work(argvs)
        else:
            failed += 1
            errors.append(err)
        i += 1
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(calibrated(import_time()))
    return {"times": times, "wall_times": wall, "work": work,
            "attempted": attempted, "failed": failed, "setup_samples": setup,
            "calibrations": calibrations}


def traced_loop(runner, seed, seconds, errors):
    wl = runner.workload
    tracer = Tracer()
    plain, traced, failed, attempted, mismatched = [], [], 0, 0, 0
    t_end = time.perf_counter() + seconds
    i = 0
    while i < MIN_TRACED or time.perf_counter() < t_end:
        argvs = wl.request(seed, i)
        t_plain, err_plain = runner.run(argvs, "plain")
        tracer.request = i
        tracer.install()
        try:
            t_traced, err_traced = runner.run(argvs, "traced")
        finally:
            tracer.uninstall()
        attempted += 2
        for t, err, sink in ((t_plain, err_plain, plain),
                             (t_traced, err_traced, traced)):
            if err is None:
                sink.append(t)
            else:
                failed += 1
                errors.append(err)
        if err_traced is None:
            tracer.count("cli.report_bytes",
                         report_bytes(runner.out_dir("traced")))
        if err_plain is None and err_traced is None and not same_files(
                runner.out_dir("plain"), runner.out_dir("traced")):
            mismatched += 1
            errors.append(f"request {i}: traced outputs differ from untraced")
        i += 1
    return tracer, {"plain": plain, "traced": traced, "attempted": attempted,
                    "failed": failed, "mismatched": mismatched, "requests": i}


def layer_metrics(tracer, loop):
    """Per-layer metrics: times are medians over traced requests, counts are
    medians of the exact per-request totals of the first MIN_TRACED requests."""
    spans = tracer.per_request()
    under = tracer.count_under("operators.small_divisor_solve",
                               "normalform.compute_v_star")
    requests = sorted(spans)

    def stat(req, name, field):
        calls, incl, slf = spans[req].get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": incl, "self_s": slf}[field]

    def counter(req, name):
        return tracer.counters.get(req, {}).get(name, 0)

    def per_req(fn):
        return [fn(r) for r in requests]

    def time_metric(fn):
        return float(statistics.median(per_req(fn)))

    def count_metric(fn):
        return float(statistics.median(per_req(fn)[:MIN_TRACED]))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("backend.convolve_nonzeros", "series.FourierTaylorSeries",
                 "series.multiply", "series.poisson_bracket",
                 "series.majorant_norm", "operators.homological_derivation",
                 "operators.small_divisor_solve", "rigidbody.rk4_integrate",
                 "rigidbody.field"):
        m[f"{name}.calls"] = count_metric(lambda r, n=name: stat(r, n, "calls"))
    for name in ("backend.convolve_nonzeros", "series.FourierTaylorSeries",
                 "series.multiply", "series.poisson_bracket", "series.add",
                 "series.scale", "series.majorant_norm", "series.to_json_dict",
                 "operators.homological_derivation",
                 "operators.small_divisor_solve",
                 "operators.projection_correction",
                 "operators.hamiltonian_apply",
                 "operators.estimate_diophantine",
                 "normalform.certify_bounds",
                 "normalform.compute_bound_constants",
                 "rigidbody.rk4_integrate", "rigidbody.field",
                 "rigidbody.make_reduced_field",
                 "rigidbody.conservation_report",
                 "rigidbody.write_trajectory_csv",
                 "presets.default_diophantine", "presets.reduced_drive_series",
                 "cli.main"):
        m[f"{name}.self_s"] = time_metric(lambda r, n=name: stat(r, n, "self_s"))
    for name in ("normalform.compute_v_star", "normalform.kam_iterate"):
        m[f"{name}.s"] = time_metric(lambda r, n=name: stat(r, n, "s"))
    m["normalform.compute_v_star.calls"] = count_metric(
        lambda r: stat(r, "normalform.compute_v_star", "calls"))
    for name in ("backend.convolve_nonzeros.pairs", "series.multiply.operand_nnz",
                 "normalform.lie_terms", "rigidbody.member_steps",
                 "rigidbody.write_trajectory_csv.bytes", "cli.report_bytes"):
        m[name] = count_metric(lambda r, n=name: counter(r, n))
    m["normalform.solves_per_lie_term"] = count_metric(
        lambda r: ratio(under.get(r, 0), counter(r, "normalform.lie_terms")))
    m["backend.convolve_nonzeros.ns_per_pair"] = time_metric(
        lambda r: 1e9 * ratio(stat(r, "backend.convolve_nonzeros", "self_s"),
                              counter(r, "backend.convolve_nonzeros.pairs")))
    m["rigidbody.ns_per_member_step"] = time_metric(
        lambda r: 1e9 * ratio(stat(r, "rigidbody.rk4_integrate", "s"),
                              counter(r, "rigidbody.member_steps")))
    m["operators.run_identity_suite.s_per_trial"] = time_metric(
        lambda r: ratio(stat(r, "operators.run_identity_suite", "s"),
                        counter(r, "operators.run_identity_suite.trials")))
    m["trace.overhead_frac"] = (
        statistics.median(loop["traced"]) / statistics.median(loop["plain"])
        - 1.0 if loop["traced"] and loop["plain"] else 0.0)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    runner = Runner(wl, args.work_dir)
    errors = []
    result = {"workload": wl.name, "why": wl.why, "work_unit": wl.work_unit,
              "provenance": provenance(args.seed), "trace": args.trace}
    ref_ok = run_reference(runner, errors)
    if args.trace:
        tracer, loop = traced_loop(runner, args.seed, args.seconds, errors)
        result["metrics"] = layer_metrics(tracer, loop)
        tracer.save(args.spans)
        result.update(attempted=loop["attempted"] + 1,
                      failed=loop["failed"] + loop["mismatched"] + (not ref_ok),
                      requests=loop["requests"], mismatched=loop["mismatched"])
    else:
        loop = untraced_loop(runner, args.seed, args.seconds, errors)
        result.update(times=loop["times"], wall_times=loop["wall_times"],
                      work=loop["work"], setup_samples=loop["setup_samples"],
                      host_speed=CALIB_REF_S / statistics.median(
                          loop["calibrations"]),
                      attempted=loop["attempted"] + 1,
                      failed=loop["failed"] + (not ref_ok),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["reference_ok"] = ref_ok
    result["errors"] = errors[:10]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
