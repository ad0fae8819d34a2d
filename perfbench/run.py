"""lie_kam benchmark: closed-loop CLI workloads, end to end and per layer.

One run (run from the repository root):

    python3 perfbench/run.py --workload normal_form --seed 1 --seconds 35 --trace 0

measures one workload for --seconds and prints, as its last stdout line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. End-to-end times are calibrated seconds: each is
scaled by how fast a fixed calibration loop ran next to it (worker.py,
CALIB_REF_S), because the shared host's speed drifts. The line before it
holds provenance, sample counts, the tail percentile, ``failed_frac``, the
raw wall-clock median and ``host_speed`` (reference calibration time over
the run's median one). Each workload runs in its own child process
(worker.py), so peak memory is per workload.

    python3 perfbench/run.py --collect OUT.json [--workload W]

runs every workload (or W) untraced on seeds 1..RUNS and traced on
seeds 1..TRACED_RUNS, and writes medians, quartiles and the per-layer
table to OUT.json (perfbench/baseline.json was written this way).

    python3 perfbench/run.py --compare OLD.json NEW.json

prints, for each workload and end-to-end metric, old and new medians, their
ratio and a status: WORSE when the new median is worse by more than the
metric's bound, unresolved when either side's run-to-run spread (quartile
distance over median) is wider than the bound and not every new run beats
every old one. Per-layer medians and ratios follow, without a status. It
exits 1 when any metric is WORSE.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
# every run must end within this many seconds
DEADLINE_S = 170.0
# runs per workload in one --collect set
RUNS = 10
TRACED_RUNS = 2
# the benchmark measures the defaults users get
CLEARED_ENV = ("LIE_KAM_BACKEND", "LIE_KAM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crashed worker)."""


def load_spec():
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload, seed, seconds, trace, deadline):
    work_dir = os.path.join(RUN_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--result", result_path,
           "--spans", os.path.join(RUN_DIR, f"spans-{workload}.npz")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def tail(times):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum (percentile 100) when there are
    fewer than eleven samples."""
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n


def measure(workload, seed, seconds, trace):
    """One benchmark run: (result line object, details object)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "lie_kam", "cli.py")):
        raise BenchError("src/lie_kam is missing; run from a full checkout")
    deadline = time.monotonic() + DEADLINE_S
    spec = load_spec()
    res = run_worker(workload, seed, seconds, trace, deadline)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    details = {k: res[k] for k in ("workload", "work_unit", "provenance",
                                   "reference_ok", "errors")}
    details["failed_frac"] = res["failed"] / res["attempted"]
    if trace:
        values = res["metrics"]
        details.update(traced_requests=res["requests"],
                       mismatched=res["mismatched"])
    else:
        times = res["times"]
        if times:
            tail_s, pct = tail(times)
            values = {"request_s_p50": statistics.median(times),
                      "request_s_tail": tail_s,
                      "work_per_s": res["work"] / sum(times)}
        else:
            pct = None
            values = dict.fromkeys(("request_s_p50", "request_s_tail",
                                    "work_per_s"), 0.0)
        values.update(setup_s=statistics.median(res["setup_samples"]),
                      peak_rss_mb=res["peak_rss_mb"])
        wall = res["wall_times"]
        details.update(samples=len(times), tail_percentile=pct,
                       setup_samples=len(res["setup_samples"]),
                       wall_request_s_p50=statistics.median(wall) if wall else None,
                       host_speed=res["host_speed"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    line = {
        "correct": res["failed"] == 0 and res["reference_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return line, details


# -- collect / compare ----------------------------------------------------


def spread_stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(out_path, seconds, workloads):
    spec = load_spec()
    doc = {"run_seconds": seconds, "runs": RUNS, "traced_runs": TRACED_RUNS,
           "workloads": {}}
    for wl in workloads:
        e2e, layers, notes = {}, {}, []
        for seed in range(1, RUNS + 1):
            line, det = measure(wl, seed, seconds, 0)
            notes.append({"seed": seed, "correct": line["correct"],
                          "failed_frac": det["failed_frac"],
                          "samples": det["samples"],
                          "tail_percentile": det["tail_percentile"]})
            for k, v in line["metrics"].items():
                e2e.setdefault(k, []).append(v["value"])
            doc.setdefault("provenance", det["provenance"])
            print(f"{wl} seed {seed}: " + json.dumps(line), flush=True)
        for seed in range(1, TRACED_RUNS + 1):
            line, det = measure(wl, seed, seconds, 1)
            notes.append({"seed": seed, "trace": 1, "correct": line["correct"],
                          "failed_frac": det["failed_frac"]})
            for k, v in line["metrics"].items():
                layers.setdefault(k, []).append(v["value"])
            print(f"{wl} traced seed {seed}: correct {line['correct']}",
                  flush=True)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        doc["workloads"][wl] = {
            "end_to_end": {k: dict(unit=units[k], **spread_stats(v))
                           for k, v in e2e.items()},
            "per_layer": {k: {"unit": units[k], "median": statistics.median(v),
                              "values": v} for k, v in layers.items()},
            "runs": notes,
        }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print_spreads(doc, spec)


def print_spreads(doc, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<16}{'metric':<16}{'median':>12}{'spread':>9}{'bound':>7}")
    for wl, entry in doc["workloads"].items():
        for k, st in entry["end_to_end"].items():
            print(f"{wl:<16}{k:<16}{st['median']:>12.5g}{st['spread']:>9.4f}"
                  f"{bounds[k]:>7.2f}")


def compare(old_path, new_path):
    spec = load_spec()
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"{'workload':<16}{'metric':<16}{'old':>12}{'new':>12}{'new/old':>9}"
          f"  status")
    worse = 0
    for wl in new["workloads"]:
        if wl not in old["workloads"]:
            print(f"{wl:<16}(no old measurement)")
            continue
        for m in spec["end_to_end"]:
            o = old["workloads"][wl]["end_to_end"].get(m["name"])
            n = new["workloads"][wl]["end_to_end"].get(m["name"])
            if o is None or n is None:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (n["median"] - o["median"]) / o["median"]
            if m["better"] == "lower":
                all_better = max(n["values"]) < min(o["values"])
            else:
                all_better = min(n["values"]) > max(o["values"])
            if max(o["spread"], n["spread"]) > m["bound"] and not all_better:
                status = "unresolved"
            elif change > m["bound"]:
                status = "WORSE"
                worse += 1
            else:
                status = "ok"
            print(f"{wl:<16}{m['name']:<16}{o['median']:>12.5g}"
                  f"{n['median']:>12.5g}{n['median'] / o['median']:>9.3f}  {status}")
        # per-layer metrics have no bound; they show where a change acted
        for m in spec["per_layer"]:
            o = old["workloads"][wl]["per_layer"].get(m["name"])
            n = new["workloads"][wl]["per_layer"].get(m["name"])
            if o and n and o["median"]:
                print(f"{wl:<16}{m['name']:<44}{o['median']:>12.5g}"
                      f"{n['median']:>12.5g}{n['median'] / o['median']:>9.3f}")
    return 1 if worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--collect", metavar="OUT.json")
    ap.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    args = ap.parse_args(argv)

    try:
        if args.compare:
            return compare(*args.compare)
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        if args.collect:
            chosen = [args.workload] if args.workload else names
            collect(args.collect, seconds, chosen)
            return 0
        if args.workload not in names or args.seed is None:
            ap.error(f"--workload (one of {', '.join(names)}) and --seed "
                     "are required")
        line, details = measure(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
