"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench``.

Each workload runs once untraced and once traced for a second of
requests; the tests check the metric names and units, that failures are
counted, and that tracing leaves the user-visible outputs unchanged.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

import worker  # puts src/ on sys.path
import lie_kam.cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def work_dir():
    path = os.path.join(ROOT, ".perfbench_run", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    details, line = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, details["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 2
    assert details["failed_frac"] == 0.0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    for v in line["metrics"].values():
        assert isinstance(v["value"], float)


def test_nonzero_exit_counts_as_failed(work_dir):
    runner = worker.Runner(WORKLOADS["identity_suite"], work_dir,
                           main=lambda argv: 2)
    errors = []
    loop = worker.untraced_loop(runner, seed=1, seconds=0.01, errors=errors)
    assert loop["attempted"] >= 1
    assert loop["failed"] == loop["attempted"]
    assert loop["times"] == [] and "exited 2" in errors[0]


def _flip_pass(doc):
    doc["identities"][3]["pass"] = False


def _drop_margins(doc):
    del doc["margins"]


@pytest.mark.parametrize("corrupt", [_flip_pass, _drop_margins, None])
def test_corrupted_report_counts_as_failed(corrupt, work_dir):
    def corrupting_main(argv):
        code = lie_kam.cli.main(argv)
        path = os.path.join(argv[argv.index("--out") + 1], "verify_report.json")
        if corrupt is None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{truncated")
            return code
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        corrupt(doc)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return code

    runner = worker.Runner(WORKLOADS["identity_suite"], work_dir,
                           main=corrupting_main)
    errors = []
    loop = worker.untraced_loop(runner, seed=1, seconds=0.01, errors=errors)
    assert loop["attempted"] >= 1
    assert loop["failed"] == loop["attempted"]
    assert "output check failed" in errors[0]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_outputs_are_byte_identical(workload, work_dir):
    wl = WORKLOADS[workload]
    runner = worker.Runner(wl, work_dir)
    argvs = wl.request(7, 0)
    _, err = runner.run(argvs, "plain")
    assert err is None
    tracer = Tracer()
    tracer.request = 0
    tracer.install()
    try:
        _, err = runner.run(argvs, "traced")
    finally:
        tracer.uninstall()
    assert err is None
    assert tracer.per_request()[0]["cli.main"][0] == len(argvs)
    assert worker.same_files(runner.out_dir("plain"), runner.out_dir("traced"))
    assert lie_kam.cli.main is worker.lie_kam.cli.main
    assert not hasattr(lie_kam.cli.main, "__wrapped__")
