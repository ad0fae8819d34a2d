import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import _oracle as oracle
from lie_kam import cli
from lie_kam import normalform as nf
from lie_kam import operators as ops
from lie_kam import presets as pr
from lie_kam import rigidbody as rb
from lie_kam import series as fts
from lie_kam.operators import AlgebraParams

FAST_SIM = ["--T", "2.0", "--h", "0.01"]
COMMANDS = ["simulate", "section", "normalize", "iterate", "bounds", "verify"]


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- simulate -----------------------------------------------------------------


def test_simulate_fig1_ensemble(tmp_path):
    out = tmp_path / "run"
    rc = run(["simulate", "--preset", "fig1", "--n", "3", "--seed", "7",
              *FAST_SIM, "--out", str(out)])
    assert rc == 0
    for i in range(3):
        csv = out / f"fig1_traj{i:03d}.csv"
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "t,M1,M2,M3"
        assert len(lines) > 100
    rep = read_json(out / "fig1_report.json")
    assert rep["pass"] is True
    assert len(rep["trajectories"]) == 3
    assert rep["config"]["preset"] == "fig1"
    assert rep["config"]["seed"] == 7
    for row in rep["trajectories"]:
        assert row["in_band"] is True
        assert row["rho_drift_max"] <= 1e-8


def test_simulate_t_zero_writes_header_only(tmp_path):
    rc = run(["simulate", "--preset", "fig1", "--T", "0",
              "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fig1_traj000.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("# config:")
    assert lines[1] == "t,M1,M2,M3"
    rep = read_json(tmp_path / "fig1_report.json")
    assert rep["trajectories"][0]["rows"] == 0
    assert rep["pass"] is True


def test_simulate_fig2_section(tmp_path):
    rc = run(["simulate", "--preset", "fig2", "--eps", "1.0", "--T", "13.0",
              "--h", "0.01", "--section", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fig2_section000.csv").read_text().splitlines()
    assert lines[1] == "t,X,theta"
    assert len(lines) == 2 + 3  # crossings at t = 0, 2 pi, 4 pi
    rep = read_json(tmp_path / "fig2_report.json")
    assert rep["trajectories"][0]["section_file"] == "fig2_section000.csv"
    assert rep["trajectories"][0]["section_rows"] == 3


def test_section_command_emits_only_sections(tmp_path):
    rc = run(["section", "--preset", "pert1", "--eps", "1e-3", "--T", "13.0",
              "--h", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "pert1_section000.csv").exists()
    assert not (tmp_path / "pert1_traj000.csv").exists()


def test_simulate_usage_errors(tmp_path):
    assert run(["simulate", "--preset", "fig2", "--T", "7",
                "--out", str(tmp_path)]) == 1
    assert run(["simulate", "--preset", "fig1", "--eps", "0.1",
                "--out", str(tmp_path)]) == 1
    assert run(["simulate", "--preset", "fig1", "--n", "0",
                "--out", str(tmp_path)]) == 1
    assert run(["simulate", "--preset", "fig1", "--T", "1.0", "--section",
                "--out", str(tmp_path)]) == 1
    assert run(["simulate", "--preset", "nosuch"]) == 1
    assert run(["simulate", "--bogus"]) == 1
    assert run([]) == 1


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--preset", "pert1", "--eps", "1e-3", "--n", "2",
            "--seed", "3", *FAST_SIM]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    for name in ("pert1_traj000.csv", "pert1_traj001.csv",
                 "pert1_report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _solo_csv(traj, kind, config):
    buf = io.StringIO()
    rb.write_trajectory_csv(buf, traj, kind, config=config)
    return buf.getvalue().encode()


def test_simulate_batch_members_match_solo_runs(tmp_path):
    # the CLI integrates the ensemble as one batch; every member's CSV must
    # carry the bytes of a solo rk4_integrate run from its initial state
    n, seed, h, t_final = 4, 5, 0.01, 1.0
    fig2 = pr.preset_inertia("fig2", eps=1.0)
    cartesian = {
        "fig1": lambda t, y: rb.euler_field(y, pr.preset_inertia("fig1")),
        "fig2": lambda t, y: rb.throbbing_field(y, t, fig2),
    }
    for preset, fieldfn in cartesian.items():
        out = tmp_path / preset
        eps = ["--eps", "1.0"] if preset == "fig2" else []
        assert run(["simulate", "--preset", preset, "--n", str(n),
                    "--seed", str(seed), "--T", str(t_final), "--h", str(h),
                    *eps, "--out", str(out)]) == 0
        inits = rb.sample_sphere(n, 2.0, seed)
        for i in range(n):
            path = out / f"{preset}_traj{i:03d}.csv"
            config = rb.read_trajectory_csv(str(path))[1]
            solo = rb.rk4_integrate(inits[i], fieldfn, h, t_final)
            assert path.read_bytes() == _solo_csv(solo, "cartesian", config)

    out = tmp_path / "pert1"
    assert run(["simulate", "--preset", "pert1", "--eps", "1e-2", "--n",
                str(n), "--seed", str(seed), "--T", str(t_final), "--h",
                str(h), "--out", str(out)]) == 0
    p = AlgebraParams()
    fieldfn = rb.make_reduced_field(p, pr.reduced_drive_series(1e-2))
    rng = np.random.default_rng(seed)
    inits = np.stack([rng.uniform(-0.1, 0.1, size=n),
                      rng.uniform(0.0, 2.0 * math.pi, size=n)], axis=-1)
    for i in range(n):
        path = out / f"pert1_traj{i:03d}.csv"
        config = rb.read_trajectory_csv(str(path))[1]
        solo = rb.rk4_integrate(inits[i], fieldfn, h, t_final)
        solo.y[:, 0] += p.x0
        assert path.read_bytes() == _solo_csv(solo, "reduced", config)


def test_simulate_domain_exit_aborts_members(tmp_path, capsys):
    # at eps = 1 every pert1 member leaves |x| <= x_half before T = 20
    args = ["--preset", "pert1", "--eps", "1.0", "--T", "20", "--n", "3"]
    assert run(["simulate", *args, "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert "trajectory aborted" in err
    assert "conservation failure" not in err
    rep = read_json(tmp_path / "sim" / "pert1_report.json")
    assert rep["pass"] is False
    assert len(rep["trajectories"]) == 3
    for i, row in enumerate(rep["trajectories"]):
        assert row["aborted"] is True
        lines = (tmp_path / "sim" / row["file"]).read_text().splitlines()
        assert len(lines) == 2 + row["rows"]
        assert 1 < row["rows"] < 20001

    assert run(["section", *args, "--out", str(tmp_path / "sec")]) == 2
    rep = read_json(tmp_path / "sec" / "pert1_report.json")
    for row in rep["trajectories"]:
        assert row["aborted"] is True
        assert (tmp_path / "sec" / row["section_file"]).exists()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "fig1", "T": 2.0, "h": 0.01,
                               "n": 2, "seed": 9}))
    rc = run(["simulate", "--config", str(cfg), "--n", "1",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "fig1_report.json")
    # the explicit flag wins over the config file value
    assert rep["config"]["n"] == 1
    assert rep["config"]["seed"] == 9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert run(["simulate", "--config", str(bad)]) == 1
    bad.write_text(json.dumps({"algebra": {"spin": 2}}))
    assert run(["simulate", "--config", str(bad), "--preset", "fig1"]) == 1
    # the box has exactly the keys n_x, l_theta and l_t
    bad.write_text(json.dumps({"truncation": {"pad": 2}}))
    assert run(["normalize", "--config", str(bad), "--eps", "1e-3",
                "--out", str(tmp_path)]) == 1


def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys):
    # --tol is read by normalize, iterate and verify only; --seed by
    # simulate, section, bounds and verify only
    assert run(["simulate", "--preset", "fig1", "--tol", "1e-3",
                "--out", str(tmp_path)]) == 1
    assert run(["normalize", "--eps", "1e-3", "--seed", "1",
                "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1}))
    assert run(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "unknown config keys for bounds: tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_config_keys_are_the_flags(tmp_path, command):
    parser = cli._build_parser()
    flags = set(vars(parser.parse_args([command]))) \
        - {"command", "func", "config", "config_keys"}
    assert ("section" in flags) == (command == "simulate")
    cfg = tmp_path / "cfg.json"
    doc = {key: 1 for key in flags}
    doc.update(algebra={}, truncation={})
    cfg.write_text(json.dumps(doc))
    args = parser.parse_args([command, "--config", str(cfg)])
    assert cli._load_config(args) == doc
    for bad in ({"bogus": 1}, {"config": "x"}, {"func": 1}):
        cfg.write_text(json.dumps(bad))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_non_finite_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"eps": NaN}')
    assert run(["normalize", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "eps" in capsys.readouterr().err
    cfg.write_text('{"algebra": {"rho": Infinity}}')
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "algebra.rho" in capsys.readouterr().err
    # strings pass the JSON load; the value is checked where it is read
    for text in ("nan", "inf", "-inf"):
        cfg.write_text(json.dumps({"eps": text}))
        assert run(["normalize", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "eps" in err and "finite" in err
    cfg.write_text(json.dumps({"preset": "fig1", "h": "nan"}))
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "config key h" in capsys.readouterr().err
    cfg.write_text(json.dumps({"algebra": {"x0": "inf"}}))
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "algebra.x0" in capsys.readouterr().err
    cfg.write_text(json.dumps({"preset": "fig1", "n": "nan"}))
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "config key n" in capsys.readouterr().err


def test_non_finite_flags_rejected(tmp_path, capsys):
    for value in ("nan", "inf", "-inf"):
        assert run(["normalize", f"--eps={value}", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "--eps" in err and "finite" in err
    assert run(["simulate", "--preset", "fig1", "--T", "nan",
                "--out", str(tmp_path)]) == 1
    assert "--T" in capsys.readouterr().err


# -- normalize / iterate ------------------------------------------------------


def test_normalize_snapshot_and_probe(tmp_path):
    rc = run(["normalize", "--eps", "1e-3", "--preset", "pert1",
              "--out", str(tmp_path)])
    assert rc == 0
    snap = read_json(tmp_path / "v_star.json")
    v_star = fts.from_json_dict(snap["series"])
    assert oracle.hermitian_defect(v_star.coeffs) == 0.0
    rep = read_json(tmp_path / "normalize_report.json")
    assert rep["v_star_norm"] > 0.0
    assert abs(rep["v_star_norm"] - fts.majorant_norm(v_star, 0.2)) <= 1e-15
    probe = rep["quadratic_probe"]
    assert probe["pass"] is True
    assert 1.9 <= probe["slope"] <= 2.1
    # the report's tail is the step's own, bit for bit
    params = AlgebraParams()
    res = nf.compute_v_star(pr.preset_drive_series("pert1", 1e-3, params, pr.DEFAULT_TRUNC),
                            ops.generic_curvature(params, pr.DEFAULT_TRUNC), params,
                            dio=pr.default_diophantine(params))
    assert rep["tail_norm"] > 0.0
    assert rep["tail_norm"] == res.tail_norm


def test_normalize_probe_outside_band_fails(tmp_path):
    # at eps 0.2 the remainder is no longer quadratic: slope about 2.17
    rc = run(["normalize", "--eps", "0.2", "--preset", "pert1",
              "--out", str(tmp_path)])
    assert rc == 2
    probe = read_json(tmp_path / "normalize_report.json")["quadratic_probe"]
    assert probe["pass"] is False
    assert abs(probe["slope"] - 2.0) > 0.1
    assert (tmp_path / "v_star.json").exists()


def test_iterate_ledger(tmp_path):
    rc = run(["iterate", "--steps", "3", "--out", str(tmp_path)])
    assert rc == 0
    doc = read_json(tmp_path / "iterate_ledger.json")
    assert doc["pass"] is True
    rows = doc["steps"]
    assert len(rows) == 4
    norms = [row["measured_norm"] for row in rows]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert doc["config"]["steps"] == 3


def test_reported_tails_frozen(tmp_path):
    # the dropped weight that normalize and iterate report, pinned
    assert run(["normalize", "--preset", "pert1", "--eps", "1e-2",
                "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "normalize_report.json")
    assert rep["tail_norm"] == pytest.approx(2.36962248311673e-10, rel=1e-12, abs=0.0)
    assert run(["iterate", "--steps", "3", "--out", str(tmp_path)]) == 0
    rows = read_json(tmp_path / "iterate_ledger.json")["steps"]
    frozen = [0.0, 4.661671377626285e-14, 4.2628575744431104e-12, 1.4036277692729683e-22]
    assert [row["tail_norm"] for row in rows] == pytest.approx(frozen, rel=1e-12, abs=0.0)


def test_iterate_contraction_failure_writes_ledger(tmp_path, capsys):
    # at eps 0.3 step 2 grows the norm: exit 2 with the ledger so far
    rc = run(["iterate", "--eps", "0.3", "--steps", "3", "--out", str(tmp_path)])
    assert rc == 2
    doc = read_json(tmp_path / "iterate_ledger.json")
    assert doc["pass"] is False
    assert "step 2 increased the measured norm" in doc["error"]
    rows = doc["steps"]
    assert [row["i"] for row in rows] == [0, 1]
    assert rows[0]["tail_norm"] == 0.0
    assert rows[1]["tail_norm"] > 0.0
    assert "contraction failure" in capsys.readouterr().err


def test_normal_form_commands_deterministic_bytes(tmp_path):
    # identical argv twice in one process: every report byte-identical
    runs = [
        (["normalize", "--eps", "1e-3"], ("v_star.json", "normalize_report.json")),
        (["iterate", "--steps", "2"], ("iterate_ledger.json",)),
        (["verify", "--trials", "1"], ("verify_report.json",)),
    ]
    for argv, names in runs:
        out = tmp_path / argv[0]
        blobs = []
        for _ in range(2):
            assert run(argv + ["--out", str(out)]) == 0
            blobs.append([(out / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1], argv[0]


# -- bounds / verify ----------------------------------------------------------


def test_bounds_report(tmp_path):
    rc = run(["bounds", "--tau", "1", "--gamma-scan", "50", "--trials", "3",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "bounds_report.json")
    assert abs(rep["gamma_hat"] - 0.1797934391178435) <= 1e-12
    assert rep["margins"]["all_nonnegative"] is True
    assert rep["margins"]["min_margin"] >= 0.0
    assert rep["schedule"]["valid"] is True
    assert rep["schedule"]["eps0_max"] > 0.0


def test_bounds_scans_the_diophantine_block_once(tmp_path):
    # the scan is cached: the preset's gamma and every triple's hypothesis
    # check share one scan of the same (omega, tau, k_scan)
    ops.estimate_diophantine.cache_clear()
    assert run(["bounds", "--trials", "3", "--out", str(tmp_path)]) == 0
    info = ops.estimate_diophantine.cache_info()
    assert info.misses == 1
    assert info.hits == 3


def test_verify_passes_with_one_trial(tmp_path, capsys):
    rc = run(["verify", "--trials", "1", "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "verify_report.json")
    assert rep["pass"] is True
    assert rep["first_failure"] is None
    assert len(rep["identities"]) == 8
    for row in rep["identities"]:
        assert row["trials"] == 1
        assert row["pass"] is True
    out = capsys.readouterr().out
    assert "resonant_idempotent" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("command", ["normalize", "iterate", "bounds", "verify"])
def test_verify_rational_rotation_number_fails(tmp_path, capsys, command):
    # omega = -0.2: every command writes its own report before exiting 2
    report, extra = {
        "normalize": ("normalize_report.json", ["--eps", "1e-3"]),
        "iterate": ("iterate_ledger.json", []),
        "bounds": ("bounds_report.json", ["--trials", "1"]),
        "verify": ("verify_report.json", ["--trials", "1"]),
    }[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": {"x0": 0.6}}))
    rc = run([command, *extra, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    rep = read_json(tmp_path / report)
    assert rep["config"]["command"] == command
    assert rep["config"]["algebra"]["x0"] == 0.6
    assert rep["pass"] is False
    assert rep["first_failure"] == "diophantine"
    err = capsys.readouterr().err
    assert "FAIL diophantine" in err
    assert "(1, 5)" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lie_kam", "verify", "--trials", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
