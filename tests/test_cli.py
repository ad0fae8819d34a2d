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


def _section_rows(path):
    """The rows of a section CSV after its ``# config`` line."""
    return path.read_bytes().split(b"\n", 1)[1]


def test_sections_do_not_depend_on_stride(tmp_path):
    rows = []
    for stride in ("1", "10", "500"):
        out = tmp_path / stride
        assert run(["simulate", "--preset", "fig2", "--eps", "1", "--T", "13",
                    "--h", "0.01", "--section", "--stride", stride,
                    "--out", str(out)]) == 0
        rows.append(_section_rows(out / "fig2_section000.csv"))
    assert rows[0].count(b"\n") == 1 + 3
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_sections_agree_with_a_finer_step(tmp_path):
    # RK4 at h = 2e-3 is good to about 2e-13 here, linear interpolation
    # between its steps to about 5e-8; 2 pi is off the grid of both runs
    runs = []
    for h in ("2e-3", "2.5e-4"):
        out = tmp_path / h
        assert run(["section", "--preset", "fig2", "--eps", "1", "--T", "7",
                    "--n", "2", "--h", h, "--out", str(out)]) == 0
        runs.append([rb.read_trajectory_csv(str(path))[0]
                     for path in sorted(out.glob("fig2_section*.csv"))])
    for coarse, fine in zip(*runs):
        assert len(coarse) == len(fine) == 2
        assert np.array_equal(coarse.t, fine.t)
        diff = np.abs(coarse.y - fine.y)
        diff[:, 1] = np.minimum(diff[:, 1], 2.0 * math.pi - diff[:, 1])
        assert np.max(diff) <= 1e-10


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


def test_reduced_chart_drive_limit(tmp_path):
    # pert1 drives 1/I2 = 1/i_perp by eps cos t: at eps 0.6 > 1/2 the
    # inverse moment goes negative, and neither command writes a file
    for command in ("simulate", "section"):
        out = tmp_path / command
        assert run([command, "--preset", "pert1", "--eps", "0.6", "--T", "7",
                    "--out", str(out)]) == 1
        assert not out.exists()
    # the limit is the algebra block's: i_perp 4 allows eps < 1/4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": {"i_perp": 4.0}}))
    assert run(["simulate", "--config", str(cfg), "--preset", "pert1",
                "--eps", "0.3", "--T", "1", "--out", str(tmp_path)]) == 1
    # normalize is formal algebra on the series: no limit there
    assert run(["normalize", "--eps", "0.6", "--out", str(tmp_path)]) == 2


def test_negative_exponent_is_a_flag_value(tmp_path):
    # argparse alone reads `-1e-3` after `--eps` as an unknown option
    for name, eps in (("apart", ["--eps", "-1e-3"]),
                      ("joined", ["--eps=-1e-3"])):
        assert run(["simulate", "--preset", "fig2", *eps, "--T", "1",
                    "--out", str(tmp_path / name)]) == 0
    for name in ("fig2_report.json", "fig2_traj000.csv"):
        assert ((tmp_path / "apart" / name).read_bytes()
                == (tmp_path / "joined" / name).read_bytes())
    assert read_json(tmp_path / "apart" / "fig2_report.json")[
        "config"]["eps"] == -1e-3


def test_reduced_simulate_reports_the_inertia_it_ran(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": {"i_3": 4.0}}))
    assert run(["simulate", "--preset", "pert1", "--eps", "1e-3", "--T", "0.1",
                "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "pert1_report.json")
    assert rep["config"]["algebra"]["i_3"] == 4.0
    assert rep["derived"]["inertia"] == [2.0, 2.0, 4.0]
    assert rep["derived"]["rho"] == 2.0
    # the energy band is the integrated top's: rho^2 / (2 i_3)
    assert rep["trajectories"][0]["band_lo"] == 0.5


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--preset", "pert1", "--eps", "1e-3", "--n", "2",
            "--seed", "3", *FAST_SIM]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    for name in ("pert1_traj000.csv", "pert1_traj001.csv",
                 "pert1_report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _solo_csv(path, traj, kind, config):
    rb.write_trajectory_csv(path, traj, kind, config)
    return path.read_bytes()


def test_simulate_batch_members_match_solo_runs(tmp_path):
    # the CLI integrates the ensemble as one batch; every member's CSV must
    # carry the bytes of a solo rk4_integrate run from its initial state
    n, seed, h, t_final = 4, 5, 0.01, 1.0
    fig2 = pr.preset_inertia("fig2", eps=1.0)
    cartesian = {
        "fig1": lambda t, y: rb.throbbing_field(y, t, pr.preset_inertia("fig1")),
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
            assert path.read_bytes() == _solo_csv(
                tmp_path / "solo.csv", solo, "cartesian", config)

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
        assert path.read_bytes() == _solo_csv(
            tmp_path / "solo.csv", solo, "reduced", config)


def test_simulate_domain_exit_aborts_members(tmp_path, capsys):
    # at eps = 0.4 every pert1 member leaves |x| <= x_half before T = 20
    args = ["--preset", "pert1", "--eps", "0.4", "--T", "20", "--n", "3"]
    assert run(["simulate", *args, "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.splitlines() == ["FAIL aborted"]
    rep = read_json(tmp_path / "sim" / "pert1_report.json")
    assert rep["pass"] is False
    assert rep["first_failure"] == "aborted"
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
    # a block the command does not read is checked all the same
    cfg.write_text('{"algebra": {"rho": NaN}}')
    assert run(["simulate", "--preset", "fig1", "--T", "0.1", "--config",
                str(cfg), "--out", str(tmp_path)]) == 1
    assert "algebra.rho" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"n": 2.7}, "config key n"),
    ({"seed": True}, "config key seed"),
    ({"section": "false"}, "config key section"),
    ({"T": True}, "config key T"),
    ({"truncation": {"n_x": 4.5}}, "config key truncation.n_x"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, doc, key):
    # an int key takes no float and no boolean, a switch only true or false
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "fig1", "T": 0.1, **doc}))
    assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "fig1_report.json").exists()


def test_flag_text_is_checked_like_config_values(tmp_path, capsys):
    for flag, value in (("--n", "2.5"), ("--seed", "-1"), ("--stride", "0")):
        assert run(["simulate", "--preset", "fig1", "--T", "0.1", flag, value,
                    "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: must be")


@pytest.mark.parametrize("argv", [
    ["normalize", "--eps", "1e-3", "--tol", "-1"],
    ["iterate", "--tol", "0"],
    ["verify", "--trials", "1", "--tol", "-1"],
])
def test_tolerance_must_be_positive(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 1
    assert "--tol: must be positive" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": -1e-9}))
    assert run([*argv[:-2], "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "config key tol: must be positive" in capsys.readouterr().err


def test_non_finite_flags_rejected(tmp_path, capsys):
    for value in ("nan", "inf", "-inf"):
        assert run(["normalize", f"--eps={value}", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "--eps" in err and "finite" in err
    assert run(["simulate", "--preset", "fig1", "--T", "nan",
                "--out", str(tmp_path)]) == 1
    assert "--T" in capsys.readouterr().err


# -- replay -------------------------------------------------------------------

SIMULATE = ["simulate", "--preset", "pert1", "--eps", "1e-2", "--n", "2",
            "--T", "0.1", "--stride", "2", "--seed", "3"]
REPLAYS = {
    "simulate": (SIMULATE, "pert1_report.json"),
    "simulate-csv": (SIMULATE, "pert1_traj001.csv"),
    "section": (["section", "--preset", "fig2", "--eps", "1", "--n", "2",
                 "--T", "7"], "fig2_report.json"),
    "normalize": (["normalize", "--eps", "1e-2", "--tol", "1e-11"],
                  "normalize_report.json"),
    "iterate": (["iterate", "--eps", "2e-3", "--steps", "2", "--r", "0.4"],
                "iterate_ledger.json"),
    "bounds": (["bounds", "--trials", "2", "--seed", "4"],
               "bounds_report.json"),
    "verify": (["verify", "--trials", "1", "--seed", "3", "--tol", "1e-8"],
               "verify_report.json"),
}


@pytest.mark.parametrize("case", REPLAYS)
def test_written_config_replays(tmp_path, case):
    # the config a run writes, given back as --config, reproduces every
    # output file byte for byte
    argv, written = REPLAYS[case]
    first, again = tmp_path / "first", tmp_path / "again"
    assert run([*argv, "--out", str(first)]) == 0
    if written.endswith(".csv"):
        config = rb.read_trajectory_csv(str(first / written))[1]
    else:
        config = read_json(first / written)["config"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([argv[0], "--config", str(cfg), "--out", str(again)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


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


@pytest.mark.parametrize("eps, steps", [("1e-3", 6), ("1e-2", 10),
                                        ("0.2", 10)])
def test_iterate_radius_recurrence(tmp_path, eps, steps):
    # each step loses mu_i = r_i / 6 of the radius, bit for bit
    argv = ["iterate", "--eps", eps, "--steps", str(steps)]
    assert run([*argv, "--out", str(tmp_path)]) == 0
    rows = read_json(tmp_path / "iterate_ledger.json")["steps"]
    assert [row["i"] for row in rows] == list(range(steps + 1))
    assert rows[0]["r_i"] == 0.5
    for row, after in zip(rows, rows[1:]):
        assert row["mu_i"] == row["r_i"] / 6.0
        assert after["r_i"] == row["r_i"] - row["mu_i"]
    assert rows[-1]["mu_i"] == rows[-1]["r_i"] / 6.0


def test_iterate_underflowing_square(tmp_path):
    # at eps 1e-3, |V_6|^2 underflows to 0 and V_7 measures 0: the ratio
    # of step 7 reads 0, as for V_6 = 0
    assert run(["iterate", "--steps", "7", "--out", str(tmp_path)]) == 0
    rows = read_json(tmp_path / "iterate_ledger.json")["steps"]
    assert len(rows) == 8
    assert rows[6]["measured_norm"] > 0.0
    assert rows[6]["measured_norm"] ** 2 == 0.0
    assert rows[7]["measured_norm"] == 0.0
    assert rows[7]["contraction_ratio"] == 0.0
    for row, after in zip(rows[:6], rows[1:7]):
        ratio = after["measured_norm"] / row["measured_norm"] ** 2
        assert after["contraction_ratio"] == ratio


def test_iterate_radius_above_budget_is_usage(tmp_path, capsys):
    # the first norm the iteration takes rejects r above r_max
    rc = run(["iterate", "--r", "9", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "exceeds the analyticity budget" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_iterate_contraction_failure_writes_ledger(tmp_path, capsys):
    # at eps 0.3 step 2 grows the norm: exit 2 with the ledger so far
    rc = run(["iterate", "--eps", "0.3", "--steps", "3", "--out", str(tmp_path)])
    assert rc == 2
    doc = read_json(tmp_path / "iterate_ledger.json")
    assert doc["pass"] is False
    assert "step 2 increased the measured norm" in doc["error"]
    rows = doc["steps"]
    assert [row["i"] for row in rows] == [0, 1]
    assert "FAIL contraction" in capsys.readouterr().err


def test_normal_form_report_keys(tmp_path):
    # the exact keys of the normalize report, its probe and each ledger
    # row, of a passing iterate run and of one stopped at step 2
    assert run(["normalize", "--eps", "1e-3", "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "normalize_report.json")
    assert sorted(rep) == ["config", "derived", "pass", "quadratic_probe",
                           "series_terms_used", "v_norm", "v_star_norm"]
    assert sorted(rep["quadratic_probe"]) == ["eps", "eps_half", "norm", "norm_half",
                                              "pass", "ratio", "slope"]
    row_keys = ["contraction_ratio", "i", "measured_norm", "mu_i", "r_i"]
    for argv, rc in ((["--steps", "1"], 0), (["--eps", "0.3", "--steps", "3"], 2)):
        out = tmp_path / f"iterate{rc}"
        assert run(["iterate", *argv, "--out", str(out)]) == rc
        rows = read_json(out / "iterate_ledger.json")["steps"]
        assert [sorted(row) for row in rows] == [row_keys] * 2


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


def _json_dump_bytes(doc, path):
    # what _write_json promises: json's own output and a newline
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=lambda o: o.item())
        fh.write("\n")
    return path.read_bytes()


def _edge_series():
    # signed zeros, the smallest subnormal, huge and tiny magnitudes and
    # values that need 17 significant digits
    trunc = pr.DEFAULT_TRUNC
    terms = [(0, 0, 0, 1e300), (0, 0, 1, 5e-324), (0, 1, 0, 1e-300j),
             (0, 2, 3, 0.1 + 0.2), (1, -3, 2, 1 / 3),
             (2, 0, 0, complex(-1e300, 2.0 ** -1074)),
             (3, 4, 5, complex(-5e-324, 1.0000000000000002)),
             (1, 1, 1, complex(-1.2345678901234567e-5, -1e-300))]
    c = np.array(fts.from_real_terms(terms, trunc, 2.0).coeffs)
    # sums of terms lose the sign of a zero part, so set those directly
    for (l, m, n), v in {(1, 2, 0): complex(-0.0, 2.5),
                         (2, -1, 1): complex(7.0, -0.0)}.items():
        c[trunc.l_t + l, trunc.l_theta + m, n] = v
        c[trunc.l_t - l, trunc.l_theta - m, n] = v.conjugate()
    return fts.FourierTaylorSeries(c, trunc, 2.0)


def _writer_cases():
    trunc = pr.DEFAULT_TRUNC
    rng = np.random.default_rng(23)
    series = [fts.random_real_series(trunc, 2.0, rng, n_terms=n)
              for n in (1, 30, 200)]
    series += [fts.zeros(trunc, 2.0), _edge_series()]
    config = {"preset": "pert1", "eps": 3e-3, "algebra": {"rho": 2.0},
              "truncation": {"n_x": 6}}
    derived = {"command": "normalize", "gamma": np.float64(0.1) + 0.2,
               "count": np.int64(7)}
    for s in series:
        yield {"config": config, "derived": derived,
               "series": fts.to_json_dict(s)}
    yield {"config": config, "derived": derived, "pass": True,
           "rows": [{"re": 1e-300, "im": -0.0}], "none": None}


def test_write_json_is_json_dump_byte_for_byte(tmp_path):
    docs = list(_writer_cases())
    assert docs[3]["series"]["coeffs"] == []
    assert len(docs[4]["series"]["coeffs"]) == 10
    for i, doc in enumerate(docs):
        path = tmp_path / f"fast{i}.json"
        cli._write_json(path, doc)
        assert path.read_bytes() == _json_dump_bytes(
            doc, tmp_path / f"json{i}.json"), i
    # rows are written with float.__repr__, which spells NaN "nan" where
    # json writes "NaN": no series holds a value that is not finite (see
    # also test_series.py's non-finite tests)
    with pytest.raises(ValueError, match="finite"):
        fts.from_real_terms([(1, 0, 0, complex(1.0, math.nan))],
                            pr.DEFAULT_TRUNC, 2.0)


def test_parser_is_built_once(tmp_path, capsys):
    cli._build_parser.cache_clear()
    alone = tmp_path / "alone"
    argv = ["normalize", "--eps", "1e-3", "--out"]
    assert run(argv + [str(alone)]) == 0
    assert cli._build_parser() is cli._build_parser()
    # a usage error leaves the shared parser as it was
    assert run(["normalize", "--bogus", "--out", str(tmp_path / "bad")]) == 1
    assert "--bogus" in capsys.readouterr().err
    after = tmp_path / "after"
    assert run(argv + [str(after)]) == 0
    for name in ("v_star.json", "normalize_report.json"):
        assert (after / name).read_bytes() == (alone / name).read_bytes()
    assert not (tmp_path / "bad").exists()


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
    assert "first_failure" not in rep
    assert len(rep["identities"]) == 8
    for row in rep["identities"]:
        assert row["trials"] == 1
        assert row["pass"] is True
    out = capsys.readouterr().out
    assert "resonant_idempotent" in out
    assert "FAIL" not in out


def _no_non_finite_token(path):
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text


def test_non_finite_residual_fails_its_row(tmp_path, monkeypatch, capsys):
    # max() would drop a NaN residual; the suite keeps it and the row fails
    monkeypatch.setattr(ops, "_l1", lambda s: math.nan)
    assert run(["verify", "--trials", "1", "--out", str(tmp_path)]) == 2
    path = tmp_path / "verify_report.json"
    _no_non_finite_token(path)
    rep = read_json(path)
    assert rep["pass"] is False
    assert rep["first_failure"] == "resonant_idempotent"
    for row in rep["identities"]:
        assert row["pass"] is False and row["max_residual"] is None, row
    assert rep["margins"]["pass"] is True
    assert capsys.readouterr().err.splitlines() == ["FAIL resonant_idempotent"]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_margin_fails(tmp_path, monkeypatch, bad):
    # min() would drop a NaN margin; a margin that is not finite fails
    certify = nf.certify_bounds

    def certify_with_bad_margin(*args, **kwargs):
        rep = certify(*args, **kwargs)
        rep["bounds"]["solvable"]["margin"] = bad
        return rep

    monkeypatch.setattr(nf, "certify_bounds", certify_with_bad_margin)
    assert run(["bounds", "--trials", "1", "--out", str(tmp_path)]) == 2
    _no_non_finite_token(tmp_path / "bounds_report.json")
    rep = read_json(tmp_path / "bounds_report.json")
    assert rep["margins"]["min_margin"] is None
    assert rep["margins"]["all_nonnegative"] is False
    assert rep["first_failure"] == "bound_margins"
    assert run(["verify", "--trials", "1", "--out", str(tmp_path)]) == 2
    _no_non_finite_token(tmp_path / "verify_report.json")
    rep = read_json(tmp_path / "verify_report.json")
    assert rep["first_failure"] == "bound_margins"
    assert rep["margins"] == {"trials": 5, "checked": 15, "min_margin": None,
                              "pass": False}


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
    assert rep["derived"]["command"] == command
    assert rep["config"]["algebra"]["x0"] == 0.6
    assert rep["pass"] is False
    assert rep["first_failure"] == "diophantine"
    err = capsys.readouterr().err
    assert "FAIL diophantine" in err
    assert "(1, 5)" in err


# runs the engine stops: argv, report, first_failure
STOPPED = {
    "normalize-divergence": (["normalize", "--eps", "2"],
                             "normalize_report.json", "divergence"),
    "iterate-divergence": (["iterate", "--eps", "5", "--steps", "2"],
                           "iterate_ledger.json", "divergence"),
    "verify-hypothesis": (["verify", "--trials", "1", "--q", "0.99"],
                          "verify_report.json", "hypothesis"),
    "bounds-hypothesis": (["bounds", "--trials", "1", "--q", "0.99"],
                          "bounds_report.json", "hypothesis"),
    "iterate-contraction": (["iterate", "--eps", "0.3", "--steps", "3"],
                            "iterate_ledger.json", "contraction"),
    "normalize-overflow": (["normalize", "--eps", "1e150"],
                           "normalize_report.json", "overflow"),
}


@pytest.mark.parametrize("case", STOPPED)
def test_stopped_run_writes_a_report_that_replays(tmp_path, capsys, case):
    # exit 2 with the report so far, whose config gives the same report
    # (an overflow runs here under pytest's error::RuntimeWarning filter)
    argv, name, failure = STOPPED[case]
    first, again = tmp_path / "first", tmp_path / "again"
    assert run([*argv, "--out", str(first)]) == 2
    rep = read_json(first / name)
    assert rep["pass"] is False
    assert rep["first_failure"] == failure
    assert rep["error"]
    # one stderr line, naming the failure and its error
    assert capsys.readouterr().err.splitlines() == [
        f"FAIL {failure}: {rep['error']}"]
    if failure == "contraction":
        assert [row["i"] for row in rep["steps"]] == [0, 1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(rep["config"]))
    assert run([argv[0], "--config", str(cfg), "--out", str(again)]) == 2
    assert (again / name).read_bytes() == (first / name).read_bytes()


def _out_of_band(traj, inertia, report=rb.conservation_report):
    return dict(report(traj, inertia), in_band=False)


# finished runs that fail a check: argv, report, first_failure, and a
# stand-in for the conservation report
FAILED_CHECKS = {
    "simulate-aborted": (["simulate", "--preset", "pert1", "--eps", "0.4",
                          "--T", "20", "--n", "3"],
                         "pert1_report.json", "aborted", None),
    "section-conservation": (["section", "--preset", "fig2", "--eps", "1",
                              "--T", "7", "--h", "0.01"],
                             "fig2_report.json", "conservation", _out_of_band),
    "normalize-quadratic-probe": (["normalize", "--eps", "0.5"],
                                  "normalize_report.json", "quadratic_probe",
                                  None),
    "bounds-schedule": (["bounds", "--trials", "2", "--tau", "0.01"],
                        "bounds_report.json", "schedule", None),
}


@pytest.mark.parametrize("case", FAILED_CHECKS)
def test_failed_check_is_named(tmp_path, monkeypatch, capsys, case):
    argv, name, failure, report = FAILED_CHECKS[case]
    if report is not None:
        monkeypatch.setattr(rb, "conservation_report", report)
    assert run([*argv, "--out", str(tmp_path)]) == 2
    rep = read_json(tmp_path / name)
    assert rep["pass"] is False
    assert rep["first_failure"] == failure
    # the first check of the command's table that the report fails
    assert [n for n, ok in cli._CHECKS[argv[0]](rep) if not ok][0] == failure
    assert capsys.readouterr().err.splitlines() == [f"FAIL {failure}"]


def test_every_report_has_a_top_level_pass(tmp_path, capsys):
    # a passing report of each command has "pass": true and no first_failure
    runs = {
        "pert1_report.json": ["simulate", "--preset", "pert1", "--eps", "1e-2",
                              "--T", "0.1"],
        "fig2_report.json": ["section", "--preset", "fig2", "--eps", "1",
                             "--T", "7", "--h", "0.01"],
        "normalize_report.json": ["normalize", "--eps", "1e-3"],
        "iterate_ledger.json": ["iterate", "--steps", "1"],
        "bounds_report.json": ["bounds", "--trials", "1"],
        "verify_report.json": ["verify", "--trials", "1"],
    }
    assert sorted(argv[0] for argv in runs.values()) == sorted(COMMANDS)
    for name, argv in runs.items():
        assert run([*argv, "--out", str(tmp_path)]) == 0, argv
        rep = read_json(tmp_path / name)
        assert rep["pass"] is True, name
        assert "first_failure" not in rep, name
    assert "FAIL" not in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lie_kam", "verify", "--trials", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
