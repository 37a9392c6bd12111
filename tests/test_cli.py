import csv
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mldid import DgpConfig, amle, load_panel, simulate, write_panel_csv
from mldid.cli import cli
from mldid.estimator import EstimatorConfig, bootstrap_se, estimate_cell, run_mldid
from mldid.exceptions import IllConditionedWarning, MldidError

from _utils import thin_cohort


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    runner = CliRunner()
    result = runner.invoke(cli, [
        "simulate", "--n", "250", "--periods", "4", "--tau", "x1",
        "--seed", "11", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    return out


def run_cli(args):
    return CliRunner().invoke(cli, args, catch_exceptions=False)


def test_simulate_outputs(sim_dir):
    for name in ("panel.csv", "oracle_cells.csv", "oracle_catt.csv",
                 "manifest.json"):
        assert (sim_dir / name).exists()
    panel = load_panel(sim_dir / "panel.csv")
    assert panel.n_units == 250
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 11


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli(["simulate", "--n", "120", "--seed", "3",
                       "--out", str(out)])
        assert res.exit_code == 0
    assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()
    assert (a / "oracle_cells.csv").read_bytes() == (b / "oracle_cells.csv").read_bytes()


@pytest.fixture(scope="module")
def est_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("est")
    result = CliRunner().invoke(cli, [
        "estimate", "--input", str(sim_dir / "panel.csv"),
        "--out", str(out), "--seed", "5", "--fixed-l1", "0.02",
    ])
    assert result.exit_code == 0, result.output
    return out


def test_estimate_outputs(est_dir):
    for name in ("cells.csv", "dynamics.csv", "catt_panel.csv", "blp.csv",
                 "clan.csv", "dr_cells.csv", "event_study.svg",
                 "manifest.json"):
        assert (est_dir / name).exists(), name


def test_estimate_cells_csv_schema(est_dir):
    with open(est_dir / "cells.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"g", "t", "e", "att", "se", "n_treated",
                            "n_control"}
    keys = {(int(r["g"]), int(r["t"])) for r in rows}
    # 6 post + 3 placebo + 3 reference cells for T=4 with three cohorts.
    assert len(keys) == 12
    ref = [r for r in rows if int(r["t"]) == int(r["g"]) - 1]
    assert all(float(r["att"]) == 0.0 for r in ref)


def test_estimate_svg_has_reference_line(est_dir):
    svg = (est_dir / "event_study.svg").read_text()
    assert "<svg" in svg and "stroke-dasharray" in svg


def test_estimate_deterministic_byte_identical(sim_dir, tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        res = run_cli(["estimate", "--input", str(sim_dir / "panel.csv"),
                       "--out", str(out), "--seed", "5", "--fixed-l1", "0.02"])
        assert res.exit_code == 0
        outs.append(out)
    for fname in ("cells.csv", "dynamics.csv", "catt_panel.csv", "blp.csv",
                  "clan.csv", "dr_cells.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_estimate_round_trip_matches_library(sim_dir, est_dir):
    from mldid import EstimatorConfig, run_mldid

    panel = load_panel(sim_dir / "panel.csv")
    run = run_mldid(panel, EstimatorConfig(
        seed=5, fixed_l1=0.02))
    with open(est_dir / "cells.csv", newline="") as fh:
        rows = {(int(r["g"]), int(r["t"])): float(r["att"])
                for r in csv.DictReader(fh)}
    for c in run.cells:
        assert rows[(c.g, c.t)] == pytest.approx(c.att, abs=1e-12)


def test_estimate_rejects_group_one(tmp_path):
    bad = tmp_path / "bad.csv"
    lines = ["id,time,group,y,x_1"]
    for unit, grp in (("a", 1), ("b", 0)):
        for t in range(1, 4):
            lines.append(f"{unit},{t},{grp},{t}.0,0.5")
    bad.write_text("\n".join(lines) + "\n")
    res = CliRunner().invoke(cli, ["estimate", "--input", str(bad),
                                   "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "period 1" in res.output


@pytest.mark.parametrize("header,bad_row,message", [
    ("id,time,group,y,x_1", "b,2", "line 5: too few fields"),
    ("id,time,group,y,x_1", "b,1,,1.0", "line 5: too few fields"),
    ("id,time,group,y,x_1,x_1", "b,2,0,2.0,0.5,0.5", "duplicate column 'x_1'"),
])
def test_estimate_rejects_malformed_rows(tmp_path, header, bad_row, message):
    bad = tmp_path / "bad.csv"
    fill = ",0.5" * (header.count(",") - 3)
    lines = [header]
    for unit, grp in (("a", 0), ("b", 0)):
        for t in range(1, 4):
            lines.append(f"{unit},{t},{grp},{t}.0{fill}")
    lines[4] = bad_row
    bad.write_text("\n".join(lines) + "\n")
    res = CliRunner().invoke(cli, ["estimate", "--input", str(bad),
                                   "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert f"input validation failed: {message}" in res.output


def test_estimate_all_treated_panel_reports_skips(tmp_path):
    rng = np.random.default_rng(0)
    from _utils import make_panel

    panel = make_panel(np.repeat([2, 3, 4], 30), 4,
                       rng.standard_normal((90, 4)),
                       rng.standard_normal((90, 4, 2)))
    path = tmp_path / "allt.csv"
    write_panel_csv(panel, path)
    out = tmp_path / "out"
    res = run_cli(["estimate", "--input", str(path), "--out", str(out),
                   "--fixed-l1", "0.02"])
    assert res.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    skipped = {(s["g"], s["t"]) for s in manifest["skipped_cells"]}
    assert (2, 4) in skipped and (4, 4) in skipped


def test_benchmark_small_run(tmp_path):
    out = tmp_path / "bench"
    res = run_cli([
        "benchmark", "--n", "300", "--reps", "2", "--seed", "9",
        "--fixed-l1", "0.02", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    for name in ("rmse.csv", "blp_avg.csv", "clan.csv", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "rmse.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["n_reps"]) == 2 for r in rows)
    # Identical rerun produces identical bytes.
    out2 = tmp_path / "bench2"
    res2 = run_cli([
        "benchmark", "--n", "300", "--reps", "2", "--seed", "9",
        "--fixed-l1", "0.02", "--out", str(out2),
    ])
    assert res2.exit_code == 0
    assert (out / "rmse.csv").read_bytes() == (out2 / "rmse.csv").read_bytes()


def test_benchmark_manifest_records_threads_and_bootstrap(tmp_path):
    out = tmp_path / "bench"
    res = run_cli(["benchmark", "--n", "200", "--reps", "2", "--seed", "9",
                   "--fixed-l1", "0.02", "--placebo", "false", "--threads", "2",
                   "--bootstrap", "50", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "coverage.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"n_folds": 5, "seed": 9, "fixed_l1": 0.02,
                                  "include_placebo": False, "threads": 2}
    assert manifest["bootstrap"] == 50


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched limit")
def test_benchmark_worker_warnings_reach_the_caller(tmp_path, monkeypatch):
    # A condition limit of 10 makes every balancing-weight solve grow its
    # ridge. The warnings of every repetition reach the caller, prefixed
    # with the repetition and the cell, whether it ran in a worker or not.
    monkeypatch.setattr(amle, "COND_LIMIT", 10.0)
    messages = {}
    for threads in ("1", "2"):
        with pytest.warns(IllConditionedWarning) as caught:
            res = run_cli(["benchmark", "--n", "200", "--reps", "2", "--seed", "9",
                           "--fixed-l1", "0.02", "--placebo", "false",
                           "--threads", threads, "--out", str(tmp_path / threads)])
        assert res.exit_code == 0, res.output
        messages[threads] = sorted(str(w.message) for w in caught)
    assert messages["1"] == messages["2"]
    for rep in (0, 1):
        assert any(m.startswith(f"benchmark repetition {rep}: cell (g=2, t=2): "
                                "balancing-weight system ill conditioned; ridge increased")
                   for m in messages["2"])


@pytest.mark.parametrize("command", ["estimate", "benchmark"])
@pytest.mark.parametrize("replicates", ["1", "10", "49"])
def test_too_few_bootstrap_replicates_is_a_usage_error(command, replicates,
                                                       sim_dir, tmp_path):
    # Rejected before any estimation: no output directory is made.
    out = tmp_path / "out"
    data = (["--input", str(sim_dir / "panel.csv")] if command == "estimate"
            else ["--n", "300", "--reps", "2"])
    res = run_cli([command, *data, "--out", str(out), "--fixed-l1", "0.02",
                   "--bootstrap", replicates])
    assert res.exit_code == 2
    assert "--bootstrap" in res.output and "at least 50" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "benchmark"])
@pytest.mark.parametrize("option, value, message", [
    ("--fixed-l1", "-1", "finite and nonnegative"),
    ("--fixed-l1", "nan", "finite and nonnegative"),
    ("--fixed-l1", "inf", "finite and nonnegative"),
    ("--folds", "1", "x>=2"),
    ("--threads", "0", "x>=1"),
    ("--threads", "-1", "x>=1"),
])
def test_bad_lasso_options_are_usage_errors(command, option, value, message,
                                            sim_dir, tmp_path):
    # Rejected before any estimation: no output directory is made.
    out = tmp_path / "out"
    data = (["--input", str(sim_dir / "panel.csv")] if command == "estimate"
            else ["--n", "300", "--reps", "2"])
    fixed = [] if option == "--fixed-l1" else ["--fixed-l1", "0.02"]
    res = run_cli([command, *data, "--out", str(out), *fixed, option, value])
    assert res.exit_code == 2, res.output
    assert option in res.output and message in res.output
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    (EstimatorConfig(fixed_l1=-1.0), "finite and nonnegative"),
    (EstimatorConfig(fixed_l1=float("nan")), "finite and nonnegative"),
    (EstimatorConfig(fixed_l1=float("inf")), "finite and nonnegative"),
    (EstimatorConfig(n_folds=1), "at least 2 folds"),
    (EstimatorConfig(threads=0), "at least 1 thread"),
    (EstimatorConfig(threads=-1), "at least 1 thread"),
])
@pytest.mark.parametrize("call", [
    lambda panel, config: run_mldid(panel, config),
    lambda panel, config: bootstrap_se(panel, config, 50),
    lambda panel, config: estimate_cell(panel, 2, 2, config),
], ids=["run_mldid", "bootstrap_se", "estimate_cell"])
def test_bad_lasso_options_raise_in_the_library(call, config, message):
    # The library rejects what the CLI rejects as usage errors, instead of
    # returning a run in which every cell is skipped for the same reason.
    panel = simulate(DgpConfig(n_units=200, seed=1)).panel
    with pytest.raises(MldidError, match=message):
        call(panel, config)


def test_bootstrap_off_and_fifty_replicates_accepted(sim_dir, tmp_path):
    for replicates, has_se in (("0", False), ("50", True)):
        out = tmp_path / f"est_{replicates}"
        res = run_cli(["estimate", "--input", str(sim_dir / "panel.csv"),
                       "--out", str(out), "--seed", "5", "--fixed-l1", "0.02",
                       "--placebo", "false", "--bootstrap", replicates])
        assert res.exit_code == 0, res.output
        with open(out / "cells.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["n_control"]) > 0]
        assert rows
        if has_se:
            assert all(np.isfinite(float(r["se"])) for r in rows)
        else:
            assert all(r["se"] == "" for r in rows)
    out = tmp_path / "bench"
    res = run_cli(["benchmark", "--n", "200", "--reps", "1", "--seed", "9",
                   "--fixed-l1", "0.02", "--placebo", "false", "--bootstrap", "50",
                   "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "coverage.csv").exists()


def test_estimate_manifest_counts_replicates_missing_a_cell(tmp_path):
    # A panel on which some bootstrap replicates skip the cells of a thin
    # cohort. Read back from CSV its units are sorted as id strings ("0",
    # "1", "10", ...), so the resamples differ from those of the in-memory
    # panel.
    thin = thin_cohort(simulate(DgpConfig(n_units=120, seed=3)).panel, 4, 4)
    write_panel_csv(thin, tmp_path / "panel.csv")
    out = tmp_path / "est"
    res = run_cli(["estimate", "--input", str(tmp_path / "panel.csv"), "--out", str(out),
                   "--seed", "1", "--fixed-l1", "0.01", "--bootstrap", "50"])
    assert res.exit_code == 0, res.output
    boot = json.loads((out / "manifest.json").read_text())["bootstrap"]
    assert boot["replicates"] == 50 and boot["failed"] == 0
    # The counts of tests/_bootstrap_reference.py on the panel read back.
    assert {(c["g"], c["t"]): c["replicates"] for c in boot["missing_cells"]} == {
        (4, 1): 6, (4, 2): 6, (4, 4): 6}
    assert {d["e"]: d["replicates"] for d in boot["missing_event_times"]} == {
        -3: 6, -2: 6, 0: 6}
    # Each missing cell says why.
    for cell in boot["missing_cells"]:
        assert sum(cell["reasons"].values()) == cell["replicates"]
        assert all(isinstance(why, str) and why for why in cell["reasons"])


def test_heterogeneity_from_exported_tables(sim_dir, est_dir, tmp_path):
    out = tmp_path / "het"
    res = run_cli([
        "heterogeneity", "--input", str(sim_dir / "panel.csv"),
        "--catt", str(est_dir / "catt_panel.csv"), "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    with open(out / "blp.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    targets = {r["target"] for r in rows}
    assert targets == {"catt", "score"}
    assert (out / "clan.csv").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda rows: [rows[0]] + [[r[0], "1.5", *r[2:]] for r in rows[1:]],
     "catt panel line 2: e '1.5' is not an integer"),
    (lambda rows: [r[:3] for r in rows], "catt panel: missing column 'score'"),
    (lambda rows: rows[:3] + [rows[3][:2]] + rows[4:], "catt panel line 4: too few fields"),
    (lambda rows: rows[:2] + [[rows[2][0], rows[2][1], "x", rows[2][3]]] + rows[3:],
     "catt panel line 3: tau_hat 'x' is not a number"),
    (lambda rows: [rows[0] + ["e"]] + [r + ["0"] for r in rows[1:]],
     "catt panel: duplicate column 'e'"),
])
def test_heterogeneity_rejects_malformed_catt_panel(sim_dir, est_dir, tmp_path,
                                                     edit, message):
    with open(est_dir / "catt_panel.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    bad = tmp_path / "catt_panel.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))
    res = CliRunner().invoke(cli, [
        "heterogeneity", "--input", str(sim_dir / "panel.csv"),
        "--catt", str(bad), "--out", str(tmp_path / "het"),
    ])
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert f"input validation failed: {message}" in res.output


@pytest.mark.parametrize("column, value", [("score", "nan"), ("tau_hat", "-inf")])
def test_heterogeneity_rejects_non_finite_effects(sim_dir, est_dir, tmp_path, column, value):
    # A non-finite effect would turn every BLP and CLAN table into NaN.
    with open(est_dir / "catt_panel.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][rows[0].index(column)] = value
    bad = tmp_path / "catt_panel.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "het"
    res = CliRunner().invoke(cli, [
        "heterogeneity", "--input", str(sim_dir / "panel.csv"),
        "--catt", str(bad), "--out", str(out),
    ])
    assert res.exit_code == 2, res.output
    assert f"input validation failed: catt panel line 6: {column} '{value}' is not finite" \
        in res.output
    assert not (out / "blp.csv").exists()


def test_config_file_defaults(tmp_path, sim_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nseed = 5\nfixed-l1 = 0.02\n")
    out = tmp_path / "cfg_out"
    res = run_cli(["--config", str(cfg), "estimate",
                   "--input", str(sim_dir / "panel.csv"), "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["fixed_l1"] == 0.02


def test_env_var_override(tmp_path, sim_dir, monkeypatch):
    out = tmp_path / "env_out"
    runner = CliRunner()
    res = runner.invoke(
        cli,
        ["estimate", "--input", str(sim_dir / "panel.csv"), "--out", str(out)],
        env={"MLDID_ESTIMATE_SEED": "77", "MLDID_ESTIMATE_FIXED_L1": "0.02"},
        auto_envvar_prefix="MLDID",
    )
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 77


def test_estimate_skips_thin_event_time_in_heterogeneity(tmp_path):
    # Cohort 2 cut to 5 units leaves event time 2 with 5 rows, fewer than
    # the 7 a per-event BLP on 5 covariates needs (and than CLAN's 2x4 bins).
    panel = simulate(DgpConfig(n_units=400, seed=3)).panel
    rows = np.flatnonzero(panel.groups != 2)
    rows = np.sort(np.concatenate([rows, np.flatnonzero(panel.groups == 2)[:5]]))
    thin = type(panel)(
        unit_ids=panel.unit_ids[rows], groups=panel.groups[rows],
        n_periods=panel.n_periods, outcomes=panel.outcomes[rows],
        covariates=panel.covariates[rows],
        covariate_names=panel.covariate_names,
    )
    path = tmp_path / "thin.csv"
    write_panel_csv(thin, path)
    out = tmp_path / "out"
    res = run_cli(["estimate", "--input", str(path), "--out", str(out),
                   "--fixed-l1", "0.01"])
    assert res.exit_code == 0, res.output
    for name in ("blp.csv", "clan.csv", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    p = len(panel.covariate_names)
    assert {"table": "blp", "e": 2, "reason": f"5 rows for {p} covariates"} \
        in manifest["skipped_heterogeneity"]
    assert {"table": "clan", "e": 2,
            "reason": "5 rows cannot fill 2x4 bins"} in manifest["skipped_heterogeneity"]
    with open(out / "blp.csv", newline="") as fh:
        blp_rows = list(csv.DictReader(fh))
    assert {r["e"] for r in blp_rows} == {"0", "1", "pooled"}


def test_failing_dr_cell_is_skipped_not_fatal(tmp_path):
    # Cohort 4's x_5 moved far from every control's separates it: every
    # control propensity of its cells sits at the clip bounds, so their DR
    # baseline fails with NoOverlap. MLDID still estimates every cell, and
    # every output is written.
    panel = simulate(DgpConfig(n_units=300, seed=3)).panel
    covariates = panel.covariates.copy()
    cohort = panel.groups == 4
    covariates[cohort, :, 4] = 20 + 0.01 * covariates[cohort, :, 4]
    path = tmp_path / "panel.csv"
    write_panel_csv(type(panel)(
        unit_ids=panel.unit_ids, groups=panel.groups, n_periods=panel.n_periods,
        outcomes=panel.outcomes, covariates=covariates,
        covariate_names=panel.covariate_names), path)
    out = tmp_path / "out"
    res = run_cli(["estimate", "--input", str(path), "--out", str(out),
                   "--fixed-l1", "0.01"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"] + ["manifest.json"]:
        assert (out / name).exists(), name
    assert {"catt_panel.csv", "blp.csv", "clan.csv"} <= set(manifest["outputs"])
    assert manifest["skipped_cells"] == []
    skipped = {(c["g"], c["t"]): c["reason"] for c in manifest["skipped_dr_cells"]}
    assert set(skipped) == {(4, 1), (4, 2), (4, 4)}
    assert all(why == f"cell (g=4, t={t}): every control propensity sits at the clip bounds"
               for (_, t), why in skipped.items())
    with open(out / "dr_cells.csv", newline="") as fh:
        rows = {(int(r["g"]), int(r["t"])): r for r in csv.DictReader(fh)}
    with open(out / "cells.csv", newline="") as fh:
        assert set(rows) == {(int(r["g"]), int(r["t"])) for r in csv.DictReader(fh)}
    for key, row in rows.items():
        assert (row["att"] == "") == (key in skipped), key
        assert row["n_control"] != ""


@pytest.mark.parametrize("command", ["estimate", "benchmark", "heterogeneity"])
@pytest.mark.parametrize("value", ["1", "0", "-1"])
def test_fewer_than_two_k_bins_is_a_usage_error(command, value, sim_dir, est_dir, tmp_path):
    # CLAN compares the least and the most affected bin, so it needs two.
    # Rejected before any estimation: no output directory is made.
    out = tmp_path / "out"
    data = {"estimate": ["--input", str(sim_dir / "panel.csv"), "--fixed-l1", "0.02"],
            "benchmark": ["--n", "300", "--reps", "2", "--fixed-l1", "0.02"],
            "heterogeneity": ["--input", str(sim_dir / "panel.csv"),
                              "--catt", str(est_dir / "catt_panel.csv")]}[command]
    res = run_cli([command, *data, "--out", str(out), "--k-bins", value])
    assert res.exit_code == 2, res.output
    assert "--k-bins" in res.output and "x>=2" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "heterogeneity"])
@pytest.mark.parametrize("value", [";;", "", ",,"])
def test_delimiter_must_be_one_character(command, value, sim_dir, est_dir, tmp_path):
    out = tmp_path / "out"
    data = ["--input", str(sim_dir / "panel.csv")]
    if command == "heterogeneity":
        data += ["--catt", str(est_dir / "catt_panel.csv")]
    res = run_cli([command, *data, "--out", str(out), "--delimiter", value])
    assert res.exit_code == 2, res.output
    assert "--delimiter" in res.output and "single character" in res.output
    assert not out.exists()
