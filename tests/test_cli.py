import csv
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_equal

from mldid import DgpConfig, amle, load_panel, simulate, write_panel_csv
from mldid.cli import _benchmark_rep, _heterogeneity_results, cli
from mldid.estimator import (EstimatorConfig, bootstrap_se, estimate_cell, multiplier_se,
                             run_mldid)
from mldid.exceptions import IllConditionedWarning, MldidError
from mldid.report import write_catt_panel_csv

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


def test_benchmark_blp_avg_leaves_exact_fits_without_a_significance_share(tmp_path):
    # Event time 2 is served by one cell, so tau-hat is linear in x there and
    # the catt BLP is an exact fit in every repetition: SE ~1e-16, p NaN.
    # Such a row's share of p-values below 0.05 is empty, not 0.
    out = tmp_path / "bench"
    res = run_cli(["benchmark", "--n", "300", "--reps", "3", "--seed", "9",
                   "--fixed-l1", "0.02", "--out", str(out)])
    assert res.exit_code == 0, res.output
    with open(out / "blp_avg.csv", newline="") as fh:
        rows = {(r["target"], r["e"], r["covariate"]): r for r in csv.DictReader(fh)}
    row = rows[("catt", "2", "x_1")]
    assert float(row["avg_coef"]) == pytest.approx(2.924862965449211, rel=1e-12)
    assert float(row["avg_se"]) < 1e-12 and row["sig_frac_5pct"] == ""
    # The noisy score target keeps its p-values and its share.
    assert all(r["sig_frac_5pct"] != "" for key, r in rows.items() if key[0] == "score")
    assert rows[("score", "0", "x_1")]["sig_frac_5pct"] == "1.0"


def test_benchmark_record_is_the_run_its_bootstrap_and_its_tables():
    # A repetition's record is simulate -> run_mldid -> multiplier_se ->
    # _heterogeneity_results at the draw's seed, whatever the config's seed,
    # with the oracle target read from OraclePanel.oracle_catt.
    dgp = DgpConfig(n_units=300, seed=9)
    record = _benchmark_rep((dgp, EstimatorConfig(seed=1, fixed_l1=0.02), 4, 50))

    oracle = simulate(dgp)
    run = run_mldid(oracle.panel, EstimatorConfig(seed=9, fixed_l1=0.02))
    se = multiplier_se(oracle.panel, run, 50, 9).cell_se
    dr = {(d.g, d.t): d.att_dr for d in run.dr_cells}
    assert record["cells"] == {
        (c.g, c.t): (c.att, dr[(c.g, c.t)], oracle.oracle_att(c.g, c.t), se[(c.g, c.t)])
        for c in run.cells if not c.is_reference}
    truth = {(int(row), e): value for e, (rows, values) in oracle.oracle_catt().items()
             for row, value in zip(rows, values)}
    cp = run.catt_panel
    blps, clans, _ = _heterogeneity_results(
        cp, 4, np.array([truth[(int(u), int(e))] for u, e in zip(cp.unit_ids, cp.e)]))
    assert {target for target, *_ in record["blp"]} == {"catt", "score", "oracle"}
    # An exact fit (the catt target at this penalty) has NaN t and p, which
    # assert_equal matches.
    assert_equal(record["blp"], [(r.target, c.e, c.covariate, c.coef, c.se, c.p)
                                 for r in blps if r.mode == "per-event" for c in r.coefficients])
    assert_equal(record["clan"], [(r.target, r.e, row.covariate, row.delta_low, row.delta_high,
                                   row.diff, row.ci_low, row.ci_high)
                                  for r in clans for row in r.rows])


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


def test_benchmark_warnings_name_the_command(tmp_path, monkeypatch):
    # Re-raised repetition warnings point into mldid's benchmark command,
    # not into click, which is what called it.
    monkeypatch.setattr(amle, "COND_LIMIT", 10.0)
    with pytest.warns(IllConditionedWarning) as caught:
        res = run_cli(["benchmark", "--n", "200", "--reps", "1", "--seed", "9",
                       "--fixed-l1", "0.02", "--placebo", "false",
                       "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert {Path(w.filename).name for w in caught} == {"cli.py"}
    assert {Path(w.filename).parent.name for w in caught} == {"mldid"}


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


@pytest.mark.parametrize("option, value, message, command", [
    *[(option, value, message, command)
      for option, value, message in [
          ("--fixed-l1", "-1", "finite and nonnegative"),
          ("--fixed-l1", "nan", "finite and nonnegative"),
          ("--fixed-l1", "inf", "finite and nonnegative"),
          ("--folds", "1", "x>=2"),
          ("--threads", "0", "x>=1"),
          ("--threads", "-1", "x>=1"),
      ]
      for command in ("estimate", "benchmark")],
    # Panels the simulation cannot draw, and benchmarks of no repetition.
    ("--n", "5", "x>=10", "simulate"),
    ("--n", "5", "x>=10", "benchmark"),
    ("--periods", "1", "x>=2", "simulate"),
    ("--periods", "1", "x>=2", "benchmark"),
    ("--reps", "0", "x>=1", "benchmark"),
    ("--reps", "-2", "x>=1", "benchmark"),
])
def test_bad_lasso_options_are_usage_errors(option, value, message, command,
                                            sim_dir, tmp_path):
    # Rejected before any estimation: no output directory is made. A later
    # flag overrides the benchmark's own --n and --reps.
    out = tmp_path / "out"
    data = {"estimate": ["--input", str(sim_dir / "panel.csv")],
            "benchmark": ["--n", "300", "--reps", "2"],
            "simulate": []}[command]
    fixed = ([] if option == "--fixed-l1" or command == "simulate"
             else ["--fixed-l1", "0.02"])
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


def test_thin_cohort_bootstrap_counts_and_multiplier_manifest(tmp_path):
    # A panel on which some bootstrap replicates skip the cells of a thin
    # cohort. Read back from CSV its units are sorted as id strings ("0",
    # "1", "10", ...), so the resamples differ from those of the in-memory
    # panel.
    thin = thin_cohort(simulate(DgpConfig(n_units=120, seed=3)).panel, 4, 4)
    write_panel_csv(thin, tmp_path / "panel.csv")
    panel = load_panel(tmp_path / "panel.csv")
    boot = bootstrap_se(panel, EstimatorConfig(seed=1, fixed_l1=0.01), 50)
    assert boot.n_replicates == 50 and boot.n_failed == 0
    # The counts of tests/_bootstrap_reference.py on the panel read back.
    assert {key: n for key, n in boot.cell_missing.items() if n} == {
        (4, 1): 6, (4, 2): 6, (4, 4): 6}
    assert {e: n for e, n in boot.dynamic_missing.items() if n} == {-3: 6, -2: 6, 0: 6}
    # Each missing cell says why.
    assert boot.cell_reasons.keys() == {(4, 1), (4, 2), (4, 4)}
    for key, reasons in boot.cell_reasons.items():
        assert sum(reasons.values()) == boot.cell_missing[key]
        assert all(isinstance(why, str) and why for why in reasons)

    # estimate reports multiplier SEs, which every estimated cell and event
    # time gets, those that 6 of the 50 replicates missed too.
    out = tmp_path / "est"
    res = run_cli(["estimate", "--input", str(tmp_path / "panel.csv"), "--out", str(out),
                   "--seed", "1", "--fixed-l1", "0.01", "--bootstrap", "50"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["bootstrap"] == {"method": "multiplier", "draws": 50}
    assert manifest["skipped_cells"] == []
    for name, key in (("cells.csv", "g"), ("dynamics.csv", "e")):
        with open(out / name, newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if (int(r["t"]) != int(r["g"]) - 1 if key == "g" else r["e"] != "-1")]
        assert rows and all(float(r["se"]) > 0 for r in rows)


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
    # The exported tables give the run's own heterogeneity tables back.
    for name in ("blp.csv", "clan.csv"):
        assert (out / name).read_bytes() == (est_dir / name).read_bytes(), name


@pytest.mark.parametrize("edit,message", [
    (lambda rows: [rows[0]] + [[r[0], "1.5", *r[2:]] for r in rows[1:]],
     "catt panel line 2: e '1.5' is not an integer"),
    (lambda rows: [r[:3] for r in rows], "catt panel: missing column 'score'"),
    (lambda rows: rows[:3] + [rows[3][:2]] + rows[4:], "catt panel line 4: too few fields"),
    (lambda rows: rows[:2] + [[rows[2][0], rows[2][1], "x", rows[2][3]]] + rows[3:],
     "catt panel line 3: tau_hat 'x' is not a number"),
    (lambda rows: [rows[0] + ["e"]] + [r + ["0"] for r in rows[1:]],
     "catt panel: duplicate column 'e'"),
    # Rows the input panel cannot have: a never-treated unit has no cohort,
    # and unit 113 of cohort 2 is observed at e -1..2 only.
    (lambda rows: rows[:3] + [["100", *rows[3][1:]]] + rows[4:],
     "catt panel: unit '100' is never treated in the input panel"),
    (lambda rows: rows[:5] + [["113", "57", *rows[5][2:]]] + rows[6:],
     "catt panel: unit '113' of cohort 2 has e 57, outside -1..2"),
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


@pytest.mark.parametrize("text, line, key", [
    ("foldz = 3\nseeed = 9\n", 1, "foldz"),
    ("# defaults\nseed = 5\nfixed_l = 0.02\n", 3, "fixed_l"),
    ("config = other.cfg\n", 1, "config"),
], ids=["typo", "after-comment", "group-option"])
def test_config_file_unknown_key_is_a_usage_error(tmp_path, sim_dir, text, line, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "cfg_out"
    res = run_cli(["--config", str(cfg), "estimate",
                   "--input", str(sim_dir / "panel.csv"), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{cfg}:{line}: unknown key '{key}'" in res.output
    assert not out.exists()


def test_config_file_key_of_another_command_passes(tmp_path, sim_dir):
    # `reps` is a benchmark flag; estimate ignores it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps = 3\nfixed-l1 = 0.02\n")
    out = tmp_path / "cfg_out"
    res = run_cli(["--config", str(cfg), "estimate",
                   "--input", str(sim_dir / "panel.csv"), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads((out / "manifest.json").read_text())["config"]["fixed_l1"] == 0.02


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


def _constant_x4(groups, covariates):
    covariates[:, :, 3] = 0.5


def _constant_x4_in_cohort_2(groups, covariates):
    # Only event time 2 holds cohort 2 alone; its per-event design loses rank.
    covariates[groups == 2, :, 3] = 0.5


@pytest.mark.parametrize("command", ["estimate", "heterogeneity"])
@pytest.mark.parametrize("n_units, seed, edit, blp_skips", [
    (12, 2, None, {"pooled": "design is rank deficient; collinear: ['x_5']"}),
    (12, 5, None, {"pooled": "3 rows for 6 regressors"}),
    (250, 11, _constant_x4,
     {e: "design is rank deficient; collinear: ['x_4']" for e in (0, 1, 2, "pooled")}),
    (250, 11, _constant_x4_in_cohort_2, {2: "design is rank deficient; collinear: ['x_4']"}),
], ids=["pooled-rank-deficient", "pooled-too-few-rows", "constant-covariate",
        "constant-within-one-event-time"])
def test_rejected_blp_design_is_skipped_not_fatal(command, n_units, seed, edit, blp_skips,
                                                  tmp_path):
    # A BLP design that heterogeneity.blp rejects loses its own table only:
    # every output is written, and each BLP table is either in blp.csv or
    # listed, with its reason, under skipped_heterogeneity.
    panel = simulate(DgpConfig(n_units=n_units, seed=seed)).panel
    covariates = panel.covariates.copy()
    if edit is not None:
        edit(panel.groups, covariates)
    panel = type(panel)(
        unit_ids=panel.unit_ids, groups=panel.groups, n_periods=panel.n_periods,
        outcomes=panel.outcomes, covariates=covariates,
        covariate_names=panel.covariate_names)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    out = tmp_path / "out"
    if command == "estimate":
        catt = out / "catt_panel.csv"
        res = run_cli(["estimate", "--input", str(path), "--out", str(out),
                       "--fixed-l1", "0.01", "--folds", "2"])
    else:
        catt = tmp_path / "catt_panel.csv"
        write_catt_panel_csv(catt, run_mldid(load_panel(path), EstimatorConfig(
            n_folds=2, fixed_l1=0.01)).catt_panel)
        res = run_cli(["heterogeneity", "--input", str(path), "--catt", str(catt),
                       "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists(), name
    skipped = {str(r["e"]): r["reason"] for r in manifest["skipped_heterogeneity"]
               if r["table"] == "blp"}
    assert {e: skipped.get(str(e)) for e in blp_skips} == blp_skips
    with open(catt, newline="") as fh:
        tables = {r["e"] for r in csv.DictReader(fh) if int(r["e"]) >= 0} | {"pooled"}
    with open(out / "blp.csv", newline="") as fh:
        written = {r["e"] for r in csv.DictReader(fh)}
    assert set(skipped) <= tables and written == tables - set(skipped)
