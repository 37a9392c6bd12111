"""Tests of the benchmark itself: the generator's truth and the checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from gen import Design, draw, write_csv  # noqa: E402


def test_truth_is_exact_without_noise():
    truth = draw(Design(400, 5, "logit-x123", noise=0.0), seed=3)
    T = truth.design.n_periods
    for g in truth.cohorts:
        cohort = truth.group == g
        for t in range(1, T + 1):
            if t == g - 1:
                continue
            e = t - g
            want = (e + 1) * truth.tau[cohort].mean() if e >= 0 else 0.0
            assert truth.att(g, t) == pytest.approx(want, abs=1e-12)
            # Without noise, trends are exactly parallel, so the naive DiD
            # recovers the truth on the observed outcomes alone.
            assert checks.naive_did(truth, g, t)[0] == pytest.approx(want, abs=1e-9)
            if e >= 0:
                np.testing.assert_allclose(
                    (e + 1) * truth.tau[cohort],
                    truth.yg[cohort, t - 1] - truth.y0[cohort, t - 1], atol=1e-12)


def test_same_seed_same_panel_and_streams_differ(tmp_path):
    design = Design(50, 4)
    write_csv(draw(design, 7, 1), tmp_path / "a.csv")
    write_csv(draw(design, 7, 1), tmp_path / "b.csv")
    write_csv(draw(design, 7, 2), tmp_path / "c.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


@pytest.fixture(scope="module")
def estimated(tmp_path_factory):
    """One small bootstrapped estimate, shared by the corruption tests."""
    from mldid import cli

    work = tmp_path_factory.mktemp("est")
    truth = draw(Design(300, 4), seed=11, stream=1)
    write_csv(truth, work / "panel.csv")
    cli.cli.main(args=["estimate", "--input", str(work / "panel.csv"),
                       "--out", str(work / "out"), "--seed", "11",
                       "--fixed-l1", "0.01", "--bootstrap", "50"],
                 standalone_mode=False)
    return truth, work / "out"


def _corrupt(src: Path, dst: Path, table: str, row_pick, edit) -> None:
    shutil.copytree(src, dst)
    path = dst / table
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    target = next(r for r in rows if row_pick(r))
    edit(target)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _post_cell(r):
    return int(r["t"]) >= int(r["g"])


def test_clean_output_passes(estimated):
    truth, out = estimated
    assert checks.check_all(checks.Outputs(out), truth, bootstrap=True) == []


def test_shifted_att_is_rejected(estimated, tmp_path):
    truth, out = estimated

    def shift(r):
        se = checks.naive_did(truth, int(r["g"]), int(r["t"]))[1]
        r["att"] = repr(float(r["att"]) + 10 * se)

    _corrupt(out, tmp_path / "o", "cells.csv", _post_cell, shift)
    bad = checks.Outputs(tmp_path / "o")
    assert any("naive SEs" in p for p in checks.check_cells(bad, truth))
    assert checks.check_dynamics(bad, truth)
    # With the MLDID gate off only the DR cells are gated.
    assert checks.check_cells(bad, truth, gate_mldid=False) == []


def test_nonzero_reference_cell_is_rejected(estimated, tmp_path):
    truth, out = estimated
    _corrupt(out, tmp_path / "o", "dr_cells.csv",
             lambda r: int(r["t"]) == int(r["g"]) - 1,
             lambda r: r.update(att="1e-12"))
    assert checks.check_cells(checks.Outputs(tmp_path / "o"), truth)


def test_perturbed_blp_coefficient_is_rejected(estimated, tmp_path):
    truth, out = estimated
    _corrupt(out, tmp_path / "o", "blp.csv", lambda r: r["covariate"] == "x_1",
             lambda r: r.update(coef=repr(float(r["coef"]) * (1 + 1e-5) + 1e-6)))
    assert checks.check_blp(checks.Outputs(tmp_path / "o"), truth)


def test_perturbed_clan_mean_is_rejected(estimated, tmp_path):
    truth, out = estimated
    _corrupt(out, tmp_path / "o", "clan.csv", lambda r: r["covariate"] == "x_3",
             lambda r: r.update(deltaK=repr(float(r["deltaK"]) + 1e-3)))
    assert checks.check_clan(checks.Outputs(tmp_path / "o"), truth)


def test_removed_se_is_rejected(estimated, tmp_path):
    truth, out = estimated
    _corrupt(out, tmp_path / "o", "cells.csv", _post_cell, lambda r: r.update(se=""))
    assert checks.check_bootstrap_se(checks.Outputs(tmp_path / "o"), truth)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "estimate-cv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
