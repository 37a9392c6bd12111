"""Correctness checks and accuracy metrics for one `mldid estimate` output.

Every check recomputes its expectation from the generator's truth and the
output tables themselves; none compares against a stored copy of earlier
output. Each check returns a list of problems (empty when it passes).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gen import COVARIATES, Truth

Z_95 = 1.959963984540054
# Chance that a correct op fails the per-cell accuracy gate. The gate's
# multiple of the naive SE is Bonferroni-corrected for the number of cells
# an op checks: a flat 4 SE would reject correct output about once in
# 16,000 cell checks, and a run makes up to 168 of them.
FALSE_ALARM = 1e-5
# A bootstrap SE must lie within this band of the naive DiD SE.
SE_BAND = (0.25, 4.0)
# Relative tolerance for quantities the benchmark recomputes exactly.
RTOL = 1e-7


def read_table(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Outputs:
    """The tables one `estimate` op wrote, parsed."""

    def __init__(self, out_dir):
        out_dir = Path(out_dir)
        self.cells = read_table(out_dir / "cells.csv")
        self.dr_cells = read_table(out_dir / "dr_cells.csv")
        self.dynamics = read_table(out_dir / "dynamics.csv")
        self.catt = read_table(out_dir / "catt_panel.csv")
        self.blp = read_table(out_dir / "blp.csv")
        self.clan = read_table(out_dir / "clan.csv")
        self.manifest = json.loads((out_dir / "manifest.json").read_text())


def _close(a: float, b: float, atol: float = 1e-9) -> bool:
    return abs(a - b) <= atol + RTOL * max(abs(a), abs(b))


def expected_cells(truth: Truth) -> set[tuple[int, int]]:
    """Every post, placebo and reference cell of the panel."""
    T = truth.design.n_periods
    return {(g, t) for g in truth.cohorts for t in range(1, T + 1)}


def naive_did(truth: Truth, g: int, t: int) -> tuple[float, float]:
    """Two-sample DiD of cohort g against not-yet-treated units, with its SE."""
    y = truth.y
    dy = y[:, t - 1] - y[:, g - 2]
    treated = truth.group == g
    control = ((truth.group == 0) | (truth.group > max(g - 1, t))) & ~treated
    a, b = dy[treated], dy[control]
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return float(a.mean() - b.mean()), se


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by bisection on erfc."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def z_errors(rows, truth: Truth) -> dict[tuple[int, int], float]:
    """(g, t) -> (att - ATT(g, t)) / naive SE for every estimated cell."""
    out = {}
    for r in rows:
        g, t = int(r["g"]), int(r["t"])
        if t != g - 1:
            out[(g, t)] = (float(r["att"]) - truth.att(g, t)) / naive_did(truth, g, t)[1]
    return out


def check_cells(out: Outputs, truth: Truth, gate_mldid: bool = True) -> list[str]:
    """Coverage, exact reference zeros, and the per-cell accuracy gate.

    ``gate_mldid=False`` leaves the MLDID cells out of the accuracy gate
    (the DR cells stay gated); see the README for the design that needs it.
    """
    problems = []
    skipped = out.manifest.get("skipped_cells", [])
    if skipped:
        problems.append(f"skipped cells: {skipped}")
    tables = [("cells", out.cells, gate_mldid), ("dr_cells", out.dr_cells, True)]
    gated = sum(len(z_errors(rows, truth)) for _, rows, gate in tables if gate)
    z_max = normal_quantile(1.0 - FALSE_ALARM / (2 * max(gated, 1)))
    for name, rows, gate in tables:
        got = {(int(r["g"]), int(r["t"])) for r in rows}
        if got != expected_cells(truth):
            problems.append(f"{name}.csv covers {sorted(got)}")
        for r in rows:
            g, t = int(r["g"]), int(r["t"])
            if t == g - 1 and float(r["att"]) != 0.0:
                problems.append(f"{name} reference cell ({g},{t}) is {r['att']}")
        if not gate:
            continue
        for (g, t), z in z_errors(rows, truth).items():
            if not abs(z) <= z_max:
                problems.append(
                    f"{name} ({g},{t}): error is {z:.2f} naive SEs, gate {z_max:.2f}")
    return problems


def _cohort_weights(sizes: dict[int, int], e: int, T: int) -> dict[int, float]:
    eligible = {g: n for g, n in sizes.items() if 1 <= g + e <= T}
    total = sum(eligible.values())
    return {g: n / total for g, n in eligible.items()}


def check_dynamics(out: Outputs, truth: Truth) -> list[str]:
    """theta(e) must be the cohort-share average of the cells at e."""
    T = truth.design.n_periods
    sizes = {g: int(np.sum(truth.group == g)) for g in truth.cohorts}
    att = {(int(r["g"]), int(r["t"])): float(r["att"]) for r in out.cells}
    problems = []
    events = {t - g for g, t in att}
    got = {int(r["e"]): float(r["theta"]) for r in out.dynamics}
    if set(got) != events:
        problems.append(f"dynamics.csv covers e={sorted(got)}, cells give {sorted(events)}")
    for e in sorted(events & set(got)):
        if e == -1:
            want = 0.0
        else:
            want = sum(w * att[(g, g + e)]
                       for g, w in _cohort_weights(sizes, e, T).items())
        if not _close(got[e], want):
            problems.append(f"theta({e}) = {got[e]!r}, cohort-share mean {want!r}")
    return problems


def _catt_arrays(out: Outputs, truth: Truth):
    units = np.array([int(r["unit"]) for r in out.catt])
    e = np.array([int(r["e"]) for r in out.catt])
    tau = np.array([float(r["tau_hat"]) for r in out.catt])
    score = np.array([float(r["score"]) for r in out.catt])
    return units, e, tau, score, truth.X[units]


def ols_hc1(X: np.ndarray, y: np.ndarray):
    n, k = X.shape
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    bread = np.linalg.pinv(X.T @ X)
    meat = (X * resid[:, None] ** 2).T @ X
    vcov = bread @ meat @ bread * n / max(n - k, 1)
    return beta, np.sqrt(np.diag(vcov))


def expected_blp(out: Outputs, truth: Truth) -> dict[tuple[str, str, str], tuple[float, float]]:
    """(target, e, covariate) -> (coef, se) from the benchmark's own OLS+HC1."""
    units, e, tau, score, X = _catt_arrays(out, truth)
    names = ["(intercept)", *COVARIATES]
    want = {}
    for target, values in (("catt", tau), ("score", score)):
        for ev in sorted(int(v) for v in np.unique(e) if v >= 0):
            rows = e == ev
            design = np.column_stack([np.ones(rows.sum()), X[rows]])
            beta, se = ols_hc1(design, values[rows])
            for name, b, s in zip(names, beta, se):
                want[(target, str(ev), name)] = (float(b), float(s))
        levels = sorted(int(v) for v in np.unique(e))
        dummies = [(e == lv).astype(float) for lv in levels[1:]]
        design = np.column_stack([np.ones(e.size), X, *dummies])
        beta, se = ols_hc1(design, values)
        for name, b, s in zip(names + [f"e={lv}" for lv in levels[1:]], beta, se):
            want[(target, "pooled", name)] = (float(b), float(s))
    return want


def check_blp(out: Outputs, truth: Truth) -> list[str]:
    want = expected_blp(out, truth)
    got = {(r["target"], r["e"], r["covariate"]): (float(r["coef"]), float(r["se"]))
           for r in out.blp}
    problems = []
    if set(got) != set(want):
        problems.append(f"blp.csv rows differ: {sorted(set(got) ^ set(want))[:5]}")
    for key in sorted(set(got) & set(want)):
        (cg, sg), (cw, sw) = got[key], want[key]
        if not (_close(cg, cw) and _close(sg, sw)):
            problems.append(f"blp {key}: ({cg!r}, {sg!r}) vs own OLS ({cw!r}, {sw!r})")
    return problems


def expected_clan(out: Outputs, truth: Truth, k_bins: int = 4):
    """(target, e, covariate) -> (delta1, deltaK, diff, ci_lo, ci_hi)."""
    units, e, tau, score, X = _catt_arrays(out, truth)
    ids = np.array([r["unit"] for r in out.catt], dtype=object)
    want = {}
    for target, values in (("catt", tau), ("score", score)):
        for ev in sorted(int(v) for v in np.unique(e) if v >= 0):
            rows = np.flatnonzero(e == ev)
            if rows.size < 2 * k_bins:
                continue
            # Rank by value, ties broken by the unit label as written.
            order = sorted(rows, key=lambda i: (values[i], ids[i]))
            bins = np.array_split(np.array(order), k_bins)
            low, high = bins[0], bins[-1]
            for j, name in enumerate(COVARIATES):
                a, b = X[low, j], X[high, j]
                diff = b.mean() - a.mean()
                half = Z_95 * math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
                want[(target, str(ev), name)] = (
                    a.mean(), b.mean(), diff, diff - half, diff + half)
    return want


def check_clan(out: Outputs, truth: Truth) -> list[str]:
    want = expected_clan(out, truth)
    cols = ("delta1", "deltaK", "diff", "ci_lo", "ci_hi")
    got = {(r["target"], r["e"], r["covariate"]): tuple(float(r[c]) for c in cols)
           for r in out.clan}
    problems = []
    if set(got) != set(want):
        problems.append(f"clan.csv rows differ: {sorted(set(got) ^ set(want))[:5]}")
    for key in sorted(set(got) & set(want)):
        if not all(_close(a, b) for a, b in zip(got[key], want[key])):
            problems.append(f"clan {key}: {got[key]} vs own bin means {want[key]}")
    return problems


def check_bootstrap_se(out: Outputs, truth: Truth) -> list[str]:
    """Every estimated cell and event time carries a sane bootstrap SE."""
    lo, hi = SE_BAND
    problems = []
    for r in out.cells:
        g, t = int(r["g"]), int(r["t"])
        if t == g - 1:
            continue
        se = float(r["se"]) if r["se"] else math.nan
        naive = naive_did(truth, g, t)[1]
        if not (math.isfinite(se) and se > 0 and lo * naive <= se <= hi * naive):
            problems.append(f"cell ({g},{t}) bootstrap SE {se} vs naive {naive:.4f}")
    for r in out.dynamics:
        if int(r["e"]) == -1:
            continue
        se = float(r["se"]) if r["se"] else math.nan
        if not (math.isfinite(se) and se > 0):
            problems.append(f"theta({r['e']}) bootstrap SE {se}")
    return problems


def check_all(out: Outputs, truth: Truth, bootstrap: bool,
              gate_mldid: bool = True) -> list[str]:
    problems = (check_cells(out, truth, gate_mldid) + check_dynamics(out, truth)
                + check_blp(out, truth) + check_clan(out, truth))
    if bootstrap:
        problems += check_bootstrap_se(out, truth)
    return problems


def att_errors(out: Outputs, truth: Truth) -> list[float]:
    """Post-treatment cell errors att - ATT(g, t)."""
    return [float(r["att"]) - truth.att(int(r["g"]), int(r["t"]))
            for r in out.cells if int(r["t"]) >= int(r["g"])]


def catt_errors(out: Outputs, truth: Truth) -> np.ndarray:
    """Per-row tau_hat - (e+1) tau(x) over catt_panel rows with e >= 0."""
    units, e, tau, _, _ = _catt_arrays(out, truth)
    post = e >= 0
    return tau[post] - (e[post] + 1.0) * truth.tau[units[post]]
