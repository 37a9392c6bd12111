"""BLP and CLAN one target at a time: the test reference for the shared designs.

``heterogeneity_results`` is the loop that ``cli._heterogeneity_results``
replaced: for each target it calls ``blp_one`` per mode and ``clan_one``
per event time. ``blp_one`` builds its designs and checks their rank and
inverts them for every target, and ``clan_one`` always sorts by value
with the unit ids as tiebreak (``np.lexsort``). The package's tables must
have the same bytes, or raise the same exception with the same message.
"""

from __future__ import annotations

import math

import numpy as np

from mldid.exceptions import MldidError, RankDeficient, TooFewUnits
from mldid.heterogeneity import (
    EXACT_FIT_RTOL,
    Z_95,
    BlpCoefficient,
    BlpResult,
    ClanResult,
    ClanRow,
    _collinear_columns,
    _normal_p,
)


def ols_hc1_one(X, y, names):
    n, k = X.shape
    if np.linalg.matrix_rank(X) < k:
        cols = _collinear_columns(X, names)
        raise RankDeficient(f"design is rank deficient; collinear: {cols}", cols)
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ (X.T @ y)
    resid = y - X @ beta
    meat = X.T @ (X * resid[:, None] ** 2)
    vcov = xtx_inv @ meat @ xtx_inv * (n / max(n - k, 1))
    se = np.sqrt(np.diag(vcov))
    if np.linalg.norm(resid) <= EXACT_FIT_RTOL * np.linalg.norm(y):
        nan = np.full(k, np.nan)
        return beta, se, nan, nan.copy()
    t_stat = beta / se
    p = np.array([_normal_p(t) for t in t_stat])
    return beta, se, t_stat, p


def blp_one(values, event_times, X, covariate_names, mode="per-event", target="catt"):
    values = np.asarray(values, float)
    event_times = np.asarray(event_times)
    X = np.asarray(X, float)
    names = list(covariate_names)
    p = X.shape[1]
    coefs = []
    if mode == "per-event":
        for e in sorted({int(v) for v in np.unique(event_times) if v >= 0}):
            rows = event_times == e
            n = int(rows.sum())
            if n < p + 2:
                raise TooFewUnits(f"event time {e}: {n} rows for {p} covariates")
            design = np.concatenate([np.ones((n, 1)), X[rows]], axis=1)
            beta, se, t_stat, pvals = ols_hc1_one(design, values[rows],
                                                  ["(intercept)", *names])
            for j, name in enumerate(["(intercept)", *names]):
                coefs.append(BlpCoefficient(target, e, name, float(beta[j]), float(se[j]),
                                            float(t_stat[j]), float(pvals[j])))
        return BlpResult(target, mode, coefs)
    uniq = sorted({int(v) for v in np.unique(event_times)})
    base = uniq[0]
    dummies = [(event_times == e).astype(float)[:, None] for e in uniq if e != base]
    dummy_names = [f"e={e}" for e in uniq if e != base]
    n = values.shape[0]
    design = np.concatenate([np.ones((n, 1)), X, *dummies], axis=1)
    col_names = ["(intercept)", *names, *dummy_names]
    if n < len(col_names) + 1:
        raise TooFewUnits(f"{n} rows for {len(col_names)} regressors")
    beta, se, t_stat, pvals = ols_hc1_one(design, values, col_names)
    for j, name in enumerate(col_names):
        coefs.append(BlpCoefficient(target, None, name, float(beta[j]), float(se[j]),
                                    float(t_stat[j]), float(pvals[j])))
    return BlpResult(target, mode, coefs)


def clan_one(values, X, unit_ids, covariate_names, n_bins=4, e=0, target="catt",
             most_affected="highest"):
    if n_bins < 2:
        raise MldidError(f"CLAN needs at least 2 bins, got {n_bins}")
    values = np.asarray(values, float)
    X = np.asarray(X, float)
    n = values.shape[0]
    if n < 2 * n_bins:
        raise TooFewUnits(f"{n} units cannot fill 2x{n_bins} bins")
    sort_vals = -values if most_affected == "lowest" else values
    order = np.lexsort((np.asarray(unit_ids, dtype=object), sort_vals))
    chunks = np.array_split(order, n_bins)
    low, high = chunks[0], chunks[-1]
    rows = []
    for j, name in enumerate(covariate_names):
        a, b = X[low, j], X[high, j]
        d_low, d_high = float(a.mean()), float(b.mean())
        diff = d_high - d_low
        var_a = float(a.var(ddof=1)) if a.shape[0] > 1 else 0.0
        var_b = float(b.var(ddof=1)) if b.shape[0] > 1 else 0.0
        half = Z_95 * math.sqrt(var_a / a.shape[0] + var_b / b.shape[0])
        rows.append(ClanRow(name, d_low, d_high, diff, diff - half, diff + half))
    return ClanResult(target=target, e=e, n_bins=n_bins, bin_size_low=int(low.shape[0]),
                      bin_size_high=int(high.shape[0]), rows=rows)


def heterogeneity_results(catt_panel, k_bins, oracle_values=None, most_affected="highest"):
    """The BLP and CLAN results of ``cli._heterogeneity_results``, one target at a time."""
    targets = [("catt", catt_panel.tau), ("score", catt_panel.score)]
    if oracle_values is not None:
        targets.append(("oracle", oracle_values))
    names = catt_panel.covariate_names
    p = len(names)
    blp_rows = np.ones(catt_panel.e.shape[0], dtype=bool)
    clan_times = []
    for e in sorted({int(v) for v in np.unique(catt_panel.e) if v >= 0}):
        rows = catt_panel.e == e
        n = int(rows.sum())
        if n < p + 2:
            blp_rows &= ~rows
        if n >= 2 * k_bins:
            clan_times.append(e)
    blps, clans = [], []
    for label, values in targets:
        blps.append(blp_one(values[blp_rows], catt_panel.e[blp_rows],
                            catt_panel.X[blp_rows], names, mode="per-event", target=label))
        blps.append(blp_one(values, catt_panel.e, catt_panel.X, names,
                            mode="pooled", target=label))
        for e in clan_times:
            rows = catt_panel.e == e
            clans.append(clan_one(values[rows], catt_panel.X[rows],
                                  catt_panel.unit_ids[rows], names, n_bins=k_bins, e=e,
                                  target=label, most_affected=most_affected))
    return blps, clans
