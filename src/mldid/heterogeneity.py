"""Heterogeneity analysis: best-linear-predictor regressions and
classification of most/least affected groups."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .exceptions import MldidError, RankDeficient, TooFewUnits

Z_95 = 1.959963984540054
# Residuals this small relative to the target are rounding, not noise.
EXACT_FIT_RTOL = 1e-10


def _normal_p(t_stat: float) -> float:
    return math.erfc(abs(t_stat) / math.sqrt(2.0))


def _collinear_columns(X: np.ndarray, names: list[str]) -> list[str]:
    bad, rank = [], 0
    for j in range(X.shape[1]):
        new_rank = np.linalg.matrix_rank(X[:, : j + 1])
        if new_rank == rank:
            bad.append(names[j])
        rank = new_rank
    return bad


def _design_inverse(X: np.ndarray, names: list[str]) -> np.ndarray:
    """(X'X)^-1 of a full-rank design; raises RankDeficient naming the collinear columns."""
    if np.linalg.matrix_rank(X) < X.shape[1]:
        cols = _collinear_columns(X, names)
        raise RankDeficient(f"design is rank deficient; collinear: {cols}", cols)
    return np.linalg.inv(X.T @ X)


def _hc1(X: np.ndarray, xtx_inv: np.ndarray, y: np.ndarray):
    """OLS of y on X with heteroskedasticity-robust (HC1) standard errors.

    ``xtx_inv`` is the design's (X'X)^-1 (:func:`_design_inverse`), which
    the targets of a design share. When the fit is exact (residual norm
    within ``EXACT_FIT_RTOL`` of the target's), the standard errors
    measure rounding only: t and p are NaN, while the coefficients and
    standard errors are returned as computed.
    """
    n, k = X.shape
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


@dataclass(frozen=True)
class BlpCoefficient:
    target: str
    e: int | None  # None in the pooled design
    covariate: str
    coef: float
    se: float
    t: float
    p: float


@dataclass(frozen=True)
class BlpResult:
    target: str
    mode: str
    coefficients: list[BlpCoefficient]

    def coef(self, covariate: str, e: int | None = None) -> BlpCoefficient:
        for c in self.coefficients:
            if c.covariate == covariate and c.e == e:
                return c
        raise KeyError((covariate, e))


def blp(
    targets: Sequence[tuple[str, np.ndarray]],
    X: np.ndarray,
    covariate_names,
    e: int | None = None,
    event_times: np.ndarray | None = None,
) -> list[BlpResult]:
    """Fit one BLP design: regress each target's values on the design rows' covariates.

    ``targets`` holds (label, values) pairs, one value per row of ``X``.
    Give exactly one of ``e``, which makes the per-event design [1, x] of
    event time e's rows, or ``event_times``, the rows' event times, which
    make the pooled design: [1, x] plus one indicator per event time beyond
    the smallest. A design needs one more row than it has columns
    (TooFewUnits) and full rank (RankDeficient). Its rank check and its
    (X'X)^-1 are formed once and shared by the targets; standard errors
    are HC1. Returns one BlpResult per target, in order.
    """
    if (e is None) == (event_times is None):
        raise ValueError("blp takes exactly one of e and event_times")
    X = np.asarray(X, float)
    n, p = X.shape
    columns, names = [np.ones((n, 1)), X], ["(intercept)", *covariate_names]
    if event_times is not None:
        event_times = np.asarray(event_times)
        later = sorted({int(v) for v in np.unique(event_times)})[1:]
        columns += [(event_times == d).astype(float)[:, None] for d in later]
        names += [f"e={d}" for d in later]
    if n < len(names) + 1:
        what = f"{p} covariates" if event_times is None else f"{len(names)} regressors"
        raise TooFewUnits(f"{n} rows for {what}")
    design = np.concatenate(columns, axis=1)
    xtx_inv = _design_inverse(design, names)
    mode = "per-event" if event_times is None else "pooled"
    results = []
    for label, values in targets:
        beta, se, t_stat, pvals = _hc1(design, xtx_inv, np.asarray(values, float))
        results.append(BlpResult(label, mode, [
            BlpCoefficient(label, e, name, float(beta[j]), float(se[j]), float(t_stat[j]),
                           float(pvals[j]))
            for j, name in enumerate(names)]))
    return results


@dataclass(frozen=True)
class ClanRow:
    covariate: str
    delta_low: float
    delta_high: float
    diff: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ClanResult:
    target: str
    e: int
    n_bins: int
    bin_size_low: int
    bin_size_high: int
    rows: list[ClanRow]

    def row(self, covariate: str) -> ClanRow:
        for r in self.rows:
            if r.covariate == covariate:
                return r
        raise KeyError(covariate)


def clan(
    values: np.ndarray,
    X: np.ndarray,
    unit_ids: np.ndarray,
    covariate_names,
    n_bins: int = 4,
    e: int = 0,
    target: str = "catt",
    most_affected: str = "highest",
) -> ClanResult:
    """Covariate means of the least and most affected quantile groups.

    Units sort by effect value (ties broken by unit id for determinism)
    into ``n_bins`` groups of as-equal-as-possible size; the difference
    in covariate means between the top and bottom bin carries a 95%
    normal-approximation (Welch) confidence interval.
    ``most_affected="lowest"`` flips the sign convention for
    negative-effect applications.
    """
    if n_bins < 2:
        raise MldidError(f"CLAN needs at least 2 bins, got {n_bins}")
    values = np.asarray(values, float)
    X = np.asarray(X, float)
    n = values.shape[0]
    if n < 2 * n_bins:
        raise TooFewUnits(f"{n} rows cannot fill 2x{n_bins} bins")
    sort_vals = -values if most_affected == "lowest" else values
    order = np.argsort(sort_vals, kind="stable")
    ranked = sort_vals[order]
    if np.isnan(ranked[-1]) or np.any(ranked[1:] == ranked[:-1]):
        # Only tied (or NaN) values need the unit ids; a NaN sorts last.
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
        rows.append(
            ClanRow(name, d_low, d_high, diff, diff - half, diff + half)
        )
    return ClanResult(
        target=target,
        e=e,
        n_bins=n_bins,
        bin_size_low=int(low.shape[0]),
        bin_size_high=int(high.shape[0]),
        rows=rows,
    )
