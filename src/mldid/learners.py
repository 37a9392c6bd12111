"""Penalized base learners and the unit-level cross-fitting engine.

All nuisance quantities are estimated with the two model families here:
an elastic-net linear model solved by covariance-update coordinate descent
(the outcome regressions and the effect function), and a penalized binary
logistic model solved by damped Newton iterations (the treatment
propensity). Both are deterministic given their inputs, which keeps every
downstream estimate reproducible from a single seed. Each family has one
batched engine, and its one-fit entry points are one-member calls into it.

Every elastic-net fit goes through ``_lasso_path`` (covariance updates with
warm starts along the l1 path, after Friedman, Hastie & Tibshirani 2010).
It takes a batch of standardized Gram systems and runs each coordinate
update as one vector operation over the batch. :func:`fit_gram_batch` holds
the stages after the Gram matrices, shared by both front ends: it solves
the inner-CV paths of many fits as one batch, scores them on the held-out
rows through the front end's callback, chooses each l1 and refits every
chosen (or fixed) l1 as a second batch. The row front end,
:func:`fit_penalized_ls_batch`, builds the Gram systems from each
regression's training rows; :func:`fit_penalized_ls` and
:func:`fit_penalized_ls_cv` are its one-regression calls, used by the
effect-function fit and the doubly-robust baseline. The moment front end in
``nuisance`` builds the outcome regressions of a cell from sums of moment
blocks instead of from rows, and the effect-function fit of ``catt`` from
unit moments.

Every logistic fit goes through :func:`fit_probability_batch`: fits that
share one design and label vector and differ in their row weights (a
cross-fit's folds) iterate together on one shared standardized design, each
in its own coordinates, so that one Newton step of the batch is one matrix
product, one batched Hessian product and one batched d x d solve; a large
batch is solved in chunks of members that bound its (members, rows)
temporaries. ``nuisance`` cross-fits the propensity of a cell, for every
fold and every bootstrap count column, as one such batch, and
:func:`fit_probability` is the one-member call.

In both engines each member follows the iterates of a solve on its own, so
its result does not depend on what else is in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    DegenerateFold,
    MldidError,
    NoConvergence,
    NonFiniteData,
    SeparableWithoutPenalty,
)

# Convergence constants for the coordinate-descent and Newton solvers.
CD_TOL = 1e-7
CD_MAX_SWEEPS = 10_000
NEWTON_TOL = 1e-6
NEWTON_MAX_ITER = 500
DEFAULT_CLIP = 0.01

# Inner cross-validation defaults for the l1 path.
CV_FOLDS = 5
CV_N_LAMBDAS = 20
CV_LAMBDA_MIN_RATIO = 1e-4
CV_LAMBDA_MAX_RATIO = 10.0

# Most (member, row) entries one Newton batch holds at once. A batch with
# more is solved in chunks of members, which bounds its (members, rows)
# temporaries; a member's result depends on its chunk only through rounding.
MAX_BATCH_ENTRIES = 1 << 14


def weighted_gram(Z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i z_i z_i' over the rows z_i of Z."""
    return (Z * w[:, None]).T @ Z


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteData(f"{name} contains NaN or infinite entries")


def _normalized_weights(weights: np.ndarray | None, n: int) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise MldidError("sample weights must have positive total mass")
    return weights / total


def _pin_constant_columns(X, center, scale, rows=None):
    """Center each column constant on the rows exactly at its value, with unit scale.

    A weighted mean can round off a constant column's value and leave it a
    spread of a few ulps, which would scale the column (and any other rows
    it is applied to) up by ~1e16. Only a column whose spread is at
    rounding level can be constant, so only those are compared. ``center``
    and ``scale`` are updated in place; returns the mask of constant
    columns. ``rows`` (a boolean mask) restricts the rows considered.
    """
    const = np.zeros(X.shape[1], dtype=bool)
    for j in np.flatnonzero(scale <= 1e-6 * np.abs(center)):
        values = X[:, j] if rows is None else X[rows, j]
        if values.size and np.all(values == values[0]):
            const[j] = True
            center[j], scale[j] = values[0], 1.0
    return const


def _standardize(X: np.ndarray, w: np.ndarray, center: bool):
    """Weighted center/scale. Without centering, columns are RMS-scaled only.

    With centering, a column constant on these rows standardizes to exact
    zeros (see :func:`_pin_constant_columns`).
    """
    if center:
        m = w @ X
        s = np.sqrt(w @ (X - m) ** 2)
        _pin_constant_columns(X, m, s)
    else:
        m = np.zeros(X.shape[1])
        s = np.sqrt(w @ X**2)
    s[s == 0.0] = 1.0
    return (X - m) / s, m, s


@dataclass(frozen=True)
class LinearModel:
    """Elastic-net linear model on the original covariate scale.

    ``center``/``scale`` record the standardization used at fit time;
    predictions are identical whether computed from the original-scale
    coefficients or by standardizing first.
    """

    intercept: float
    coef: np.ndarray
    l1: float
    l2: float
    center: np.ndarray
    scale: np.ndarray
    n_sweeps: int = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.coef.shape[0]:
            raise MldidError(
                f"design has {X.shape[1] if X.ndim == 2 else '?'} columns, "
                f"model was fit on {self.coef.shape[0]}"
            )
        return X @ self.coef + self.intercept

    @property
    def std_coef(self) -> np.ndarray:
        """Coefficients on the standardized scale."""
        return self.coef * self.scale

    @property
    def std_intercept(self) -> float:
        return self.intercept + float(self.center @ self.coef)


def _ridge_solve(G, c, l2, pf):
    """Closed-form solution of the l1 = 0 problem (ridge, or OLS at l2 = 0)."""
    A = G + l2 * np.diag(pf)
    diag = np.diag(A).copy()
    if np.any(diag <= 0):
        # Constant columns contribute nothing; pin them at zero.
        keep = diag > 0
        beta = np.zeros(c.shape[0])
        if keep.any():
            beta[keep] = np.linalg.lstsq(A[np.ix_(keep, keep)], c[keep], rcond=None)[0]
        return beta
    return np.linalg.lstsq(A, c, rcond=None)[0]


def _lasso_path(G, c, grid, l2, pf):
    """Warm-started coordinate descent along l1 paths for a batch of Gram systems.

    Member b minimizes ``0.5 b'G[b]b - c[b]'b + l1*sum(pf|b|) +
    0.5*l2*sum(pf b^2)`` at each ``l1 = grid[b, i]``, starting from its
    solution at the previous grid point (zeros at the first); an l1 of zero
    is solved in closed form. Each coordinate update is one vector operation
    over the members still moving at the current grid point. A member whose
    largest step falls below ``CD_TOL`` is frozen until the next point, so
    every member follows exactly the iterates of a solve on its own.

    Returns ``(path, sweeps, failed)``: the solutions ``(B, L, p)``, the
    sweeps taken at each point ``(B, L)``, and per member the last largest
    step of a solve that hit ``CD_MAX_SWEEPS`` (NaN if none did). A member
    that fails is dropped from the later points of its path.
    """
    B, p = c.shape
    L = grid.shape[1]
    path = np.zeros((B, L, p))
    sweeps = np.zeros((B, L), dtype=np.int64)
    failed = np.full(B, np.nan)
    if p == 0:
        return path, sweeps, failed
    # Working arrays are coordinate-major, (p, members), so that every
    # per-coordinate slice is contiguous. A column with a zero denominator
    # has an all-zero Gram row and column; an infinite denominator keeps it
    # at zero, which is what skipping it would do.
    diag = np.diagonal(G, axis1=1, axis2=2)
    denom = diag + l2 * pf
    den_all = np.where(denom > 0, denom, np.inf).T
    diag_all = diag.T
    c_all = c.T
    cols_all = G.transpose(2, 1, 0)  # cols_all[j, i, b] = G[b, i, j]
    beta = np.zeros((B, p))
    alive = np.ones(B, dtype=bool)
    for i in range(L):
        lam = grid[:, i]
        for b in np.flatnonzero(alive & (lam == 0.0)):
            beta[b] = _ridge_solve(G[b], c[b], l2, pf)
            sweeps[b, i] = 1
        idx = np.flatnonzero(alive & (lam != 0.0))
        if idx.size:
            # q = G @ beta is rebuilt per member at each grid point, as the
            # solve on its own does, so its rounding is the same.
            q = np.zeros((p, idx.size))
            if i > 0:
                for a, b in enumerate(idx):
                    q[:, a] = G[b] @ beta[b]
            bt = beta[idx].T.copy()
            ct = c_all[:, idx].copy()
            dg = diag_all[:, idx].copy()
            den = den_all[:, idx].copy()
            cols = cols_all[:, :, idx].copy()
            hi = (lam[idx, None] * pf).T.copy()
            lo = -hi
            for sweep in range(1, CD_MAX_SWEEPS + 1):
                delta = np.zeros(idx.size)
                for j in range(p):
                    old = bt[j]
                    z = ct[j] - q[j] + dg[j] * old
                    # Soft threshold: z minus its clip to [-l1*pf, l1*pf].
                    new = (z - np.minimum(np.maximum(z, lo[j]), hi[j])) / den[j]
                    step = new - old
                    bt[j] = new
                    q += cols[j] * step
                    np.maximum(delta, np.abs(step), out=delta)
                done = delta < CD_TOL
                if not done.any():
                    continue
                beta[idx[done]] = bt[:, done].T
                sweeps[idx[done], i] = sweep
                if done.all():
                    break
                keep = ~done
                idx = idx[keep]
                bt, q, ct, dg, den = (a[:, keep] for a in (bt, q, ct, dg, den))
                hi, lo, cols = hi[:, keep], lo[:, keep], cols[:, :, keep]
            else:
                failed[idx] = delta[~done]
                alive[idx] = False
        path[:, i] = beta
    return path, sweeps, failed


@dataclass(frozen=True)
class Regression:
    """Training data for :func:`fit_penalized_ls_batch`.

    The design is ``X[rows]`` (all of ``X`` when ``rows`` is None). Every
    entry of ``responses`` is an outcome aligned with ``X`` and gets its
    own model; responses of one Regression share the standardization, the
    inner folds and the Gram matrices of their design. ``weights`` (aligned
    with ``X``) default to uniform.
    """

    X: np.ndarray
    responses: tuple[np.ndarray, ...]
    rows: np.ndarray | None = None
    weights: np.ndarray | None = None


def _training_data(reg: Regression, penalty_factor):
    """Validated training rows: (X, responses, normalized weights, pf).

    Responses are not checked for finiteness here; each is checked on its
    own so that one bad outcome fails only its own fit.
    """
    X = np.asarray(reg.X, dtype=float)
    if X.ndim != 2:
        raise MldidError("X must be 2-dimensional")
    ys = [np.asarray(y, dtype=float) for y in reg.responses]
    for y in ys:
        if y.ndim != 1:
            raise MldidError("y must be 1-dimensional")
        if y.shape[0] != X.shape[0]:
            raise MldidError("X and y have different lengths")
    weights = reg.weights
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (X.shape[0],):
            raise MldidError("weights and X have different lengths")
    if reg.rows is not None:
        X = X[reg.rows]
        ys = [y[reg.rows] for y in ys]
        weights = None if weights is None else weights[reg.rows]
    n, p = X.shape
    if n < 2:
        raise MldidError("need at least 2 rows to fit")
    _check_finite("X", X)
    w = _normalized_weights(weights, n)
    pf = np.ones(p) if penalty_factor is None else np.asarray(penalty_factor, float)
    if pf.shape != (p,):
        raise MldidError(f"penalty_factor has shape {pf.shape}, X has {p} columns")
    return X, ys, w, pf


def _lambda_max(G, c, pf, l2):
    """Smallest l1 at which every penalized coefficient is zero."""
    free = pf == 0.0
    resid = c.copy()
    if free.any():
        b_free = np.linalg.lstsq(G[np.ix_(free, free)], c[free], rcond=None)[0]
        resid = c - G[:, free] @ b_free
    pen = pf > 0.0
    if not pen.any():
        return 0.0
    return float(np.max(np.abs(resid[pen]) / pf[pen]))


@dataclass
class GramFit:
    """One (design, response) of a batch while its l1 is chosen and refit.

    A front end fills in the standardized Gram system of the fit's training
    rows (``G``, ``c``), the standardization it undoes (``center``,
    ``scale``, ``ybar``) and, for an l1 chosen by cross-validation, the
    ``grid`` (see :func:`cv_grid`) and one ``members`` entry per inner fold,
    whose first field is that fold's row in the path batch. ``data`` is the
    front end's own handle on the held-out rows; ``result`` is preset to an
    MldidError for a fit that cannot be solved.
    """

    G: np.ndarray | None
    c: np.ndarray | None
    center: np.ndarray | None
    scale: np.ndarray | None
    ybar: float
    l1: float | None
    grid: np.ndarray | None = None
    members: list = field(default_factory=list)
    data: object = None
    result: object = None


def check_lasso_options(n_folds: int, n_lambdas: int, fixed_l1, cv_rule: str) -> None:
    """Reject settings no fit of a batch could use."""
    if cv_rule not in ("min", "1se"):
        raise MldidError(f"unknown cv_rule: {cv_rule}")
    if fixed_l1 is None and n_folds < 2:
        raise MldidError("need at least 2 inner folds")
    if fixed_l1 is None and n_lambdas < 1:
        raise MldidError("need at least 1 penalty on the l1 grid")


def cv_grid(fit: GramFit, pf: np.ndarray, l2: float, n_lambdas: int) -> None:
    """Set the l1 grid of a fit to choose by CV, or l1 = 0 when lambda_max <= 0."""
    lam_max = _lambda_max(fit.G, fit.c, pf, l2)
    if lam_max <= 0.0:
        fit.l1 = 0.0
    else:
        fit.grid = np.geomspace(
            lam_max * CV_LAMBDA_MAX_RATIO, lam_max * CV_LAMBDA_MIN_RATIO, n_lambdas)


def fit_gram_batch(
    fits: Sequence[GramFit],
    path_G: Sequence[np.ndarray],
    path_c: Sequence[np.ndarray],
    fold_errors: Callable[[GramFit, np.ndarray], np.ndarray],
    *,
    l2: float,
    pf: np.ndarray,
    fit_intercept: bool,
    cv_rule: str,
) -> None:
    """The stages after the Gram matrices: CV paths, l1 choice and refit.

    Row b of ``path_G``/``path_c`` is an inner-fold system of the fit whose
    ``members`` name it; all of them go to :func:`_lasso_path` as one batch
    along their fit's grid. ``fold_errors(fit, path)`` scores the solved
    paths on the held-out rows, returning the (inner fold, l1) errors from
    which :func:`_cv_choice` picks the l1. Then every fit without a result
    is refit at its chosen (or fixed) l1 as a second batch of one-point
    paths, and ``result`` becomes its LinearModel or NoConvergence.
    """
    cv = [fit for fit in fits if fit.grid is not None and fit.result is None]
    if cv:
        grid = np.empty((len(path_G), cv[0].grid.shape[0]))
        for fit in cv:
            for member in fit.members:
                grid[member[0]] = fit.grid
        path, _, failed = _lasso_path(np.asarray(path_G), np.asarray(path_c), grid, l2, pf)
        for fit in cv:
            fail = [failed[m[0]] for m in fit.members if not np.isnan(failed[m[0]])]
            if fail:
                # The lowest failing fold, which a fold-by-fold solve meets first.
                fit.result = _no_convergence(fail[0])
                continue
            fit.l1 = float(fit.grid[_cv_choice(fold_errors(fit, path), cv_rule)])

    refits = [fit for fit in fits if fit.result is None]
    if refits:
        path, sweeps, failed = _lasso_path(
            np.stack([fit.G for fit in refits]),
            np.stack([fit.c for fit in refits]),
            np.array([[fit.l1] for fit in refits], dtype=float),
            l2, pf,
        )
        for b, fit in enumerate(refits):
            if not np.isnan(failed[b]):
                fit.result = _no_convergence(failed[b])
                continue
            coef = path[b, 0] / fit.scale
            intercept = fit.ybar - float(fit.center @ coef) if fit_intercept else 0.0
            fit.result = LinearModel(intercept, coef, fit.l1, l2, fit.center,
                                     fit.scale, int(sweeps[b, 0]))


def _inner_folds(n, n_folds):
    fold_id = np.arange(n) % n_folds
    return [fold_id == k for k in range(n_folds)]


def fit_penalized_ls_batch(
    regressions: Sequence[Regression],
    *,
    l2: float = 1e-6,
    penalty_factor: np.ndarray | None = None,
    fit_intercept: bool = True,
    n_folds: int = CV_FOLDS,
    n_lambdas: int = CV_N_LAMBDAS,
    fixed_l1: float | None = None,
    cv_rule: str = "min",
) -> list[list]:
    """Elastic-net fits of many regressions from their training rows.

    Each (regression, response) is fit as by :func:`fit_penalized_ls_cv`
    with the same settings. This is the row front end of
    :func:`fit_gram_batch`: it standardizes each design's training rows and
    forms the Gram systems of the full rows and of every inner fold. Only
    those are kept between the stages; the held-out rows are standardized
    again when the path errors are scored.

    All regressions of a batch have the same number of columns. Returns,
    per regression, one entry per response: the LinearModel, or the
    MldidError its fit raised (bad input or NoConvergence).
    """
    check_lasso_options(n_folds, n_lambdas, fixed_l1, cv_rule)
    entries: list[MldidError | list[GramFit]] = []
    pf = None
    path_G, path_c = [], []
    for i, reg in enumerate(regressions):
        try:
            X, ys, w, pf = _training_data(reg, penalty_factor)
        except MldidError as err:
            entries.append(err)
            continue
        Z, m, s = _standardize(X, w, center=fit_intercept)
        wZ = Z * w[:, None]
        G = Z.T @ wZ
        fits = []
        for y in ys:
            fit = GramFit(G, None, m, s, 0.0, fixed_l1, data=(i, y))
            fits.append(fit)
            try:
                _check_finite("y", y)
            except NonFiniteData as err:
                fit.result = err
                continue
            if fit_intercept:
                fit.ybar = float(w @ y)
            fit.c = wZ.T @ (y - fit.ybar)
            if fixed_l1 is None:
                cv_grid(fit, pf, l2, n_lambdas)
        entries.append(fits)
        cv_fits = [fit for fit in fits if fit.grid is not None]
        if not cv_fits:
            continue
        for k, test in enumerate(_inner_folds(X.shape[0], n_folds)):
            train = ~test
            w_tr = w[train]
            tot = w_tr.sum()
            w_tr = w_tr / tot
            Z_tr = Z[train]
            wZ_tr = Z_tr * w_tr[:, None]
            G_k = Z_tr.T @ wZ_tr
            for fit in cv_fits:
                y = fit.data[1]
                ybar_tr = float(w_tr @ y[train]) if fit_intercept else 0.0
                fit.members.append((len(path_G), k, ybar_tr))
                path_G.append(G_k)
                path_c.append(wZ_tr.T @ (y[train] - ybar_tr))

    held_out = {}

    def fold_errors(fit, path):
        i, y = fit.data
        if i not in held_out:
            # Fits arrive grouped by regression, so one design is held at a time.
            held_out.clear()
            X, _, w, _ = _training_data(regressions[i], penalty_factor)
            held_out[i] = (_standardize(X, w, center=fit_intercept)[0], w,
                           _inner_folds(X.shape[0], n_folds))
        Z, w, tests = held_out[i]
        fold_err = np.zeros((n_folds, path.shape[1]))
        for b, k, ybar_tr in fit.members:
            test = tests[k]
            Z_te = Z[test]
            r_te = y[test] - ybar_tr
            w_te = w[test] / w[test].sum()
            for j in range(path.shape[1]):
                resid = r_te - Z_te @ path[b, j]
                fold_err[k, j] = float(w_te @ resid**2)
        return fold_err

    fits = [fit for fits in entries if not isinstance(fits, MldidError) for fit in fits]
    fit_gram_batch(fits, path_G, path_c, fold_errors, l2=l2, pf=pf,
                   fit_intercept=fit_intercept, cv_rule=cv_rule)
    return [
        [fits] * len(reg.responses) if isinstance(fits, MldidError)
        else [fit.result for fit in fits]
        for reg, fits in zip(regressions, entries)
    ]


def _no_convergence(delta: float) -> NoConvergence:
    return NoConvergence(
        f"coordinate descent did not converge in {CD_MAX_SWEEPS} sweeps "
        f"(last max step {delta:.3e})",
        final_delta=float(delta),
    )


def _cv_choice(fold_err: np.ndarray, cv_rule: str) -> int:
    """Grid index picked from the (fold, l1) held-out errors."""
    n_folds = fold_err.shape[0]
    cv_mean = fold_err.mean(axis=0)
    best = int(np.argmin(cv_mean))
    if cv_rule == "1se":
        cv_se = fold_err.std(axis=0, ddof=1) / np.sqrt(n_folds)
        cutoff = cv_mean[best] + cv_se[best]
        # The grid is descending, so the first index within the cutoff is
        # the largest admissible penalty.
        best = int(np.flatnonzero(cv_mean <= cutoff)[0])
    return best


def _single(results: list[list]) -> LinearModel:
    result = results[0][0]
    if isinstance(result, MldidError):
        raise result
    return result


def fit_penalized_ls(
    X: np.ndarray,
    y: np.ndarray,
    l1: float = 0.0,
    l2: float = 0.0,
    *,
    weights: np.ndarray | None = None,
    penalty_factor: np.ndarray | None = None,
    fit_intercept: bool = True,
) -> LinearModel:
    """Fit an elastic-net linear regression.

    The objective is ``(1/2) * mean_w[(y - b0 - Xb)^2] + l1*||b||_1 +
    (l2/2)*||b||_2^2`` with per-feature penalty multipliers
    ``penalty_factor`` (0 leaves a column unpenalized). Features are
    standardized internally; penalties apply on the standardized scale.
    """
    return _single(fit_penalized_ls_batch(
        [Regression(X, (y,), weights=weights)],
        l2=l2, penalty_factor=penalty_factor, fit_intercept=fit_intercept,
        fixed_l1=l1,
    ))


def fit_penalized_ls_cv(
    X: np.ndarray,
    y: np.ndarray,
    *,
    l2: float = 1e-6,
    weights: np.ndarray | None = None,
    penalty_factor: np.ndarray | None = None,
    fit_intercept: bool = True,
    n_folds: int = CV_FOLDS,
    n_lambdas: int = CV_N_LAMBDAS,
    fixed_l1: float | None = None,
    cv_rule: str = "min",
) -> LinearModel:
    """Elastic-net fit with l1 chosen by K-fold cross-validation.

    The grid is ``n_lambdas`` log-spaced points on
    ``[CV_LAMBDA_MIN_RATIO, CV_LAMBDA_MAX_RATIO] * lambda_max``; the path is
    fit warm-started from large to small l1, and the l1 minimizing held-out
    squared error is refit on the full data. ``cv_rule="1se"`` instead takes
    the largest l1 within one standard error of the minimum (sparser fits,
    the usual choice when selection matters more than prediction).
    ``fixed_l1`` bypasses the search entirely.
    """
    return _single(fit_penalized_ls_batch(
        [Regression(X, (y,), weights=weights)],
        l2=l2, penalty_factor=penalty_factor, fit_intercept=fit_intercept,
        n_folds=n_folds, n_lambdas=n_lambdas, fixed_l1=fixed_l1,
        cv_rule=cv_rule,
    ))


# ---------------------------------------------------------------------------
# Probability models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbabilityModel:
    """Penalized binary logistic classifier.

    The model is kept in two-class form: ``coef`` and ``intercepts`` have
    one row per label, 0 then 1, and the label-0 row is zero.
    ``predict_proba`` returns the columns P(0), P(1), clipped to
    ``[clip, 1 - clip]`` unless ``clipped=False``; unclipped rows sum to one.
    """

    intercepts: np.ndarray  # (2,)
    coef: np.ndarray        # (2, p)
    l2: float
    clip: float
    center: np.ndarray
    scale: np.ndarray
    n_iter: int = 0

    def predict_proba(self, X: np.ndarray, clipped: bool = True) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        proba = _label_proba(X @ self.coef.T + self.intercepts)
        if clipped and self.clip > 0:
            proba = np.clip(proba, self.clip, 1.0 - self.clip)
        return proba


def _label_proba(eta: np.ndarray) -> np.ndarray:
    """Probabilities of the labels from their linear scores, labels on the last axis."""
    eta = eta - eta.max(axis=-1, keepdims=True)
    expeta = np.exp(eta)
    return expeta / expeta.sum(axis=-1, keepdims=True)


def _members(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` (sorted, distinct) of ``a``, without a copy when that is all of them."""
    return a if idx.size == a.shape[0] else a[idx]


def _separable() -> SeparableWithoutPenalty:
    return SeparableWithoutPenalty(
        "likelihood diverges: data separable and l2 penalty is zero"
    )


def _newton_steps(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``H[b] step[b] = grad[b]`` for a batch; lstsq where H[b] is singular."""
    try:
        return np.linalg.solve(H, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(grad)
        for b in range(H.shape[0]):
            try:
                steps[b] = np.linalg.solve(H[b], grad[b])
            except np.linalg.LinAlgError:
                steps[b] = np.linalg.lstsq(H[b], grad[b], rcond=None)[0]
        return steps


def fit_probability_batch(
    X: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    *,
    l2: float = 1e-6,
    clip: float = DEFAULT_CLIP,
) -> list:
    """Penalized logistic fits of 0/1 ``labels`` on one design, one per weight column.

    Member b fits the rows of ``X`` weighted by ``weights[:, b]`` (rows of
    weight zero are left out) as :func:`fit_probability` fits those rows on
    their own: its slopes are standardized by its own weighted center and
    scale, ``l2`` penalizes them on that scale, and the intercept is never
    penalized. A cross-fit passes one member per fold, weighting the units
    outside it.

    All members iterate on one design standardized over every row. Member
    b's standardized covariates are an affine map of it, ``Z_b = Z r_b +
    a_b``, so its coordinates, gradient and Hessian are those of the shared
    design mapped through that map, and each Newton step, which is
    affine-invariant, is the step of a fit on its own. One iteration is a
    batch of linear scores, one batched Hessian product and one batched
    d x d solve over the members still moving. A batch of more than
    ``MAX_BATCH_ENTRIES`` (member, row) entries is solved in even chunks of
    members. Each member keeps its own convergence test (gradient max-norm
    in its coordinates below ``NEWTON_TOL``), step halving and iteration
    count, and is frozen once it stops, so its result does not depend on
    the rest of the batch.

    Returns per member the ProbabilityModel, or the MldidError its fit
    raised (non-finite covariates on its rows, a missing label,
    NoConvergence or SeparableWithoutPenalty).
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    W = np.asarray(weights)
    if X.ndim != 2:
        raise MldidError("X must be 2-dimensional")
    n, p = X.shape
    if labels.shape != (n,):
        raise MldidError("X and labels have different lengths")
    if W.ndim != 2 or W.shape[0] != n:
        raise MldidError("weights must be an (n, members) array aligned with X")
    if np.any(W < 0):
        raise MldidError("weights must be nonnegative")
    n_members, d = W.shape[1], p + 1
    n_parts = -(-n_members * n // MAX_BATCH_ENTRIES)
    if n_parts > 1 and n_members > 1:
        return [res for part in np.array_split(np.arange(n_members), min(n_parts, n_members))
                for res in fit_probability_batch(X, labels, W[:, part], l2=l2, clip=clip)]

    # Per member: its rows, the checks a fit on those rows alone makes (in
    # the same order), its normalized weights and its standardization.
    rows = W > 0
    finite = np.isfinite(X).all(axis=1)
    y = labels == 1
    bad_x = np.any(rows & ~finite[:, None], axis=0)
    bad_label = np.any(rows & ~(y | (labels == 0))[:, None], axis=0)
    has_both = np.any(rows & y[:, None], axis=0) & np.any(rows & ~y[:, None], axis=0)
    results: list = [None] * n_members
    for b in np.flatnonzero(bad_x | bad_label | ~has_both):
        results[b] = (NonFiniteData("X contains NaN or infinite entries") if bad_x[b]
                      else MldidError("binary logistic requires both labels 0 and 1 present"))
    live = np.flatnonzero([r is None for r in results])
    if not live.size:
        return results
    Xf = np.where(finite[:, None], X, 0.0)
    w = np.zeros((n_members, n))
    w[live] = (W[:, live] / W[:, live].sum(axis=0)).T
    center = w @ Xf
    scale = np.sqrt((w[:, None, :] @ (Xf[None] - center[:, None]) ** 2)[:, 0])
    # As in _standardize. A column constant on a member's rows carries
    # nothing for it, so its map below is zero and its coefficient stays
    # exactly zero.
    const = np.zeros((n_members, p), dtype=bool)
    for b in np.unique(np.nonzero(scale <= 1e-6 * np.abs(center))[0]):
        const[b] = _pin_constant_columns(Xf, center[b], scale[b], rows[:, b])
    scale[scale == 0.0] = 1.0

    # The shared design [1, Z] and each member's map theta -> phi onto it:
    # phi_0 = theta_0 + a_b . theta_s, phi_s = r_b * theta_s.
    Z, m0, s0 = _standardize(Xf, np.full(n, 1.0 / n), center=True)
    D = np.concatenate([np.ones((n, 1)), Z], axis=1)
    DT = np.ascontiguousarray(D.T)
    T = np.zeros((n_members, d, d))
    T[:, 0, 0] = 1.0
    T[:, 0, 1:] = np.where(const, 0.0, (m0 - center) / scale)
    T[:, np.arange(1, d), np.arange(1, d)] = np.where(const, 0.0, s0 / scale)
    pen = np.ones(d)
    pen[0] = 0.0
    y_float = y.astype(float)

    def objective(theta, idx):
        """Penalized negative log-likelihood and P(1) for members ``idx``."""
        eta = (T[idx] @ theta[..., None])[..., 0] @ DT
        positive = eta >= 0.0
        # The label probabilities as _label_proba gives them from the
        # scores (0, eta): 1 / (1 + e) and e / (1 + e) with e = exp(-|eta|).
        # The (members, rows) arrays are reused in place to bound memory.
        e = np.abs(eta, out=eta)
        np.exp(np.negative(e, out=e), out=e)
        denom = 1.0 + e
        high = np.divide(1.0, denom)
        low = np.divide(e, denom, out=e)
        p1 = np.where(positive, high, low)
        observed = high
        np.copyto(observed, low, where=positive != y)
        np.log(np.maximum(observed, 1e-300, out=observed), out=observed)
        loglik = np.sum(np.multiply(_members(w, idx), observed, out=observed), axis=1)
        return -loglik + 0.5 * l2 * np.sum((theta * pen) ** 2, axis=1), p1

    def derivatives(theta, p1, idx):
        """Gradient and Hessian in each member's coordinates."""
        Tt = T[idx].transpose(0, 2, 1)
        w_idx = _members(w, idx)
        grad = (Tt @ (((p1 - y_float) * w_idx) @ D)[..., None])[..., 0] + l2 * theta * pen
        r = p1 * (1.0 - p1) * w_idx
        k = idx.shape[0]
        H_shared = ((DT[None] * r[:, None, :]).reshape(k * d, n) @ D).reshape(k, d, d)
        H = Tt @ H_shared @ T[idx]
        H[:, np.arange(d), np.arange(d)] += l2 * pen
        return grad, H

    theta = np.zeros((n_members, d))
    obj = np.zeros(n_members)
    grad = np.zeros((n_members, d))
    H = np.zeros((n_members, d, d))
    n_iter = np.zeros(n_members, dtype=np.int64)
    obj[live], p1 = objective(theta[live], live)
    grad[live], H[live] = derivatives(theta[live], p1, live)

    moving = live
    while moving.size:
        gmax = np.max(np.abs(grad[moving]), axis=1)
        still = gmax >= NEWTON_TOL
        moving, gmax = moving[still], gmax[still]
        capped = n_iter[moving] >= NEWTON_MAX_ITER
        for b, g in zip(moving[capped], gmax[capped]):
            results[b] = _separable() if l2 == 0.0 else NoConvergence(
                f"probability fit did not converge in {NEWTON_MAX_ITER} iterations",
                final_delta=float(g),
            )
        moving = moving[~capped]
        if not moving.size:
            break
        n_iter[moving] += 1
        step = _newton_steps(H[moving], grad[moving])
        # Step halving: every member starts at t = 1 and halves until its
        # objective does not rise, so the members still searching share t.
        improved = np.zeros(moving.size, dtype=bool)
        p1 = np.empty((moving.size, n))
        pending = np.arange(moving.size)
        t = 1.0
        while t > 1e-12 and pending.size:
            idx = moving[pending]
            cand = theta[idx] - t * step[pending]
            cand_obj, cand_p1 = objective(cand, idx)
            ok = cand_obj <= obj[idx] + 1e-12 * np.maximum(1.0, np.abs(obj[idx]))
            theta[idx[ok]], obj[idx[ok]] = cand[ok], cand_obj[ok]
            p1[pending[ok]] = cand_p1[ok]
            improved[pending[ok]] = True
            pending = pending[~ok]
            t *= 0.5
        up = moving[improved]
        if up.size:
            grad[up], H[up] = derivatives(theta[up], p1[improved], up)
        # A stalled line search (at numerical precision) accepts its point.
        stop = ~improved
        if l2 == 0.0:
            diverged = np.max(np.abs(theta[moving]), axis=1) > 1e8
            for b in moving[diverged]:
                results[b] = _separable()
            stop |= diverged
        moving = moving[~stop]

    for b in live:
        if results[b] is not None:
            continue
        if l2 == 0.0 and obj[b] < 1e-6:
            # A vanishing mean log-loss means every point is classified with
            # near-certainty: the unpenalized optimum sits at infinity.
            results[b] = _separable()
            continue
        # Unscale back to the original covariate units, label-0 row first.
        theta_full = np.stack([np.zeros(d), theta[b]])
        slopes = theta_full[:, 1:] / scale[b]
        intercepts = theta_full[:, 0] - slopes @ center[b]
        results[b] = ProbabilityModel(
            intercepts=intercepts,
            coef=slopes,
            l2=l2,
            clip=clip,
            center=center[b],
            scale=scale[b],
            n_iter=int(n_iter[b]),
        )
    return results


def fit_probability(
    X: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-6,
    clip: float = DEFAULT_CLIP,
) -> ProbabilityModel:
    """Fit a penalized logistic model of 0/1 ``labels``.

    Newton iterations with step halving on the penalized negative
    log-likelihood of the standardized design; converged when the gradient
    max-norm drops below ``NEWTON_TOL``. The intercept is never penalized.
    This is the one-member call of :func:`fit_probability_batch`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise MldidError("X must be 2-dimensional")
    result = fit_probability_batch(
        X, labels, np.ones((X.shape[0], 1)), l2=l2, clip=clip)[0]
    if isinstance(result, MldidError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Fold plans and cross-fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    """Assignment of units to folds; a unit and all of its copies share a fold."""

    n_folds: int
    assignment: np.ndarray  # fold id per unit
    seed: int

    def __post_init__(self):
        sizes = np.bincount(self.assignment, minlength=self.n_folds)
        if sizes.max() - sizes.min() > 1:
            raise MldidError("fold sizes differ by more than one unit")


def make_fold_plan(n_units: int, n_folds: int, seed: int) -> FoldPlan:
    if n_folds < 2:
        raise MldidError("need at least 2 folds")
    if n_folds > n_units:
        raise MldidError("more folds than units")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n_units, dtype=np.int64)
    assignment[rng.permutation(n_units)] = np.arange(n_units) % n_folds
    return FoldPlan(n_folds=n_folds, assignment=assignment, seed=seed)


def cross_fit(
    X: np.ndarray,
    y: np.ndarray,
    units: np.ndarray,
    plan: FoldPlan,
    fit: Callable[[np.ndarray, np.ndarray], object],
    *,
    predict: Callable[[object, np.ndarray], np.ndarray] | None = None,
    train_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Out-of-fold predictions with fold membership defined by unit.

    The model predicting row i is trained on all rows whose unit lies
    outside fold(i), optionally restricted to ``train_mask`` (used for
    the conditional regressions). Fit failures surface as DegenerateFold.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    row_fold = plan.assignment[units]
    if predict is None:
        predict = lambda model, Xnew: model.predict(Xnew)
    out = np.full(n, np.nan)
    for k in range(plan.n_folds):
        test = row_fold == k
        if not test.any():
            continue
        train = ~test
        if train_mask is not None:
            train = train & train_mask
        if int(train.sum()) < 2:
            raise DegenerateFold(
                f"fold {k}: training complement has {int(train.sum())} rows"
            )
        try:
            model = fit(X[train], y[train])
        except MldidError as err:
            raise DegenerateFold(f"fold {k}: {err}") from err
        out[test] = predict(model, X[test])
    return out
