"""Penalized base learners and the unit-level cross-fitting engine.

All nuisance quantities are estimated with the two model families here:
an elastic-net linear model solved along exact l1 paths (the outcome
regressions and the effect function), and a penalized binary
logistic model solved by damped Newton iterations (the treatment
propensity). Both are deterministic given their inputs, which keeps every
downstream estimate reproducible from a single seed. Each family has one
batched engine, and its one-fit entry points are one-member calls into it.

Every elastic-net fit goes through ``_lasso_path``, which follows the l1
paths of a batch of standardized Gram systems exactly, event by event.
Between changes of its support a lasso path is affine in l1, so one
linear solve per support gives every grid point down to the next change,
the l1 at which a coefficient reaches zero or an inactive column reaches
its bound (the LARS-lasso homotopy of Efron et al. 2004 and Osborne,
Presnell & Turlach 2000). One step of the batch is one batched solve over
the members still moving, and a path takes one step per change of its
support, with no tolerance to iterate to. :func:`fit_gram_batch` holds
the stages after the Gram matrices: it solves the inner-CV paths of many
fits as one batch, scores every (inner fold, l1) at once, chooses each l1
and refits every chosen (or fixed) l1 as a second batch. A fit enters as a
:class:`GramFit`, which is plain data: its Gram systems and, per inner
fold, the second moments of the held-out rows, of which a fold's held-out
squared error is a quadratic form. So one batch can hold the fits of many
cells: the stage-major engine of ``estimator`` solves the outcome
regressions of a group of cells as one batch, and their effect fits as
another.

The GramFits come from two front ends. :func:`moment_fits` builds them
from the weighted moments of a fit's rows and of its inner classes of
rows: ``nuisance`` forms those moments for a slice's outcome regressions
from sums of per-fold blocks, and ``catt`` for the effect function from
unit moments, of the count columns whose nuisances were fit. Its moments
come from a slice, whose data are finite (``panel.TwoPeriodSlice``
checks them), so it makes no finite check of its own.
:func:`row_gram_fit` builds one from its rows, which it checks for NaN
and infinities; it is behind :func:`fit_penalized_ls` and
:func:`fit_penalized_ls_cv`, which the tests take as the reference for
the moment front end. The doubly-robust baseline's l1 = 0 outcome fits,
several responses on one design, go through :func:`ridge_fits`, which
forms the design's Gram matrix once and solves each response as
:func:`fit_penalized_ls` would.

Every logistic fit goes through :func:`fit_probability_batch`: fits that
share one design and label vector and differ in their row weights (a
cross-fit's folds) iterate together on one shared standardized design, each
in its own coordinates, so that one Newton step of the batch is one matrix
product for the scores, one for the Hessians (on the design's row outer
products) and one batched d x d solve. ``nuisance`` cross-fits the
propensity of a cell, for every fold and every bootstrap count column, as
one such batch, and :func:`fit_probability` is the one-member call.

In both engines each member's solves, checks and iterates are its own, so
its result does not depend on what else is in the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    DegenerateFold,
    MldidError,
    NoConvergence,
    NonFiniteData,
    SeparableWithoutPenalty,
)

# Convergence constants for the Newton solver.
NEWTON_TOL = 1e-6
NEWTON_MAX_ITER = 500

# The ridge penalty of every nuisance and effect fit (the l2 of the lasso
# fits and of the logistic propensity), and the bounds [DEFAULT_CLIP,
# 1 - DEFAULT_CLIP] at which a fitted propensity is used.
DEFAULT_L2 = 1e-6
DEFAULT_CLIP = 0.01

# Inner cross-validation of the l1 path: its folds (the row front end's
# default), its grid size and the grid's range relative to lambda_max.
CV_FOLDS = 5
CV_N_LAMBDAS = 20
CV_LAMBDA_MIN_RATIO = 1e-4
CV_LAMBDA_MAX_RATIO = 10.0


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


def _pin_constant_columns(X, center, scale, rows=None, candidates=None):
    """Center each column constant on the rows exactly at its value, with unit scale.

    A weighted mean can round off a constant column's value and leave it a
    spread of a few ulps, which would scale the column (and any other rows
    it is applied to) up by ~1e16. Only a column whose spread is at
    rounding level can be constant, so only those are compared; a caller
    whose spread carries more rounding passes its own ``candidates`` mask.
    ``center`` and ``scale`` are updated in place; returns the mask of
    constant columns. ``rows`` (a boolean mask) restricts the rows considered.
    """
    if candidates is None:
        candidates = scale <= 1e-6 * np.abs(center)
    const = np.zeros(X.shape[1], dtype=bool)
    for j in np.flatnonzero(candidates):
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
    coefficients or by standardizing first. ``n_sweeps`` counts the steps
    of the path the model was read from: its support solves, or 1 for the
    closed-form l1 = 0 fit.
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


def _solve_each(M, rhs):
    """Solve ``M[b] x = rhs[b]`` per member; NaN for a singular M[b]."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for b in range(M.shape[0]):
            try:
                out[b] = np.linalg.solve(M[b], rhs[b])
            except np.linalg.LinAlgError:
                pass
        return out


# Why a member of ``_lasso_path`` failed, by the code it returns (0: it did not).
_PATH_FAILURES = (
    None,
    "the lasso path met a singular or non-finite support system",
    "the lasso path did not end within its step bound (it cycles)",
)


def _lasso_path(G, c, grid, l2, pf):
    """Exact l1 paths of a batch of Gram systems, followed event by event.

    Member b minimizes ``0.5 b'G[b]b - c[b]'b + l1*sum(pf|b|) +
    0.5*l2*sum(pf b^2)`` at each ``l1 = grid[b, i]``, a non-increasing
    row. With ``A = G + l2 diag(pf)``, on a support S with signs theta the
    solution is affine in l1, ``b_S = u - l1 v`` with ``A_SS u = c_S`` and
    ``A_SS v = (pf theta)_S``, which the ridge keeps positive definite
    (the LARS-lasso homotopy of Efron, Hastie, Johnstone & Tibshirani 2004
    and Osborne, Presnell & Turlach 2000). A member starts above
    lambda_max with its unpenalized columns solved and the others at zero.
    Each step solves its support and goes down to the next event: the
    largest l1 at which an active penalized coefficient ``u_j - l1 v_j``
    reaches zero (it leaves) or an inactive residual ``(c - A b)_j``
    reaches ``±l1 pf_j`` (it enters with that sign). The grid points on
    the way are read off as ``u - l1 v``. Events are taken largest first,
    and one that a tie or rounding puts at or above the current l1 is
    taken before any further point is read, so several events at one l1
    take a step each. A column whose residual runs along its bound, to
    within the rounding of ``A v``, does not enter: it would make the
    support singular (a copy of an active column) or take back the exit
    just made. Unpenalized columns never leave, all-zero columns never
    enter, and a point with l1 = 0 is solved in closed form.

    One step of the batch is one batched solve of the members still
    moving, whose solves and checks are their own, so a member's path
    does not depend on the batch. A member fails, keeping the points it
    has read off, when a support system is singular or not finite, or when
    it takes more than ``2 p (L + 1)`` steps, two changes of every column
    per grid interval: paths take far fewer (one per change of support),
    so more means it cycles on rounding ties.

    Returns ``(path, steps, failed)``: the solutions ``(B, L, p)``, each
    member's steps (its support solves, and one per closed-form point),
    and per member the index into ``_PATH_FAILURES`` of why it failed (0
    if it did not).
    """
    B, p = c.shape
    L = grid.shape[1]
    path = np.zeros((B, L, p))
    steps = np.zeros(B, dtype=np.int64)
    failed = np.zeros(B, dtype=np.int8)
    if p == 0:
        return path, steps, failed
    for b, i in zip(*np.nonzero(grid == 0.0)):
        path[b, i] = _ridge_solve(G[b], c[b], l2, pf)
        steps[b] += 1
    failed[~np.all(np.isfinite(path), axis=(1, 2))] = 1
    A = G + l2 * pf * np.eye(p)
    pen = pf > 0.0
    # Unpenalized columns start in the support, all-zero ones aside. An
    # all-zero column's residual stays exactly zero, so it never enters.
    pattern = (~pen & (np.diagonal(G, axis1=1, axis2=2) > 0.0)).astype(np.int8)
    n_pos = np.sum(grid > 0.0, axis=1)
    read = np.zeros(B, dtype=np.int64)  # grid points read off so far
    diag, points, cap = np.arange(p), np.arange(L), 2 * p * (L + 1)
    # (A v)_j is within p eps sum_i |A_ji v_i| of pf_j theta_j on the support
    # (the residual of a backward-stable solve) and of its exact value off
    # it (the rounding of the product; Higham 2002, sec. 3.1).
    A_abs, rounding = np.abs(A), p * np.finfo(float).eps
    moving = np.flatnonzero((n_pos > 0) & (failed == 0))
    while moving.size:
        m = moving
        pat = pattern[m]
        on = pat != 0
        M = np.where(on[:, :, None] & on[:, None, :], A[m], 0.0)
        M[:, diag, diag] = np.where(on, M[:, diag, diag], 1.0)
        rhs = np.stack([np.where(on, c[m], 0.0), pf * pat], axis=2)
        uv = _solve_each(M, rhs)
        steps[m] += 1
        # The residual c - A b = a + l1 w along the segment.
        Auv = A[m] @ uv
        a, w = c[m] - Auv[..., 0], Auv[..., 1]
        bad = ~(np.all(np.isfinite(Auv), axis=(1, 2)) & np.all(np.isfinite(a), axis=1))
        failed[m[bad]] = 1
        if bad.any():
            m, pat, on, uv, a, w = (x[~bad] for x in (m, pat, on, uv, a, w))
        u, v = uv[..., 0], uv[..., 1]
        s = np.sign(a).astype(np.int8)
        # An inactive column enters at the sign s of a when the bound
        # l1 pf_j closes on s (a_j + l1 w_j), at l1 = |a_j| / (pf_j - s w_j),
        # if that slope is more than rounding.
        slope = pf - s * w
        noise = rounding * (pf + (A_abs[m] @ np.abs(v)[..., None])[..., 0])
        enter = ~on & pen & (s != 0) & (slope > noise)
        # An active one leaves when theta (u_j - l1 v_j) falls to zero.
        leave = on & pen & (pat * v < 0.0) & (pat * u < 0.0)
        with np.errstate(over="ignore"):
            at = np.divide(np.abs(a), slope, out=np.zeros(a.shape), where=enter)
            np.divide(u, v, out=at, where=leave)
        col = np.argmax(at, axis=1)
        event = at[np.arange(m.size), col]
        # Read off the grid points down to the event, none if it is above them.
        now = ((points >= read[m, None]) & (points < n_pos[m, None])
               & (grid[m] >= event[:, None]))
        k, i = np.nonzero(now)
        path[m[k], i] = u[k] - grid[m[k], i, None] * v[k]
        read[m] += now.sum(axis=1)
        go = read[m] < n_pos[m]
        m, col = m[go], col[go]
        pattern[m, col] = np.where(pat[go, col] != 0, 0, s[go, col])
        over = steps[m] >= cap
        failed[m[over]] = 2
        moving = m[~over]
    return path, steps, failed


def _lambda_max(G, c, pf):
    """Per member of a batch, the smallest l1 at which every penalized coefficient is zero."""
    free = pf == 0.0
    pen = pf > 0.0
    if not pen.any():
        return np.zeros(c.shape[0])
    resid = c
    if free.any():
        # The unpenalized fit of each member; its lstsq keeps the grid's bits.
        b_free = np.stack([np.linalg.lstsq(g[np.ix_(free, free)], r[free], rcond=None)[0]
                           for g, r in zip(G, c)])
        resid = c - (G[:, :, free] @ b_free[:, :, None])[..., 0]
    return np.max(np.abs(resid[:, pen]) / pf[pen], axis=1)


@dataclass
class GramFit:
    """One (design, response) of a batch while its l1 is chosen and refit.

    A front end fills in the standardized Gram system of the fit's training
    rows (``G``, ``c``), the standardization it undoes (``center``,
    ``scale``, ``ybar``) and, for an l1 chosen by cross-validation
    (``l1`` None), per inner fold: the Gram system of its training rows
    (``fold_G``, ``fold_c``) and ``fold_held``, the second moments of its
    held-out rows ``[z, y - ybar_j]``. These are in the fit's standardized
    coordinates, with y centred at the fold's training mean ``ybar_j`` (0
    without an intercept), and normalized by held-out weight; a fold that
    holds no weight gets zeros. The fold's held-out squared error at
    coefficients b is then ``[-b, 1]' H [-b, 1]``, so a GramFit is plain
    data and fits of different cells can share one batch.
    :func:`fit_gram_batch` sets ``grid`` (see :func:`cv_grid`). ``result``
    is preset to an MldidError for a fit that cannot be solved.
    """

    G: np.ndarray | None
    c: np.ndarray | None
    center: np.ndarray | None
    scale: np.ndarray | None
    ybar: float
    l1: float | None
    grid: np.ndarray | None = None
    fold_G: np.ndarray | None = None
    fold_c: np.ndarray | None = None
    fold_held: np.ndarray | None = None
    result: object = None


def check_fixed_l1(fixed_l1) -> None:
    """Reject a pinned l1 no fit could use; None (choose by CV) passes."""
    if fixed_l1 is not None and not (math.isfinite(fixed_l1) and fixed_l1 >= 0):
        raise MldidError(f"fixed l1 must be finite and nonnegative, got {fixed_l1}")


def check_lasso_options(n_folds: int, fixed_l1, cv_rule: str) -> None:
    """Reject settings no fit of a batch could use."""
    if cv_rule not in ("min", "1se"):
        raise MldidError(f"unknown cv_rule: {cv_rule}")
    check_fixed_l1(fixed_l1)
    if fixed_l1 is None and n_folds < 2:
        raise MldidError("need at least 2 inner folds")


def cv_grid(fits: Sequence[GramFit], pf: np.ndarray) -> None:
    """Set the l1 grid of fits to choose by CV, or l1 = 0 where lambda_max <= 0.

    One call serves a whole batch; a fit's grid does not depend on the others.
    """
    if not fits:
        return
    lam_max = _lambda_max(np.stack([fit.G for fit in fits]),
                          np.stack([fit.c for fit in fits]), pf)
    top = np.where(lam_max > 0.0, lam_max, 1.0)
    grids = np.geomspace(top * CV_LAMBDA_MAX_RATIO, top * CV_LAMBDA_MIN_RATIO, CV_N_LAMBDAS,
                         axis=1)
    for fit, grid, positive in zip(fits, grids, lam_max > 0.0):
        if positive:
            fit.grid = grid
        else:
            fit.l1 = 0.0


def fit_gram_batch(
    fits: Sequence[GramFit],
    *,
    l2: float,
    pf: np.ndarray,
    fit_intercept: bool,
    cv_rule: str,
) -> None:
    """The stages after the Gram matrices: CV paths, l1 choice and refit.

    One :func:`cv_grid` call sets the grid of every fit to choose by CV
    (or l1 = 0 where lambda_max is zero), and their inner-fold systems go to
    :func:`_lasso_path` as one batch along their fit's grid. One batched
    product scores every (inner fold, l1) of the batch on its fold's
    held-out moments, and :func:`_cv_choice` picks each fit's l1 from its
    rows. Then every fit without a result is refit at its chosen (or fixed)
    l1 as a second batch of one-point paths, and ``result`` becomes its
    LinearModel or NoConvergence. A fit's result does not depend on the
    other fits of the batch.
    """
    pending = [fit for fit in fits if fit.l1 is None and fit.result is None]
    cv_grid(pending, pf)
    cv = [fit for fit in pending if fit.l1 is None]
    if cv:
        sizes = [fit.fold_G.shape[0] for fit in cv]
        path, _, failed = _lasso_path(
            np.concatenate([fit.fold_G for fit in cv]),
            np.concatenate([fit.fold_c for fit in cv]),
            np.repeat(np.stack([fit.grid for fit in cv]), sizes, axis=0),
            l2, pf,
        )
        fold_err = _held_out_errors(path, np.concatenate([fit.fold_held for fit in cv]))
        for fit, stop, size in zip(cv, np.cumsum(sizes), sizes):
            codes = failed[stop - size:stop]
            if codes.any():
                # The lowest failing fold, which a fold-by-fold solve meets first.
                fit.result = NoConvergence(_PATH_FAILURES[codes[codes > 0][0]])
                continue
            fit.l1 = float(fit.grid[_cv_choice(fold_err[stop - size:stop], cv_rule)])

    refits = [fit for fit in fits if fit.result is None]
    if refits:
        path, steps, failed = _lasso_path(
            np.stack([fit.G for fit in refits]),
            np.stack([fit.c for fit in refits]),
            np.array([[fit.l1] for fit in refits], dtype=float),
            l2, pf,
        )
        for b, fit in enumerate(refits):
            if failed[b]:
                fit.result = NoConvergence(_PATH_FAILURES[failed[b]])
                continue
            coef = path[b, 0] / fit.scale
            intercept = fit.ybar - float(fit.center @ coef) if fit_intercept else 0.0
            fit.result = LinearModel(intercept, coef, fit.l1, l2, fit.center,
                                     fit.scale, int(steps[b]))


def _held_out_errors(path: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Held-out squared errors ``[-b, 1]' H [-b, 1]`` of solved inner paths.

    ``path`` is (folds, l1, p) and ``held`` the folds' (p + 1, p + 1)
    held-out moments (see :class:`GramFit`); returns the (folds, l1) errors.
    """
    v = np.concatenate([-path, np.ones(path.shape[:2] + (1,))], axis=2)
    return np.sum(v @ held * v, axis=2)


def _standard_moments(N, center, ybar, inv_scale):
    """Second moments of the rows ``[(u - center) * inv_scale, y - ybar]`` of row sets.

    ``N[i]`` holds set i's moments ``sum_rows w [1, u, y][1, u, y]'``. The
    result is normalized by the set's weight, ``N[i, 0, 0]``, and taken
    about the set's own mean (the covariance plus the outer product of the
    mean's offset), which keeps the cancellation of a shift small. A set of
    zero weight gets zeros.
    """
    n = N[:, 0, 0]
    empty = n == 0
    n = np.where(empty, 1.0, n)
    mean = N[:, 0, 1:] / n[:, None]
    off = mean - np.concatenate([center, ybar[:, None]], axis=1)
    cov = (N[:, 1:, 1:] / n[:, None, None] - mean[:, :, None] * mean[:, None, :]
           + off[:, :, None] * off[:, None, :])
    s = np.concatenate([inv_scale, np.ones((N.shape[0], 1))], axis=1)
    out = cov * s[:, :, None] * s[:, None, :]
    out[empty] = 0.0
    return out


def _rms_moments(N, scale):
    """Second moments of the rows ``[u / scale, y]`` of row sets, not centred.

    As :func:`_standard_moments`, for a fit without an intercept.
    """
    n = N[:, 0, 0]
    empty = n == 0
    s = np.concatenate([scale, np.ones((N.shape[0], 1))], axis=1)
    out = N[:, 1:, 1:] / (np.where(empty, 1.0, n)[:, None, None]
                          * (s[:, :, None] * s[:, None, :]))
    out[empty] = 0.0
    return out


def moment_fits(
    N: np.ndarray,
    classes: np.ndarray | None = None,
    *,
    fit_intercept: bool,
    l1: float | None,
    shift: np.ndarray | None = None,
    ranges: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[GramFit]:
    """GramFits of regressions from the moments of their rows.

    ``N[i]`` is ``sum_rows w [1, u, y][1, u, y]'`` over fit i's weighted
    training rows, where u are the covariates and y the response, each less
    its entry of ``shift`` (zero by default; a shift near the data keeps
    the sums' cancellation small). With ``fit_intercept`` each covariate is
    centred at its mean and scaled by its standard deviation, and y is
    centred at its mean. A covariate constant on fit i's rows, which
    ``ranges`` shows as equal minimum and maximum ``(lo[i], hi[i])`` in
    original units, is centred at its value and standardizes to exact
    zeros. Without an intercept the covariates are scaled by their root
    mean square and nothing is centred, so the moments must be about zero
    (``shift`` and ``ranges`` are unused).

    For a fit to choose its l1 by CV (``l1`` None), ``classes[i]`` holds
    the ``(K, q, q)`` moments of the K classes of its rows: inner fold j
    trains on ``N[i] - classes[i, j]`` and holds out class j, both in fit
    i's standardization, and the fold's training mean of y centres its
    held-out moments. Its grid is set when it is solved (see
    :func:`fit_gram_batch`).
    """
    n_fits, p = N.shape[0], N.shape[-1] - 2
    shift = np.zeros(p + 1) if shift is None else shift
    n = N[:, 0, 0]
    cov_diag = np.diagonal(N[:, 1:p + 1, 1:p + 1], axis1=1, axis2=2) / n[:, None]
    if fit_intercept:
        mean = N[:, 0, 1:p + 1] / n[:, None]
        scale = np.sqrt(np.maximum(cov_diag - mean**2, 0.0))
        scale[scale == 0.0] = 1.0
        const = np.zeros(mean.shape, dtype=bool)
        center = shift[:p] + mean
        if ranges is not None:
            const = ranges[0] == ranges[1]
            center = np.where(const, ranges[0], center)
        scale[const] = 1.0
        inv_scale = np.where(const, 0.0, 1.0 / scale)
        ybar = N[:, 0, p + 1] / n
        S = _standard_moments(N, mean, ybar, inv_scale)
        ybar = ybar + shift[p]
    else:
        scale = np.sqrt(cov_diag)
        scale[scale == 0.0] = 1.0
        center, ybar = np.zeros((n_fits, p)), np.zeros(n_fits)
        S = _rms_moments(N, scale)
    fits = [GramFit(S[i, :p, :p], S[i, :p, p], center[i], scale[i], float(ybar[i]), l1)
            for i in range(n_fits)]
    if l1 is not None or not n_fits:
        return fits
    K = classes.shape[1]
    held = classes.reshape((-1,) + classes.shape[2:])
    train = (N[:, None] - classes).reshape(held.shape)
    own = np.repeat(np.arange(n_fits), K)
    if fit_intercept:
        # A fold that trains on no weight (a fit of one unit's copies,
        # whose lambda_max is zero, so it is not cross-validated) gets ybar 0.
        n_in = train[:, 0, 0]
        ybar_in = train[:, 0, p + 1] / np.where(n_in > 0, n_in, 1.0)
        train_S = _standard_moments(train, mean[own], ybar_in, inv_scale[own])
        held_S = _standard_moments(held, mean[own], ybar_in, inv_scale[own])
    else:
        train_S, held_S = _rms_moments(train, scale[own]), _rms_moments(held, scale[own])
    for i, fit in enumerate(fits):
        rows = slice(i * K, (i + 1) * K)
        fit.fold_G, fit.fold_c = train_S[rows, :p, :p], train_S[rows, :p, p]
        fit.fold_held = held_S[rows]
    return fits


def row_gram_fit(X, y, *, l2, weights=None, penalty_factor=None, fit_intercept=True,
                 n_folds=CV_FOLDS, fixed_l1=None, cv_rule="min"):
    """The GramFit of one regression from its rows, and its penalty factors.

    This is the row front end of :func:`fit_gram_batch`. It standardizes
    the rows and forms the Gram system of all of them and, with CV, of
    every inner fold (row i is in fold i modulo ``n_folds``), with the
    fold's held-out moments. Raises the MldidError of inputs no fit can use.
    """
    check_lasso_options(n_folds, fixed_l1, cv_rule)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise MldidError("X must be 2-dimensional")
    if y.ndim != 1:
        raise MldidError("y must be 1-dimensional")
    n, p = X.shape
    if y.shape[0] != n:
        raise MldidError("X and y have different lengths")
    if weights is not None and np.shape(weights) != (n,):
        raise MldidError("weights and X have different lengths")
    if n < 2:
        raise MldidError("need at least 2 rows to fit")
    _check_finite("X", X)
    w = _normalized_weights(weights, n)
    pf = np.ones(p) if penalty_factor is None else np.asarray(penalty_factor, float)
    if pf.shape != (p,):
        raise MldidError(f"penalty_factor has shape {pf.shape}, X has {p} columns")
    _check_finite("y", y)
    Z, m, s = _standardize(X, w, center=fit_intercept)
    ybar = float(w @ y) if fit_intercept else 0.0
    wZ = Z * w[:, None]
    fit = GramFit(Z.T @ wZ, wZ.T @ (y - ybar), m, s, ybar, fixed_l1)
    if fixed_l1 is None:
        systems, fold = [], np.arange(n) % n_folds
        for k in range(n_folds):
            test, train = fold == k, fold != k
            w_tr = w[train]
            w_tr = w_tr / w_tr.sum()
            ybar_tr = float(w_tr @ y[train]) if fit_intercept else 0.0
            Z_tr = Z[train]
            wZ_tr = Z_tr * w_tr[:, None]
            w_te = w[test]
            tot = w_te.sum()
            systems.append((Z_tr.T @ wZ_tr, wZ_tr.T @ (y[train] - ybar_tr), weighted_gram(
                np.column_stack([Z[test], y[test] - ybar_tr]), w_te / tot if tot > 0 else w_te)))
        fit.fold_G, fit.fold_c, fit.fold_held = (np.stack(a) for a in zip(*systems))
    return fit, pf


def _row_fit(X, y, *, l2, fit_intercept, cv_rule="min", **options) -> LinearModel:
    """The model of :func:`row_gram_fit`'s fit, solved on its own; raises its MldidError."""
    fit, pf = row_gram_fit(X, y, l2=l2, fit_intercept=fit_intercept, cv_rule=cv_rule,
                           **options)
    fit_gram_batch([fit], l2=l2, pf=pf, fit_intercept=fit_intercept, cv_rule=cv_rule)
    if isinstance(fit.result, MldidError):
        raise fit.result
    return fit.result


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
    return _row_fit(X, y, l2=l2, weights=weights, penalty_factor=penalty_factor,
                    fit_intercept=fit_intercept, fixed_l1=l1)


def ridge_fits(X: np.ndarray) -> Callable[[np.ndarray], LinearModel]:
    """The l1 = 0 fits of several responses on one design, which share its Gram matrix.

    The rows of X are standardized and their Gram matrix formed once. The
    returned function fits one response y with the operations that
    ``fit_penalized_ls(X, y, 0.0, DEFAULT_L2)`` applies to it (its mean, one
    matrix-vector product, the closed-form solve and the unscaling), so
    its model has the same bits and does not depend on the other
    responses. Raises the MldidError of a design no fit can use, and the
    function that of its response.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n < 2:
        raise MldidError("need at least 2 rows to fit")
    _check_finite("X", X)
    w = _normalized_weights(None, n)
    pf = np.ones(p)
    Z, center, scale = _standardize(X, w, center=True)
    wZ = Z * w[:, None]
    G = Z.T @ wZ

    def fit(y: np.ndarray) -> LinearModel:
        y = np.asarray(y, dtype=float)
        _check_finite("y", y)
        ybar = float(w @ y)
        beta = _ridge_solve(G, wZ.T @ (y - ybar), DEFAULT_L2, pf)
        if not np.all(np.isfinite(beta)):
            raise NoConvergence(_PATH_FAILURES[1])
        coef = beta / scale
        return LinearModel(ybar - float(center @ coef), coef, 0.0, DEFAULT_L2, center, scale,
                           int(p > 0))

    return fit


def fit_penalized_ls_cv(
    X: np.ndarray,
    y: np.ndarray,
    *,
    l2: float = DEFAULT_L2,
    weights: np.ndarray | None = None,
    penalty_factor: np.ndarray | None = None,
    fit_intercept: bool = True,
    n_folds: int = CV_FOLDS,
    fixed_l1: float | None = None,
    cv_rule: str = "min",
) -> LinearModel:
    """Elastic-net fit with l1 chosen by K-fold cross-validation.

    The grid is ``CV_N_LAMBDAS`` log-spaced points on
    ``[CV_LAMBDA_MIN_RATIO, CV_LAMBDA_MAX_RATIO] * lambda_max``; the path is
    fit warm-started from large to small l1, and the l1 minimizing held-out
    squared error is refit on the full data. ``cv_rule="1se"`` instead takes
    the largest l1 within one standard error of the minimum (sparser fits,
    the usual choice when selection matters more than prediction).
    ``fixed_l1`` bypasses the search entirely.
    """
    return _row_fit(X, y, l2=l2, weights=weights, penalty_factor=penalty_factor,
                    fit_intercept=fit_intercept, n_folds=n_folds, fixed_l1=fixed_l1,
                    cv_rule=cv_rule)


# ---------------------------------------------------------------------------
# Probability models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbabilityModel:
    """Penalized binary logistic classifier.

    The model is kept in two-class form: ``coef`` and ``intercepts`` have
    one row per label, 0 then 1, and the label-0 row is zero.
    ``predict_proba`` returns the columns P(0), P(1), whose rows sum to one.
    """

    intercepts: np.ndarray  # (2,)
    coef: np.ndarray        # (2, p)
    l2: float
    center: np.ndarray
    scale: np.ndarray
    n_iter: int = 0

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _label_proba(X @ self.coef.T + self.intercepts)


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


def _row_products(D: np.ndarray, pairs) -> np.ndarray:
    """D_ij D_il for every row i and every column pair (j, l) of ``pairs``."""
    return D[:, pairs[0]] * D[:, pairs[1]]


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
    l2: float = DEFAULT_L2,
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
    batch of linear scores, one product of the members' Hessian weights
    with the design's row outer products, and one batched d x d solve over
    the members still moving; a member's Hessian is formed only when it
    steps again. The working set is a few (members, rows) arrays, reused
    across iterations, beside the row outer products (or, for a design
    wider than about twice the members, the members' weighted copies of
    the design). Each member keeps its own convergence test
    (gradient max-norm in its coordinates below ``NEWTON_TOL``), step
    halving and iteration count, and is frozen once it stops, so its result
    does not depend on the rest of the batch.

    Returns per member the ProbabilityModel, or the MldidError its fit
    raised (a missing label, NoConvergence or SeparableWithoutPenalty). A
    non-finite entry of ``X`` raises NonFiniteData for the whole call.
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
    _check_finite("X", X)
    n_members, d = W.shape[1], p + 1

    # Per member: its rows, the label check a fit on those rows alone
    # makes, its normalized weights and its standardization.
    rows = W > 0
    y = labels == 1
    bad_label = np.any(rows & ~(y | (labels == 0))[:, None], axis=0)
    has_both = np.any(rows & y[:, None], axis=0) & np.any(rows & ~y[:, None], axis=0)
    results: list = [None] * n_members
    for b in np.flatnonzero(bad_label | ~has_both):
        results[b] = MldidError("binary logistic requires both labels 0 and 1 present")
    live = np.flatnonzero([r is None for r in results])
    if not live.size:
        return results

    # The shared design [1, Z], standardized over every row. The members'
    # Hessians are weighted sums of its row outer products D_i D_i'. When
    # the products D_ij D_il (j <= l) of every row hold no more entries than
    # the members' weighted copies of the design, a (members, d, rows)
    # array, they are formed once and each Hessian batch is one matrix
    # product with them; a design wider than about twice the members uses
    # the weighted copies instead.
    Z, m0, s0 = _standardize(X, np.full(n, 1.0 / n), center=True)
    D = np.concatenate([np.ones((n, 1)), Z], axis=1)
    DT = np.ascontiguousarray(D.T)
    upper = np.triu_indices(d)
    Q = _row_products(D, upper) if upper[0].size <= n_members * d else None

    # A member's center and scale from its weighted first and second moments
    # of Z, which is already centered at the unweighted column mean.
    totals = W.sum(axis=0)
    w = np.empty((n_members, n))
    np.divide(W.T, np.where(totals > 0, totals, 1.0)[:, None], out=w)
    mean_z = w @ Z
    sq_z = w @ (Z * Z)
    center = m0 + s0 * mean_z
    scale = s0 * np.sqrt(np.maximum(sq_z - mean_z**2, 0.0))
    # As in _standardize. A column constant on a member's rows carries
    # nothing for it, so its map below is zero and its coefficient stays
    # exactly zero. On such a column the moments leave a spread of rounding
    # size relative to the column's root mean square, so the test allows it.
    maybe_const = scale <= 1e-6 * (np.abs(center) + s0 * np.sqrt(sq_z))
    const = np.zeros((n_members, p), dtype=bool)
    for b in live[maybe_const[live].any(axis=1)]:
        const[b] = _pin_constant_columns(X, center[b], scale[b], rows[:, b], maybe_const[b])
    scale[scale == 0.0] = 1.0

    # Each member's map theta -> phi onto the shared design:
    # phi_0 = theta_0 + a_b . theta_s, phi_s = r_b * theta_s.
    T = np.zeros((n_members, d, d))
    T[:, 0, 0] = 1.0
    T[:, 0, 1:] = np.where(const, 0.0, (m0 - center) / scale)
    T[:, np.arange(1, d), np.arange(1, d)] = np.where(const, 0.0, s0 / scale)
    pen = np.ones(d)
    pen[0] = 0.0
    y_float = y.astype(float)
    # Work (members, rows) arrays: every evaluation writes into the
    # leading rows of these, and ``kept`` holds the P(1) of members that
    # accepted a step while others of the batch were still halving.
    work = np.empty((3, n_members, n))
    kept = None

    def objective(theta, idx):
        """Penalized negative log-likelihood and P(1) for members ``idx``.

        P(1) is a view of the work arrays, valid until the next evaluation.
        """
        k = idx.shape[0]
        eta = np.matmul((T[idx] @ theta[..., None])[..., 0], DT, out=work[0, :k])
        positive = eta >= 0.0
        # The label probabilities as _label_proba gives them from the
        # scores (0, eta): 1 / (1 + e) and e / (1 + e) with e = exp(-|eta|).
        e = np.abs(eta, out=eta)
        np.exp(np.negative(e, out=e), out=e)
        denom = np.add(1.0, e, out=work[1, :k])
        high = np.divide(1.0, denom, out=work[2, :k])
        low = np.divide(e, denom, out=e)
        p1 = denom
        np.copyto(p1, low)
        np.copyto(p1, high, where=positive)
        observed = high
        np.copyto(observed, low, where=positive != y)
        np.log(np.maximum(observed, 1e-300, out=observed), out=observed)
        loglik = np.sum(np.multiply(_members(w, idx), observed, out=observed), axis=1)
        return -loglik + 0.5 * l2 * np.sum((theta * pen) ** 2, axis=1), p1

    def gradient(theta, p1, idx):
        """Gradient in each member's coordinates."""
        resid = np.subtract(p1, y_float, out=work[0, :idx.shape[0]])
        resid *= _members(w, idx)
        g = (T[idx].transpose(0, 2, 1) @ (resid @ D)[..., None])[..., 0]
        return g + l2 * theta * pen

    def hessian(p1, idx):
        """Hessian in each member's coordinates, from the row outer products."""
        k = idx.shape[0]
        r = np.subtract(1.0, p1, out=work[0, :k])
        np.multiply(p1, r, out=r)
        r *= _members(w, idx)
        if Q is None:
            H = ((DT[None] * r[:, None, :]).reshape(k * d, n) @ D).reshape(k, d, d)
        else:
            H = np.empty((k, d, d))
            H[:, upper[0], upper[1]] = H[:, upper[1], upper[0]] = r @ Q
        H = T[idx].transpose(0, 2, 1) @ H @ T[idx]
        H[:, np.arange(d), np.arange(d)] += l2 * pen
        return H

    theta = np.zeros((n_members, d))
    obj = np.zeros(n_members)
    grad = np.zeros((n_members, d))
    n_iter = np.zeros(n_members, dtype=np.int64)
    obj[live], p1 = objective(theta[live], live)
    grad[live] = gradient(theta[live], p1, live)

    # ``p1`` holds P(1) of the members of ``moving``, row for row.
    moving = live
    while moving.size:
        gmax = np.max(np.abs(grad[moving]), axis=1)
        still = gmax >= NEWTON_TOL
        capped = still & (n_iter[moving] >= NEWTON_MAX_ITER)
        for b, g in zip(moving[capped], gmax[capped]):
            results[b] = _separable() if l2 == 0.0 else NoConvergence(
                f"probability fit did not converge in {NEWTON_MAX_ITER} iterations",
                final_delta=float(g),
            )
        go_on = np.flatnonzero(still & ~capped)
        moving, p1 = moving[go_on], _members(p1, go_on)
        if not moving.size:
            break
        n_iter[moving] += 1
        step = _newton_steps(hessian(p1, moving), grad[moving])
        # Step halving: every member starts at t = 1 and halves until its
        # objective does not rise, so the members still searching share t.
        # When every member accepts t = 1, their P(1) stays where the
        # evaluation put it.
        improved = np.zeros(moving.size, dtype=bool)
        pending = np.arange(moving.size)
        p1 = None
        t = 1.0
        while t > 1e-12 and pending.size:
            idx = moving[pending]
            cand = theta[idx] - t * step[pending]
            cand_obj, cand_p1 = objective(cand, idx)
            ok = cand_obj <= obj[idx] + 1e-12 * np.maximum(1.0, np.abs(obj[idx]))
            theta[idx[ok]], obj[idx[ok]] = cand[ok], cand_obj[ok]
            improved[pending[ok]] = True
            if t == 1.0 and ok.all():
                p1 = cand_p1
            else:
                if kept is None:
                    kept = np.empty((n_members, n))
                kept[pending[ok]] = cand_p1[ok]
            pending = pending[~ok]
            t *= 0.5
        if p1 is None:
            p1 = kept[np.flatnonzero(improved)]
        up = moving[improved]
        if up.size:
            grad[up] = gradient(theta[up], p1, up)
        # A stalled line search (at numerical precision) accepts its point.
        stop = ~improved
        if l2 == 0.0:
            diverged = np.max(np.abs(theta[moving]), axis=1) > 1e8
            for b in moving[diverged]:
                results[b] = _separable()
            stop |= diverged
        p1 = _members(p1, np.flatnonzero(~stop[improved]))
        moving = moving[~stop]

    # Unscale back to the original covariate units, label-0 row first.
    coef = np.zeros((n_members, 2, p))
    coef[:, 1] = theta[:, 1:] / scale
    intercepts = np.zeros((n_members, 2))
    intercepts[:, 1] = theta[:, 0] - (coef[:, 1, None, :] @ center[..., None])[:, 0, 0]
    for b in live:
        if results[b] is not None:
            continue
        if l2 == 0.0 and obj[b] < 1e-6:
            # A vanishing mean log-loss means every point is classified with
            # near-certainty: the unpenalized optimum sits at infinity.
            results[b] = _separable()
            continue
        results[b] = ProbabilityModel(
            intercepts=intercepts[b],
            coef=coef[b],
            l2=l2,
            center=center[b],
            scale=scale[b],
            n_iter=int(n_iter[b]),
        )
    return results


def fit_probability(
    X: np.ndarray,
    labels: np.ndarray,
    l2: float = DEFAULT_L2,
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
        X, labels, np.ones((X.shape[0], 1)), l2=l2)[0]
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
) -> np.ndarray:
    """Out-of-fold predictions with fold membership defined by unit.

    The model predicting row i is trained on all rows whose unit lies
    outside fold(i). Fit failures surface as DegenerateFold.
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
