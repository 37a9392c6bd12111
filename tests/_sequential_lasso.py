"""Sequential coordinate-descent reference for the batched lasso engine.

This is a one-problem-at-a-time solver of another kind than the engine in
``mldid.learners``, which follows each l1 path exactly by homotopy: one
coordinate-descent solve per (inner fold, l1), warm-started along the
grid, with a per-sweep objective check. A solve first tries the exact
solution on the support and signs of its warm start, and sweeps
coordinate descent only where that is not optimal, trying again after
sweeps 4, 8, 16, ... when the support or signs changed since the last
try; ``certify=False`` gives plain coordinate descent. The tests compare
the engine against it: the same chosen l1, and coefficients within a
stated tolerance.
"""

from __future__ import annotations

import numpy as np

from mldid.learners import (
    CV_FOLDS,
    CV_LAMBDA_MAX_RATIO,
    CV_LAMBDA_MIN_RATIO,
    CV_N_LAMBDAS,
    LinearModel,
    _lambda_max,
    _normalized_weights,
    _standardize,
)
from mldid.exceptions import NoConvergence

# Coordinate descent stops when its largest step falls below CD_TOL, and
# fails after CD_MAX_SWEEPS sweeps.
CD_TOL = 1e-7
CD_MAX_SWEEPS = 10_000
# A point is certified exact when its optimality conditions hold to
# CERT_TOL relative to the size of the terms they sum, and those terms
# cancel by no more than CERT_GROWTH (see ``certified``). So a certified
# point's conditions hold to 1e-8 of the problem's scale, finer than
# coordinate descent's own stopping rule.
CERT_TOL = 1e-12
CERT_GROWTH = 1e4
# The engine's points are exact, and this reference's descent iterates
# stop within CD_TOL of them in step size: its coefficients and
# predictions agree with the engine's to AGREEMENT of their size.
AGREEMENT = 1e-8


def assert_agrees(got, want):
    """``got`` within AGREEMENT of the reference's ``want``, relative to its size."""
    want = np.asarray(want, dtype=float)
    atol = AGREEMENT * max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def soft_threshold(z: float, thresh: float) -> float:
    if z > thresh:
        return z - thresh
    if z < -thresh:
        return z + thresh
    return 0.0


def enet_objective(beta, G, c, half_yy, l1, l2, pf):
    quad = 0.5 * beta @ G @ beta - c @ beta + half_yy
    return quad + l1 * float(pf @ np.abs(beta)) + 0.5 * l2 * float(pf @ beta**2)


def pattern(beta, pf):
    """Signs of the penalized coefficients, 1 for a nonzero unpenalized one."""
    out = np.zeros(beta.shape[0], dtype=np.int8)
    for j, (b, f) in enumerate(zip(beta, pf)):
        if b > 0.0 or (f == 0.0 and b != 0.0):
            out[j] = 1
        elif b < 0.0:
            out[j] = -1
    return out


def certified(G, c, l1, l2, pf, signs):
    """The exact solution at l1 on the support and signs ``signs``, or None.

    It is returned when it meets the optimality conditions: the penalized
    signs hold, and off the support |c - A b| <= l1 pf up to CERT_TOL of
    max|c| + ||A|| max|b|, with ||A|| max|b| at most CERT_GROWTH times
    max(|c| + l1 pf).
    """
    p = c.shape[0]
    A = G + l2 * pf * np.eye(p)
    on = signs != 0
    M = np.where(np.outer(on, on), A, 0.0)
    for j in range(p):
        if not on[j]:
            M[j, j] = 1.0
    rhs = np.column_stack([np.where(on, c, 0.0), pf * signs])
    try:
        uv = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None
    Auv, row_sums = np.zeros((p, 2)), np.zeros(p)
    for j in range(p):
        Auv += A[:, j, None] * uv[j]
        row_sums += np.abs(A[:, j])
    with np.errstate(over="ignore", invalid="ignore"):
        beta = uv[:, 0] - l1 * uv[:, 1]
        Ab = Auv[:, 0] - l1 * Auv[:, 1]
        size = np.max(row_sums) * np.max(np.abs(beta))
        bound = l1 * pf
        if not size <= CERT_GROWTH * np.max(np.abs(c) + bound):
            return None
        for j in range(p):
            if not on[j]:
                ok = abs(c[j] - Ab[j]) <= bound[j] + CERT_TOL * (np.max(np.abs(c)) + size)
            else:
                ok = pf[j] == 0.0 or signs[j] * beta[j] > 0.0
            if not ok:
                return None
    return beta


def cd_solve(G, c, half_yy, l1, l2, pf, beta0=None, certify=True):
    """One point of a path: the exact solution on the warm support if it is
    optimal, else coordinate descent that tries it again (see the module
    docstring).

    Returns (beta, n_sweeps, final_delta); the objective is asserted
    non-increasing across sweeps.
    """
    p = c.shape[0]
    beta = np.zeros(p) if beta0 is None else beta0.copy()
    if p == 0:
        return beta, 0, 0.0
    if l1 == 0.0:
        A = G + l2 * np.diag(pf)
        diag = np.diag(A).copy()
        if np.any(diag <= 0):
            keep = diag > 0
            beta = np.zeros(p)
            if keep.any():
                beta[keep] = np.linalg.lstsq(
                    A[np.ix_(keep, keep)], c[keep], rcond=None
                )[0]
            return beta, 1, 0.0
        beta = np.linalg.lstsq(A, c, rcond=None)[0]
        return beta, 1, 0.0

    tried = None
    if certify:
        tried = pattern(beta, pf)
        exact = certified(G, c, l1, l2, pf, tried)
        if exact is not None:
            return exact, 0, 0.0
    q = np.zeros(p)
    for j in range(p):
        q += G[:, j] * beta[j]
    denom = np.diag(G) + l2 * pf
    active = denom > 0
    obj = enet_objective(beta, G, c, half_yy, l1, l2, pf)
    delta = np.inf
    for sweep in range(1, CD_MAX_SWEEPS + 1):
        delta = 0.0
        for j in range(p):
            if not active[j]:
                continue
            old = beta[j]
            grad_j = c[j] - q[j] + G[j, j] * old
            new = soft_threshold(grad_j, l1 * pf[j]) / denom[j]
            if new != old:
                step = new - old
                beta[j] = new
                q += G[:, j] * step
                delta = max(delta, abs(step))
        new_obj = (
            0.5 * float(beta @ q) - float(c @ beta) + half_yy
            + l1 * float(pf @ np.abs(beta)) + 0.5 * l2 * float(pf @ beta**2)
        )
        assert new_obj <= obj + 1e-10 * max(1.0, abs(obj)), (
            "coordinate descent objective increased"
        )
        obj = new_obj
        tries = sweep >= 4 and sweep & (sweep - 1) == 0
        if certify and tries and np.any(pattern(beta, pf) != tried):
            tried = pattern(beta, pf)
            exact = certified(G, c, l1, l2, pf, tried)
            if exact is not None:
                return exact, sweep, delta
        if delta < CD_TOL:
            return beta, sweep, delta
    raise NoConvergence(
        f"coordinate descent did not converge in {CD_MAX_SWEEPS} sweeps "
        f"(last max step {delta:.3e})",
        final_delta=delta,
    )


def fit_ls(X, y, l1=0.0, l2=0.0, *, weights=None, penalty_factor=None,
           fit_intercept=True):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    w = _normalized_weights(weights, n)
    pf = np.ones(p) if penalty_factor is None else np.asarray(penalty_factor, float)
    Z, m, s = _standardize(X, w, center=fit_intercept)
    ybar = float(w @ y) if fit_intercept else 0.0
    r = y - ybar
    wZ = Z * w[:, None]
    G = Z.T @ wZ
    c = wZ.T @ r
    half_yy = 0.5 * float(w @ r**2)
    beta, n_sweeps, _ = cd_solve(G, c, half_yy, l1, l2, pf)
    coef = beta / s
    intercept = ybar - float(m @ coef) if fit_intercept else 0.0
    return LinearModel(intercept, coef, l1, l2, m, s, n_sweeps)


def fit_ls_cv(X, y, *, l2=1e-6, weights=None, penalty_factor=None,
              fit_intercept=True, n_folds=CV_FOLDS, n_lambdas=CV_N_LAMBDAS,
              fixed_l1=None, cv_rule="min"):
    """The per-fold, per-l1 cross-validated fit."""
    kw = dict(weights=weights, penalty_factor=penalty_factor,
              fit_intercept=fit_intercept)
    if fixed_l1 is not None:
        return fit_ls(X, y, fixed_l1, l2, **kw)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    w = _normalized_weights(weights, n)
    pf = np.ones(p) if penalty_factor is None else np.asarray(penalty_factor, float)
    Z, m, s = _standardize(X, w, center=fit_intercept)
    ybar = float(w @ y) if fit_intercept else 0.0
    r = y - ybar
    wZ = Z * w[:, None]
    G_full = Z.T @ wZ
    c_full = wZ.T @ r
    lam_max = _lambda_max(G_full[None], c_full[None], pf)[0]
    if lam_max <= 0.0:
        return fit_ls(X, y, 0.0, l2, **kw)
    grid = np.geomspace(
        lam_max * CV_LAMBDA_MAX_RATIO, lam_max * CV_LAMBDA_MIN_RATIO, n_lambdas
    )
    fold_id = np.arange(n) % n_folds
    fold_err = np.zeros((n_folds, n_lambdas))
    for k in range(n_folds):
        test = fold_id == k
        train = ~test
        w_tr = w[train]
        tot = w_tr.sum()
        w_tr = w_tr / tot
        Z_tr, Z_te = Z[train], Z[test]
        ybar_tr = float(w_tr @ y[train]) if fit_intercept else 0.0
        r_tr = y[train] - ybar_tr
        wZ_tr = Z_tr * w_tr[:, None]
        G = Z_tr.T @ wZ_tr
        c = wZ_tr.T @ r_tr
        half_yy = 0.5 * float(w_tr @ r_tr**2)
        beta = np.zeros(p)
        r_te = y[test] - ybar_tr
        w_te = w[test] / w[test].sum()
        for i, lam in enumerate(grid):
            beta, _, _ = cd_solve(G, c, half_yy, lam, l2, pf, beta0=beta)
            resid = r_te - Z_te @ beta
            fold_err[k, i] = float(w_te @ resid**2)
    cv_mean = fold_err.mean(axis=0)
    best = int(np.argmin(cv_mean))
    if cv_rule == "1se":
        cv_se = fold_err.std(axis=0, ddof=1) / np.sqrt(n_folds)
        cutoff = cv_mean[best] + cv_se[best]
        best = int(np.flatnonzero(cv_mean <= cutoff)[0])
    return fit_ls(X, y, float(grid[best]), l2, **kw)
