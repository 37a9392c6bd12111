"""Penalized base learners and the unit-level cross-fitting engine.

All nuisance quantities are estimated with the two model families here:
an elastic-net linear model solved by covariance-update coordinate descent,
and penalized logistic / softmax probability models solved by damped Newton
iterations. Both are deterministic given their inputs, which keeps every
downstream estimate reproducible from a single seed.

Every elastic-net fit goes through one batched engine, ``_lasso_path``
(covariance updates with warm starts along the l1 path, after Friedman,
Hastie & Tibshirani 2010). It takes a batch of standardized Gram systems
and runs each coordinate update as one vector operation over the batch.
:func:`fit_penalized_ls_batch` hands it, in two batches, the inner-CV paths
of many regressions and then their refits at the chosen (or fixed) l1;
``estimate_nuisances`` passes all outcome regressions of a cell at once,
and :func:`fit_penalized_ls` / :func:`fit_penalized_ls_cv` are its
one-regression calls. Each member follows exactly the iterates of a solve
on its own, so the l1 chosen and the coefficients do not depend on what
else is in the batch.
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


def _standardize(X: np.ndarray, w: np.ndarray, center: bool):
    """Weighted center/scale. Without centering, columns are RMS-scaled only."""
    if center:
        m = w @ X
        var = w @ (X - m) ** 2
    else:
        m = np.zeros(X.shape[1])
        var = w @ X**2
    s = np.sqrt(var)
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
class _Fit:
    """One (design, response) of a batch while its l1 is chosen and refit."""

    G: np.ndarray
    c: np.ndarray
    center: np.ndarray
    scale: np.ndarray
    ybar: float
    l1: float | None
    grid: np.ndarray | None = None
    # (row in the path batch, inner fold, training mean of y) per inner fold
    members: list = field(default_factory=list)
    result: object = None


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
    """Elastic-net fits of many regressions, solved as two engine batches.

    Each (regression, response) is fit as by :func:`fit_penalized_ls_cv`
    with the same settings. First the inner-fold l1 paths of all of them go
    to :func:`_lasso_path` as one batch; then every chosen (or fixed) l1 is
    refit on its full training rows as a second batch of one-point paths.
    Only Gram matrices are kept between the stages; the held-out rows are
    standardized again when the path errors are scored.

    All regressions of a batch have the same number of columns. Returns,
    per regression, one entry per response: the LinearModel, or the
    MldidError its fit raised (bad input or NoConvergence).
    """
    if cv_rule not in ("min", "1se"):
        raise MldidError(f"unknown cv_rule: {cv_rule}")
    if fixed_l1 is None and n_folds < 2:
        raise MldidError("need at least 2 inner folds")
    if fixed_l1 is None and n_lambdas < 1:
        raise MldidError("need at least 1 penalty on the l1 grid")

    entries: list[MldidError | list[_Fit]] = []
    pf = None
    path_G, path_c, path_grid = [], [], []
    for reg in regressions:
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
            fit = _Fit(G, None, m, s, 0.0, fixed_l1)
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
                lam_max = _lambda_max(G, fit.c, pf, l2)
                if lam_max <= 0.0:
                    fit.l1 = 0.0
                else:
                    fit.grid = np.geomspace(
                        lam_max * CV_LAMBDA_MAX_RATIO,
                        lam_max * CV_LAMBDA_MIN_RATIO,
                        n_lambdas,
                    )
        entries.append(fits)
        cv_fits = [(fit, y) for fit, y in zip(fits, ys) if fit.grid is not None]
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
            for fit, y in cv_fits:
                ybar_tr = float(w_tr @ y[train]) if fit_intercept else 0.0
                fit.members.append((len(path_G), k, ybar_tr))
                path_G.append(G_k)
                path_c.append(wZ_tr.T @ (y[train] - ybar_tr))
                path_grid.append(fit.grid)

    if path_G:
        path, _, failed = _lasso_path(
            np.stack(path_G), np.stack(path_c), np.stack(path_grid), l2, pf
        )
        for reg, fits in zip(regressions, entries):
            if isinstance(fits, MldidError) or all(f.grid is None for f in fits):
                continue
            X, ys, w, _ = _training_data(reg, penalty_factor)
            Z = _standardize(X, w, center=fit_intercept)[0]
            tests = _inner_folds(X.shape[0], n_folds)
            for fit, y in zip(fits, ys):
                if fit.grid is None:
                    continue
                fail = [failed[b] for b, _, _ in fit.members if not np.isnan(failed[b])]
                if fail:
                    # The lowest failing fold, which a fold-by-fold solve meets first.
                    fit.result = _no_convergence(fail[0])
                    continue
                fold_err = np.zeros((n_folds, n_lambdas))
                for b, k, ybar_tr in fit.members:
                    test = tests[k]
                    Z_te = Z[test]
                    r_te = y[test] - ybar_tr
                    w_te = w[test] / w[test].sum()
                    for i in range(n_lambdas):
                        resid = r_te - Z_te @ path[b, i]
                        fold_err[k, i] = float(w_te @ resid**2)
                fit.l1 = float(fit.grid[_cv_choice(fold_err, cv_rule)])

    refits = [fit for fits in entries if not isinstance(fits, MldidError)
              for fit in fits if fit.result is None]
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
    """Penalized logistic or softmax classifier.

    ``coef`` has one row per class (the first class is the softmax
    reference and carries zeros); ``predict_proba`` emits probabilities
    clipped to ``[clip, 1 - clip]``. Pre-clip softmax rows sum to one.
    """

    kind: str  # "logistic" or "softmax"
    classes: np.ndarray
    intercepts: np.ndarray  # (n_classes,)
    coef: np.ndarray        # (n_classes, p)
    l2: float
    clip: float
    center: np.ndarray
    scale: np.ndarray
    n_iter: int = 0

    def predict_proba(self, X: np.ndarray, clipped: bool = True) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        eta = X @ self.coef.T + self.intercepts
        eta -= eta.max(axis=1, keepdims=True)
        expeta = np.exp(eta)
        proba = expeta / expeta.sum(axis=1, keepdims=True)
        if clipped and self.clip > 0:
            proba = np.clip(proba, self.clip, 1.0 - self.clip)
        return proba


def _softmax_nll_grad_hess(theta, Xd, y_onehot, w, l2, pf_mask, want_hess=True):
    """Objective, gradient and Hessian for reference-class softmax.

    ``theta`` is ((C-1), d) for the non-reference classes; the reference
    class has a fixed zero row. ``pf_mask`` marks penalized entries.
    """
    n, d = Xd.shape
    cm1 = theta.shape[0]
    eta = Xd @ theta.T                          # (n, C-1)
    eta_full = np.concatenate([np.zeros((n, 1)), eta], axis=1)
    eta_full -= eta_full.max(axis=1, keepdims=True)
    expeta = np.exp(eta_full)
    proba = expeta / expeta.sum(axis=1, keepdims=True)

    loglik = np.sum(w * np.log(np.maximum((proba * y_onehot).sum(axis=1), 1e-300)))
    obj = -loglik + 0.5 * l2 * float(np.sum((theta * pf_mask) ** 2))

    resid = proba[:, 1:] - y_onehot[:, 1:]      # (n, C-1)
    grad = (resid * w[:, None]).T @ Xd + l2 * theta * pf_mask

    if not want_hess:
        return obj, grad, None

    H = np.empty((cm1 * d, cm1 * d))
    for a in range(cm1):
        pa = proba[:, a + 1]
        for b in range(a, cm1):
            pb = proba[:, b + 1]
            r = pa * ((1.0 if a == b else 0.0) - pb) * w
            block = Xd.T @ (Xd * r[:, None])
            H[a * d:(a + 1) * d, b * d:(b + 1) * d] = block
            if b != a:
                H[b * d:(b + 1) * d, a * d:(a + 1) * d] = block
    H[np.arange(cm1 * d), np.arange(cm1 * d)] += l2 * pf_mask.ravel()
    return obj, grad, H


def fit_probability(
    X: np.ndarray,
    labels: np.ndarray,
    kind: str = "logistic",
    l2: float = 1e-6,
    clip: float = DEFAULT_CLIP,
) -> ProbabilityModel:
    """Fit a penalized logistic (binary) or softmax (multiclass) model.

    Newton iterations with step halving on the penalized negative
    log-likelihood; converged when the gradient max-norm drops below
    ``NEWTON_TOL``. Intercepts are never penalized.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if X.ndim != 2:
        raise MldidError("X must be 2-dimensional")
    n, p = X.shape
    _check_finite("X", X)
    classes = np.unique(labels)
    if kind == "logistic":
        if not np.all(np.isin(classes, [0, 1])) or classes.shape[0] != 2:
            raise MldidError("binary logistic requires both labels 0 and 1 present")
        classes = np.array([0, 1])
    elif kind == "softmax":
        if classes.shape[0] < 2:
            raise MldidError("softmax requires at least 2 classes present")
    else:
        raise MldidError(f"unknown probability model kind: {kind}")

    w = np.full(n, 1.0 / n)
    Z, m, s = _standardize(X, w, center=True)
    Xd = np.concatenate([np.ones((n, 1)), Z], axis=1)
    d = p + 1

    class_index = np.searchsorted(classes, labels)
    n_classes = classes.shape[0]
    y_onehot = np.zeros((n, n_classes))
    y_onehot[np.arange(n), class_index] = 1.0

    cm1 = n_classes - 1
    theta = np.zeros((cm1, d))
    # Unpenalized intercept column, penalized slopes.
    pf_mask = np.ones((cm1, d))
    pf_mask[:, 0] = 0.0

    obj, grad, H = _softmax_nll_grad_hess(theta, Xd, y_onehot, w, l2, pf_mask)
    n_iter = 0
    while np.max(np.abs(grad)) >= NEWTON_TOL:
        if n_iter >= NEWTON_MAX_ITER:
            if l2 == 0.0:
                raise SeparableWithoutPenalty(
                    "likelihood diverges: data separable and l2 penalty is zero"
                )
            raise NoConvergence(
                f"probability fit did not converge in {NEWTON_MAX_ITER} iterations",
                final_delta=float(np.max(np.abs(grad))),
            )
        n_iter += 1
        try:
            step = np.linalg.solve(H, grad.ravel()).reshape(cm1, d)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad.ravel(), rcond=None)[0].reshape(cm1, d)
        t = 1.0
        improved = False
        while t > 1e-12:
            cand = theta - t * step
            cand_obj, cand_grad, cand_H = _softmax_nll_grad_hess(
                cand, Xd, y_onehot, w, l2, pf_mask
            )
            if cand_obj <= obj + 1e-12 * max(1.0, abs(obj)):
                theta, obj, grad, H = cand, cand_obj, cand_grad, cand_H
                improved = True
                break
            t *= 0.5
        if l2 == 0.0 and np.max(np.abs(theta)) > 1e8:
            raise SeparableWithoutPenalty(
                "likelihood diverges: data separable and l2 penalty is zero"
            )
        if not improved:
            # Line search stalled at numerical precision; accept the point.
            break
    if l2 == 0.0 and obj < 1e-6:
        # A vanishing mean log-loss means every point is classified with
        # near-certainty: the unpenalized optimum sits at infinity.
        raise SeparableWithoutPenalty(
            "likelihood diverges: data separable and l2 penalty is zero"
        )

    # Unscale back to the original covariate units, reference class first.
    theta_full = np.concatenate([np.zeros((1, d)), theta], axis=0)
    slopes = theta_full[:, 1:] / s
    intercepts = theta_full[:, 0] - slopes @ m
    return ProbabilityModel(
        kind=kind,
        classes=classes,
        intercepts=intercepts,
        coef=slopes,
        l2=l2,
        clip=clip,
        center=m,
        scale=s,
        n_iter=n_iter,
    )


# ---------------------------------------------------------------------------
# Fold plans and cross-fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldPlan:
    """Assignment of units to folds; both stacked rows of a unit share a fold."""

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
    out_shape: tuple | None = None,
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
    out = np.empty((n,) + (out_shape or ()))
    out.fill(np.nan)
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
