"""Per-fit Newton reference for the batched logistic engine.

This is the one-fit-at-a-time solver the batched engine in
``mldid.learners`` replaced: damped Newton iterations on the fit's own
standardized design, with the objective, gradient and Hessian recomputed at
every trial point. The tests compare the engine against it and require the
same probabilities, iteration counts and errors.
"""

from __future__ import annotations

import numpy as np

from mldid.exceptions import DegenerateFold, MldidError, NoConvergence, SeparableWithoutPenalty
from mldid.learners import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ProbabilityModel,
    _check_finite,
    _label_proba,
    _standardize,
)


def _separable():
    return SeparableWithoutPenalty(
        "likelihood diverges: data separable and l2 penalty is zero"
    )


def logistic_nll_grad_hess(theta, Xd, y, w, l2, pen):
    """Objective, gradient and Hessian of the penalized logistic loss."""
    eta = Xd @ theta
    proba = _label_proba(np.column_stack([np.zeros_like(eta), eta]))
    p1 = proba[:, 1]
    loglik = np.sum(w * np.log(np.maximum(np.where(y, p1, proba[:, 0]), 1e-300)))
    obj = -loglik + 0.5 * l2 * float(np.sum((theta * pen) ** 2))
    grad = ((p1 - y) * w) @ Xd + l2 * theta * pen
    r = p1 * (1.0 - p1) * w
    H = Xd.T @ (Xd * r[:, None])
    H[np.diag_indices_from(H)] += l2 * pen
    return obj, grad, H


def fit_probability(X, labels, l2=1e-6):
    """Newton iterations with step halving on one fit's standardized design."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if X.ndim != 2:
        raise MldidError("X must be 2-dimensional")
    n, p = X.shape
    _check_finite("X", X)
    classes = np.unique(labels)
    if not np.all(np.isin(classes, [0, 1])) or classes.shape[0] != 2:
        raise MldidError("binary logistic requires both labels 0 and 1 present")
    y = (labels == 1).astype(float)

    w = np.full(n, 1.0 / n)
    Z, m, s = _standardize(X, w, center=True)
    Xd = np.concatenate([np.ones((n, 1)), Z], axis=1)
    d = p + 1
    theta = np.zeros(d)
    pen = np.ones(d)
    pen[0] = 0.0

    obj, grad, H = logistic_nll_grad_hess(theta, Xd, y, w, l2, pen)
    n_iter = 0
    while np.max(np.abs(grad)) >= NEWTON_TOL:
        if n_iter >= NEWTON_MAX_ITER:
            if l2 == 0.0:
                raise _separable()
            raise NoConvergence(
                f"probability fit did not converge in {NEWTON_MAX_ITER} iterations",
                final_delta=float(np.max(np.abs(grad))),
            )
        n_iter += 1
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        t = 1.0
        improved = False
        while t > 1e-12:
            cand = theta - t * step
            cand_obj, cand_grad, cand_H = logistic_nll_grad_hess(
                cand, Xd, y, w, l2, pen
            )
            if cand_obj <= obj + 1e-12 * max(1.0, abs(obj)):
                theta, obj, grad, H = cand, cand_obj, cand_grad, cand_H
                improved = True
                break
            t *= 0.5
        if l2 == 0.0 and np.max(np.abs(theta)) > 1e8:
            raise _separable()
        if not improved:
            break
    if l2 == 0.0 and obj < 1e-6:
        raise _separable()

    theta_full = np.stack([np.zeros(d), theta])
    slopes = theta_full[:, 1:] / s
    intercepts = theta_full[:, 0] - slopes @ m
    return ProbabilityModel(intercepts=intercepts, coef=slopes, l2=l2,
                            center=m, scale=s, n_iter=n_iter)


def cross_fit_propensity(X, labels, fold, n_folds, l2=1e-6):
    """Out-of-fold P(1) fold by fold, as the nuisance cross-fit made it.

    Returns the predictions and the models per fold; raises the
    DegenerateFold of the first fold that fails.
    """
    out = np.full(X.shape[0], np.nan)
    models = {}
    for k in range(n_folds):
        test = fold == k
        if not test.any():
            continue
        train = ~test
        if int(train.sum()) < 2:
            raise DegenerateFold(
                f"fold {k}: training complement has {int(train.sum())} rows"
            )
        try:
            if np.unique(labels[train]).shape[0] < 2:
                raise MldidError("training fold lacks both binary classes")
            model = fit_probability(X[train], labels[train], l2=l2)
        except MldidError as err:
            raise DegenerateFold(f"fold {k}: {err}") from err
        models[k] = model
        out[test] = model.predict_proba(X[test])[:, 1]
    return out, models
