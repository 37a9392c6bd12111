"""Conditional effect function fit via the orthogonalized lasso loss.

The loss is a sum over a cell's stacked pre and post rows, but both rows
of a unit share x and their C is -B/2 and +B/2, so every quantity of the
fit is a sum of unit moments. :func:`fit_catt_columns` fits every
bootstrap count column of a cell from them in one lasso batch;
:func:`fit_catt` is its one-column call on a stacked bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AllWeightsZero, MldidError, SchemaMismatch
from .learners import GramFit, check_lasso_options, cv_grid, fit_gram_batch, weighted_gram
from .nuisance import LearnerConfig, NuisanceBundle

# The benchmark's tracer (perfbench/tracing.py) wraps these names in this
# module, so they stay importable here although no fit below calls them.
from .learners import fit_penalized_ls, fit_penalized_ls_cv  # noqa: F401

MIN_WEIGHT_MASS = 1e-10


@dataclass(frozen=True)
class CattModel:
    """Linear conditional-effect function tau(x) = intercept + x @ coef."""

    intercept: float
    coef: np.ndarray
    l1: float
    covariate_names: tuple[str, ...]


def fit_catt(
    bundle: NuisanceBundle,
    l1: float | None = None,
    config: LearnerConfig | None = None,
) -> CattModel:
    """Minimize sum_i (H_i - C_i * tau(X_i))^2 + l1 * ||slopes||_1.

    Writing tau(x) = a + x'b turns this into an l1-penalized regression
    of H on the transformed design [C, C*X] with the ``a`` column left
    unpenalized, which is the weighted-lasso form of the loss (weights
    C^2 on the pseudo-outcome H/C). ``l1=None`` selects the penalty by
    inner cross-validation on the held-out loss. The bundle's rows are
    its units' pre rows then their post rows, as :func:`compute_abch`
    leaves them; this is the all-ones column of :func:`fit_catt_columns`.
    """
    if bundle.C is None or bundle.H is None:
        raise MldidError("bundle is missing A/B/C/H; run compute_abch first")
    m = bundle.n_rows // 2
    C, H = bundle.C, bundle.H
    coef, chosen, errors = fit_catt_columns(
        bundle.X[:m], (C[m:] - C[:m])[:, None], H[:m, None], H[m:, None],
        np.ones((m, 1)), l1=l1, config=config)
    if errors[0] is not None:
        raise errors[0]
    return CattModel(
        intercept=float(coef[0, 0]),
        coef=coef[0, 1:].copy(),
        l1=float(chosen[0]),
        covariate_names=bundle.covariate_names,
    )


def fit_catt_columns(X, B, H_pre, H_post, counts, l1=None, config=None):
    """The effect-function fit of every count column, from unit moments.

    Column r's rows are ``counts[i, r]`` copies of unit i's pre row, with
    C = -B/2 and H = H_pre, and of its post row, with C = B/2 and H =
    H_post (each (units, columns)); both rows have the unit's x. So the
    Gram of the design [C, C*X] over the rows, its RMS scale and its cross
    product with H are count-weighted sums of unit moments of z = [1, x]:
    weight B^2/2 for the Gram and B (H_post - H_pre)/2 for the cross
    product. The fits of all columns are one batch of
    ``learners.fit_gram_batch``, each the fit :func:`fit_catt` makes on
    the column's rows.

    With CV the inner folds are those of the row fit: the rank-j drawn
    unit's pre row is in fold ``j % K`` and its post row in fold
    ``(n_drawn + j) % K``, so an inner training set is the column's moments
    less those of two classes of units, and its held-out error is scored on
    their rows. Returns the (columns, 1 + p) coefficients (``a`` first), the
    chosen l1 of each column and per column the MldidError its fit raised,
    or None.
    """
    config = config or LearnerConfig()
    c = np.asarray(counts, dtype=float)
    m, p = X.shape
    d = p + 1
    fixed = l1 if l1 is not None else config.fixed_l1
    if fixed is None:
        check_lasso_options(config.inner_cv_folds, config.n_lambdas, None, "1se")
    Z = np.concatenate([np.ones((m, 1)), X], axis=1)
    C_pre, C_post = B * -0.5, B * 0.5
    weight = c * C_pre**2                   # C^2 of each of a unit's rows
    product = c * C_pre * H_pre, c * C_post * H_post
    n = 2 * c.sum(axis=0)
    gram = np.stack([weighted_gram(Z, 2 * weight[:, r]) for r in range(c.shape[1])])
    cross = (product[0] + product[1]).T @ Z
    scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2) / n[:, None])
    scale[scale == 0.0] = 1.0

    pf = np.concatenate([[0.0], np.ones(p)])
    fits, errors = [], [None] * c.shape[1]
    for r in range(c.shape[1]):
        if n[r] < p + 2:
            errors[r] = MldidError(f"need at least {p + 2} rows to fit tau, have {int(n[r])}")
            continue
        if gram[r, 0, 0] < MIN_WEIGHT_MASS:
            errors[r] = AllWeightsZero("sum of C^2 is numerically zero; tau is unidentified")
            continue
        s = scale[r]
        fit = GramFit(gram[r] / (n[r] * np.outer(s, s)), cross[r] / (n[r] * s),
                      np.zeros(d), s, 0.0, fixed, data=r)
        if fixed is None:
            cv_grid(fit, pf, config.l2, config.n_lambdas)
        fits.append(fit)

    K = config.inner_cv_folds
    path_G, path_c, held = [], [], {}
    for fit in fits:
        if fit.grid is None:
            continue
        r, s = fit.data, fit.scale
        ranked = np.flatnonzero(c[:, r] > 0)
        cls = [ranked[j::K] for j in range(K)]
        for j in range(K):
            # Held out: the pre rows of class j and the post rows of the class
            # whose stacked positions fall in fold j.
            pre, post = cls[j], cls[(j - ranked.size) % K]
            n_tr = n[r] - c[pre, r].sum() - c[post, r].sum()
            g_tr = (gram[r] - weighted_gram(Z[pre], weight[pre, r])
                    - weighted_gram(Z[post], weight[post, r]))
            c_tr = cross[r] - product[0][pre, r] @ Z[pre] - product[1][post, r] @ Z[post]
            fit.members.append((len(path_G), j))
            held[r, j] = pre, post
            path_G.append(g_tr / (n_tr * np.outer(s, s)))
            path_c.append(c_tr / (n_tr * s))

    def fold_errors(fit, path):
        r = fit.data
        fold_err = np.zeros((K, path.shape[1]))
        for b, j in fit.members:
            pre, post = held[r, j]
            # Held-out rows: C z / scale against H, weighted by their counts.
            C_te = np.concatenate([C_pre[pre, r], C_post[post, r]])
            H_te = np.concatenate([H_pre[pre, r], H_post[post, r]])
            w_te = np.concatenate([c[pre, r], c[post, r]])
            resid = H_te[:, None] - C_te[:, None] * (Z[np.r_[pre, post]] / fit.scale @ path[b].T)
            fold_err[j] = w_te / w_te.sum() @ resid**2
        return fold_err

    # The 1se rule keeps the effect function sparse: covariates that do
    # not drive heterogeneity should carry exactly zero coefficients.
    fit_gram_batch(fits, path_G, path_c, fold_errors, l2=config.l2, pf=pf,
                   fit_intercept=False, cv_rule="1se")
    coef, chosen = np.zeros((c.shape[1], d)), np.full(c.shape[1], np.nan)
    for fit in fits:
        if isinstance(fit.result, MldidError):
            errors[fit.data] = fit.result
        else:
            coef[fit.data], chosen[fit.data] = fit.result.coef, fit.result.l1
    return coef, chosen, errors


def predict_catt(model: CattModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.coef.shape[0]:
        raise SchemaMismatch(
            f"expected {model.coef.shape[0]} covariate columns, "
            f"got {X.shape[1] if X.ndim == 2 else '?'}"
        )
    return model.intercept + X @ model.coef


def catt_loss(bundle: NuisanceBundle, model: CattModel, l1: float | None = None) -> float:
    """The penalized objective evaluated at a candidate effect function."""
    tau = predict_catt(model, bundle.X)
    resid = bundle.H - bundle.C * tau
    pen = (l1 if l1 is not None else model.l1) * float(np.sum(np.abs(model.coef)))
    return float(np.sum(resid**2)) + pen
