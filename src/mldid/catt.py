"""Conditional effect function fit on a cell's units' first differences.

The MLDID loss sums (H - C tau(x))^2 over a cell's stacked pre and post
rows. A unit's two rows share x, their C is -B/2 and +B/2, and the
difference of their H is dH, so the loss is (1/2) sum_units
(dH - B tau(x))^2 plus a term free of tau (see :mod:`mldid.nuisance`).
The fit is therefore a lasso on the unit rows, with design (B/2)[1, x] and
response dH/2, which has the stacked rows' Gram matrix, scale and cross
product per row, so a fixed l1 gives the stacked fit's tau. Its inner CV
folds hold out whole units. :func:`fit_catt_columns` fits every bootstrap
count column of a cell from unit moments in one lasso batch;
:func:`fit_catt` is its one-column call on a bundle.
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
    """Minimize sum_i (dH_i - B_i * tau(X_i))^2 + l1 * ||slopes||_1 over the units.

    Writing tau(x) = a + x'b turns this into an l1-penalized regression
    of dH/2 on the design (B/2)[1, X] with the ``a`` column left
    unpenalized (penalties on the standardized scale). ``l1=None`` selects
    the penalty by inner cross-validation on the held-out loss, or uses
    ``config.fixed_l1`` if set. This is the all-ones column of
    :func:`fit_catt_columns`.
    """
    if bundle.B is None or bundle.dH is None:
        raise MldidError("bundle is missing B/dH; run compute_abch first")
    coef, chosen, errors = fit_catt_columns(
        bundle.X, bundle.B[:, None], bundle.dH[:, None], np.ones((bundle.n_units, 1)),
        l1=l1, config=config)
    if errors[0] is not None:
        raise errors[0]
    return CattModel(
        intercept=float(coef[0, 0]),
        coef=coef[0, 1:].copy(),
        l1=float(chosen[0]),
        covariate_names=bundle.covariate_names,
    )


def fit_catt_columns(X, B, dH, counts, l1=None, config=None):
    """The effect-function fit of every count column, from unit moments.

    Column r's rows are ``counts[i, r]`` copies of unit i, with design
    (B/2) z, z = [1, x], and response dH/2 (B and dH are (units, columns)).
    So the Gram matrix of the design, its RMS scale and its cross product
    with the response are count-weighted sums of unit moments of z, with
    weights B^2/4 and B dH/4. The fits of all columns are one batch of
    ``learners.fit_gram_batch``, each the fit ``fit_penalized_ls_cv`` makes
    on the column's drawn units with their counts as weights.

    With CV the inner folds rank the column's drawn units: fold j holds
    out the ranks equal to j modulo K, so an inner training set is the
    column's moments less those of one class of units, and its held-out
    error is the count-weighted mean of (dH - B tau(x))^2 over that class.
    The l1 follows the 1se rule. Returns the (columns, 1 + p) coefficients
    (``a`` first), the chosen l1 of each column and per column the
    MldidError its fit raised, or None.
    """
    config = config or LearnerConfig()
    c = np.asarray(counts, dtype=float)
    m, p = X.shape
    d = p + 1
    fixed = l1 if l1 is not None else config.fixed_l1
    if fixed is None:
        check_lasso_options(config.inner_cv_folds, config.n_lambdas, None, "1se")
    Z = np.concatenate([np.ones((m, 1)), X], axis=1)
    weight = c * B**2 / 4
    product = c * B * dH / 4
    n = c.sum(axis=0)
    gram = np.stack([weighted_gram(Z, weight[:, r]) for r in range(c.shape[1])])
    cross = product.T @ Z
    scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2) / n[:, None])
    scale[scale == 0.0] = 1.0

    pf = np.concatenate([[0.0], np.ones(p)])
    fits, errors = [], [None] * c.shape[1]
    for r in range(c.shape[1]):
        if n[r] < p + 2:
            errors[r] = MldidError(f"need at least {p + 2} units to fit tau, have {int(n[r])}")
            continue
        if 4 * gram[r, 0, 0] < MIN_WEIGHT_MASS:
            errors[r] = AllWeightsZero("sum of B^2 is numerically zero; tau is unidentified")
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
        for j in range(K):
            out = held[r, j] = ranked[j::K]
            n_tr = n[r] - c[out, r].sum()
            g_tr = gram[r] - weighted_gram(Z[out], weight[out, r])
            c_tr = cross[r] - product[out, r] @ Z[out]
            fit.members.append((len(path_G), j))
            path_G.append(g_tr / (n_tr * np.outer(s, s)))
            path_c.append(c_tr / (n_tr * s))

    def fold_errors(fit, path):
        r = fit.data
        fold_err = np.zeros((K, path.shape[1]))
        for b, j in fit.members:
            out = held[r, j]
            # tau on the held-out units is z / scale times the path's coefficients.
            resid = dH[out, r, None] - B[out, r, None] * (Z[out] / fit.scale @ path[b].T)
            w = c[out, r]
            fold_err[j] = w / w.sum() @ resid**2
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
    """The penalized objective evaluated at a candidate effect function.

    The loss is the part of the stacked rows' sum of squares that involves
    tau, (1/2) sum_units (dH - B tau(x))^2.
    """
    tau = predict_catt(model, bundle.X)
    resid = bundle.dH - bundle.B * tau
    pen = (l1 if l1 is not None else model.l1) * float(np.sum(np.abs(model.coef)))
    return 0.5 * float(np.sum(resid**2)) + pen
