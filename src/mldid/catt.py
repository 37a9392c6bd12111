"""Conditional effect function fit on a cell's units' first differences.

The MLDID loss sums (H - C tau(x))^2 over a cell's stacked pre and post
rows. A unit's two rows share x, their C is -B/2 and +B/2, and the
difference of their H is dH, so the loss is (1/2) sum_units
(dH - B tau(x))^2 plus a term free of tau (see :mod:`mldid.nuisance`).
The fit is therefore a lasso on the unit rows, with design (B/2)[1, x] and
response dH/2, which has the stacked rows' Gram matrix, scale and cross
product per row, so a fixed l1 gives the stacked fit's tau. Its inner CV
folds hold out whole units.

The fit of every bootstrap count column of a cell is built from unit
moments in stages, for the stage-major engine of :mod:`mldid.estimator`:
:func:`catt_fits` forms the moments of the columns whose nuisances were
fit and ``learners.moment_fits`` turns them into the columns'
``learners.GramFit`` systems, with their inner folds' held-out moments;
:func:`solve_catt` solves those of every cell of a group as one lasso
batch, and the function :func:`catt_fits` returned then collects the
coefficients of every column. :func:`fit_catt` runs the stages for the
one column of a bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AllWeightsZero, MldidError, SchemaMismatch
from .learners import (CV_FOLDS, CV_N_LAMBDAS, DEFAULT_L2, GramFit, check_fixed_l1,
                       fit_gram_batch, moment_fits, weighted_gram)
from .nuisance import NuisanceBundle

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


def fit_catt(bundle: NuisanceBundle, fixed_l1: float | None = None) -> CattModel:
    """Minimize sum_i (dH_i - B_i * tau(X_i))^2 + l1 * ||slopes||_1 over the units.

    Writing tau(x) = a + x'b turns this into an l1-penalized regression
    of dH/2 on the design (B/2)[1, X] with the ``a`` column left
    unpenalized (penalties on the standardized scale). The penalty is
    ``fixed_l1``, or if None is chosen by inner cross-validation on the
    held-out loss. This is the all-ones column of :func:`catt_fits`.
    """
    if bundle.B is None or bundle.dH is None:
        raise MldidError("bundle is missing B/dH; run compute_abch first")
    fits, collect = catt_fits(bundle.X, bundle.B[:, None], bundle.dH[:, None],
                              np.ones((bundle.n_units, 1)), fixed_l1)
    solve_catt(fits)
    coef, chosen, errors = collect()
    if errors[0] is not None:
        raise errors[0]
    return CattModel(
        intercept=float(coef[0, 0]),
        coef=coef[0, 1:].copy(),
        l1=float(chosen[0]),
        covariate_names=bundle.covariate_names,
    )


def solve_catt(fits: list[GramFit]) -> None:
    """Solve the effect-function GramFits of any number of cells as one batch.

    The ``a`` column is unpenalized, and a CV-chosen l1 follows the 1se
    rule, which keeps the effect function sparse: covariates that do not
    drive heterogeneity should carry exactly zero coefficients.
    """
    if fits:
        d = fits[0].G.shape[0]
        fit_gram_batch(fits, l2=DEFAULT_L2, pf=np.concatenate([[0.0], np.ones(d - 1)]),
                       fit_intercept=False, cv_rule="1se")


def catt_fits(X, B, dH, counts, fixed_l1=None, errors=None):
    """The Gram systems of every count column's effect-function fit.

    Column r's rows are ``counts[i, r]`` copies of unit i, with design
    (B/2) z, z = [1, x], and response dH/2 (B and dH are (units, columns)).
    So the Gram matrix of the design, its RMS scale and its cross product
    with the response are count-weighted sums of unit moments of z, with
    weights B^2/4 and B dH/4. Once :func:`solve_catt` has solved them,
    together with those of other cells, each fit is the one
    ``fit_penalized_ls_cv`` makes on the column's drawn units with their
    counts as weights.

    The fits pin l1 at ``fixed_l1``, or if None choose it by CV: the
    K = CV_FOLDS inner folds rank the column's drawn units, and fold j
    holds out the ranks equal to j modulo K, so an inner training set is the
    column's moments less those of one class of units, and its held-out
    error, a quadratic form in that class's moments, is a quarter of the
    count-weighted mean of (dH - B tau(x))^2 over the class.

    ``errors[r]``, if given, is the MldidError that stopped column r
    before this stage (its nuisance fits), or None; a failed column forms
    no moments and keeps its error. Returns the GramFits and a function
    that, once they are solved, returns the (columns, 1 + p) coefficients
    (``a`` first), the chosen l1 of each column and per column the
    MldidError that stopped it, or None.
    """
    m, p = X.shape
    check_fixed_l1(fixed_l1)
    errors = list(errors or [None] * counts.shape[1])
    coef, chosen = np.zeros((len(errors), p + 1)), np.full(len(errors), np.nan)
    live = np.flatnonzero([err is None for err in errors])
    if not live.size:
        return [], lambda: (coef, chosen, errors)
    if live.size < len(errors):
        counts, B, dH = counts[:, live], B[:, live], dH[:, live]
    c = np.asarray(counts, dtype=float)
    Z = np.concatenate([np.ones((m, 1)), X], axis=1)
    N = _unit_moments(Z, c, B, dH)
    cols = []
    for i, r in enumerate(live):
        n = N[i, 0, 0]
        if n < p + 2:
            errors[r] = MldidError(f"need at least {p + 2} units to fit tau, have {int(n)}")
        elif 4 * N[i, 1, 1] < MIN_WEIGHT_MASS:
            errors[r] = AllWeightsZero("sum of B^2 is numerically zero; tau is unidentified")
        else:
            cols.append(i)
    classes = None
    if fixed_l1 is None and cols:
        K = CV_FOLDS
        classes = np.zeros((len(cols), K) + N.shape[1:])
        for a, i in enumerate(cols):
            ranked = np.flatnonzero(c[:, i] > 0)
            for j in range(K):
                out = ranked[j::K]
                classes[a, j] = _unit_moments(Z[out], *(v[out][:, [i]] for v in (c, B, dH)))[0]
    fits = moment_fits(N[cols], classes, fit_intercept=False, l1=fixed_l1,
                       n_lambdas=CV_N_LAMBDAS)

    def collect():
        for r, fit in zip(live[cols], fits):
            if isinstance(fit.result, MldidError):
                errors[r] = fit.result
            else:
                coef[r], chosen[r] = fit.result.coef, fit.result.l1
        return coef, chosen, errors

    return fits, collect


def _unit_moments(Z, c, B, dH):
    """Moments of every count column's unit rows, one (q, q) block per column.

    Column r's unit i is the row ``[1, (B_ir / 2) z_i, dH_ir / 2]`` with
    weight ``c_ir``; the block of the design is the Gram matrix of z with
    weights c B^2/4, and its cross product with the response has weights
    c B dH/4.
    """
    n_cols, d = c.shape[1], Z.shape[1]
    weight = c * B**2 / 4
    product = c * B * dH / 4
    N = np.empty((n_cols, d + 2, d + 2))
    N[:, 0, 0] = c.sum(axis=0)
    N[:, 0, 1:-1] = (c * B / 2).T @ Z
    N[:, 0, -1] = (c * dH / 2).sum(axis=0)
    N[:, 1:-1, 1:-1] = [weighted_gram(Z, weight[:, r]) for r in range(n_cols)]
    N[:, 1:-1, -1] = product.T @ Z
    N[:, -1, -1] = (c * dH**2 / 4).sum(axis=0)
    N[:, 1:, 0] = N[:, 0, 1:]
    N[:, -1, 1:-1] = N[:, 1:-1, -1]
    return N


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
