"""Conditional effect function fit via the orthogonalized lasso loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AllWeightsZero, MldidError, SchemaMismatch
from .learners import fit_penalized_ls, fit_penalized_ls_cv
from .nuisance import LearnerConfig, NuisanceBundle

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
    inner cross-validation on the held-out loss.
    """
    config = config or LearnerConfig()
    if bundle.C is None or bundle.H is None:
        raise MldidError("bundle is missing A/B/C/H; run compute_abch first")
    C, H, X = bundle.C, bundle.H, bundle.X
    n, p = X.shape
    if n < p + 2:
        raise MldidError(f"need at least {p + 2} rows to fit tau, have {n}")
    if float(np.sum(C**2)) < MIN_WEIGHT_MASS:
        raise AllWeightsZero("sum of C^2 is numerically zero; tau is unidentified")

    design = np.concatenate([C[:, None], C[:, None] * X], axis=1)
    pf = np.concatenate([[0.0], np.ones(p)])
    if l1 is not None:
        model = fit_penalized_ls(
            design, H, l1, config.l2, penalty_factor=pf, fit_intercept=False
        )
        chosen = l1
    else:
        # The 1se rule keeps the effect function sparse: covariates that do
        # not drive heterogeneity should carry exactly zero coefficients.
        model = fit_penalized_ls_cv(
            design, H,
            l2=config.l2,
            penalty_factor=pf,
            fit_intercept=False,
            n_folds=config.inner_cv_folds,
            n_lambdas=config.n_lambdas,
            fixed_l1=config.fixed_l1,
            cv_rule="1se",
        )
        chosen = model.l1
    return CattModel(
        intercept=float(model.coef[0]),
        coef=model.coef[1:].copy(),
        l1=float(chosen),
        covariate_names=bundle.covariate_names,
    )


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
