"""Cross-fitted nuisance functions and the orthogonal decomposition terms.

For one two-period slice this module estimates the treatment propensity
g(x), the pooled outcome regression m(x), and the conditional-mean
contrasts nu(x) (over time) and zeta(x) (over treatment group), then
derives the per-row quantities A, B, C and the partial residual H that
feed the effect-function fit.

Every unit of a slice contributes one pre and one post row with the same
covariates and group, so the period probability t(x) is 1/2 and the
conditional covariance of G and T given X is zero by construction. The
decomposition coefficients then have the closed forms A = T - 1/2,
B = G - g(x) and C = (G - g(x))(T - 1/2), and g(x) is the only
probability model a cell fits.

Each nuisance is cross-fit over the folds of a unit-level plan in one
batched engine call per cell: g(x) as one logistic member per fold on the
slice's unit rows (:func:`_cross_fit_propensity`), and the five outcome
regressions of every fold as one lasso batch (:func:`_cross_fit_regressions`).
Each prediction is the one a fold-by-fold cross-fit would make, and a fold
that cannot be fit raises the DegenerateFold that fold-by-fold
cross-fitting would raise first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateFold, MissingStratum, MldidError
from .learners import (
    CV_FOLDS,
    CV_N_LAMBDAS,
    DEFAULT_CLIP,
    FoldPlan,
    Regression,
    fit_penalized_ls_batch,
    fit_penalized_ls_cv,
    fit_probability_batch,
)

# The benchmark's tracer (perfbench/tracing.py) wraps these names in this
# module, so they stay importable here although no fit below calls them.
from .learners import cross_fit, fit_probability  # noqa: F401


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters shared by all nuisance fits.

    ``fixed_l1`` pins the l1 penalty of every regression fit (skipping
    the inner cross-validation), which is useful for bootstrap replicates
    and quick runs.
    """

    l2: float = 1e-6
    prob_l2: float = 1e-6
    clip: float = DEFAULT_CLIP
    inner_cv_folds: int = CV_FOLDS
    n_lambdas: int = CV_N_LAMBDAS
    fixed_l1: float | None = None

    def lasso_options(self) -> dict:
        """Keyword arguments of the regression fits under this config."""
        return dict(l2=self.l2, n_folds=self.inner_cv_folds,
                    n_lambdas=self.n_lambdas, fixed_l1=self.fixed_l1)

    def fit_regression(self, X, y, *, weights=None, penalty_factor=None,
                       fit_intercept=True):
        """One regression fit as :func:`estimate_nuisances` fits each."""
        return fit_penalized_ls_cv(
            X, y, weights=weights, penalty_factor=penalty_factor,
            fit_intercept=fit_intercept, **self.lasso_options(),
        )


@dataclass(frozen=True)
class NuisanceBundle:
    """Stacked two-period rows with their nuisance predictions.

    Rows 0..m-1 are the pre-period observations, rows m..2m-1 the post
    ones; ``units`` maps each row back to its slice unit. A, B, C and H
    are filled by :func:`compute_abch`.
    """

    y: np.ndarray
    g: np.ndarray
    t: np.ndarray
    X: np.ndarray
    units: np.ndarray
    unit_ids: np.ndarray
    covariate_names: tuple[str, ...]
    g_hat: np.ndarray
    m_hat: np.ndarray
    nu_hat: np.ndarray
    zeta_hat: np.ndarray
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    C: np.ndarray | None = None
    H: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return int(self.y.shape[0])

    @property
    def n_units(self) -> int:
        return int(self.unit_ids.shape[0])

    @property
    def n_dropped(self) -> int:
        # The closed-form decomposition keeps every row. The benchmark's
        # nuisance.rows_dropped counter still reads this attribute.
        return 0


def _stack_slice(sl):
    m = sl.n_units
    y = np.concatenate([sl.y_pre, sl.y_post])
    g = np.concatenate([sl.g_flag, sl.g_flag]).astype(np.int8)
    t = np.concatenate([np.zeros(m, np.int8), np.ones(m, np.int8)])
    X = np.vstack([sl.X, sl.X])
    units = np.concatenate([np.arange(m), np.arange(m)])
    return y, g, t, X, units


def estimate_nuisances(sl, plan: FoldPlan, config: LearnerConfig | None = None) -> NuisanceBundle:
    """Cross-fit the nuisance functions of a slice.

    g(x) comes from a binary logistic fit on the slice's unit rows (a
    unit's two stacked rows would only repeat it) and is stacked for both
    periods. m(x) is the pooled outcome regression on the stacked rows and
    nu(x)/zeta(x) are differences of conditional regressions fit on the
    respective subsets. Every prediction for a row is produced by models
    that never saw that row's unit.
    """
    config = config or LearnerConfig()
    y, g, t, X, units = _stack_slice(sl)
    n_treated = int(np.count_nonzero(sl.g_flag))
    if n_treated in (0, sl.n_units):
        missing = "treated" if n_treated == 0 else "control"
        raise MissingStratum(f"slice has no {missing} units")

    g_unit = _cross_fit_propensity(sl.X, sl.g_flag, plan, config)
    g_hat = np.clip(np.concatenate([g_unit, g_unit]), config.clip, 1.0 - config.clip)

    m_hat, mu_t1, mu_t0, mu_g1, mu_g0 = _cross_fit_regressions(
        X, y, g, units, plan, config)

    return NuisanceBundle(
        y=y,
        g=g,
        t=t,
        X=X,
        units=units,
        unit_ids=sl.unit_ids,
        covariate_names=sl.covariate_names,
        g_hat=g_hat,
        m_hat=m_hat,
        nu_hat=mu_t1 - mu_t0,
        zeta_hat=mu_g1 - mu_g0,
    )


def _cross_fit_propensity(X, g_flag, plan: FoldPlan, config: LearnerConfig):
    """Out-of-fold unclipped g(x) on the slice's unit rows from one engine call.

    Fold k is the engine member that weights the units outside fold k, so
    each fit is the one a fold-by-fold cross-fit makes on its training
    units. A failure surfaces as the DegenerateFold that fold-by-fold
    cross-fitting would raise first.
    """
    labels = g_flag.astype(np.int64)
    fold = plan.assignment[:labels.shape[0]]
    n_test = np.bincount(fold, minlength=plan.n_folds)
    n_train = labels.shape[0] - n_test
    treated_train = np.count_nonzero(labels) - np.bincount(
        fold, weights=labels, minlength=plan.n_folds).astype(np.int64)
    fits = {}
    for k in np.flatnonzero(n_test):
        if n_train[k] < 2:
            fits[k] = DegenerateFold(f"fold {k}: training complement has {n_train[k]} rows")
        elif treated_train[k] in (0, n_train[k]):
            fits[k] = MissingStratum("training fold lacks both binary classes")
        else:
            fits[k] = None
    members = [k for k, fit in fits.items() if fit is None]
    if members:
        models = fit_probability_batch(
            X, labels, (fold[:, None] != np.array(members)).astype(float),
            l2=config.prob_l2, clip=config.clip,
        )
        fits.update(zip(members, models))

    out = np.full(labels.shape[0], np.nan)
    for k, fit in fits.items():
        if isinstance(fit, DegenerateFold):
            raise fit
        if isinstance(fit, MldidError):
            raise DegenerateFold(f"fold {k}: {fit}") from fit
        test = fold == k
        out[test] = fit.predict_proba(X[test], clipped=False)[:, 1]
    return out


def _cross_fit_regressions(X, y, g, units, plan: FoldPlan, config: LearnerConfig):
    """Out-of-fold m, mu_t1, mu_t0, mu_g1 and mu_g0 from one batched fit.

    The regressions of every outer fold go to the lasso engine together.
    Each is the fit ``cross_fit`` would make with ``config.fit_regression``
    and gives the same predictions. Rows 0..m-1 and m..2m-1 are the pre and
    post rows of the same units with the same covariates, so mu_t1 (post
    outcomes) and mu_t0 (pre outcomes) share one design: the covariates of
    the training units. A failure
    surfaces as the DegenerateFold that regression-by-regression
    cross-fitting would raise first.
    """
    m = units.shape[0] // 2
    names = ("m", "t1", "t0", "g1", "g0")
    row_fold = plan.assignment[units]
    regressions, slots, tests = [], {}, {}
    for k in range(plan.n_folds):
        test = row_fold == k
        if not test.any():
            continue
        tests[k] = test
        train = ~test
        designs = (
            (("m",), Regression(X, (y,), rows=train)),
            (("t1", "t0"), Regression(X[:m], (y[m:], y[:m]),
                                      rows=plan.assignment != k)),
            (("g1",), Regression(X, (y,), rows=train & (g == 1))),
            (("g0",), Regression(X, (y,), rows=train & (g == 0))),
        )
        for targets, reg in designs:
            n_train = int(np.count_nonzero(reg.rows))
            if n_train < 2:
                fault = DegenerateFold(
                    f"fold {k}: training complement has {n_train} rows")
                slots.update({(name, k): fault for name in targets})
                continue
            slots.update({(name, k): (len(regressions), j)
                          for j, name in enumerate(targets)})
            regressions.append(reg)
    results = fit_penalized_ls_batch(regressions, **config.lasso_options())

    outs = []
    for name in names:
        out = np.full(X.shape[0], np.nan)
        for k, test in tests.items():
            slot = slots[name, k]
            if isinstance(slot, DegenerateFold):
                raise slot
            model = results[slot[0]][slot[1]]
            if isinstance(model, MldidError):
                raise DegenerateFold(f"fold {k}: {model}") from model
            out[test] = model.predict(X[test])
        outs.append(out)
    return outs


def compute_abch(bundle: NuisanceBundle) -> NuisanceBundle:
    """Fill A = T - 1/2, B = G - g_hat, C = B*A and H = Y - (m + A*nu + B*zeta)."""
    A = bundle.t - 0.5
    B = bundle.g - bundle.g_hat
    C = B * A
    H = bundle.y - (bundle.m_hat + A * bundle.nu_hat + B * bundle.zeta_hat)
    return dataclasses.replace(bundle, A=A, B=B, C=C, H=H)
