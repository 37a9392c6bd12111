"""Cross-fitted nuisance functions and the orthogonal decomposition terms.

For one two-period slice this module estimates the treatment propensity
g(x), the period probability t(x), the joint class probabilities
iota(x), the pooled outcome regression m(x), and the conditional-mean
contrasts nu(x) (over time) and zeta(x) (over treatment group), then
derives the per-row quantities A, B, C and the partial residual H that
feed the effect-function fit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateFold,
    MissingStratum,
    MldidError,
    SingularShrinkFactor,
)
from .learners import (
    CV_FOLDS,
    CV_N_LAMBDAS,
    DEFAULT_CLIP,
    FoldPlan,
    Regression,
    cross_fit,
    fit_penalized_ls_batch,
    fit_penalized_ls_cv,
    fit_probability,
)

SHRINK_TOL = 1e-6


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
    ones; ``units`` maps each row back to its slice unit. A, B, C, H and
    ``valid`` are filled by :func:`compute_abch` (rows whose shrink
    factor is non-positive are flagged invalid and carry NaNs).
    """

    y: np.ndarray
    g: np.ndarray
    t: np.ndarray
    X: np.ndarray
    units: np.ndarray
    unit_ids: np.ndarray
    covariate_names: tuple[str, ...]
    g_hat: np.ndarray
    t_hat: np.ndarray
    iota_hat: np.ndarray
    m_hat: np.ndarray
    nu_hat: np.ndarray
    zeta_hat: np.ndarray
    delta_hat: np.ndarray
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    C: np.ndarray | None = None
    H: np.ndarray | None = None
    valid: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return int(self.y.shape[0])

    @property
    def n_units(self) -> int:
        return int(self.unit_ids.shape[0])

    @property
    def n_dropped(self) -> int:
        if self.valid is None:
            return 0
        return int(np.sum(~self.valid))


def _stack_slice(sl):
    m = sl.n_units
    y = np.concatenate([sl.y_pre, sl.y_post])
    g = np.concatenate([sl.g_flag, sl.g_flag]).astype(np.int8)
    t = np.concatenate([np.zeros(m, np.int8), np.ones(m, np.int8)])
    X = np.vstack([sl.X, sl.X])
    units = np.concatenate([np.arange(m), np.arange(m)])
    return y, g, t, X, units


def estimate_nuisances(sl, plan: FoldPlan, config: LearnerConfig | None = None) -> NuisanceBundle:
    """Cross-fit all five nuisance functions on a slice's stacked rows.

    g(x) and t(x) come from binary logistic fits, iota from a four-class
    softmax on the (G, T) configuration, m(x) from the pooled outcome
    regression, and nu(x)/zeta(x) from conditional regressions fit on the
    respective subsets and differenced. Every prediction for a row is
    produced by models that never saw that row's unit.
    """
    config = config or LearnerConfig()
    y, g, t, X, units = _stack_slice(sl)
    classes = 2 * g.astype(np.int64) + t.astype(np.int64)
    present = np.unique(classes)
    if present.shape[0] < 4:
        missing = sorted(set(range(4)) - set(present.tolist()))
        raise MissingStratum(f"empty (G,T) strata: {missing}")

    clip = config.clip

    def fit_binary(Xtr, ytr):
        if np.unique(ytr).shape[0] < 2:
            raise MissingStratum("training fold lacks both binary classes")
        return fit_probability(Xtr, ytr, "logistic", l2=config.prob_l2, clip=clip)

    def fit_four(Xtr, ytr):
        if np.unique(ytr).shape[0] < 4:
            raise MissingStratum("training fold lacks a (G,T) stratum")
        return fit_probability(Xtr, ytr, "softmax", l2=config.prob_l2, clip=clip)

    proba1 = lambda model, Xn: model.predict_proba(Xn, clipped=False)[:, 1]
    proba_all = lambda model, Xn: model.predict_proba(Xn, clipped=False)

    g_raw = cross_fit(X, g.astype(np.int64), units, plan, fit_binary, predict=proba1)
    t_raw = cross_fit(X, t.astype(np.int64), units, plan, fit_binary, predict=proba1)
    iota_raw = cross_fit(
        X, classes, units, plan, fit_four, predict=proba_all, out_shape=(4,)
    )
    row_sums = iota_raw.sum(axis=1)
    assert np.all(np.abs(row_sums - 1.0) < 1e-12), "softmax rows must sum to one"

    g_hat = np.clip(g_raw, clip, 1.0 - clip)
    t_hat = np.clip(t_raw, clip, 1.0 - clip)
    iota_hat = np.clip(iota_raw, clip, 1.0 - clip)

    m_hat, mu_t1, mu_t0, mu_g1, mu_g0 = _cross_fit_regressions(
        X, y, g, units, plan, config)

    delta_hat = iota_hat[:, 3] - g_hat * t_hat

    return NuisanceBundle(
        y=y,
        g=g,
        t=t,
        X=X,
        units=units,
        unit_ids=sl.unit_ids,
        covariate_names=sl.covariate_names,
        g_hat=g_hat,
        t_hat=t_hat,
        iota_hat=iota_hat,
        m_hat=m_hat,
        nu_hat=mu_t1 - mu_t0,
        zeta_hat=mu_g1 - mu_g0,
        delta_hat=delta_hat,
    )


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


def abch_terms(g_flag, t_flag, g_hat, t_hat, iota11, delta):
    """The decomposition coefficients A, B, C for given nuisance values.

    Rows whose shrink factor 1 - delta^2 / (g(1-g)t(1-t)) falls below
    SHRINK_TOL come back NaN along with a False entry in the validity
    mask.
    """
    gg = g_hat * (1.0 - g_hat)
    tt = t_hat * (1.0 - t_hat)
    shrink = 1.0 - delta**2 / (gg * tt)
    valid = shrink > SHRINK_TOL
    inv = np.where(valid, 1.0 / np.where(valid, shrink, 1.0), np.nan)
    A = inv * (t_flag - t_hat - delta * (g_flag - g_hat) / gg)
    B = inv * (g_flag - g_hat - delta * (t_flag - t_hat) / tt)
    C = (
        g_flag * t_flag
        - iota11
        - (g_hat + delta / t_hat) * A
        - (t_hat + delta / g_hat) * B
    )
    return A, B, C, valid


def compute_abch(bundle: NuisanceBundle) -> NuisanceBundle:
    """Fill A, B, C and the partial residual H = Y - (m + A*nu + B*zeta)."""
    A, B, C, valid = abch_terms(
        bundle.g.astype(float),
        bundle.t.astype(float),
        bundle.g_hat,
        bundle.t_hat,
        bundle.iota_hat[:, 3],
        bundle.delta_hat,
    )
    if not valid.any():
        raise SingularShrinkFactor(
            "every row has a non-positive shrink factor; the joint propensity "
            "estimates are incoherent"
        )
    H = bundle.y - (bundle.m_hat + A * bundle.nu_hat + B * bundle.zeta_hat)
    return dataclasses.replace(bundle, A=A, B=B, C=C, H=H, valid=valid)
