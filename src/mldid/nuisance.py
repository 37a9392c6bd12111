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
The regressions are built from moments, not rows: one pass over the cell's
unit rows gives moment blocks per (fold, group), every regression's
standardized Gram system, and those of its inner CV folds, is a sum of
blocks (the covariance-update form of Friedman, Hastie & Tibshirani 2010),
and all of them go to ``learners.fit_gram_batch`` together. Each prediction
is the one a fold-by-fold cross-fit would make (to rounding, for the
regressions), and a fold that cannot be fit raises the DegenerateFold that
fold-by-fold cross-fitting would raise first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateFold, MissingStratum, MldidError, NonFiniteData
from .learners import (
    CV_FOLDS,
    CV_N_LAMBDAS,
    DEFAULT_CLIP,
    FoldPlan,
    GramFit,
    check_lasso_options,
    cv_grid,
    fit_gram_batch,
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


# The five outcome regressions of a cross-fit fold: name, the units it trains
# on (those outside the fold with G = s, or all of them for s = 2) and whether
# it trains on their pre rows (with y_pre) and their post rows (with y_post).
_REGRESSIONS = (
    ("m", 2, 1, 1),
    ("t1", 2, 0, 1),
    ("t0", 2, 1, 0),
    ("g1", 1, 1, 1),
    ("g0", 0, 1, 1),
)


def _cross_fit_regressions(X, y, g, units, plan: FoldPlan, config: LearnerConfig):
    """Out-of-fold m, mu_t1, mu_t0, mu_g1 and mu_g0 from one pass over the cell's rows.

    Each regression is the fit ``cross_fit`` would make with
    ``config.fit_regression`` on its training rows (see
    :func:`_regression_fits`), and its predictions agree with that fit's to
    rounding. A regression that cannot be fit surfaces as the DegenerateFold
    that regression-by-regression cross-fitting would raise first.
    """
    fits = _regression_fits(X, y, g, units, plan, config)
    tests = sorted({k for _, k in fits})
    for name, *_ in _REGRESSIONS:
        for k in tests:
            model = fits[name, k]
            if isinstance(model, DegenerateFold):
                raise model
            if isinstance(model, MldidError):
                raise DegenerateFold(f"fold {k}: {model}") from model
    # A unit's pre and post rows get the same predictions.
    m = units.shape[0] // 2
    fold = plan.assignment[units[:m]]
    pred = np.full((len(_REGRESSIONS), m), np.nan)
    for k in tests:
        models = [fits[name, k] for name, *_ in _REGRESSIONS]
        rows = np.flatnonzero(fold == k)
        pred[:, rows] = (X[rows] @ np.stack([mod.coef for mod in models]).T
                         + [mod.intercept for mod in models]).T
    return list(np.concatenate([pred, pred], axis=1))


def _regression_fits(X, y, g, units, plan: FoldPlan, config: LearnerConfig):
    """The LinearModel, or the MldidError, of every (regression, outer fold) of a cell.

    Rows 0..m-1 and m..2m-1 of the stacked arrays are the pre and post rows
    of the same units, so every training set is the pre and/or post rows of
    a set of units: m(x) and mu_g train on both rows of the units outside
    the fold (all of them, or those of one group), mu_t1 on their post rows
    and mu_t0 on their pre rows.

    The cell's unit rows are read once into moments of
    ``[1, x - xbar, y_pre - ybar, y_post - ybar]`` per (outer fold, G)
    block. A regression's centre, scale, standardized Gram, ``c`` and mean
    outcome come from sums of its blocks; a column constant on its rows is
    pinned as ``learners._pin_constant_columns`` pins it. With CV the
    inner folds keep the row-position order of the training rows (the j-th
    training unit's pre row is in fold ``j % K`` and its post row in fold
    ``(n_units + j) % K``), so each inner training set is the regression's
    moments less those of two held-out classes of units, and the held-out
    residuals of all l1 of an inner fold come from one product. All Gram
    systems of the cell then go to :func:`fit_gram_batch` together.

    A regression with fewer than 2 training rows gets the DegenerateFold a
    fold-by-fold cross-fit raises, and one with a non-finite covariate or
    outcome on its rows the NonFiniteData of a fit on those rows; the
    other regressions are unaffected.
    """
    check_lasso_options(config.inner_cv_folds, config.n_lambdas, config.fixed_l1, "min")
    m, p = units.shape[0] // 2, X.shape[1]
    fold, g_unit = plan.assignment[units[:m]], g[:m]
    y_unit = np.stack([y[:m], y[m:]], axis=1)
    finite_x, finite_y = np.isfinite(X[:m]), np.isfinite(y_unit)
    Xf = np.where(finite_x, X[:m], 0.0)
    yf = np.where(finite_y, y_unit, 0.0)
    x_shift = Xf.mean(axis=0)
    y_shift = yf.sum() / max(int(finite_y.sum()), 1)
    V = np.concatenate([np.ones((m, 1)), Xf - x_shift, yf - y_shift], axis=1)
    # Per unit: non-finite X, y_pre, y_post.
    bad = np.column_stack([~finite_x.all(axis=1), ~finite_y])
    train_M, train_size, train_bad, train_lo, train_hi = _training_sums(
        V, Xf, bad, fold, g_unit, plan.n_folds)

    # The checks, in their order, of a fit on the regression's own rows.
    fits, live = {}, []
    sizes, flags = train_size.tolist(), train_bad.tolist()
    for k in np.unique(fold).tolist():
        for name, s, pre, post in _REGRESSIONS:
            n_rows = sizes[k][s] * (pre + post)
            bad_x, bad_pre, bad_post = flags[k][s]
            if n_rows < 2:
                fits[name, k] = DegenerateFold(
                    f"fold {k}: training complement has {n_rows} rows")
            elif bad_x:
                fits[name, k] = NonFiniteData("X contains NaN or infinite entries")
            elif (pre and bad_pre) or (post and bad_post):
                fits[name, k] = NonFiniteData("y contains NaN or infinite entries")
            else:
                live.append((name, k, s, pre, post))
    if not live:
        return fits

    _, ks, subsets, pre, post = (np.array(col) for col in zip(*live))
    N = _row_moments(train_M[ks, subsets], pre, post)
    n = N[:, 0, 0]
    mean = N[:, 0, 1:p + 1] / n[:, None]
    var = np.diagonal(N[:, 1:p + 1, 1:p + 1], axis1=1, axis2=2) / n[:, None] - mean**2
    scale = np.sqrt(np.maximum(var, 0.0))
    scale[scale == 0.0] = 1.0
    # A column constant on the rows is centred at its value with unit scale
    # and standardizes to exact zeros.
    const = train_lo[ks, subsets] == train_hi[ks, subsets]
    center = np.where(const, train_lo[ks, subsets], x_shift + mean)
    scale[const] = 1.0
    inv_scale = np.where(const, 0.0, 1.0 / scale)
    G, c, ybar = _gram_systems(N, mean, inv_scale)
    gram_fits = [GramFit(G[i], c[i], center[i], scale[i], float(ybar[i] + y_shift),
                         config.fixed_l1) for i in range(len(live))]

    K_in = config.inner_cv_folds
    path_N, path_owner, classes = [], [], {}
    for i, fit in enumerate(gram_fits if config.fixed_l1 is None else []):
        cv_grid(fit, np.ones(p), config.l2, config.n_lambdas)
        if fit.grid is None:
            continue
        key = ks[i], subsets[i]
        if key not in classes:
            # The training units in order; class r holds those of rank j
            # with j % K_in == r.
            train = (fold != key[0]) & ((g_unit == key[1]) | (key[1] == 2))
            ranked = np.flatnonzero(train)
            cls = [ranked[r::K_in] for r in range(K_in)]
            classes[key] = cls, [V[idx].T @ V[idx] for idx in cls]
        cls, cls_M = classes[key]
        held = []
        for r in range(K_in):
            # Inner fold r holds out the pre rows of class r and the post rows
            # of the class whose stacked positions fall in fold r.
            r_post = (r - pre[i] * int(train_size[key])) % K_in
            fit.members.append((len(path_N), r))
            held.append((cls[r], cls[r_post]))
            path_owner.append(i)
            path_N.append(N[i] - _row_moments(cls_M[r], pre[i], 0)
                          - _row_moments(cls_M[r_post], 0, post[i]))
        fit.data = i, held
    path_G = path_c = path_ybar = ()
    if path_N:
        path_G, path_c, path_ybar = _gram_systems(
            np.stack(path_N), mean[path_owner], inv_scale[path_owner])

    def fold_errors(fit, path):
        i, held = fit.data
        fold_err = np.zeros((K_in, path.shape[1]))
        for (b, r), (pre_units, post_units) in zip(fit.members, held):
            parts = []
            if pre[i]:
                parts.append(V[pre_units][:, np.r_[1:p + 2]])
            if post[i]:
                parts.append(V[post_units][:, np.r_[1:p + 1, p + 2]])
            held_out = np.concatenate(parts)
            if held_out.shape[0]:
                Z = (held_out[:, :p] - mean[i]) * inv_scale[i]
                resid = (held_out[:, p] - path_ybar[b])[:, None] - Z @ path[b].T
                fold_err[r] = np.mean(resid**2, axis=0)
        return fold_err

    fit_gram_batch(gram_fits, path_G, path_c, fold_errors, l2=config.l2,
                   pf=np.ones(p), fit_intercept=True, cv_rule="min")
    fits.update({(name, k): fit.result for (name, k, *_), fit in zip(live, gram_fits)})
    return fits


def _training_sums(V, Xf, bad, fold, g_unit, n_folds):
    """Moments, sizes, non-finite flags and covariate ranges of every training set.

    Each is summed over the (outer fold, G) blocks of the unit rows it
    spans; entry ``[k, s]`` covers the units outside fold k with G = s, or
    all of them for s = 2.
    """
    block = 2 * fold + g_unit
    order = np.argsort(block, kind="stable")
    size = np.bincount(block, minlength=2 * n_folds)
    starts = np.cumsum(size) - size
    filled = np.flatnonzero(size)
    Vs, Xs = V[order], Xf[order]
    M = np.zeros((2 * n_folds, V.shape[1], V.shape[1]))
    for b in filled:
        rows = Vs[starts[b]:starts[b] + size[b]]
        M[b] = rows.T @ rows
    lo = np.full((2 * n_folds, Xf.shape[1]), np.inf)
    hi = np.full((2 * n_folds, Xf.shape[1]), -np.inf)
    lo[filled] = np.minimum.reduceat(Xs, starts[filled], axis=0)
    hi[filled] = np.maximum.reduceat(Xs, starts[filled], axis=0)
    n_bad = np.stack([np.bincount(block, weights=col, minlength=2 * n_folds)
                      for col in bad.T], axis=1)

    M, size, n_bad, lo, hi = (a.reshape(n_folds, 2, *a.shape[1:])
                              for a in (M, size, n_bad, lo, hi))
    M, size, n_bad = (a.sum(axis=0) - a for a in (M, size, n_bad))
    outside = ~np.eye(n_folds, dtype=bool)[:, :, None, None]
    lo = np.where(outside, lo[None], np.inf).min(axis=1)
    hi = np.where(outside, hi[None], -np.inf).max(axis=1)
    return (
        np.concatenate([M, M.sum(axis=1, keepdims=True)], axis=1),
        np.concatenate([size, size.sum(axis=1, keepdims=True)], axis=1),
        np.concatenate([n_bad, n_bad.sum(axis=1, keepdims=True)], axis=1) > 0,
        np.concatenate([lo, lo.min(axis=1, keepdims=True)], axis=1),
        np.concatenate([hi, hi.max(axis=1, keepdims=True)], axis=1),
    )


def _row_moments(M, pre, post):
    """Moments of [1, u, y] over the pre rows (if ``pre``) and post rows (if ``post``).

    ``M`` holds unit moments of [1, u, y_pre, y_post]; the 0/1 flags may be
    arrays, one per leading entry of M.
    """
    q = M.shape[-1] - 1
    keep_pre = np.r_[0:q]
    keep_post = np.r_[0:q - 1, q]
    pre = np.asarray(pre, float)[..., None, None]
    post = np.asarray(post, float)[..., None, None]
    return (pre * M[..., keep_pre[:, None], keep_pre]
            + post * M[..., keep_post[:, None], keep_post])


def _gram_systems(N, center, inv_scale):
    """Standardized Gram systems of row sets from their moments N of [1, u, y].

    The covariates are standardized as ``(u - center) * inv_scale`` (an
    inner fold keeps the standardization of its regression's training rows)
    and y is centered at the row set's own mean. Returns G, c and that mean.
    """
    q = N.shape[-1] - 1
    n = N[:, 0, 0]
    mean = N[:, 0, 1:q] / n[:, None]
    ybar = N[:, 0, q] / n
    # sum (u - center)(u - center)' / n, taken about the row set's own mean
    off = mean - center
    cov = (N[:, 1:q, 1:q] / n[:, None, None] - mean[:, :, None] * mean[:, None, :]
           + off[:, :, None] * off[:, None, :])
    G = cov * inv_scale[:, :, None] * inv_scale[:, None, :]
    c = (N[:, 1:q, q] / n[:, None] - ybar[:, None] * mean) * inv_scale
    return G, c, ybar


def compute_abch(bundle: NuisanceBundle) -> NuisanceBundle:
    """Fill A = T - 1/2, B = G - g_hat, C = B*A and H = Y - (m + A*nu + B*zeta)."""
    A = bundle.t - 0.5
    B = bundle.g - bundle.g_hat
    C = B * A
    H = bundle.y - (bundle.m_hat + A * bundle.nu_hat + B * bundle.zeta_hat)
    return dataclasses.replace(bundle, A=A, B=B, C=C, H=H)
