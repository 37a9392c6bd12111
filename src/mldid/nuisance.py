"""Cross-fitted nuisance functions of a cell, on its units' first differences.

For one two-period slice this module estimates the treatment propensity
g(x) and the time contrast nu(x) = mu_t1(x) - mu_t0(x) of the period
outcome regressions, and derives per unit B = G - g(x) and the
differenced partial residual dH = (y_post - y_pre) - nu(x) that feed the
effect-function fit.

The MLDID loss of Lu, Nie & Wager (2019) sums over a cell's stacked pre
and post rows. Every unit contributes one row of each with the same
covariates and group, so the period probability is 1/2, G and T are
uncorrelated given X, and the decomposition coefficients are A = T - 1/2,
B = G - g(x) and C = B*A. The stacked loss then splits exactly into
(1/2) sum_units (dH - B tau(x))^2, the R-learner loss on first differences
(Nie & Wager 2021), and a level term that does not involve tau. The level
nuisances (the pooled regression m(x) and the group contrast zeta(x))
enter only that term, so a cell does not fit them: per fold it fits g(x),
mu_t1(x) and mu_t0(x).

A cell is cross-fit for a matrix of unit counts at once
(:func:`cross_fit_nuisances`): column r weights each unit by the number of
times a bootstrap replicate drew it, and the all-ones column is the sample
itself. Every column uses the slice's fold plan, so a unit's copies share
its fold. g(x) of every (fold, column) is one member of the batched
logistic engine (:func:`_cross_fit_propensity`), and the two outcome
regressions of every (fold, column) are one lasso batch
(:func:`_cross_fit_regressions`). The regressions are built from moments,
not rows: count-weighted products of the unit rows give moment blocks per
outer fold, every regression's standardized Gram system, and those of its
inner CV folds, is a sum of blocks (the covariance-update form of
Friedman, Hastie & Tibshirani 2010), and all of them go to
``learners.fit_gram_batch`` together. Each prediction is the one a
fold-by-fold cross-fit on the column's copies would make (to rounding, for
the regressions), and a column that cannot be fit gets the DegenerateFold
that fold-by-fold cross-fitting would raise first; the other columns are
unaffected. :func:`estimate_nuisances` is the all-ones column.
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
    _label_proba,
    check_lasso_options,
    cv_grid,
    fit_gram_batch,
    fit_penalized_ls_cv,
    fit_probability_batch,
    weighted_gram,
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
    """A slice's unit rows with their cross-fitted nuisances.

    Row i is slice unit i, with both of its outcomes. B and dH are filled
    by :func:`compute_abch`.
    """

    y_pre: np.ndarray
    y_post: np.ndarray
    g: np.ndarray
    X: np.ndarray
    unit_ids: np.ndarray
    covariate_names: tuple[str, ...]
    g_hat: np.ndarray
    nu_hat: np.ndarray
    B: np.ndarray | None = None
    dH: np.ndarray | None = None

    @property
    def n_units(self) -> int:
        return int(self.unit_ids.shape[0])

    @property
    def n_dropped(self) -> int:
        # The closed-form decomposition keeps every unit. The benchmark's
        # nuisance.rows_dropped counter still reads this attribute.
        return 0


@dataclass(frozen=True)
class ColumnNuisances:
    """Cross-fitted nuisances on a slice's unit rows, one column per count vector.

    Column r weights unit i by ``counts[i, r]``: the number of times a
    bootstrap replicate drew the unit, or one for the sample itself. Every
    fit of column r is the fit a resampled slice makes on the units'
    copies, with each copy in its unit's fold of the slice's plan, so the
    all-ones column is the plain cross-fit. The arrays are (units, columns)
    and ``g_hat`` is clipped. ``errors[r]`` is the DegenerateFold that
    cross-fitting column r's copies raises first, or None; the entries of
    a failed column are meaningless.
    """

    g_hat: np.ndarray
    nu_hat: np.ndarray
    errors: list


def cross_fit_nuisances(sl, plan: FoldPlan, config: LearnerConfig,
                        counts: np.ndarray) -> ColumnNuisances:
    """Cross-fit g(x) and nu(x) of a slice for every count column.

    The propensity of every (fold, column) is one logistic engine call and
    the two outcome regressions of every (fold, column) one lasso batch.
    A column's error is the first a fit-by-fit run on its copies meets:
    the propensity folds in order, then the regressions.
    """
    g_unit, g_errors = _cross_fit_propensity(sl.X, sl.g_flag, plan, counts, config)
    pred, reg_errors = _cross_fit_regressions(sl.X, sl.y_pre, sl.y_post, plan, counts, config)
    return ColumnNuisances(
        g_hat=np.clip(g_unit, config.clip, 1.0 - config.clip),
        nu_hat=pred[0] - pred[1],
        errors=[a if a is not None else b for a, b in zip(g_errors, reg_errors)],
    )


def estimate_nuisances(sl, plan: FoldPlan, config: LearnerConfig | None = None) -> NuisanceBundle:
    """Cross-fit the nuisance functions of a slice.

    g(x) comes from a binary logistic fit on the slice's unit rows, and
    nu(x) is the difference of the regressions of y_post and of y_pre on
    x. Every prediction for a unit is produced by models that never saw
    it. This is the all-ones column of :func:`cross_fit_nuisances`.
    """
    config = config or LearnerConfig()
    n_treated = int(np.count_nonzero(sl.g_flag))
    if n_treated in (0, sl.n_units):
        missing = "treated" if n_treated == 0 else "control"
        raise MissingStratum(f"slice has no {missing} units")

    cols = cross_fit_nuisances(sl, plan, config, np.ones((sl.n_units, 1)))
    if cols.errors[0] is not None:
        raise cols.errors[0]
    return NuisanceBundle(
        y_pre=sl.y_pre,
        y_post=sl.y_post,
        g=sl.g_flag.astype(np.int8),
        X=sl.X,
        unit_ids=sl.unit_ids,
        covariate_names=sl.covariate_names,
        g_hat=cols.g_hat[:, 0],
        nu_hat=cols.nu_hat[:, 0],
    )


def _in_fold(k, err: MldidError) -> DegenerateFold:
    """The DegenerateFold a fold-by-fold cross-fit raises for an error of fold k."""
    if isinstance(err, DegenerateFold):
        return err
    wrapped = DegenerateFold(f"fold {k}: {err}")
    wrapped.__cause__ = err
    return wrapped


def _first_errors(failed: dict, n_columns: int) -> list:
    """Per column, the error of the lowest key that failed, or None.

    Keys end with the column; the fields before it order the fits as a
    fit-by-fit cross-fit meets them.
    """
    errors = [None] * n_columns
    for key in sorted(failed):
        if errors[key[-1]] is None:
            errors[key[-1]] = failed[key]
    return errors


def _cross_fit_propensity(X, g_flag, plan: FoldPlan, counts, config: LearnerConfig):
    """Out-of-fold unclipped g(x) on the slice's unit rows from one engine call.

    Member (k, r) weights the units outside fold k by their counts in
    column r, so its fit is the one a fold-by-fold cross-fit makes on the
    copies of its training units. Returns the (units, columns) predictions
    and per column the DegenerateFold that fold-by-fold cross-fitting would
    raise first, or None. A fold that holds no drawn unit of a column is
    not fit for it; its units keep a placeholder of 0.5.
    """
    labels = g_flag.astype(np.int64)
    fold = plan.assignment[:labels.shape[0]]
    c = np.asarray(counts, dtype=float)
    in_fold = (fold[:, None] == np.arange(plan.n_folds)).astype(float)
    n_test = in_fold.T @ c
    n_train = c.sum(axis=0) - n_test
    treated_train = labels @ c - in_fold.T @ (c * labels[:, None])
    tested = n_test > 0
    few = tested & (n_train < 2)
    one_class = tested & ~few & ((treated_train == 0) | (treated_train == n_train))
    failed = {}
    for k, r in zip(*np.nonzero(few)):
        failed[k, r] = DegenerateFold(
            f"fold {k}: training complement has {int(n_train[k, r])} rows")
    for k, r in zip(*np.nonzero(one_class)):
        failed[k, r] = _in_fold(k, MissingStratum("training fold lacks both binary classes"))

    out = np.full(c.shape, 0.5)
    ks, rs = np.nonzero(tested & ~few & ~one_class)
    if ks.size:
        weights = c[:, rs]
        weights[fold[:, None] == ks] = 0.0
        models = fit_probability_batch(X, labels, weights, l2=config.prob_l2, clip=config.clip)
        ok = np.array([not isinstance(mod, MldidError) for mod in models])
        for j in np.flatnonzero(~ok):
            failed[ks[j], rs[j]] = _in_fold(ks[j], models[j])
        Xf = np.where(np.isfinite(X), X, 0.0)
        for k in np.unique(ks[ok]):
            members = np.flatnonzero(ok & (ks == k))
            test = np.flatnonzero(fold == k)
            eta = (Xf[test] @ np.stack([models[j].coef[1] for j in members]).T
                   + [models[j].intercepts[1] for j in members])
            # P(1) as ProbabilityModel.predict_proba gives it: label 0 scores 0.
            out[np.ix_(test, rs[members])] = _label_proba(
                np.stack([np.zeros_like(eta), eta], axis=-1))[..., 1]
    return out, _first_errors(failed, c.shape[1])


# The outcome regressions of a cross-fit fold: name and the outcome it fits
# (0 for y_pre, 1 for y_post). Both train on the unit rows outside the fold.
_REGRESSIONS = (("t1", 1), ("t0", 0))


def _cross_fit_regressions(X, y_pre, y_post, plan: FoldPlan, counts, config: LearnerConfig):
    """Out-of-fold mu_t1 and mu_t0 on the unit rows, from one lasso batch.

    Each regression is the fit ``cross_fit`` would make with
    ``config.fit_regression`` on its training rows (see
    :func:`_regression_fits`), and its predictions agree with that fit's to
    rounding. Returns the (2, units, columns) predictions (zero where a
    column has no model) and per column the DegenerateFold that
    regression-by-regression cross-fitting would raise first, or None.
    """
    fits = _regression_fits(X, y_pre, y_post, plan, counts, config)
    m = X.shape[0]
    fold = plan.assignment[:m]
    index = {name: i for i, (name, _) in enumerate(_REGRESSIONS)}
    failed, models = {}, {}
    for r, col in enumerate(fits):
        for (name, k), fit in col.items():
            i = index[name]
            if isinstance(fit, MldidError):
                failed[i, k, r] = _in_fold(k, fit)
            else:
                models.setdefault(k, []).append((i, r, fit))
    pred = np.zeros((len(_REGRESSIONS), m, len(fits)))
    Xf = np.where(np.isfinite(X), X, 0.0)
    for k, entries in models.items():
        test = np.flatnonzero(fold == k)
        idx, cols, mods = zip(*entries)
        vals = (Xf[test] @ np.stack([mod.coef for mod in mods]).T
                + [mod.intercept for mod in mods])
        pred[np.array(idx), test[:, None], np.array(cols)] = vals
    return pred, _first_errors(failed, len(fits))


def _regression_fits(X, y_pre, y_post, plan: FoldPlan, counts, config: LearnerConfig):
    """The LinearModel, or the MldidError, of every (regression, outer fold) of every column.

    Returns one dict per column of ``counts``, keyed (regression name,
    fold) over the folds that hold a drawn unit of the column. Both
    regressions train on the units outside the fold, each weighted by its
    count: mu_t1 on their y_post and mu_t0 on their y_pre.

    The cell's unit rows are read once into rows
    ``[1, x - xbar, y_pre - ybar, y_post - ybar]``, and one count-weighted
    product per outer fold and column gives the column's moments of that
    fold. A regression's centre, scale, standardized Gram, ``c`` and mean
    outcome come from the moments outside its fold; a column constant on
    its drawn rows is pinned as ``learners._pin_constant_columns`` pins it.
    With CV the inner folds rank the drawn training units as the row path
    ranks its training rows (inner fold j holds the ranks equal to j modulo
    K), so each inner training set is the regression's moments less those
    of one class of units, and the held-out residuals of all l1 of an inner
    fold come from one product. All Gram systems of the cell then go to
    :func:`fit_gram_batch` together.

    A regression with fewer than 2 training rows gets the DegenerateFold a
    fold-by-fold cross-fit raises, and one with a non-finite covariate or
    outcome on its rows the NonFiniteData of a fit on those rows; the
    other regressions are unaffected.
    """
    check_lasso_options(config.inner_cv_folds, config.n_lambdas, config.fixed_l1, "min")
    m, p = X.shape
    fold = plan.assignment[:m]
    c = np.asarray(counts, dtype=float)
    n_cols = c.shape[1]
    y_unit = np.stack([y_pre, y_post], axis=1)
    finite_x, finite_y = np.isfinite(X), np.isfinite(y_unit)
    Xf = np.where(finite_x, X, 0.0)
    yf = np.where(finite_y, y_unit, 0.0)
    x_shift = Xf.mean(axis=0)
    y_shift = yf.sum() / max(int(finite_y.sum()), 1)
    V = np.concatenate([np.ones((m, 1)), Xf - x_shift, yf - y_shift], axis=1)
    # Per unit: whether its X, y_pre, y_post are non-finite.
    bad = np.column_stack([~finite_x.all(axis=1), ~finite_y]).astype(float)
    train_M, train_bad, train_lo, train_hi = _training_sums(V, bad, Xf, fold, plan.n_folds, c)
    train_size = train_M[..., 0, 0].astype(np.int64)
    drawn = (fold[:, None] == np.arange(plan.n_folds)).T.astype(float) @ c > 0

    # The checks, in their order, of a fit on the regression's own rows.
    fits, live = [{} for _ in range(n_cols)], []
    sizes, flags = train_size.tolist(), train_bad.tolist()
    for k, r in zip(*np.nonzero(drawn)):
        k, r = int(k), int(r)
        n_rows = sizes[r][k]
        bad_x, *bad_y = flags[r][k]
        for name, out in _REGRESSIONS:
            if n_rows < 2:
                fits[r][name, k] = DegenerateFold(
                    f"fold {k}: training complement has {n_rows} rows")
            elif bad_x:
                fits[r][name, k] = NonFiniteData("X contains NaN or infinite entries")
            elif bad_y[out]:
                fits[r][name, k] = NonFiniteData("y contains NaN or infinite entries")
            else:
                live.append((name, r, k, out))
    if not live:
        return fits

    _, rs, ks, outs = (np.array(col) for col in zip(*live))
    # Each regression's columns of V: [1, u] and its outcome.
    sel = np.concatenate([np.tile(np.arange(p + 1), (len(live), 1)),
                          (p + 1 + outs)[:, None]], axis=1)
    N = train_M[rs[:, None, None], ks[:, None, None], sel[:, :, None], sel[:, None, :]]
    n = N[:, 0, 0]
    mean = N[:, 0, 1:p + 1] / n[:, None]
    var = np.diagonal(N[:, 1:p + 1, 1:p + 1], axis1=1, axis2=2) / n[:, None] - mean**2
    scale = np.sqrt(np.maximum(var, 0.0))
    scale[scale == 0.0] = 1.0
    # A column constant on the rows is centred at its value with unit scale
    # and standardizes to exact zeros.
    lo, hi = train_lo[rs, ks], train_hi[rs, ks]
    const = lo == hi
    center = np.where(const, lo, x_shift + mean)
    scale[const] = 1.0
    inv_scale = np.where(const, 0.0, 1.0 / scale)
    G, c_vec, ybar = _gram_systems(N, mean, inv_scale)
    gram_fits = [GramFit(G[i], c_vec[i], center[i], scale[i], float(ybar[i] + y_shift),
                         config.fixed_l1) for i in range(len(live))]

    K_in = config.inner_cv_folds
    path_N, path_owner, classes = [], [], {}
    for i, fit in enumerate(gram_fits if config.fixed_l1 is None else []):
        cv_grid(fit, np.ones(p), config.l2, config.n_lambdas)
        if fit.grid is None:
            continue
        key = rs[i], ks[i]
        if key not in classes:
            # The drawn training units in order; class j holds those whose
            # rank is j modulo K_in.
            r, k = key
            ranked = np.flatnonzero((fold != k) & (c[:, r] > 0))
            cls = [ranked[j::K_in] for j in range(K_in)]
            classes[key] = cls, [weighted_gram(V[idx], c[idx, r]) for idx in cls]
        cls, cls_M = classes[key]
        for j in range(K_in):
            fit.members.append((len(path_N), j))
            path_owner.append(i)
            path_N.append(N[i] - cls_M[j][np.ix_(sel[i], sel[i])])
        fit.data = i, cls
    path_G = path_c = path_ybar = ()
    if path_N:
        path_G, path_c, path_ybar = _gram_systems(
            np.stack(path_N), mean[path_owner], inv_scale[path_owner])

    def fold_errors(fit, path):
        i, cls = fit.data
        fold_err = np.zeros((K_in, path.shape[1]))
        for b, j in fit.members:
            held = cls[j]
            if held.size:
                Z = (V[held, 1:p + 1] - mean[i]) * inv_scale[i]
                resid = (V[held, sel[i, -1]] - path_ybar[b])[:, None] - Z @ path[b].T
                w = c[held, rs[i]]
                fold_err[j] = w @ resid**2 / w.sum()
        return fold_err

    fit_gram_batch(gram_fits, path_G, path_c, fold_errors, l2=config.l2,
                   pf=np.ones(p), fit_intercept=True, cv_rule="min")
    for (name, r, k, _), fit in zip(live, gram_fits):
        fits[r][name, k] = fit.result
    return fits


def _training_sums(V, bad, Xf, fold, n_folds, c):
    """Moments, non-finite flags and covariate ranges of every training set.

    Entry ``[r, k]`` covers the units of column r outside fold k: the
    count-weighted moments of their rows of ``V``, whether any drawn one
    has a ``bad`` flag, and the min and max of each covariate over the
    drawn ones. Each is combined from the per-fold blocks it spans.
    """
    n_cols, p, q = c.shape[1], Xf.shape[1], V.shape[1]
    order = np.argsort(fold, kind="stable")
    size = np.bincount(fold, minlength=n_folds)
    starts = np.cumsum(size) - size
    Vs, bs, Xs, cs = V[order], bad[order], Xf[order], c[order]
    M = np.zeros((n_folds, n_cols, q, q))
    n_bad = np.zeros((n_folds, n_cols, bad.shape[1]))
    lo = np.full((n_folds, n_cols, p), np.inf)
    hi = np.full((n_folds, n_cols, p), -np.inf)
    for b in np.flatnonzero(size):
        rows = slice(starts[b], starts[b] + size[b])
        Vb, cb = Vs[rows], cs[rows]
        for r in range(n_cols):
            M[b, r] = weighted_gram(Vb, cb[:, r])
        n_bad[b] = cb.T @ bs[rows]
        drawn = (cb > 0)[:, :, None]
        lo[b] = np.where(drawn, Xs[rows, None, :], np.inf).min(axis=0)
        hi[b] = np.where(drawn, Xs[rows, None, :], -np.inf).max(axis=0)

    M, n_bad = (a.sum(axis=0) - a for a in (M, n_bad))
    outside = ~np.eye(n_folds, dtype=bool)[:, :, None, None]
    lo = np.where(outside, lo[None], np.inf).min(axis=1)
    hi = np.where(outside, hi[None], -np.inf).max(axis=1)
    # (fold, column, ...) -> (column, fold, ...)
    return tuple(np.moveaxis(a, 1, 0) for a in (M, n_bad > 0, lo, hi))


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
    """Fill B = G - g_hat and dH = (y_post - y_pre) - nu_hat of every unit.

    On a unit's stacked pre and post rows the decomposition is A = T - 1/2,
    B = G - g_hat, C = B*A and H = Y - (m + A*nu + B*zeta) for any level
    nuisances m and zeta, which are the same on both rows. So C is -B/2
    and +B/2 on the two rows, and H_post - H_pre = dY - nu: the unit's B
    and dH are all of the decomposition that involves the effect.
    """
    B = bundle.g - bundle.g_hat
    dH = (bundle.y_post - bundle.y_pre) - bundle.nu_hat
    return dataclasses.replace(bundle, B=B, dH=dH)
