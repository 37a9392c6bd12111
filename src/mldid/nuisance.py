"""Cross-fitted nuisance functions of a slice, on its units' first differences.

For one two-period slice this module estimates the treatment propensity
g(x) and the time contrast nu(x) = mu_t1(x) - mu_t0(x) of the period
outcome regressions, and derives per unit B = G - g(x) and the
differenced partial residual dH = (y_post - y_pre) - nu(x) that feed the
effect-function fit. A slice can serve several cells that differ only in
their post period (a post cell and its cohort's placebo cells): g(x),
mu_t0 and the moment blocks are then fit once, and each cell adds its
own mu_t.

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

A slice is cross-fit for a matrix of unit counts at once: column r
weights each unit by the number of times a bootstrap replicate drew it,
and the all-ones column is the sample itself. Every column uses the
slice's fold plan, so a unit's copies share its fold. g(x) of every
(fold, column) is one member of the batched logistic engine
(:func:`_cross_fit_propensity`), and for a run so is the doubly-robust
baseline's propensity, fit on every unit. The outcome regressions are
built from moments, not rows (:func:`_regression_systems`): count-weighted
products of the unit rows ``[1, x, y_pre, y_t...]`` give moment blocks per
outer fold, shared by the slice's cells, every regression's
moments are a sum of blocks, and so are those of its inner CV folds'
training and held-out rows; ``learners.moment_fits`` turns them into
standardized Gram systems (the covariance-update form of Friedman,
Hastie & Tibshirani 2010) and held-out moments. Each prediction is the
one a fold-by-fold cross-fit on the column's copies would make (to
rounding, for the regressions), and a column that cannot be fit gets the
DegenerateFold that fold-by-fold cross-fitting would raise first; the
other columns are unaffected.

The cross-fit is split into stages for the stage-major engine of
:mod:`mldid.estimator`. :func:`start_nuisances` fits a slice's propensity
and returns its regressions as ``learners.GramFit`` systems, which carry
their inner folds' held-out moments; :func:`solve_regressions` solves
the GramFits of every slice of a group as one lasso batch; and the
function :func:`start_nuisances` returned then collects the slice's
predictions. :func:`estimate_nuisances` runs the stages for the all-ones
column of one cell. A slice's data are finite (``panel.TwoPeriodSlice``
checks them), so no fit here guards against NaN.
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
    DEFAULT_L2,
    FoldPlan,
    GramFit,
    check_fixed_l1,
    fit_gram_batch,
    fit_probability_batch,
    moment_fits,
    weighted_gram,
)

# The benchmark's tracer (perfbench/tracing.py) wraps these names in this
# module, so they stay importable here although no fit below calls them.
from .learners import cross_fit, fit_penalized_ls_cv, fit_probability  # noqa: F401


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
    all-ones column is the plain cross-fit. ``g_hat`` is (units, columns),
    clipped to [DEFAULT_CLIP, 1 - DEFAULT_CLIP], and ``nu_hat`` is
    (periods, units, columns), one nu(x) per outcome period of the slice.
    ``errors[j][r]`` is the DegenerateFold that cross-fitting column r's
    copies for period j raises first, or None; the entries of a failed
    column are meaningless. ``propensity`` is the unclipped in-sample P(1)
    of the logistic fit on every unit of the all-ones column (the DR
    baseline's), or the MldidError of that fit; None unless asked for.
    """

    g_hat: np.ndarray
    nu_hat: np.ndarray
    errors: list
    propensity: np.ndarray | MldidError | None = None


def start_nuisances(slices, plan: FoldPlan, counts: np.ndarray,
                    fixed_l1: float | None = None, full: bool = False):
    """The first stage of a slice: its propensity fits and its regressions' Gram systems.

    ``slices`` are the cells of one slice, which share its units, x,
    group flag and y_pre and differ in their post-period outcome; the
    first sets the regressions' outcome shift. The propensity of every
    (fold, column) is one logistic engine call, shared by the cells, and
    so is mu_t0; each cell adds its own mu_t. With ``full`` the engine
    call also fits the all-ones column on every unit, for the DR
    baseline. The outcome regressions are returned as GramFits, with l1
    pinned at ``fixed_l1`` or, if None, to be chosen by inner CV;
    :func:`solve_regressions` solves them together with those of other
    slices, and the function returned with them then collects the slice's
    ColumnNuisances. A column's error for a cell is the first a fit-by-fit
    run on its copies meets: the propensity folds in order, then the
    cell's regressions.
    """
    sl = slices[0]
    g_unit, g_errors, model = _cross_fit_propensity(sl.X, sl.g_flag, plan, counts, full)
    Y = np.column_stack([cell.y_post for cell in slices])
    fits, live = _regression_systems(sl.X, sl.y_pre, Y, plan, counts, fixed_l1)

    def finish() -> ColumnNuisances:
        pred, reg_errors = _regression_predictions(sl.X, plan, _solved(fits), len(slices))
        propensity = model
        if model is not None and not isinstance(model, MldidError):
            propensity = model.predict_proba(sl.X)[:, 1]
        return ColumnNuisances(
            g_hat=np.clip(g_unit, DEFAULT_CLIP, 1.0 - DEFAULT_CLIP),
            nu_hat=pred[1:] - pred[0],
            errors=[[a if a is not None else b for a, b in zip(g_errors, period)]
                    for period in reg_errors],
            propensity=propensity,
        )

    return live, finish


def solve_regressions(fits: list[GramFit]) -> None:
    """Solve the outcome-regression GramFits of any number of cells as one batch."""
    if fits:
        fit_gram_batch(fits, l2=DEFAULT_L2, pf=np.ones(fits[0].G.shape[0]),
                       fit_intercept=True, cv_rule="min")


def estimate_nuisances(sl, plan: FoldPlan, fixed_l1: float | None = None) -> NuisanceBundle:
    """Cross-fit the nuisance functions of a slice.

    g(x) comes from a binary logistic fit on the slice's unit rows, and
    nu(x) is the difference of the regressions of y_post and of y_pre on
    x, with l1 pinned at ``fixed_l1`` or chosen by inner CV. Every
    prediction for a unit is produced by models that never saw it. These
    are the stages of :func:`start_nuisances` for the slice's all-ones
    column alone.
    """
    n_treated = int(np.count_nonzero(sl.g_flag))
    if n_treated in (0, sl.n_units):
        missing = "treated" if n_treated == 0 else "control"
        raise MissingStratum(f"slice has no {missing} units")

    live, finish = start_nuisances([sl], plan, np.ones((sl.n_units, 1)), fixed_l1)
    solve_regressions(live)
    cols = finish()
    if cols.errors[0][0] is not None:
        raise cols.errors[0][0]
    return NuisanceBundle(
        y_pre=sl.y_pre,
        y_post=sl.y_post,
        g=sl.g_flag.astype(np.int8),
        X=sl.X,
        unit_ids=sl.unit_ids,
        covariate_names=sl.covariate_names,
        g_hat=cols.g_hat[:, 0],
        nu_hat=cols.nu_hat[0, :, 0],
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


def _cross_fit_propensity(X, g_flag, plan: FoldPlan, counts, full: bool = False):
    """Out-of-fold unclipped g(x) on the slice's unit rows from one engine call.

    Member (k, r) weights the units outside fold k by their counts in
    column r, so its fit is the one a fold-by-fold cross-fit makes on the
    copies of its training units. With ``full``, one more member weights
    every unit by its count in the first column and holds no fold out.
    Returns the (units, columns) predictions, per column the DegenerateFold
    that fold-by-fold cross-fitting would raise first, or None, and the
    ProbabilityModel or MldidError of the ``full`` member (None without
    it). A fold that holds no drawn unit of a column is not fit for it; its
    units keep a placeholder of 0.5.
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
    weights = c[:, rs]
    weights[fold[:, None] == ks] = 0.0
    if full:
        weights = np.concatenate([weights, c[:, :1]], axis=1)
    models = fit_probability_batch(X, labels, weights) if weights.shape[1] else []
    whole = models.pop() if full else None
    ok = np.array([not isinstance(mod, MldidError) for mod in models], dtype=bool)
    for j in np.flatnonzero(~ok):
        failed[ks[j], rs[j]] = _in_fold(ks[j], models[j])
    for k in np.unique(ks[ok]):
        members = np.flatnonzero(ok & (ks == k))
        test = np.flatnonzero(fold == k)
        eta = (X[test] @ np.stack([models[j].coef[1] for j in members]).T
               + [models[j].intercepts[1] for j in members])
        # P(1) as the Newton kernel's objective forms it from the scores
        # (label 0 scores 0): 1 / (1 + e) for eta >= 0 and e / (1 + e)
        # otherwise, with e = exp(-|eta|).
        e = np.exp(-np.abs(eta))
        out[np.ix_(test, rs[members])] = np.where(eta >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out, _first_errors(failed, c.shape[1]), whole


def _regression_predictions(X, plan: FoldPlan, fits, n_periods: int = 1):
    """Out-of-fold predictions of solved regressions (see :func:`_regression_systems`).

    Returns the (1 + n_periods, units, columns) predictions, mu_t0 first
    and then mu_t of each period (zero where a column has no model), and
    per period and column the DegenerateFold that regression-by-regression
    cross-fitting of that period's mu_t and then mu_t0 would raise first,
    or None.
    """
    m = X.shape[0]
    fold = plan.assignment[:m]
    failed, models = {}, {}
    for r, col in enumerate(fits):
        for (out, k), fit in col.items():
            if isinstance(fit, MldidError):
                failed[out, k, r] = _in_fold(k, fit)
            else:
                models.setdefault(k, []).append((out, r, fit))
    pred = np.zeros((1 + n_periods, m, len(fits)))
    for k, entries in models.items():
        test = np.flatnonzero(fold == k)
        idx, cols, mods = zip(*entries)
        vals = (X[test] @ np.stack([mod.coef for mod in mods]).T
                + [mod.intercept for mod in mods])
        pred[np.array(idx), test[:, None], np.array(cols)] = vals
    errors = []
    for j in range(n_periods):
        # The period's mu_t, then mu_t0, each in fold order.
        own = {(out == 0, k, r): err for (out, k, r), err in failed.items() if out in (1 + j, 0)}
        errors.append(_first_errors(own, len(fits)))
    return pred, errors


def _solved(fits):
    """Every GramFit of :func:`_regression_systems`'s dicts replaced by its result."""
    return [{key: fit.result if isinstance(fit, GramFit) else fit for key, fit in col.items()}
            for col in fits]


def _regression_systems(X, y_pre, Y, plan: FoldPlan, counts, fixed_l1=None):
    """The Gram systems of every (regression, outer fold) of every column.

    ``Y`` holds the post-period outcomes, one column per period (a vector
    is one period). The regressions are mu_t0 of y_pre, keyed 0, and mu_t
    of the outcome of each period j, keyed 1 + j. Returns one dict per
    column of ``counts``, keyed (regression, fold) over the folds that
    hold a drawn unit of the column, and the list of the dicts' GramFits.
    An entry is the regression's GramFit, or the MldidError that stops it
    before any solve. Every regression trains on the units outside the
    fold, each weighted by its count, on its outcome. Their l1 is
    ``fixed_l1`` or, if None, chosen by CV over CV_FOLDS inner folds.

    The slice's unit rows are read once into rows
    ``[1, x - xbar, y_pre - ybar, y_1 - ybar, ...]``, with ybar the mean
    of y_pre and of the first period's outcome, and one count-weighted
    product per outer fold and column gives the column's moments of that
    fold (:func:`_moments`). A regression's moments are the sum of those
    outside its fold, and ``learners.moment_fits`` turns them into its
    GramFit; the covariate ranges over its drawn rows pin a constant column
    as ``learners._pin_constant_columns`` pins it. With CV the inner folds
    rank the drawn training units as the row path ranks its training rows
    (inner fold j holds the ranks equal to j modulo K), so the moments of
    the K classes of units are all an inner fold needs: it trains on the
    regression's moments less one class and holds that class out.

    A regression with fewer than 2 training rows gets the DegenerateFold a
    fold-by-fold cross-fit raises; the other regressions are unaffected.
    """
    check_fixed_l1(fixed_l1)
    m, p = X.shape
    fold = plan.assignment[:m]
    c = np.asarray(counts, dtype=float)
    n_cols = c.shape[1]
    y_unit = np.column_stack([y_pre, Y])
    x_shift = X.mean(axis=0)
    y_shift = np.ascontiguousarray(y_unit[:, :2]).sum() / (2 * m)
    V = np.concatenate([np.ones((m, 1)), X - x_shift, y_unit - y_shift], axis=1)
    train_M, train_lo, train_hi = _training_sums(V, X, fold, plan.n_folds, c)
    train_size = train_M[..., 0, 0].astype(np.int64)
    drawn = (fold[:, None] == np.arange(plan.n_folds)).T.astype(float) @ c > 0

    # Each period's mu_t, then mu_t0.
    outcomes = list(range(1, y_unit.shape[1])) + [0]
    fits, live = [{} for _ in range(n_cols)], []
    sizes = train_size.tolist()
    for k, r in zip(*np.nonzero(drawn)):
        k, r = int(k), int(r)
        n_rows = sizes[r][k]
        for out in outcomes:
            if n_rows < 2:
                fits[r][out, k] = DegenerateFold(
                    f"fold {k}: training complement has {n_rows} rows")
            else:
                live.append((out, r, k))
    if not live:
        return fits, []

    outs, rs, ks = (np.array(col) for col in zip(*live))
    # Each regression's columns of V: [1, u] and its outcome.
    sel = np.concatenate([np.tile(np.arange(p + 1), (len(live), 1)),
                          (p + 1 + outs)[:, None]], axis=1)
    N = train_M[rs[:, None, None], ks[:, None, None], sel[:, :, None], sel[:, None, :]]
    classes = None
    if fixed_l1 is None:
        K_in = CV_FOLDS
        keys = {}
        owner = np.array([keys.setdefault(key, len(keys)) for key in zip(rs, ks)])
        class_M = np.zeros((len(keys), K_in) + train_M.shape[-2:])
        for (r, k), a in keys.items():
            # The drawn training units in order; class j holds those whose
            # rank is j modulo K_in.
            ranked = np.flatnonzero((fold != k) & (c[:, r] > 0))
            for j in range(K_in):
                idx = ranked[j::K_in]
                class_M[a, j] = _moments(V[idx], c[idx, r], p + 3)
        classes = class_M[owner[:, None, None, None], np.arange(K_in)[:, None, None],
                          sel[:, None, :, None], sel[:, None, None, :]]
    gram_fits = moment_fits(
        N, classes, fit_intercept=True, l1=fixed_l1, n_lambdas=CV_N_LAMBDAS,
        shift=np.append(x_shift, y_shift), ranges=(train_lo[rs, ks], train_hi[rs, ks]))
    for (out, r, k), fit in zip(live, gram_fits):
        fits[r][out, k] = fit
    return fits, gram_fits


def _moments(V, w, q):
    """``learners.weighted_gram`` of rows ``V`` whose leading ``q`` columns are its own product.

    The rows are ``[1, x, y_pre, y_1, ...]`` and q covers them through y_1,
    so the moments of a regression on those columns do not depend on how
    many more outcomes the rows carry; the other outcomes' columns are a
    second product.
    """
    if V.shape[1] == q:
        return weighted_gram(V, w)
    M = np.empty((V.shape[1], V.shape[1]))
    M[:q, :q] = weighted_gram(V[:, :q], w)
    M[:, q:] = (V * w[:, None]).T @ V[:, q:]
    M[q:, :q] = M[:q, q:].T
    return M


def _training_sums(V, X, fold, n_folds, c):
    """Moments and covariate ranges of every training set.

    Entry ``[r, k]`` covers the units of column r outside fold k: the
    count-weighted moments of their rows of ``V`` (:func:`_moments`), and
    the min and max of each covariate over the drawn ones. Each is
    combined from the per-fold blocks it spans.
    """
    n_cols, p, q = c.shape[1], X.shape[1], V.shape[1]
    order = np.argsort(fold, kind="stable")
    size = np.bincount(fold, minlength=n_folds)
    starts = np.cumsum(size) - size
    Vs, Xs, cs = V[order], X[order], c[order]
    M = np.zeros((n_folds, n_cols, q, q))
    lo = np.full((n_folds, n_cols, p), np.inf)
    hi = np.full((n_folds, n_cols, p), -np.inf)
    for b in np.flatnonzero(size):
        rows = slice(starts[b], starts[b] + size[b])
        Vb, cb = Vs[rows], cs[rows]
        for r in range(n_cols):
            M[b, r] = _moments(Vb, cb[:, r], p + 3)
        drawn = (cb > 0)[:, :, None]
        lo[b] = np.where(drawn, Xs[rows, None, :], np.inf).min(axis=0)
        hi[b] = np.where(drawn, Xs[rows, None, :], -np.inf).max(axis=0)

    M = M.sum(axis=0) - M
    outside = ~np.eye(n_folds, dtype=bool)[:, :, None, None]
    lo = np.where(outside, lo[None], np.inf).min(axis=1)
    hi = np.where(outside, hi[None], -np.inf).max(axis=1)
    # (fold, column, ...) -> (column, fold, ...)
    return tuple(np.moveaxis(a, 1, 0) for a in (M, lo, hi))


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
