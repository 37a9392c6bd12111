import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import DgpConfig, cross_fit, make_fold_plan, simulate
from mldid.estimator import _SEED_FOLDS, EstimatorConfig, derive_seed
from mldid.exceptions import DegenerateFold, MissingStratum, MldidError
from mldid.learners import DEFAULT_CLIP, fit_probability
from mldid.nuisance import (
    LearnerConfig,
    NuisanceBundle,
    _cross_fit_propensity,
    _cross_fit_regressions,
    _regression_fits,
    _stack_slice,
    compute_abch,
    estimate_nuisances,
)
from mldid.panel import enumerate_cells, slice_two_period

import _sequential_lasso as sequential
import _sequential_newton as newton_ref
from _utils import oracle_bundle, two_period_dgp


def _propensity(X, g_flag, plan, config):
    """Unclipped out-of-fold g(x) of the all-ones column; raises its first error."""
    out, errors = _cross_fit_propensity(X, g_flag, plan, np.ones((len(g_flag), 1)), config)
    if errors[0] is not None:
        raise errors[0]
    return out[:, 0]


def _regressions(sl, plan, config):
    """m, mu_t1, mu_t0, mu_g1, mu_g0 of the all-ones column on the stacked rows."""
    pred, errors = _cross_fit_regressions(sl.X, sl.y_pre, sl.y_post, sl.g_flag, plan,
                                          np.ones((sl.n_units, 1)), config)
    if errors[0] is not None:
        raise errors[0]
    return [np.concatenate([a[:, 0], a[:, 0]]) for a in pred]


def _fits(sl, plan, config):
    """Every (regression, fold) fit of the all-ones column."""
    return _regression_fits(sl.X, sl.y_pre, sl.y_post, sl.g_flag, plan,
                            np.ones((sl.n_units, 1)), config)[0]


def straight_line_abc(g_flag, t_flag, g, t, iota11, delta):
    """Independent transcription of the decomposition coefficients."""
    shrink = 1.0 - delta**2 / (g * (1.0 - g) * t * (1.0 - t))
    a = (1.0 / shrink) * (t_flag - t - delta * (g_flag - g) / (g * (1.0 - g)))
    b = (1.0 / shrink) * (g_flag - g - delta * (t_flag - t) / (t * (1.0 - t)))
    c = (
        g_flag * t_flag
        - iota11
        - (g + delta / t) * a
        - (t + delta / g) * b
    )
    return a, b, c


def abch_bundle(g_flag, t_flag, g_hat, rng):
    """A bundle with the given G, T and g_hat, ready for compute_abch."""
    n = g_flag.shape[0]
    return NuisanceBundle(
        y=rng.standard_normal(n), g=g_flag.astype(np.int8),
        t=t_flag.astype(np.int8), X=np.zeros((n, 1)), units=np.arange(n),
        unit_ids=np.arange(n, dtype=object), covariate_names=("x_1",),
        g_hat=g_hat, m_hat=rng.standard_normal(n), nu_hat=rng.standard_normal(n),
        zeta_hat=rng.standard_normal(n),
    )


def test_delta_zero_reduction_exact():
    # Balanced stacking gives t = 1/2, iota11 = g/2 and delta = 0; the
    # general coefficients must reduce to the closed forms, including at
    # both clip bounds of g_hat.
    rng = np.random.default_rng(0)
    n = 400
    g_flag = rng.integers(0, 2, n).astype(float)
    t_flag = rng.integers(0, 2, n).astype(float)
    g = rng.uniform(DEFAULT_CLIP, 1.0 - DEFAULT_CLIP, n)
    g[:4] = [DEFAULT_CLIP, DEFAULT_CLIP, 1.0 - DEFAULT_CLIP, 1.0 - DEFAULT_CLIP]
    g_flag[:4] = [0.0, 1.0, 0.0, 1.0]
    bundle = compute_abch(abch_bundle(g_flag, t_flag, g, rng))
    a2, b2, c2 = straight_line_abc(g_flag, t_flag, g, np.full(n, 0.5), g / 2,
                                   np.zeros(n))
    assert_allclose(bundle.A, a2, rtol=0, atol=1e-12)
    assert_allclose(bundle.B, b2, rtol=0, atol=1e-12)
    assert_allclose(bundle.C, c2, rtol=0, atol=1e-12)
    assert_allclose(bundle.A, t_flag - 0.5, rtol=0, atol=0)
    assert_allclose(bundle.B, g_flag - g, rtol=0, atol=0)
    assert_allclose(bundle.C, (g_flag - g) * (t_flag - 0.5), rtol=0, atol=0)
    assert_allclose(
        bundle.H,
        bundle.y - (bundle.m_hat + bundle.A * bundle.nu_hat
                    + bundle.B * bundle.zeta_hat),
        rtol=0, atol=1e-12,
    )


def test_fixed_point_against_independent_transcription():
    # g_hat = 0.3 and observed G = T = 1 give A = 0.5, B = 0.7, C = 0.35.
    one = np.array([1.0])
    bundle = compute_abch(abch_bundle(one, one, np.array([0.3]),
                                      np.random.default_rng(0)))
    assert_allclose(bundle.A, 0.5, atol=1e-12)
    assert_allclose(bundle.B, 0.7, atol=1e-12)
    assert_allclose(bundle.C, 0.35, atol=1e-12)
    a2, b2, c2 = straight_line_abc(one, one, np.array([0.3]), np.array([0.5]),
                                   np.array([0.15]), np.array([0.0]))
    assert_allclose(bundle.A, a2, atol=1e-12)
    assert_allclose(bundle.B, b2, atol=1e-12)
    assert_allclose(bundle.C, c2, atol=1e-12)


def test_random_draws_against_independent_transcription():
    # The closed forms on fitted nuisances: compute_abch on an estimated
    # bundle matches the transcription at t = 1/2, iota11 = g_hat/2, delta = 0.
    sl, _ = two_period_dgp(300, seed=1, tau_fn=lambda x: x[:, 0],
                           g_fn=lambda x: 1 / (1 + np.exp(-2.0 * x[:, 1])))
    plan = make_fold_plan(sl.n_units, 5, seed=0)
    bundle = compute_abch(estimate_nuisances(sl, plan, LearnerConfig(fixed_l1=0.02)))
    g_flag, t_flag = bundle.g.astype(float), bundle.t.astype(float)
    n = bundle.n_rows
    a2, b2, c2 = straight_line_abc(g_flag, t_flag, bundle.g_hat, np.full(n, 0.5),
                                   bundle.g_hat / 2, np.zeros(n))
    assert_allclose(bundle.A, a2, rtol=0, atol=1e-12)
    assert_allclose(bundle.B, b2, rtol=0, atol=1e-12)
    assert_allclose(bundle.C, c2, rtol=0, atol=1e-12)


def test_constant_outcome_nuisances():
    sl, truth = two_period_dgp(120, seed=2, tau_fn=lambda x: np.zeros(x.shape[0]))
    sl = dataclasses.replace(sl, y_pre=np.full(sl.n_units, 3.25),
                             y_post=np.full(sl.n_units, 3.25))
    plan = make_fold_plan(sl.n_units, 5, seed=0)
    bundle = estimate_nuisances(sl, plan)
    assert_allclose(bundle.m_hat, 3.25, atol=1e-8)
    assert_allclose(bundle.nu_hat, 0.0, atol=1e-8)
    assert_allclose(bundle.zeta_hat, 0.0, atol=1e-8)


def test_time_probability_balanced_by_construction():
    # The premise of the closed forms: every unit has one pre and one post
    # row with the same covariates, group and propensity, so t(x) = 1/2 and
    # G, T are uncorrelated given X.
    sl, _ = two_period_dgp(400, seed=3, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=1)
    bundle = estimate_nuisances(sl, plan)
    m = sl.n_units
    assert np.array_equal(bundle.t, np.repeat(np.array([0, 1], np.int8), m))
    assert np.array_equal(bundle.X[:m], bundle.X[m:])
    assert np.array_equal(bundle.g[:m], bundle.g[m:])
    assert np.array_equal(bundle.g_hat[:m], bundle.g_hat[m:])
    assert np.array_equal(bundle.units[:m], bundle.units[m:])


def test_propensity_clip_applied():
    sl, _ = two_period_dgp(300, seed=5, tau_fn=lambda x: x[:, 0],
                           g_fn=lambda x: 1 / (1 + np.exp(-3.0 * x[:, 1])))
    plan = make_fold_plan(sl.n_units, 5, seed=3)
    bundle = estimate_nuisances(sl, plan, LearnerConfig(clip=0.05))
    assert bundle.g_hat.min() == 0.05 and bundle.g_hat.max() == 0.95


def test_propensity_on_unit_rows_matches_stacked_rows():
    # Fitting g on the m unit rows has the same objective as fitting it on
    # the 2m stacked rows, where every unit appears twice.
    for seed in range(5):
        sl, _ = two_period_dgp(200 + 100 * seed, seed=20 + seed,
                               tau_fn=lambda x: x[:, 0], p=3,
                               g_fn=lambda x: 1 / (1 + np.exp(-x[:, 0] + x[:, 2])))
        labels = sl.g_flag.astype(np.int64)
        unit = fit_probability(sl.X, labels)
        stacked = fit_probability(np.vstack([sl.X, sl.X]),
                                  np.concatenate([labels, labels]))
        assert_allclose(unit.predict_proba(sl.X, clipped=False),
                        stacked.predict_proba(sl.X, clipped=False),
                        rtol=0, atol=1e-10)
        plan = make_fold_plan(sl.n_units, 5, seed=seed)
        y, g, t, X, units = _stack_slice(sl)
        stacked_cf = cross_fit(
            X, g.astype(np.int64), units, plan, fit_probability,
            predict=lambda mod, Xn: mod.predict_proba(Xn, clipped=False)[:, 1])
        bundle = estimate_nuisances(sl, plan)
        assert_allclose(bundle.g_hat, np.clip(stacked_cf, DEFAULT_CLIP,
                                              1.0 - DEFAULT_CLIP),
                        rtol=0, atol=1e-10)


def test_propensity_engine_matches_per_fold_loop():
    # One engine call per cell gives the g_hat of one Newton fit per fold.
    for seed, n in ((0, 60), (1, 157), (2, 400)):
        sl, _ = two_period_dgp(n, seed=30 + seed, tau_fn=lambda x: x[:, 0], p=3,
                               g_fn=lambda x: 1 / (1 + np.exp(-x[:, 0] + x[:, 2])))
        for n_folds, prob_l2 in ((2, 1e-6), (5, 1e-6), (7, 1e-4)):
            plan = make_fold_plan(sl.n_units, n_folds, seed=seed)
            config = LearnerConfig(prob_l2=prob_l2, fixed_l1=0.02)
            want, _ = newton_ref.cross_fit_propensity(
                sl.X, sl.g_flag.astype(np.int64), plan.assignment, n_folds,
                l2=prob_l2)
            got = _propensity(sl.X, sl.g_flag, plan, config)
            assert_allclose(got, want, rtol=0, atol=1e-10)
            bundle = estimate_nuisances(sl, plan, config)
            clipped = np.clip(want, config.clip, 1.0 - config.clip)
            assert_allclose(bundle.g_hat, np.concatenate([clipped, clipped]),
                            rtol=0, atol=1e-10)


def test_propensity_engine_raises_per_fold_errors():
    sl, _ = two_period_dgp(40, seed=11, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=6)
    config = LearnerConfig()
    # One treated unit: its fold's training units are all controls.
    one_treated = (np.arange(sl.n_units) == 7).astype(np.int8)
    # A non-finite covariate fails every fold that trains on its unit.
    X_bad = sl.X.copy()
    X_bad[np.flatnonzero(plan.assignment == 0)[0], 0] = np.nan
    cases = [(sl.X, one_treated, plan), (X_bad, sl.g_flag, plan)]
    # Two units in two folds: each training complement holds one unit.
    tiny = make_fold_plan(2, 2, seed=0)
    cases.append((sl.X[:2], np.array([0, 1], np.int8), tiny))
    for X, g_flag, fold_plan in cases:
        got = _first_error(lambda: _propensity(X, g_flag, fold_plan, config))
        want = _first_error(lambda: newton_ref.cross_fit_propensity(
            X, g_flag.astype(np.int64), fold_plan.assignment, fold_plan.n_folds))
        assert got == want
        assert got.startswith("fold ")
    lone = _first_error(lambda: _propensity(sl.X, one_treated, plan, config))
    k = plan.assignment[7]
    assert lone == f"fold {k}: training fold lacks both binary classes"


def test_missing_stratum_detected():
    sl, truth = two_period_dgp(60, seed=6, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=4)
    for flag in (1, 0):
        one_group = dataclasses.replace(
            sl, g_flag=np.full(sl.n_units, flag, dtype=np.int8))
        with pytest.raises(MissingStratum):
            estimate_nuisances(one_group, plan)


def _per_fold_regressions(sl, plan, config, fit=None):
    """m, mu_t1, mu_t0, mu_g1, mu_g0 fit one regression and fold at a time."""
    y, g, t, X, units = _stack_slice(sl)
    if fit is None:
        opts = config.lasso_options()
        opts.pop("l2")
        fit = lambda a, b: sequential.fit_ls_cv(a, b, l2=config.l2, **opts)
    masks = (None, t == 1, t == 0, g == 1, g == 0)
    return [cross_fit(X, y, units, plan, fit, train_mask=mask) for mask in masks]


@pytest.mark.parametrize("fixed_l1", [None, 0.02])
def test_batched_regressions_match_per_fold_cross_fit(fixed_l1):
    sl, _ = two_period_dgp(150, seed=9, tau_fn=lambda x: x[:, 0], p=3)
    plan = make_fold_plan(sl.n_units, 5, seed=5)
    config = LearnerConfig(fixed_l1=fixed_l1)
    got = _regressions(sl, plan, config)
    want = _per_fold_regressions(sl, plan, config)
    for a, b in zip(got, want):
        assert_allclose(a, b, rtol=0, atol=1e-12)
    bundle = estimate_nuisances(sl, plan, config)
    assert_allclose(bundle.m_hat, want[0], rtol=0, atol=1e-12)
    assert_allclose(bundle.nu_hat, want[1] - want[2], rtol=0, atol=1e-12)
    assert_allclose(bundle.zeta_hat, want[3] - want[4], rtol=0, atol=1e-12)


def _first_error(thunk):
    with pytest.raises(DegenerateFold) as err:
        thunk()
    return str(err.value)


def test_batched_regressions_raise_per_fold_errors():
    sl, _ = two_period_dgp(40, seed=10, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=6)
    config = LearnerConfig(fixed_l1=0.02)
    fit = lambda a, b: config.fit_regression(a, b)
    # A single treated unit leaves the mu_g1 training set of its own fold
    # empty; every other regression still fits.
    one_treated = dataclasses.replace(
        sl, g_flag=(np.arange(sl.n_units) == 7).astype(np.int8))
    # A non-finite outcome fails the first fit whose training rows hold it.
    bad_y = dataclasses.replace(sl, y_post=np.where(
        np.arange(sl.n_units) == 3, np.nan, sl.y_post))
    for case in (one_treated, bad_y):
        got = _first_error(lambda: _regressions(case, plan, config))
        want = _first_error(lambda: _per_fold_regressions(case, plan, config, fit))
        assert got == want
        assert got.startswith("fold ")


def _member_reference(case, plan, config):
    """Every (regression, outer fold) of a cell fit on its own rows by the row path.

    Each entry is the LinearModel, or the (error type, message) that a
    fold-by-fold cross-fit with ``config.fit_regression`` reports for it.
    """
    y, g, t, X, units = _stack_slice(case)
    row_fold = plan.assignment[units]
    masks = dict(m=None, t1=t == 1, t0=t == 0, g1=g == 1, g0=g == 0)
    out = {}
    for name, mask in masks.items():
        for k in range(plan.n_folds):
            test = row_fold == k
            if not test.any():
                continue
            train = ~test if mask is None else ~test & mask
            n = int(train.sum())
            if n < 2:
                out[name, k] = (DegenerateFold, f"fold {k}: training complement has {n} rows")
                continue
            try:
                out[name, k] = config.fit_regression(X[train], y[train])
            except MldidError as err:
                out[name, k] = (type(err), f"fold {k}: {err}")
    return out


def _assert_members_match_reference(case, plan, config):
    """Block-moment fits equal the row path's fits, one regression at a time.

    Predictions agree to 1e-12 and every l1 sits on the reference's grid
    point (neighbouring points differ by a factor of about 1.8); a
    regression that fails does so with the reference's error type and
    message. Returns the number of regressions fit.
    """
    y, g, t, X, units = _stack_slice(case)
    row_fold = plan.assignment[units]
    got = _fits(case, plan, config)
    want = _member_reference(case, plan, config)
    assert got.keys() == want.keys()
    n_fit = 0
    for (name, k), ref in want.items():
        fit = got[name, k]
        if isinstance(ref, tuple):
            assert isinstance(fit, ref[0]), (name, k, fit)
            msg = str(fit) if isinstance(fit, DegenerateFold) else f"fold {k}: {fit}"
            assert msg == ref[1]
            continue
        test = row_fold == k
        with np.errstate(invalid="ignore"):  # a non-finite X predicts NaN
            assert_allclose(fit.predict(X[test]), ref.predict(X[test]), rtol=0, atol=1e-12)
        assert fit.l1 == pytest.approx(ref.l1, rel=1e-9, abs=0), (name, k)
        n_fit += 1
    return n_fit


def _block_front_end_cases():
    sl, _ = two_period_dgp(150, seed=12, tau_fn=lambda x: x[:, 0], p=3)
    plan = make_fold_plan(sl.n_units, 5, seed=7)
    n = sl.n_units
    rng = np.random.default_rng(13)
    idx = rng.integers(0, n, size=n)
    resampled = dataclasses.replace(
        sl, X=sl.X[idx], y_pre=sl.y_pre[idx], y_post=sl.y_post[idx],
        g_flag=sl.g_flag[idx], unit_ids=np.arange(n, dtype=object),
        unit_rows=np.arange(n))
    # x_2 is 3.7 on every treated unit outside fold 2: constant on the mu_g1
    # training rows of fold 2 only, at a value whose mean rounds off.
    X_const = sl.X.copy()
    X_const[(sl.g_flag == 1) & (plan.assignment != 2), 1] = 3.7
    # The treated units all sit in fold 3, so mu_g1 of fold 3 has no rows.
    g_one_fold = np.where(plan.assignment == 3, sl.g_flag, 0).astype(np.int8)
    y_post_bad = sl.y_post.copy()
    y_post_bad[17] = np.nan
    X_bad = sl.X.copy()
    X_bad[41, 2] = np.inf
    return plan, {
        "resampled": resampled,
        "constant-on-fold": dataclasses.replace(sl, X=X_const),
        "empty-g1-fold": dataclasses.replace(sl, g_flag=g_one_fold),
        "nan-y-post": dataclasses.replace(sl, y_post=y_post_bad),
        "inf-x": dataclasses.replace(sl, X=X_bad),
    }


@pytest.mark.parametrize("fixed_l1", [None, 0.02])
@pytest.mark.parametrize("name", ["resampled", "constant-on-fold", "empty-g1-fold",
                                  "nan-y-post", "inf-x"])
def test_block_front_end_matches_per_fold_reference(name, fixed_l1):
    plan, cases = _block_front_end_cases()
    case = cases[name]
    config = LearnerConfig(fixed_l1=fixed_l1)
    assert _assert_members_match_reference(case, plan, config) > 0
    if name in ("resampled", "constant-on-fold"):
        got = _regressions(case, plan, config)
        for a, b in zip(got, _per_fold_regressions(case, plan, config)):
            assert_allclose(a, b, rtol=0, atol=1e-12)
        return
    fit = lambda a, b: config.fit_regression(a, b)
    with pytest.raises(DegenerateFold) as got:
        _regressions(case, plan, config)
    with pytest.raises(DegenerateFold) as want, np.errstate(invalid="ignore"):
        _per_fold_regressions(case, plan, config, fit)
    assert str(got.value) == str(want.value)
    assert type(got.value.__cause__) is type(want.value.__cause__)


def test_constant_column_is_pinned_on_its_fold_only():
    plan, cases = _block_front_end_cases()
    fits = _fits(cases["constant-on-fold"], plan, LearnerConfig(fixed_l1=0.02))
    assert fits["g1", 2].center[1] == 3.7 and fits["g1", 2].scale[1] == 1.0
    assert fits["g1", 2].coef[1] == 0.0
    assert all(fits["g1", k].scale[1] != 1.0 for k in (0, 1, 3, 4))


def test_nuisance_l1_matches_row_path_on_covariate_driven_panel():
    # Every CV-chosen l1 of every cell, block moments against the row path.
    panel = simulate(DgpConfig(n_units=300, assignment="logit-x123", seed=4)).panel
    config = EstimatorConfig(seed=2)
    n_fit = 0
    for g, t in enumerate_cells(panel, True):
        if t == g - 1:
            continue
        sl = slice_two_period(panel, g, t)
        plan = make_fold_plan(sl.n_units, config.n_folds,
                              derive_seed(config.seed, _SEED_FOLDS, g, t))
        n_fit += _assert_members_match_reference(sl, plan, config.learners)
    assert n_fit >= 100


# ---------------------------------------------------------------------------
# Orthogonality with the true nuisance values
# ---------------------------------------------------------------------------

def test_decomposition_orthogonality_with_oracle_nuisances():
    sl, truth = two_period_dgp(6000, seed=7, tau_fn=lambda x: 1.0 + x[:, 0],
                               g_fn=lambda x: 1 / (1 + np.exp(-0.5 * x[:, 1])))
    bundle = oracle_bundle(sl, truth)
    n = bundle.n_rows
    for name, arr in (("A", bundle.A), ("B", bundle.B), ("C", bundle.C),
                      ("H", bundle.H)):
        se = arr.std(ddof=1) / np.sqrt(n)
        assert abs(arr.mean()) <= 3 * se, f"{name} mean {arr.mean():.4f}"
    for a, b in (("A", "B"), ("A", "C"), ("B", "C")):
        x, y = getattr(bundle, a), getattr(bundle, b)
        cov = np.mean((x - x.mean()) * (y - y.mean()))
        se = np.std((x - x.mean()) * (y - y.mean()), ddof=1) / np.sqrt(n)
        assert abs(cov) <= 3 * se, f"cov({a},{b}) = {cov:.4f}"


def test_oracle_nuisance_reduction_matches_reduced_formulas():
    sl, truth = two_period_dgp(500, seed=8, tau_fn=lambda x: x[:, 0])
    bundle = oracle_bundle(sl, truth)
    g = bundle.g.astype(float)
    t = bundle.t.astype(float)
    assert_allclose(bundle.A, t - 0.5, atol=1e-12)
    assert_allclose(bundle.B, g - bundle.g_hat, atol=1e-12)
    assert_allclose(bundle.C, (g - bundle.g_hat) * (t - 0.5), atol=1e-12)
