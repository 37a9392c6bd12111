import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import cross_fit, make_fold_plan
from mldid.exceptions import DegenerateFold, MissingStratum
from mldid.learners import DEFAULT_CLIP, fit_probability
from mldid.nuisance import (
    LearnerConfig,
    NuisanceBundle,
    _cross_fit_propensity,
    _cross_fit_regressions,
    _stack_slice,
    compute_abch,
    estimate_nuisances,
)

import _sequential_lasso as sequential
import _sequential_newton as newton_ref
from _utils import oracle_bundle, two_period_dgp


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
            got = _cross_fit_propensity(sl.X, sl.g_flag, plan, config)
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
        got = _first_error(lambda: _cross_fit_propensity(X, g_flag, fold_plan, config))
        want = _first_error(lambda: newton_ref.cross_fit_propensity(
            X, g_flag.astype(np.int64), fold_plan.assignment, fold_plan.n_folds))
        assert got == want
        assert got.startswith("fold ")
    lone = _first_error(lambda: _cross_fit_propensity(sl.X, one_treated, plan, config))
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
    y, g, t, X, units = _stack_slice(sl)
    got = _cross_fit_regressions(X, y, g, units, plan, config)
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
        y, g, t, X, units = _stack_slice(case)
        got = _first_error(lambda: _cross_fit_regressions(X, y, g, units, plan, config))
        want = _first_error(lambda: _per_fold_regressions(case, plan, config, fit))
        assert got == want
        assert got.startswith("fold ")


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
