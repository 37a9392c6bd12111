import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import cross_fit, make_fold_plan
from mldid.exceptions import DegenerateFold, MissingStratum, SingularShrinkFactor
from mldid.nuisance import (
    LearnerConfig,
    _cross_fit_regressions,
    _stack_slice,
    abch_terms,
    compute_abch,
    estimate_nuisances,
)

import _sequential_lasso as sequential
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


def test_delta_zero_reduction_exact():
    rng = np.random.default_rng(0)
    n = 200
    g_flag = rng.integers(0, 2, n).astype(float)
    t_flag = rng.integers(0, 2, n).astype(float)
    g = rng.uniform(0.05, 0.95, n)
    t = rng.uniform(0.05, 0.95, n)
    iota11 = g * t
    delta = np.zeros(n)
    A, B, C, valid = abch_terms(g_flag, t_flag, g, t, iota11, delta)
    assert valid.all()
    assert_allclose(A, t_flag - t, atol=1e-12)
    assert_allclose(B, g_flag - g, atol=1e-12)
    assert_allclose(C, (g_flag - g) * (t_flag - t), atol=1e-12)


def test_delta_zero_a_vanishes_when_t_matches():
    A, B, C, valid = abch_terms(
        np.array([1.0]), np.array([0.5]), np.array([0.3]), np.array([0.5]),
        np.array([0.15]), np.array([0.0]),
    )
    assert_allclose(A, 0.0, atol=1e-12)


def test_fixed_point_against_independent_transcription():
    # g=0.3, t=0.5, iota11=0.2 (delta=0.05), observed G=T=1: the shrink
    # factor is 20/21, giving A=0.35, B=0.63, C=0.24 exactly.
    args = (np.array([1.0]), np.array([1.0]), np.array([0.3]),
            np.array([0.5]), np.array([0.2]), np.array([0.05]))
    A, B, C, valid = abch_terms(*args)
    assert_allclose(A, 0.35, atol=1e-12)
    assert_allclose(B, 0.63, atol=1e-12)
    assert_allclose(C, 0.24, atol=1e-12)
    a2, b2, c2 = straight_line_abc(*args)
    assert_allclose(A, a2, atol=1e-12)
    assert_allclose(B, b2, atol=1e-12)
    assert_allclose(C, c2, atol=1e-12)


def test_random_draws_against_independent_transcription():
    rng = np.random.default_rng(1)
    n = 500
    g = rng.uniform(0.1, 0.9, n)
    t = rng.uniform(0.1, 0.9, n)
    # Keep the joint probability coherent so the shrink factor is positive.
    lo = np.maximum(0.0, g + t - 1.0)
    hi = np.minimum(g, t)
    iota11 = lo + rng.uniform(0.25, 0.75, n) * (hi - lo)
    delta = iota11 - g * t
    g_flag = rng.integers(0, 2, n).astype(float)
    t_flag = rng.integers(0, 2, n).astype(float)
    A, B, C, valid = abch_terms(g_flag, t_flag, g, t, iota11, delta)
    a2, b2, c2 = straight_line_abc(g_flag[valid], t_flag[valid], g[valid],
                                   t[valid], iota11[valid], delta[valid])
    assert_allclose(A[valid], a2, atol=1e-12)
    assert_allclose(B[valid], b2, atol=1e-12)
    assert_allclose(C[valid], c2, atol=1e-12)


def test_shrink_factor_flags_rows():
    # delta^2 >= g(1-g)t(1-t) makes the decomposition undefined.
    A, B, C, valid = abch_terms(
        np.array([1.0, 1.0]), np.array([1.0, 1.0]),
        np.array([0.5, 0.5]), np.array([0.5, 0.5]),
        np.array([0.5, 0.3]), np.array([0.25, 0.05]),
    )
    assert not valid[0] and valid[1]
    assert np.isnan(A[0]) and np.isfinite(A[1])


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
    sl, _ = two_period_dgp(400, seed=3, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=1)
    bundle = estimate_nuisances(sl, plan)
    assert abs(bundle.t_hat.mean() - 0.5) < 0.01


def test_delta_small_under_independence():
    sl, _ = two_period_dgp(5000, seed=4, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=2)
    bundle = estimate_nuisances(sl, plan)
    assert np.mean(np.abs(bundle.delta_hat)) < 0.02


def test_iota_raw_rows_sum_to_one_and_clip_applied():
    sl, _ = two_period_dgp(300, seed=5, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=3)
    bundle = estimate_nuisances(sl, plan, LearnerConfig(clip=0.05))
    assert bundle.g_hat.min() >= 0.05 and bundle.g_hat.max() <= 0.95
    assert bundle.iota_hat.min() >= 0.05


def test_missing_stratum_detected():
    sl, truth = two_period_dgp(60, seed=6, tau_fn=lambda x: x[:, 0])
    all_treated = dataclasses.replace(sl, g_flag=np.ones(sl.n_units,
                                                        dtype=np.int8))
    plan = make_fold_plan(sl.n_units, 5, seed=4)
    with pytest.raises(MissingStratum):
        estimate_nuisances(all_treated, plan)


def test_singular_shrink_factor_raises_when_universal():
    from mldid.nuisance import NuisanceBundle

    n = 4
    ones = np.ones(n)
    bundle = NuisanceBundle(
        y=ones, g=np.ones(n, np.int8), t=np.ones(n, np.int8),
        X=np.zeros((n, 1)), units=np.arange(n),
        unit_ids=np.arange(n, dtype=object), covariate_names=("x_1",),
        g_hat=0.5 * ones, t_hat=0.5 * ones,
        iota_hat=np.column_stack([0.5 * ones, 0 * ones, 0 * ones, 0.5 * ones]),
        m_hat=ones, nu_hat=ones, zeta_hat=ones,
        delta_hat=0.25 * ones,
    )
    with pytest.raises(SingularShrinkFactor):
        compute_abch(bundle)


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
    assert_allclose(bundle.A, t - bundle.t_hat, atol=1e-12)
    assert_allclose(bundle.B, g - bundle.g_hat, atol=1e-12)
    assert_allclose(bundle.C, (g - bundle.g_hat) * (t - bundle.t_hat),
                    atol=1e-12)
