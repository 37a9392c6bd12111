import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import DgpConfig, cross_fit, make_fold_plan, simulate
from mldid.estimator import _SEED_FOLDS, EstimatorConfig, derive_seed
from mldid.exceptions import DegenerateFold, MissingStratum, MldidError
from mldid.learners import DEFAULT_CLIP, fit_penalized_ls_cv, fit_probability, weighted_gram
from mldid.nuisance import (
    NuisanceBundle,
    _cross_fit_propensity,
    _moments,
    _regression_predictions,
    compute_abch,
    estimate_nuisances,
)
from mldid.panel import enumerate_cells, slice_two_period

import _sequential_lasso as sequential
import _sequential_newton as newton_ref
from _stacked_rows import stack_slice, stacked_decomposition
from _utils import oracle_bundle, regression_fits, two_period_dgp


def _propensity(X, g_flag, plan):
    """Unclipped out-of-fold g(x) of the all-ones column; raises its first error."""
    out, errors, _ = _cross_fit_propensity(X, g_flag, plan, np.ones((len(g_flag), 1)))
    if errors[0] is not None:
        raise errors[0]
    return out[:, 0]


def _regressions(sl, plan, fixed_l1):
    """mu_t1 and mu_t0 of the all-ones column on the unit rows."""
    pred, errors = _regression_predictions(sl.X, plan, regression_fits(
        sl.X, sl.y_pre, sl.y_post, plan, np.ones((sl.n_units, 1)), fixed_l1))
    if errors[0][0] is not None:
        raise errors[0][0]
    return [pred[1][:, 0], pred[0][:, 0]]


def _fits(sl, plan, fixed_l1):
    """Every (regression, fold) fit of the all-ones column."""
    return regression_fits(sl.X, sl.y_pre, sl.y_post, plan,
                           np.ones((sl.n_units, 1)), fixed_l1)[0]


def _fit_regression(X, y, fixed_l1, weights=None):
    """One regression fit from its rows, by the row path.

    The tests check the moment front end of ``_regression_systems``
    against it, fold by fold.
    """
    return fit_penalized_ls_cv(X, y, weights=weights, fixed_l1=fixed_l1)


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


def unit_bundle(g_flag, g_hat, rng):
    """A unit bundle with the given G and g_hat, ready for compute_abch."""
    n = g_flag.shape[0]
    y_pre, y_post, nu_hat = rng.standard_normal((3, n))
    return NuisanceBundle(
        y_pre=y_pre, y_post=y_post, g=g_flag.astype(np.int8), X=np.zeros((n, 1)),
        unit_ids=np.arange(n, dtype=object), covariate_names=("x_1",),
        g_hat=g_hat, nu_hat=nu_hat,
    )


def test_delta_zero_reduction_exact():
    # Balanced stacking gives t = 1/2, iota11 = g/2 and delta = 0; the
    # general coefficients of a unit's pre and post rows must reduce to
    # the unit form, including at both clip bounds of g_hat: B is the
    # unit's B, C_post - C_pre = B and, for any level nuisances m and
    # zeta, H_post - H_pre = dH.
    rng = np.random.default_rng(0)
    n = 400
    g_flag = rng.integers(0, 2, n).astype(float)
    g = rng.uniform(DEFAULT_CLIP, 1.0 - DEFAULT_CLIP, n)
    g[:4] = [DEFAULT_CLIP, DEFAULT_CLIP, 1.0 - DEFAULT_CLIP, 1.0 - DEFAULT_CLIP]
    g_flag[:4] = [0.0, 1.0, 0.0, 1.0]
    bundle = compute_abch(unit_bundle(g_flag, g, rng))
    rows = {}
    for t in (0.0, 1.0):
        rows[t] = straight_line_abc(g_flag, np.full(n, t), g, np.full(n, 0.5), g / 2,
                                    np.zeros(n))
        assert_allclose(rows[t][0], t - 0.5, rtol=0, atol=1e-12)
        assert_allclose(rows[t][1], bundle.B, rtol=0, atol=1e-12)
    assert_allclose(rows[1.0][2] - rows[0.0][2], bundle.B, rtol=0, atol=1e-12)
    assert_allclose(bundle.B, g_flag - g, rtol=0, atol=0)
    m_hat, zeta_hat = rng.standard_normal((2, n))
    H = {t: stacked_decomposition(y, g_flag, t, g, m_hat, bundle.nu_hat, zeta_hat)[3]
         for t, y in ((0.0, bundle.y_pre), (1.0, bundle.y_post))}
    assert_allclose(H[1.0] - H[0.0], bundle.dH, rtol=0, atol=1e-12)
    assert_allclose(bundle.dH, (bundle.y_post - bundle.y_pre) - bundle.nu_hat,
                    rtol=0, atol=0)


def test_fixed_point_against_independent_transcription():
    # g_hat = 0.3 and a treated unit give B = 0.7, and C = -0.35 and 0.35 on
    # its pre and post rows.
    one = np.array([1.0])
    bundle = compute_abch(unit_bundle(one, np.array([0.3]), np.random.default_rng(0)))
    assert_allclose(bundle.B, 0.7, atol=1e-12)
    for t, c in ((0.0, -0.35), (1.0, 0.35)):
        a2, b2, c2 = straight_line_abc(one, np.array([t]), np.array([0.3]),
                                       np.array([0.5]), np.array([0.15]), np.array([0.0]))
        assert_allclose(a2, t - 0.5, atol=1e-12)
        assert_allclose(b2, bundle.B, atol=1e-12)
        assert_allclose(c2, c, atol=1e-12)


def test_random_draws_against_independent_transcription():
    # The closed forms on fitted nuisances: compute_abch on an estimated
    # bundle matches the transcription at t = 1/2, iota11 = g_hat/2,
    # delta = 0 on both of a unit's rows.
    sl, _ = two_period_dgp(300, seed=1, tau_fn=lambda x: x[:, 0],
                           g_fn=lambda x: 1 / (1 + np.exp(-2.0 * x[:, 1])))
    plan = make_fold_plan(sl.n_units, 5, seed=0)
    bundle = compute_abch(estimate_nuisances(sl, plan, fixed_l1=0.02))
    g_flag = bundle.g.astype(float)
    n = bundle.n_units
    c = {}
    for t in (0.0, 1.0):
        a2, b2, c[t] = straight_line_abc(g_flag, np.full(n, t), bundle.g_hat,
                                         np.full(n, 0.5), bundle.g_hat / 2, np.zeros(n))
        assert_allclose(bundle.B, b2, rtol=0, atol=1e-12)
    assert_allclose(c[1.0] - c[0.0], bundle.B, rtol=0, atol=1e-12)


def test_constant_outcome_nuisances():
    sl, truth = two_period_dgp(120, seed=2, tau_fn=lambda x: np.zeros(x.shape[0]))
    sl = dataclasses.replace(sl, y_pre=np.full(sl.n_units, 3.25),
                             y_post=np.full(sl.n_units, 3.25))
    plan = make_fold_plan(sl.n_units, 5, seed=0)
    bundle = compute_abch(estimate_nuisances(sl, plan))
    assert_allclose(bundle.nu_hat, 0.0, atol=1e-8)
    assert_allclose(bundle.dH, 0.0, atol=1e-8)


def test_time_probability_balanced_by_construction():
    # The premise of the unit form: every unit has one pre and one post
    # row with the same covariates, group and propensity, so t(x) = 1/2 and
    # G, T are uncorrelated given X. The bundle holds one row per unit.
    sl, _ = two_period_dgp(400, seed=3, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=1)
    bundle = estimate_nuisances(sl, plan)
    assert bundle.n_units == sl.n_units
    assert np.array_equal(bundle.X, sl.X)
    assert np.array_equal(bundle.g, sl.g_flag)
    assert np.array_equal(bundle.y_pre, sl.y_pre)
    assert np.array_equal(bundle.y_post, sl.y_post)
    assert bundle.g_hat.shape == bundle.nu_hat.shape == (sl.n_units,)


def test_propensity_clip_applied():
    sl, _ = two_period_dgp(300, seed=5, tau_fn=lambda x: x[:, 0],
                           g_fn=lambda x: 1 / (1 + np.exp(-3.0 * x[:, 1])))
    plan = make_fold_plan(sl.n_units, 5, seed=3)
    bundle = estimate_nuisances(sl, plan)
    assert bundle.g_hat.min() == DEFAULT_CLIP and bundle.g_hat.max() == 1.0 - DEFAULT_CLIP


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
        assert_allclose(unit.predict_proba(sl.X),
                        stacked.predict_proba(sl.X),
                        rtol=0, atol=1e-10)
        plan = make_fold_plan(sl.n_units, 5, seed=seed)
        y, g, t, X, units = stack_slice(sl)
        stacked_cf = cross_fit(
            X, g.astype(np.int64), units, plan, fit_probability,
            predict=lambda mod, Xn: mod.predict_proba(Xn)[:, 1])
        bundle = estimate_nuisances(sl, plan)
        clipped = np.clip(stacked_cf, DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)
        for rows in (clipped[:sl.n_units], clipped[sl.n_units:]):
            assert_allclose(bundle.g_hat, rows, rtol=0, atol=1e-10)


def test_propensity_engine_matches_per_fold_loop():
    # One engine call per cell gives the g_hat of one Newton fit per fold.
    for seed, n in ((0, 60), (1, 157), (2, 400)):
        sl, _ = two_period_dgp(n, seed=30 + seed, tau_fn=lambda x: x[:, 0], p=3,
                               g_fn=lambda x: 1 / (1 + np.exp(-x[:, 0] + x[:, 2])))
        for n_folds in (2, 5, 7):
            plan = make_fold_plan(sl.n_units, n_folds, seed=seed)
            want, _ = newton_ref.cross_fit_propensity(
                sl.X, sl.g_flag.astype(np.int64), plan.assignment, n_folds)
            got = _propensity(sl.X, sl.g_flag, plan)
            assert_allclose(got, want, rtol=0, atol=1e-10)
            bundle = estimate_nuisances(sl, plan, fixed_l1=0.02)
            clipped = np.clip(want, DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)
            assert_allclose(bundle.g_hat, clipped, rtol=0, atol=1e-10)


def test_propensity_engine_raises_per_fold_errors():
    sl, _ = two_period_dgp(40, seed=11, tau_fn=lambda x: x[:, 0])
    plan = make_fold_plan(sl.n_units, 5, seed=6)
    # One treated unit: its fold's training units are all controls.
    one_treated = (np.arange(sl.n_units) == 7).astype(np.int8)
    cases = [(sl.X, one_treated, plan)]
    # Two units in two folds: each training complement holds one unit.
    tiny = make_fold_plan(2, 2, seed=0)
    cases.append((sl.X[:2], np.array([0, 1], np.int8), tiny))
    for X, g_flag, fold_plan in cases:
        got = _first_error(lambda: _propensity(X, g_flag, fold_plan))
        want = _first_error(lambda: newton_ref.cross_fit_propensity(
            X, g_flag.astype(np.int64), fold_plan.assignment, fold_plan.n_folds))
        assert got == want
        assert got.startswith("fold ")
    lone = _first_error(lambda: _propensity(sl.X, one_treated, plan))
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


def _per_fold_regressions(sl, plan, fixed_l1, fit=None):
    """mu_t1 and mu_t0 fit one regression and fold at a time on the unit rows."""
    if fit is None:
        fit = lambda a, b: sequential.fit_ls_cv(a, b, fixed_l1=fixed_l1)
    units = np.arange(sl.n_units)
    return [cross_fit(sl.X, y, units, plan, fit) for y in (sl.y_post, sl.y_pre)]


@pytest.mark.parametrize("fixed_l1", [None, 0.02])
def test_batched_regressions_match_per_fold_cross_fit(fixed_l1):
    sl, _ = two_period_dgp(150, seed=9, tau_fn=lambda x: x[:, 0], p=3)
    plan = make_fold_plan(sl.n_units, 5, seed=5)
    got = _regressions(sl, plan, fixed_l1)
    want = _per_fold_regressions(sl, plan, fixed_l1)
    for a, b in zip(got, want):
        assert_allclose(a, b, rtol=0, atol=1e-12)
    bundle = estimate_nuisances(sl, plan, fixed_l1)
    assert_allclose(bundle.nu_hat, want[0] - want[1], rtol=0, atol=1e-12)


def _first_error(thunk):
    with pytest.raises(DegenerateFold) as err:
        thunk()
    return str(err.value)


def test_batched_regressions_raise_per_fold_errors():
    sl, _ = two_period_dgp(40, seed=10, tau_fn=lambda x: x[:, 0])
    fit = lambda a, b: _fit_regression(a, b, 0.02)
    # Two units in two folds: each training complement holds one row.
    tiny = dataclasses.replace(sl, X=sl.X[:2], g_flag=np.array([0, 1], np.int8),
                               y_pre=sl.y_pre[:2], y_post=sl.y_post[:2],
                               unit_ids=sl.unit_ids[:2], unit_rows=np.arange(2))
    plan = make_fold_plan(2, 2, seed=0)
    got = _first_error(lambda: _regressions(tiny, plan, 0.02))
    want = _first_error(lambda: _per_fold_regressions(tiny, plan, 0.02, fit))
    assert got == want
    assert got.startswith("fold ")


def _member_reference(case, plan, fixed_l1):
    """Every (regression, outer fold) of a cell fit on its own rows by the row path.

    Each entry is the LinearModel, or the (error type, message) that a
    fold-by-fold cross-fit with ``_fit_regression`` reports for it.
    """
    outcomes = {1: case.y_post, 0: case.y_pre}
    out = {}
    for name, y in outcomes.items():
        for k in range(plan.n_folds):
            test = plan.assignment == k
            if not test.any():
                continue
            train = ~test
            n = int(train.sum())
            if n < 2:
                out[name, k] = (DegenerateFold, f"fold {k}: training complement has {n} rows")
                continue
            try:
                out[name, k] = _fit_regression(case.X[train], y[train], fixed_l1)
            except MldidError as err:
                out[name, k] = (type(err), f"fold {k}: {err}")
    return out


def _assert_members_match_reference(case, plan, fixed_l1):
    """Block-moment fits equal the row path's fits, one regression at a time.

    Predictions agree to 1e-12 and every l1 sits on the reference's grid
    point (neighbouring points differ by a factor of about 1.8); a
    regression that fails does so with the reference's error type and
    message. Returns the number of regressions fit.
    """
    got = _fits(case, plan, fixed_l1)
    want = _member_reference(case, plan, fixed_l1)
    assert got.keys() == want.keys()
    n_fit = 0
    for (name, k), ref in want.items():
        fit = got[name, k]
        if isinstance(ref, tuple):
            assert isinstance(fit, ref[0]), (name, k, fit)
            msg = str(fit) if isinstance(fit, DegenerateFold) else f"fold {k}: {fit}"
            assert msg == ref[1]
            continue
        test = plan.assignment == k
        assert_allclose(fit.predict(case.X[test]), ref.predict(case.X[test]),
                        rtol=0, atol=1e-12)
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
    # x_2 is 3.7 on every unit outside fold 2: constant on the training
    # rows of fold 2 only, at a value whose mean rounds off.
    X_const = sl.X.copy()
    X_const[plan.assignment != 2, 1] = 3.7
    # The treated units all sit in fold 3. The regressions do not split by
    # G, so every fold still fits.
    g_one_fold = np.where(plan.assignment == 3, sl.g_flag, 0).astype(np.int8)
    return plan, {
        "resampled": resampled,
        "constant-on-fold": dataclasses.replace(sl, X=X_const),
        "empty-g1-fold": dataclasses.replace(sl, g_flag=g_one_fold),
    }


@pytest.mark.parametrize("fixed_l1", [None, 0.02])
@pytest.mark.parametrize("name", ["resampled", "constant-on-fold", "empty-g1-fold"])
def test_block_front_end_matches_per_fold_reference(name, fixed_l1):
    plan, cases = _block_front_end_cases()
    case = cases[name]
    assert _assert_members_match_reference(case, plan, fixed_l1) > 0
    got = _regressions(case, plan, fixed_l1)
    for a, b in zip(got, _per_fold_regressions(case, plan, fixed_l1)):
        assert_allclose(a, b, rtol=0, atol=1e-12)


def test_constant_column_is_pinned_on_its_fold_only():
    plan, cases = _block_front_end_cases()
    fits = _fits(cases["constant-on-fold"], plan, 0.02)
    for name in (1, 0):
        assert fits[name, 2].center[1] == 3.7 and fits[name, 2].scale[1] == 1.0
        assert fits[name, 2].coef[1] == 0.0
        assert all(fits[name, k].scale[1] != 1.0 for k in (0, 1, 3, 4))


def test_count_column_matches_weighted_fit_on_drawn_units():
    # With CV, a count column's regression is the weighted fit on its drawn
    # training units, whose inner folds rank those units.
    sl, _ = two_period_dgp(150, seed=16, tau_fn=lambda x: x[:, 0], p=3)
    plan = make_fold_plan(sl.n_units, 5, seed=8)
    counts = np.random.default_rng(17).integers(0, 3, sl.n_units)
    fits = regression_fits(sl.X, sl.y_pre, sl.y_post, plan, counts[:, None])[0]
    for (name, k), fit in fits.items():
        train = (plan.assignment != k) & (counts > 0)
        y = sl.y_post if name == 1 else sl.y_pre
        ref = _fit_regression(sl.X[train], y[train], None, weights=counts[train])
        assert_allclose(fit.predict(sl.X), ref.predict(sl.X), rtol=0, atol=1e-12)
        assert fit.l1 == pytest.approx(ref.l1, rel=1e-9, abs=0), (name, k)
    assert len(fits) == 10


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
                              derive_seed(config.seed, _SEED_FOLDS, g, max(g, t)))
        n_fit += _assert_members_match_reference(sl, plan, config.fixed_l1)
    # 9 cells, 5 folds, 2 regressions: every one fits.
    assert n_fit == 90


# ---------------------------------------------------------------------------
# Orthogonality with the true nuisance values
# ---------------------------------------------------------------------------

def test_decomposition_orthogonality_with_oracle_nuisances():
    # With the true g and nu, B and dH have mean zero, and the residual
    # dH - B tau(x) is the differenced noise, uncorrelated with B.
    sl, truth = two_period_dgp(6000, seed=7, tau_fn=lambda x: 1.0 + x[:, 0],
                               g_fn=lambda x: 1 / (1 + np.exp(-0.5 * x[:, 1])))
    bundle = oracle_bundle(sl, truth)
    n = bundle.n_units
    D = bundle.dH - bundle.B * truth["tau"]
    for name, arr in (("B", bundle.B), ("dH", bundle.dH), ("D", D)):
        se = arr.std(ddof=1) / np.sqrt(n)
        assert abs(arr.mean()) <= 3 * se, f"{name} mean {arr.mean():.4f}"
    for a, b in (("B", D), ("B*x_1", D)):
        x = bundle.B * (bundle.X[:, 0] if a == "B*x_1" else 1.0)
        cov = np.mean((x - x.mean()) * (b - b.mean()))
        se = np.std((x - x.mean()) * (b - b.mean()), ddof=1) / np.sqrt(n)
        assert abs(cov) <= 3 * se, f"cov({a}, D) = {cov:.4f}"


def test_oracle_nuisance_reduction_matches_reduced_formulas():
    sl, truth = two_period_dgp(500, seed=8, tau_fn=lambda x: x[:, 0])
    bundle = oracle_bundle(sl, truth)
    g = bundle.g.astype(float)
    assert_allclose(bundle.B, g - bundle.g_hat, atol=1e-12)
    assert_allclose(bundle.dH, (sl.y_post - sl.y_pre) - truth["rho"] - truth["tau"] * truth["g"],
                    atol=1e-12)
    # With the true nuisances dH is B tau(x) plus the differenced noise.
    noise = (sl.y_post - sl.y_pre) - truth["rho"] - truth["tau"] * g
    assert_allclose(bundle.dH - bundle.B * truth["tau"], noise, atol=1e-12)


@pytest.mark.parametrize("n_rows, q, n_extra", [(2999, 18, 1), (2999, 16, 3), (150, 8, 2)])
def test_post_cell_moments_do_not_depend_on_placebo_outcomes(n_rows, q, n_extra):
    # A slice's rows [1, x, y_pre, y_s] carry one more outcome column per
    # placebo cell. The block of the leading q columns must be the product a
    # slice without placebo cells forms: with OpenBLAS, one product over all
    # columns rounds that block differently for the first two shapes.
    rng = np.random.default_rng(q)
    V = rng.normal(size=(n_rows, q + n_extra))
    V[:, 0] = 1.0
    for w in (np.ones(n_rows), rng.integers(0, 3, n_rows).astype(float)):
        M = _moments(V, w, q)
        assert M[:q, :q].tobytes() == weighted_gram(V[:, :q], w).tobytes()
        assert_allclose(M, weighted_gram(V, w), rtol=1e-12, atol=1e-9)
        assert M[q:, :q].tobytes() == M[:q, q:].T.tobytes()
