import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import (
    cross_fit,
    fit_penalized_ls,
    fit_penalized_ls_cv,
    fit_probability,
    make_fold_plan,
)
from mldid.exceptions import (
    DegenerateFold,
    MldidError,
    NoConvergence,
    NonFiniteData,
    SeparableWithoutPenalty,
)
from mldid import learners
from mldid.learners import (
    ProbabilityModel,
    Regression,
    _lasso_path,
    _standardize,
    fit_penalized_ls_batch,
    fit_probability_batch,
)

import _sequential_lasso as sequential
import _sequential_newton as newton_ref


# ---------------------------------------------------------------------------
# Penalized least squares
# ---------------------------------------------------------------------------

def test_exact_linear_fit():
    m = fit_penalized_ls(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
    assert_allclose(m.coef, [2.0], atol=1e-10)
    assert_allclose(m.intercept, 0.0, atol=1e-10)


def test_total_shrinkage():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    y = rng.standard_normal(50) + 4.0
    m = fit_penalized_ls(X, y, l1=1e6)
    assert_allclose(m.coef, np.zeros(3), atol=1e-12)
    assert_allclose(m.intercept, y.mean(), atol=1e-10)


def test_soft_threshold_oracle_orthonormal_design():
    # With X'X/n = I and no intercept, each lasso coefficient is the
    # soft-thresholded OLS coefficient: sign(b)(|b| - l1)_+.
    rng = np.random.default_rng(1)
    n, p = 64, 4
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q * np.sqrt(n)  # columns now satisfy X'X = n I
    beta = np.array([1.5, -0.7, 0.08, 0.0])
    y = X @ beta
    lam = 0.3
    ols = X.T @ y / n
    expected = np.sign(ols) * np.maximum(np.abs(ols) - lam, 0.0)
    m = fit_penalized_ls(X, y, l1=lam, fit_intercept=False)
    # The fit standardizes by column RMS = 1 here, so scales agree.
    assert_allclose(m.coef, expected, atol=1e-8)


def test_normal_equations_unpenalized():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    m = fit_penalized_ls(X, y)
    design = np.concatenate([np.ones((40, 1)), X], axis=1)
    lhs = design.T @ design
    rhs = design.T @ y
    sol = np.concatenate([[m.intercept], m.coef])
    assert_allclose(lhs @ sol, rhs, atol=1e-8)


def test_standardization_round_trip():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2)) * np.array([10.0, 0.01]) + np.array([5.0, -2.0])
    y = rng.standard_normal(30)
    m = fit_penalized_ls(X, y, l1=0.05)
    direct = m.predict(X)
    standardized = ((X - m.center) / m.scale) @ m.std_coef + m.std_intercept
    assert_allclose(direct, standardized, atol=1e-10)


def test_column_constant_on_training_rows_is_ignored():
    # A weighted mean of a constant column can round off its value (3.7
    # over 90 rows does); the column must still standardize to zeros, so
    # the fit gives it no weight and rows where it differs predict the same.
    rng = np.random.default_rng(6)
    X = rng.standard_normal((90, 2))
    X[:, 1] = 3.7
    w = np.full(90, 1.0 / 90)
    assert w @ X[:, 1] != 3.7
    Z, m, s = _standardize(X, w, center=True)
    assert np.all(Z[:, 1] == 0.0) and m[1] == 3.7 and s[1] == 1.0
    y = X[:, 0] + rng.standard_normal(90)
    labels = (y > 0).astype(int)
    moved = np.array([[0.3, 3.7], [0.3, 4.7]])
    lin = fit_penalized_ls(X, y, 0.0, 1e-6)
    prob = fit_probability(X, labels)
    assert lin.coef[1] == 0.0 and prob.coef[1, 1] == 0.0
    assert lin.predict(moved)[0] == lin.predict(moved)[1]
    proba = prob.predict_proba(moved, clipped=False)
    assert np.array_equal(proba[0], proba[1])


def test_weights_match_replication():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    w = np.ones(20)
    w[:5] = 3.0
    m_w = fit_penalized_ls(X, y, weights=w)
    X_rep = np.concatenate([X[:5]] * 3 + [X[5:]])
    y_rep = np.concatenate([y[:5]] * 3 + [y[5:]])
    m_rep = fit_penalized_ls(X_rep, y_rep)
    assert_allclose(m_w.coef, m_rep.coef, atol=1e-8)
    assert_allclose(m_w.intercept, m_rep.intercept, atol=1e-8)


def test_penalty_factor_unpenalized_column():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 2))
    y = 2.0 * X[:, 0] + 0.01 * X[:, 1] + 0.1 * rng.standard_normal(60)
    m = fit_penalized_ls(X, y, l1=5.0, penalty_factor=np.array([0.0, 1.0]))
    assert abs(m.coef[0] - 2.0) < 0.1  # untouched by the huge penalty
    assert m.coef[1] == 0.0


def test_non_finite_rejected():
    with pytest.raises(NonFiniteData):
        fit_penalized_ls(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteData):
        fit_penalized_ls(np.array([[1.0], [2.0]]), np.array([1.0, np.inf]))


def test_cv_selects_reasonable_penalty():
    rng = np.random.default_rng(6)
    n = 400
    X = rng.standard_normal((n, 6))
    y = 1.0 + 2.0 * X[:, 0] + rng.standard_normal(n)
    m = fit_penalized_ls_cv(X, y)
    assert abs(m.coef[0] - 2.0) < 0.2
    assert np.all(np.abs(m.coef[1:]) < 0.15)
    m_1se = fit_penalized_ls_cv(X, y, cv_rule="1se")
    assert m_1se.l1 >= m.l1


def test_cv_fixed_l1_bypasses_search():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    m = fit_penalized_ls_cv(X, y, fixed_l1=0.123)
    assert m.l1 == 0.123


def _random_gram_batch(rng, n_members, p):
    """Standardized Gram systems (G, c) of random regressions, stacked."""
    G, c = [], []
    for _ in range(n_members):
        n = int(rng.integers(max(p, 2), 60))
        X = rng.standard_normal((n, p)) @ np.diag(rng.uniform(0.1, 5.0, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        w = np.full(n, 1.0 / n)
        Z, _, _ = _standardize(X, w, center=True)
        wZ = Z * w[:, None]
        G.append(Z.T @ wZ)
        c.append(wZ.T @ (y - w @ y))
    return np.stack(G), np.stack(c)


def _enet_objective(beta, G, c, l1, l2, pf):
    return (0.5 * beta @ G @ beta - c @ beta + l1 * float(pf @ np.abs(beta))
            + 0.5 * l2 * float(pf @ beta**2))


def _kkt_violation(beta, G, c, l1, l2, pf):
    """Largest breach of the subgradient optimality conditions."""
    grad = G @ beta - c + l2 * pf * beta
    worst = 0.0
    for j in range(beta.shape[0]):
        if G[j, j] + l2 * pf[j] <= 0:
            continue  # an all-zero column: any value is optimal
        thresh = l1 * pf[j]
        if beta[j] != 0.0:
            gap = abs(grad[j] + thresh * np.sign(beta[j]))
        else:
            gap = max(0.0, abs(grad[j]) - thresh)
        worst = max(worst, gap)
    return worst


def test_objective_monotone_on_random_instances():
    # Along a warm-started path the optimal objective can only fall as l1
    # falls, and each returned point satisfies the KKT conditions up to the
    # coordinate-descent tolerance.
    rng = np.random.default_rng(8)
    for trial in range(25):
        p = int(rng.integers(1, 8))
        G, c = _random_gram_batch(rng, int(rng.integers(1, 6)), p)
        pf = rng.uniform(0.0, 2.0, p)
        pf[rng.random(p) < 0.2] = 0.0
        l2 = float(rng.uniform(0, 0.5)) * (trial % 2)
        top = float(np.max(np.abs(c))) * 2.0
        grid = np.tile(np.geomspace(top, top * 1e-4, 12), (G.shape[0], 1))
        path, sweeps, failed = _lasso_path(G, c, grid, l2, pf)
        assert np.all(np.isnan(failed))
        assert np.all(sweeps >= 1)
        for b in range(G.shape[0]):
            objs = [_enet_objective(path[b, i], G[b], c[b], grid[b, i], l2, pf)
                    for i in range(grid.shape[1])]
            assert np.all(np.diff(objs) <= 1e-12 * np.maximum(1.0, np.abs(objs[1:])))
            for i in range(grid.shape[1]):
                assert _kkt_violation(path[b, i], G[b], c[b], grid[b, i], l2, pf) < 1e-6


def test_fixed_l1_fits_satisfy_kkt():
    rng = np.random.default_rng(18)
    for trial in range(25):
        n = int(rng.integers(5, 60))
        p = int(rng.integers(1, 8))
        X = rng.standard_normal((n, p)) @ np.diag(rng.uniform(0.1, 5.0, p))
        y = rng.standard_normal(n)
        l1 = float(rng.uniform(0, 0.5)) * (trial % 4 != 0)
        l2 = float(rng.uniform(0, 0.5))
        m = fit_penalized_ls(X, y, l1=l1, l2=l2)
        w = np.full(n, 1.0 / n)
        Z, center, scale = _standardize(X, w, center=True)
        wZ = Z * w[:, None]
        G, c = Z.T @ wZ, wZ.T @ (y - y.mean())
        assert_allclose(m.center, center)
        assert _kkt_violation(m.std_coef, G, c, l1, l2, np.ones(p)) < 1e-6


def test_intercept_only_design():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    m = fit_penalized_ls(np.empty((4, 0)), y)
    assert m.coef.shape == (0,)
    assert_allclose(m.intercept, 2.5)


# ---------------------------------------------------------------------------
# Batched engine against the sequential reference
# ---------------------------------------------------------------------------

def _assert_same_outcome(fit, reference):
    """The engine fit equals the reference fit, or both raise the same error."""
    try:
        want = reference()
    except NoConvergence as err:
        with pytest.raises(NoConvergence) as got_err:
            fit()
        assert str(got_err.value) == str(err)
        return
    got = fit()
    _assert_same_fit(got, want)
    assert got.n_sweeps == want.n_sweeps


def _assert_same_fit(got, want):
    assert got.l1 == want.l1
    assert_allclose(got.coef, want.coef, rtol=0, atol=1e-12)
    assert_allclose(got.intercept, want.intercept, rtol=0, atol=1e-12)


def _random_case(rng):
    n = int(rng.integers(3, 70))
    p = int(rng.integers(0, 7))
    X = rng.standard_normal((n, p)) @ np.diag(rng.uniform(0.1, 5.0, p))
    if p and rng.random() < 0.3:
        X[:, int(rng.integers(p))] = 1.5  # a constant column
    y = rng.standard_normal(n)
    if p:
        y += X @ rng.standard_normal(p) * (rng.random() < 0.7)
    pf = None
    if p and rng.random() < 0.4:
        pf = rng.uniform(0.0, 2.0, p)
        pf[rng.random(p) < 0.4] = 0.0
    return X, y, dict(
        penalty_factor=pf,
        fit_intercept=bool(rng.random() < 0.7),
        weights=rng.uniform(0.2, 3.0, n) if rng.random() < 0.3 else None,
    )


@pytest.mark.parametrize("cv_rule", ["min", "1se"])
def test_engine_matches_sequential_reference(cv_rule):
    rng = np.random.default_rng(31 if cv_rule == "min" else 32)
    for trial in range(120):
        X, y, kw = _random_case(rng)
        l2 = (0.0, 1e-6, 0.3)[trial % 3]
        n_folds = int(rng.integers(2, 7))
        opts = dict(l2=l2, n_folds=n_folds, cv_rule=cv_rule, **kw)
        _assert_same_outcome(lambda: fit_penalized_ls_cv(X, y, **opts),
                             lambda: sequential.fit_ls_cv(X, y, **opts))
        l1 = float(rng.uniform(0, 0.5)) * (trial % 5 != 0)
        _assert_same_outcome(lambda: fit_penalized_ls(X, y, l1, l2, **kw),
                             lambda: sequential.fit_ls(X, y, l1, l2, **kw))


def test_engine_edge_cases_match_sequential_reference():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((40, 3))
    y = X @ np.array([1.0, 0.0, -0.5]) + rng.standard_normal(40)
    cases = [
        (X, y, dict(penalty_factor=np.array([0.0, 1.0, 1.0]))),
        (X, y, dict(fit_intercept=False)),
        (np.column_stack([X, np.ones(40)]), y, {}),            # constant column
        (X, np.full(40, 2.0), {}),                              # lam_max == 0
        (X, y, dict(penalty_factor=np.zeros(3))),               # lam_max == 0
        (X[:3], y[:3], {}),                                     # fewer rows than folds
        (X[:4], y[:4], dict(fit_intercept=False)),
    ]
    for Xc, yc, kw in cases:
        for rule in ("min", "1se"):
            got = fit_penalized_ls_cv(Xc, yc, cv_rule=rule, **kw)
            want = sequential.fit_ls_cv(Xc, yc, cv_rule=rule, **kw)
            _assert_same_fit(got, want)
        _assert_same_fit(fit_penalized_ls(Xc, yc, 0.0, **kw),
                         sequential.fit_ls(Xc, yc, 0.0, **kw))


def test_batch_members_do_not_interact():
    # One batch of unlike regressions gives each the fit it gets alone, so
    # members converging at different speeds follow their own iterates.
    rng = np.random.default_rng(34)
    X = rng.standard_normal((90, 4)) * np.array([1.0, 3.0, 0.2, 1.0])
    X[:, 3] = X[:, 0] + 0.2 * rng.standard_normal(90)  # slow convergence
    ys = (X @ np.array([1.0, 0.0, 2.0, -1.0]) + rng.standard_normal(90),
          rng.standard_normal(90))
    regs = [
        Regression(X, ys),
        Regression(X, (ys[0],), rows=np.arange(90) % 3 != 0),
        Regression(X, (ys[1],), rows=np.arange(90) < 7),
    ]
    for fixed in (None, 0.02):
        results = fit_penalized_ls_batch(regs, fixed_l1=fixed, cv_rule="1se")
        for reg, fits in zip(regs, results):
            rows = slice(None) if reg.rows is None else reg.rows
            for y, got in zip(reg.responses, fits):
                want = sequential.fit_ls_cv(reg.X[rows], y[rows],
                                            fixed_l1=fixed, cv_rule="1se")
                _assert_same_fit(got, want)
                assert got.n_sweeps == want.n_sweeps


def test_batch_reports_bad_regression_without_failing_others():
    rng = np.random.default_rng(35)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    y_bad = y.copy()
    y_bad[4] = np.nan
    results = fit_penalized_ls_batch(
        [Regression(X, (y, y_bad)), Regression(X, (y,), rows=np.arange(30) < 1)])
    assert isinstance(results[0][0], learners.LinearModel)
    assert isinstance(results[0][1], NonFiniteData)
    assert isinstance(results[1][0], MldidError)
    _assert_same_fit(results[0][0], sequential.fit_ls_cv(X, y))


def test_cv_inputs_validated_before_any_work(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the engine ran before the inputs were checked")

    monkeypatch.setattr(learners, "_lasso_path", no_solve)
    X = np.ones((10, 2))
    y = np.ones(10)
    with pytest.raises(MldidError, match="cv_rule"):
        fit_penalized_ls_cv(X, y, cv_rule="bogus")
    with pytest.raises(MldidError, match="cv_rule"):
        fit_penalized_ls_cv(X, y, cv_rule="bogus", fixed_l1=0.1)
    for fit in (fit_penalized_ls, fit_penalized_ls_cv):
        with pytest.raises(MldidError, match="2-dimensional"):
            fit(np.ones(10), y)
        with pytest.raises(MldidError, match="different lengths"):
            fit(X, np.ones(9))
        with pytest.raises(MldidError, match="at least 2 rows"):
            fit(X[:1], y[:1])
        with pytest.raises(MldidError, match="weights"):
            fit(X, y, weights=np.ones(9))
        with pytest.raises(MldidError, match="penalty_factor"):
            fit(X, y, penalty_factor=np.ones(3))
    with pytest.raises(MldidError, match="folds"):
        fit_penalized_ls_cv(X, y, n_folds=1)


# ---------------------------------------------------------------------------
# Probability models
# ---------------------------------------------------------------------------

def test_logistic_intercept_only_matches_base_rate():
    labels = np.array([1] * 40 + [0] * 60)
    m = fit_probability(np.empty((100, 0)), labels)
    p = m.predict_proba(np.empty((5, 0)))[:, 1]
    assert_allclose(p, 0.4, atol=1e-6)


def test_logistic_recovers_known_slope():
    rng = np.random.default_rng(9)
    n = 5000
    x = rng.standard_normal((n, 1))
    p = 1.0 / (1.0 + np.exp(-0.8 * x[:, 0]))
    labels = (rng.random(n) < p).astype(int)
    m = fit_probability(x, labels, l2=1e-4)
    assert abs(m.coef[1, 0] - 0.8) < 0.1


def test_probability_clipping_and_preclip_sum():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((200, 2)) * 4.0
    labels = (X[:, 0] + 0.5 * rng.standard_normal(200) > 0).astype(int)
    m = fit_probability(X, labels, l2=1e-6, clip=0.01)
    proba = m.predict_proba(X)
    assert proba.min() >= 0.01 and proba.max() <= 0.99
    raw = m.predict_proba(X, clipped=False)
    assert_allclose(raw.sum(axis=1), 1.0, atol=1e-12)


def test_separable_without_penalty_raises():
    X = np.concatenate([np.full((20, 1), -2.0), np.full((20, 1), 2.0)])
    labels = np.array([0] * 20 + [1] * 20)
    with pytest.raises(SeparableWithoutPenalty):
        fit_probability(X, labels, l2=0.0)
    # a positive penalty keeps the optimum finite
    m = fit_probability(X, labels, l2=1e-4)
    assert np.all(np.isfinite(m.coef))


def test_logistic_requires_both_labels():
    with pytest.raises(MldidError):
        fit_probability(np.zeros((5, 1)), np.ones(5, dtype=int))


# ---------------------------------------------------------------------------
# Batched probability engine against the per-fit Newton loop
# ---------------------------------------------------------------------------

def _fold_weights(fold, n_folds):
    return np.stack([(fold != k).astype(float) for k in range(n_folds)], axis=1)


def _assert_same_probability_fit(got, want, X):
    assert isinstance(got, ProbabilityModel), got
    assert got.n_iter == want.n_iter
    assert_allclose(got.predict_proba(X, clipped=False),
                    want.predict_proba(X, clipped=False), rtol=0, atol=1e-10)


def _assert_matches_reference(X, labels, fold, n_folds, l2):
    """Each cross-fit member against the per-fit loop on its training rows.

    Returns the number of members that fit (the others must raise the same
    error type and message as the reference).
    """
    got = fit_probability_batch(X, labels, _fold_weights(fold, n_folds), l2=l2)
    fitted = 0
    for k in range(n_folds):
        train = fold != k
        try:
            want = newton_ref.fit_probability(X[train], labels[train], l2=l2)
        except MldidError as err:
            assert type(got[k]) is type(err), (got[k], err)
            assert str(got[k]) == str(err)
            continue
        _assert_same_probability_fit(got[k], want, X)
        fitted += 1
    return fitted


def test_probability_engine_matches_per_fit_loop_on_random_problems():
    rng = np.random.default_rng(40)
    fitted = 0
    for _ in range(240):
        n = int(rng.integers(12, 300))
        p = int(rng.integers(0, 7))
        n_folds = int(rng.integers(2, 6))
        X = (rng.standard_normal((n, p)) * rng.uniform(0.05, 20.0, p)
             + rng.uniform(-10.0, 10.0, p))
        slope = rng.standard_normal(p) * rng.uniform(0.0, 3.0)
        eta = ((X - X.mean(axis=0)) / X.std(axis=0).clip(1e-12)) @ slope
        labels = (rng.random(n) < 1 / (1 + np.exp(-eta - rng.uniform(-2, 2)))).astype(int)
        fold = rng.integers(0, n_folds, n)  # unequal, possibly empty, folds
        l2 = float(rng.choice([1e-6, 1e-4, 1e-2]))
        fitted += _assert_matches_reference(X, labels, fold, n_folds, l2)
    assert fitted >= 200 * 2


@pytest.mark.parametrize("l2", [1e-6, 1e-4])
def test_probability_engine_edge_cases(l2):
    rng = np.random.default_rng(41)
    n = 90
    fold = np.arange(n) % 3
    labels = (rng.random(n) < 0.4).astype(int)
    # Intercept only.
    assert _assert_matches_reference(np.empty((n, 0)), labels, fold, 3, l2) == 3
    # A constant column, at values whose weighted mean rounds off them.
    for value in (3.7, 0.1, 1e5, -2.3):
        X = rng.standard_normal((n, 3))
        X[:, 1] = value
        assert _assert_matches_reference(X, labels, fold, 3, l2) == 3
        # Constant on fold 0's training rows only: that member ignores it.
        X = rng.standard_normal((n, 3))
        X[fold != 0, 2] = value
        assert _assert_matches_reference(X, labels, fold, 3, l2) == 3
        model = fit_probability_batch(X, labels, _fold_weights(fold, 3), l2=l2)[0]
        assert model.coef[1, 2] == 0.0
    # Unequal fold sizes.
    X = rng.standard_normal((n, 2))
    uneven = np.repeat([0, 1, 2], [3, 20, 67])
    assert _assert_matches_reference(X, labels, uneven, 3, l2) == 3
    # A fold whose training rows hold a single class.
    one_class = np.where(fold == 0, labels, 1)
    assert _assert_matches_reference(X, one_class, fold, 3, l2) == 2
    got = fit_probability_batch(X, one_class, _fold_weights(fold, 3), l2=l2)
    assert "both labels 0 and 1" in str(got[0])
    # A non-finite covariate fails the members whose rows hold it.
    X_bad = X.copy()
    X_bad[0, 1] = np.nan  # row 0 is in fold 0
    assert _assert_matches_reference(X_bad, labels, fold, 3, l2) == 1


def test_probability_engine_separable_without_penalty():
    X = np.concatenate([np.full((20, 1), -2.0), np.full((20, 1), 2.0)])
    labels = np.array([0] * 20 + [1] * 20)
    fold = np.arange(40) % 2
    assert _assert_matches_reference(X, labels, fold, 2, 0.0) == 0
    # Without separation an unpenalized fit converges as before.
    rng = np.random.default_rng(42)
    X = rng.standard_normal((60, 2))
    labels = (rng.random(60) < 0.5).astype(int)
    assert _assert_matches_reference(X, labels, np.arange(60) % 3, 3, 0.0) == 3


def test_probability_engine_iteration_cap(monkeypatch):
    rng = np.random.default_rng(43)
    X = rng.standard_normal((80, 3)) * 3.0
    labels = (X[:, 0] + rng.standard_normal(80) > 0).astype(int)
    fold = np.arange(80) % 4
    monkeypatch.setattr(learners, "NEWTON_MAX_ITER", 2)
    monkeypatch.setattr(newton_ref, "NEWTON_MAX_ITER", 2)
    for l2 in (1e-6, 0.0):
        got = fit_probability_batch(X, labels, _fold_weights(fold, 4), l2=l2)
        for k in range(4):
            with pytest.raises(MldidError) as err:
                newton_ref.fit_probability(X[fold != k], labels[fold != k], l2=l2)
            assert type(got[k]) is type(err.value)
            assert str(got[k]) == str(err.value)
            if l2 > 0:
                assert isinstance(got[k], NoConvergence)
                assert_allclose(got[k].final_delta, err.value.final_delta,
                                rtol=1e-8)


def test_probability_batch_members_do_not_interact():
    # A member fits the same alone as next to members that converge at
    # other speeds, fail, or weight the rows unevenly.
    rng = np.random.default_rng(44)
    n = 120
    X = rng.standard_normal((n, 3)) * np.array([1.0, 5.0, 0.3])
    labels = (X[:, 0] - 0.5 * X[:, 2] + rng.standard_normal(n) > 0).astype(int)
    W = np.column_stack([
        np.arange(n) % 4 != 0,                # a cross-fit member
        np.ones(n),                           # every row
        np.where(X[:, 0] > 1.0, 1.0, 0.0),    # a single class: fails
        rng.uniform(0.0, 2.0, n),             # uneven weights
        np.arange(n) < 15,                    # few rows, slow
    ]).astype(float)
    batch = fit_probability_batch(X, labels, W)
    for b in range(W.shape[1]):
        alone = fit_probability_batch(X, labels, W[:, [b]])[0]
        if isinstance(alone, MldidError):
            assert type(batch[b]) is type(alone) and str(batch[b]) == str(alone)
            continue
        assert batch[b].n_iter == alone.n_iter
        assert_allclose(batch[b].predict_proba(X, clipped=False),
                        alone.predict_proba(X, clipped=False), rtol=0, atol=1e-13)
    assert isinstance(batch[2], MldidError)
    # Integer weights act as repeated rows.
    repeated = newton_ref.fit_probability(np.repeat(X, 2, axis=0), np.repeat(labels, 2))
    doubled = fit_probability_batch(X, labels, np.full((n, 1), 2.0))[0]
    _assert_same_probability_fit(doubled, repeated, X)


def test_probability_batch_validates_input():
    X = np.zeros((4, 1))
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(MldidError, match="2-dimensional"):
        fit_probability_batch(np.zeros(4), labels, np.ones((4, 1)))
    with pytest.raises(MldidError, match="lengths"):
        fit_probability_batch(X, labels[:3], np.ones((4, 1)))
    with pytest.raises(MldidError, match="weights"):
        fit_probability_batch(X, labels, np.ones(4))
    with pytest.raises(MldidError, match="nonnegative"):
        fit_probability_batch(X, labels, -np.ones((4, 1)))


# ---------------------------------------------------------------------------
# Fold plans and cross-fitting
# ---------------------------------------------------------------------------

def test_fold_plan_balanced_and_exhaustive():
    plan = make_fold_plan(23, 5, seed=0)
    sizes = np.bincount(plan.assignment, minlength=5)
    assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == 23
    with pytest.raises(MldidError):
        make_fold_plan(3, 5, seed=0)
    with pytest.raises(MldidError):
        make_fold_plan(10, 1, seed=0)


def test_cross_fit_leave_one_out_matches_hand_computed():
    # Units {1,2,3} with y {2,4,5}: dropping each point in turn, the OLS
    # line through the remaining two predicts 3, 3.5 and 6.
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 5.0])
    units = np.arange(3)
    plan = make_fold_plan(3, 3, seed=1)
    preds = cross_fit(X, y, units, plan, lambda a, b: fit_penalized_ls(a, b))
    assert_allclose(preds, [3.0, 3.5, 6.0], atol=1e-8)


def test_cross_fit_constant_outcome():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 2))
    y = np.full(40, 7.25)
    plan = make_fold_plan(40, 5, seed=2)
    preds = cross_fit(X, y, np.arange(40), plan,
                      lambda a, b: fit_penalized_ls(a, b))
    assert_allclose(preds, 7.25, atol=1e-9)


def test_cross_fit_deterministic_given_seed():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    units = np.arange(60)

    def run():
        plan = make_fold_plan(60, 5, seed=42)
        return cross_fit(X, y, units, plan,
                         lambda a, b: fit_penalized_ls_cv(a, b))

    first, second = run(), run()
    assert np.array_equal(first, second)


def test_cross_fit_no_leakage_poisoning():
    # Corrupting one unit's outcome must not move that unit's own
    # out-of-fold prediction.
    rng = np.random.default_rng(13)
    X = rng.standard_normal((50, 2))
    y = X[:, 0] + 0.1 * rng.standard_normal(50)
    units = np.arange(50)
    plan = make_fold_plan(50, 5, seed=3)

    def fit(a, b):
        return fit_penalized_ls(a, b)

    base = cross_fit(X, y, units, plan, fit)
    y_poisoned = y.copy()
    y_poisoned[17] += 1e4
    poisoned = cross_fit(X, y_poisoned, units, plan, fit)
    assert poisoned[17] == base[17]
    assert not np.allclose(poisoned, base)  # other folds do move


def test_cross_fit_degenerate_fold():
    X = np.zeros((4, 1))
    labels = np.array([0, 1, 0, 1])
    units = np.arange(4)
    plan = make_fold_plan(4, 2, seed=0)
    # Force one training complement to hold a single class.
    labels_bad = np.array([1, 1, 1, 0])
    order = np.argsort(plan.assignment)
    labels_bad = labels_bad[order]

    def fit(a, b):
        if np.unique(b).shape[0] < 2:
            raise MldidError("single class")
        return fit_probability(a, b)

    with pytest.raises(DegenerateFold):
        cross_fit(X, labels_bad, units, plan, fit,
                  predict=lambda m, Xn: m.predict_proba(Xn)[:, 1])
