import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import (
    DgpConfig,
    cross_fit,
    fit_penalized_ls,
    fit_penalized_ls_cv,
    fit_probability,
    make_fold_plan,
    simulate,
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
    DEFAULT_CLIP,
    GramFit,
    ProbabilityModel,
    _held_out_errors,
    _lambda_max,
    _lasso_path,
    _standardize,
    fit_gram_batch,
    fit_probability_batch,
    moment_fits,
    ridge_fits,
    row_gram_fit,
)
from mldid.nuisance import _regression_systems, solve_regressions
from mldid.panel import slice_two_period

import _sequential_lasso as sequential
import _sequential_newton as newton_ref
from _utils import thin_cohort


# ---------------------------------------------------------------------------
# Penalized least squares
# ---------------------------------------------------------------------------

def test_exact_linear_fit():
    m = fit_penalized_ls(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
    assert_allclose(m.coef, [2.0], atol=1e-10)
    assert_allclose(m.intercept, 0.0, atol=1e-10)


@pytest.mark.parametrize("p, constant", [(0, None), (1, None), (4, None), (4, 2)])
@pytest.mark.parametrize("l2", [0.0, 1e-6])
def test_ridge_fits_equal_the_row_front_end(p, constant, l2):
    # Several responses on one design: each model has the bits of its own
    # l1 = 0 fit, whatever the other responses.
    rng = np.random.default_rng(p + 7)
    X = rng.standard_normal((60, p)) * 10.0 ** rng.integers(-3, 3, p)
    if constant is not None:
        X[:, constant] = 0.7
    fit = ridge_fits(X, l2)
    for y in rng.standard_normal((3, 60)) * [[1.0], [1e8], [1e-8]]:
        got, ref = fit(y), fit_penalized_ls(X, y, 0.0, l2)
        for name in ("intercept", "coef", "l1", "l2", "center", "scale", "n_sweeps"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    with pytest.raises(NonFiniteData, match="y contains"):
        fit(np.full(60, np.inf))
    with pytest.raises(MldidError, match="at least 2 rows"):
        ridge_fits(X[:1], l2)


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
    proba = prob.predict_proba(moved)
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
    # Along a path the optimal objective can only fall as l1 falls, and
    # each returned point, read off an exact homotopy segment, satisfies the
    # KKT conditions to rounding.
    rng = np.random.default_rng(8)
    for trial in range(25):
        p = int(rng.integers(1, 8))
        G, c = _random_gram_batch(rng, int(rng.integers(1, 6)), p)
        pf = rng.uniform(0.0, 2.0, p)
        pf[rng.random(p) < 0.2] = 0.0
        l2 = float(rng.uniform(0, 0.5)) * (trial % 2)
        top = float(np.max(np.abs(c))) * 2.0
        grid = np.tile(np.geomspace(top, top * 1e-4, 12), (G.shape[0], 1))
        path, steps, failed = _lasso_path(G, c, grid, l2, pf)
        assert not failed.any()
        assert np.all(steps >= 1)
        for b in range(G.shape[0]):
            objs = [_enet_objective(path[b, i], G[b], c[b], grid[b, i], l2, pf)
                    for i in range(grid.shape[1])]
            assert np.all(np.diff(objs) <= 1e-12 * np.maximum(1.0, np.abs(objs[1:])))
            for i in range(grid.shape[1]):
                assert _kkt_violation(path[b, i], G[b], c[b], grid[b, i], l2, pf) < 1e-12


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


def _hard_gram_batch(rng, n_members, p):
    """Standardized Gram systems whose second column nearly copies the first
    (condition number at least 1e8), every third with a constant third
    column; with each member's standardized rows, for its objective."""
    G, c, rows = [], [], []
    for b in range(n_members):
        n = int(rng.integers(2 * p + 5, 80))
        X = rng.standard_normal((n, p)) * rng.uniform(0.1, 5.0, p)
        X[:, 1] = X[:, 0] + 5e-5 * X[:, 0].std() * rng.standard_normal(n)
        if b % 3 == 0:
            X[:, 2] = 1.5
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        w = np.full(n, 1.0 / n)
        Z, _, _ = _standardize(X, w, center=True)
        r = y - w @ y
        G.append(Z.T @ (Z * w[:, None]))
        c.append((Z * w[:, None]).T @ r)
        rows.append((Z, r, w))
    return np.stack(G), np.stack(c), rows


def _row_objective(beta, rows, l1, l2, pf):
    """The elastic-net objective from a member's rows, which rounds far less
    than the Gram form when near-copies carry large opposite coefficients."""
    Z, r, w = rows
    return (0.5 * w @ (r - Z @ beta) ** 2 + l1 * pf @ np.abs(beta)
            + 0.5 * l2 * pf @ beta**2)


def _plain_descent_path(G, c, grid, l2, pf):
    """Plain coordinate descent along a warm-started grid, up to its first failure."""
    path, beta = [], np.zeros(c.shape[0])
    for l1 in grid:
        try:
            beta, _, _ = sequential.cd_solve(G, c, 0.0, l1, l2, pf, beta0=beta,
                                             certify=False)
        except NoConvergence:
            break
        path.append(beta)
    return path


def test_exact_paths_no_worse_than_plain_descent(monkeypatch):
    # Each point of the engine's path is as good as plain coordinate
    # descent's along the same warm-started grid, to 1e-12 of the
    # objective, and meets the optimality conditions to 1e-12 of the size
    # of the terms they sum. The batches mix near-copied columns, constant
    # and unpenalized columns, and l2 = 0, a small and a large ridge. Where
    # the copies both enter, descent may not converge (a lower sweep cap
    # keeps those failures quick); the homotopy solves every path.
    monkeypatch.setattr(sequential, "CD_MAX_SWEEPS", 1000)
    rng = np.random.default_rng(19)
    n_compared = n_descent_failed = 0
    for trial in range(24):
        p = int(rng.integers(3, 7))
        G, c, rows = _hard_gram_batch(rng, int(rng.integers(2, 7)), p)
        pf = np.ones(p)
        pf[rng.random(p) < 0.25] = 0.0
        l2 = (0.0, 1e-6, 0.3)[trial % 3]
        top = float(np.max(np.abs(c))) * 2.0
        grid = np.tile(np.geomspace(top, top * 1e-4, 15), (G.shape[0], 1))
        path, _, failed = _lasso_path(G, c, grid, l2, pf)
        assert not failed.any()
        for b in range(G.shape[0]):
            live = np.diag(G[b]) > 0
            assert np.linalg.cond(G[b][np.ix_(live, live)]) >= 1e8
            plain = _plain_descent_path(G[b], c[b], grid[b], l2, pf)
            n_descent_failed += len(plain) < grid.shape[1]
            for i, (l1, want_beta) in enumerate(zip(grid[b], plain)):
                got = _row_objective(path[b, i], rows[b], l1, l2, pf)
                want = _row_objective(want_beta, rows[b], l1, l2, pf)
                assert got <= want + 1e-12 * max(1.0, abs(want)), (trial, b, i, got - want)
                n_compared += 1
            for l1, beta in zip(grid[b], path[b]):
                size = np.max(np.abs(c[b])) + np.max(np.abs(G[b])) * np.max(np.abs(beta))
                assert _kkt_violation(beta, G[b], c[b], l1, l2, pf) < 1e-12 * size
    assert n_compared > 500 and n_descent_failed > 0


def _reference_path(G, c, grid, l2, pf):
    """The sequential reference's warm-started points along a grid."""
    beta, points = np.zeros(c.shape[0]), []
    for l1 in grid:
        beta, _, _ = sequential.cd_solve(G, c, 0.0, l1, l2, pf, beta0=beta)
        points.append(beta)
    return np.array(points)


def _assert_exact_path(G, c, grid, l2, pf):
    """Solve one path alone; assert the optimality conditions to rounding
    and the reference's points (see ``sequential.assert_agrees``). Returns
    the path and its steps."""
    path, steps, failed = _lasso_path(G[None], c[None], grid[None], l2, pf)
    assert failed[0] == 0
    sequential.assert_agrees(path[0], _reference_path(G, c, grid, l2, pf))
    for l1, beta in zip(grid, path[0]):
        assert _kkt_violation(beta, G, c, l1, l2, pf) < 1e-12
    return path[0], int(steps[0])


@pytest.mark.parametrize("l2", [0.0, 1e-6])
def test_path_follows_a_coefficient_out_of_the_support(l2):
    # Column 2 has the largest correlation and enters first, positive; as
    # the two columns it nearly sums enter, its coefficient falls back to
    # zero and it leaves, then comes back negative. The points on every
    # side of those events are exact.
    G = np.array([[1.0, 0.15, 0.83], [0.15, 1.0, 0.65], [0.83, 0.65, 1.0]])
    c = np.array([0.93, 0.71, 1.07])
    grid = np.geomspace(1.07, 1e-3, 60)
    path, steps = _assert_exact_path(G, c, grid, l2, np.ones(3))
    signs = np.sign(path[:, 2])
    moves = signs[np.flatnonzero(np.diff(signs, prepend=0.0))]
    assert moves.tolist() == [1.0, 0.0, -1.0]
    assert steps == 6  # the start, three entries, the exit and the return


@pytest.mark.parametrize("l2", [0.0, 0.3])
def test_two_events_at_one_l1(l2):
    # Columns 0 and 1 tie: both reach the bound at l1 = 1 and enter there,
    # one step each, then column 2 enters at 0.3. Closed form:
    # b0 = b1 = (1 - l1) / (1 + rho + l2) and b2 = (0.3 - l1)_+ / (1 + l2).
    rho = 0.4
    G = np.array([[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    c = np.array([1.0, 1.0, 0.3])
    grid = np.array([2.0, 1.0, 0.7, 0.3, 0.2, 0.05])
    path, steps = _assert_exact_path(G, c, grid, l2, np.ones(3))
    pair = (1.0 - np.minimum(grid, 1.0)) / (1.0 + rho + l2)
    want = np.column_stack([pair, pair, np.maximum(0.3 - grid, 0.0) / (1.0 + l2)])
    assert_allclose(path, want, rtol=0, atol=1e-15)
    assert steps == 4


def test_tie_broken_by_rounding_does_not_cycle():
    # Columns 1 and 3 reach the bound together (the design's entries are
    # halves, so the tie is exact in floating point). On their joint
    # support column 1's coefficient is zero up to rounding and can leave
    # by rounding; it then runs along its bound, and coming back, which
    # would cycle, is not an event. Every point is optimal: its objective
    # is no worse than the reference's, and with rounding-size
    # coefficients taken as zero it meets the optimality conditions.
    X = np.array([[0.5, 0.5, -0.5, -0.5], [-0.5, 0.5, -0.5, 0.0], [-0.5, -0.5, 0.0, 0.5],
                  [0.5, 0.5, 0.5, 0.0], [0.5, 0.5, -0.5, -0.5]])
    y = np.array([0.5, -1.0, -4.5, 1.0, 1.5])
    G, c, pf = X.T @ X / 5, X.T @ y / 5, np.ones(4)
    assert c[1] == -c[3] and G[0, 1] == -G[0, 3]
    grid = np.geomspace(0.85, 1e-3, 40)
    path, steps, failed = _lasso_path(G[None], c[None], grid[None], 0.0, pf)
    assert failed[0] == 0 and steps[0] == 8
    for l1, beta, want in zip(grid, path[0], _reference_path(G, c, grid, 0.0, pf)):
        got = _enet_objective(beta, G, c, l1, 0.0, pf)
        assert got <= _enet_objective(want, G, c, l1, 0.0, pf) + 1e-12
        beta = np.where(np.abs(beta) < 1e-12, 0.0, beta)
        assert _kkt_violation(beta, G, c, l1, 0.0, pf) < 1e-12


def test_copied_columns_without_ridge():
    # Without a ridge, a column that copies another (to rounding, through
    # its standardization) runs along its bound once the other is active,
    # and entering would make the support singular. Every fit solves, and
    # none is worse than the reference's.
    rng = np.random.default_rng(1)
    for _ in range(100):
        n, p = int(rng.integers(10, 80)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, p))
        X[:, 1] = X[:, 0] * rng.choice([1.0, -2.0, 3.0])
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        for l1 in (0.3, 0.05, 0.01):
            objective = []
            for model in (fit_penalized_ls(X, y, l1), sequential.fit_ls(X, y, l1)):
                resid = y - model.predict(X)
                objective.append(0.5 * np.mean(resid**2) + l1 * np.abs(model.std_coef).sum())
            assert objective[0] <= objective[1] + 1e-12 * objective[1]


def test_unpenalized_and_all_zero_columns():
    # An unpenalized column is in the support from the first point, far
    # above lambda_max, and never leaves; an all-zero column never enters,
    # with a penalty or without.
    rng = np.random.default_rng(20)
    G, c = _random_gram_batch(rng, 1, 5)
    G, c = G[0], c[0]
    for j in (1, 3):
        G[j], G[:, j], c[j] = 0.0, 0.0, 0.0
    pf = np.array([0.0, 0.0, 1.0, 1.0, 1.5])
    top = _lambda_max(G[None], c[None], pf, 0.0)[0]
    grid = np.geomspace(10.0 * top, 1e-4 * top, 20)
    for l2 in (0.0, 1e-6, 0.3):
        path, _ = _assert_exact_path(G, c, grid, l2, pf)
        assert np.all(path[:, 0] != 0.0)
        assert np.all(path[:, [1, 3]] == 0.0)
        assert np.all(path[-1, [2, 4]] != 0.0)


def test_grid_points_at_and_above_lambda_max():
    # Every point at or above lambda_max is the unpenalized fit, the same
    # bits at each; the penalized columns start to move only below it.
    rng = np.random.default_rng(21)
    G, c = _random_gram_batch(rng, 4, 4)
    pf = np.array([0.0, 1.0, 1.0, 2.0])
    top = _lambda_max(G, c, pf, 1e-6)
    grid = top[:, None] * np.array([10.0, 3.0, 1.0, 0.999, 0.5])
    path, _, failed = _lasso_path(G, c, grid, 1e-6, pf)
    assert not failed.any()
    for b in range(4):
        free = np.linalg.solve(G[b, :1, :1], c[b, :1])
        assert_allclose(path[b, :3, 0], free[0], rtol=1e-13)
        assert np.all(path[b, :3] == path[b, 0]) and np.all(path[b, :3, 1:] == 0.0)
        assert np.any(path[b, 3, 1:] != 0.0)
        for l1, beta in zip(grid[b], path[b]):
            assert _kkt_violation(beta, G[b], c[b], l1, 1e-6, pf) < 1e-12


def test_l2_zero_paths_match_reference():
    # Without a ridge A_SS is the Gram block itself, positive definite for
    # designs of full column rank, and the paths stay exact.
    rng = np.random.default_rng(22)
    for _ in range(10):
        p = int(rng.integers(2, 7))
        G, c = _random_gram_batch(rng, 1, p)
        pf = rng.uniform(0.5, 2.0, p)
        top = _lambda_max(G, c, pf, 0.0)[0]
        _assert_exact_path(G[0], c[0], np.geomspace(2.0 * top, 1e-4 * top, 15), 0.0, pf)


def test_failing_member_fails_alone():
    # A member whose unpenalized columns are copies has a singular support
    # system at its first solve, and a member with a NaN on its right-hand
    # side a non-finite one; both fail there. The others keep the bits,
    # and step counts, they get alone.
    rng = np.random.default_rng(23)
    G, c = _random_gram_batch(rng, 5, 4)
    pf = np.array([0.0, 0.0, 1.0, 1.0])
    G[1, 1], G[1, :, 1], c[1, 1] = G[1, 0], G[1, :, 0], c[1, 0]
    G[1, 1, 1] = G[1, 0, 0]
    c[3, 2] = np.nan
    grid = np.tile(np.geomspace(2.0, 1e-3, 12), (5, 1))
    path, steps, failed = _lasso_path(G, c, grid, 0.0, pf)
    assert failed.tolist() == [0, 1, 0, 1, 0]
    assert steps[1] == steps[3] == 1
    keep = [0, 2, 4]
    alone, alone_steps, alone_failed = _lasso_path(G[keep], c[keep], grid[keep], 0.0, pf)
    assert not alone_failed.any()
    assert path[keep].tobytes() == alone.tobytes()
    assert np.array_equal(steps[keep], alone_steps)


# ---------------------------------------------------------------------------
# Batched engine against the sequential reference
# ---------------------------------------------------------------------------

def _assert_same_outcome(fit, reference, pf=None):
    """The engine fit matches the reference fit, or both raise NoConvergence.

    Both fail on a system neither can solve: an unpenalized block of less
    than full rank, on which descent does not converge and the homotopy's
    support solve is singular.
    """
    try:
        want = reference()
    except NoConvergence:
        with pytest.raises(NoConvergence):
            fit()
        return
    _assert_same_fit(fit(), want, pf)


def _assert_same_fit(got, want, pf=None):
    """The reference's fit: coefficients within ``sequential.AGREEMENT`` of
    its size, at the same chosen l1.

    With unpenalized columns (``pf`` 0), every l1 at or above lambda_max
    gives the one fit with all penalized coefficients zero. The engine's
    CV errors at those points tie exactly and it takes the largest l1,
    where the reference's differ by its tolerance.
    """
    sequential.assert_agrees(np.append(got.coef, got.intercept),
                             np.append(want.coef, want.intercept))
    if got.l1 != want.l1 and pf is not None and np.any(pf == 0.0):
        assert got.l1 > want.l1
        assert not np.any(got.coef[pf > 0.0]) and not np.any(want.coef[pf > 0.0])
    else:
        assert got.l1 == want.l1


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
                             lambda: sequential.fit_ls_cv(X, y, **opts), kw["penalty_factor"])
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
            _assert_same_fit(got, want, kw.get("penalty_factor"))
        _assert_same_fit(fit_penalized_ls(Xc, yc, 0.0, **kw),
                         sequential.fit_ls(Xc, yc, 0.0, **kw))


def _row_batch(cases, **opts):
    """Solve the one-regression GramFits of (X, y) cases as one batch.

    A case whose fit cannot be built enters the batch with its error as the
    preset result. Returns each fit's result.
    """
    fits, pf = [], None
    for X, y in cases:
        try:
            fit, pf = row_gram_fit(X, y, **opts)
        except MldidError as err:
            fit = GramFit(None, None, None, None, 0.0, None, result=err)
        fits.append(fit)
    fit_gram_batch(fits, l2=opts["l2"], pf=pf, fit_intercept=True, cv_rule=opts["cv_rule"])
    return [fit.result for fit in fits]


def test_batch_members_do_not_interact():
    # One batch of unlike regressions gives each the fit it gets alone, bit
    # for bit, so members whose paths take different numbers of steps
    # follow their own; each also matches the sequential reference.
    rng = np.random.default_rng(34)
    X = rng.standard_normal((90, 4)) * np.array([1.0, 3.0, 0.2, 1.0])
    X[:, 3] = X[:, 0] + 0.2 * rng.standard_normal(90)  # slow convergence
    ys = (X @ np.array([1.0, 0.0, 2.0, -1.0]) + rng.standard_normal(90),
          rng.standard_normal(90))
    cases = [(X, ys[0]), (X, ys[1]),
             (X[np.arange(90) % 3 != 0], ys[0][np.arange(90) % 3 != 0]),
             (X[:7], ys[1][:7])]
    for fixed in (None, 0.02):
        results = _row_batch(cases, l2=1e-6, fixed_l1=fixed, cv_rule="1se")
        for (Xc, yc), got in zip(cases, results):
            [alone] = _row_batch([(Xc, yc)], l2=1e-6, fixed_l1=fixed, cv_rule="1se")
            assert got.l1 == alone.l1 and got.n_sweeps == alone.n_sweeps
            assert got.coef.tobytes() == alone.coef.tobytes()
            assert got.intercept == alone.intercept
            _assert_same_fit(got, sequential.fit_ls_cv(Xc, yc, fixed_l1=fixed, cv_rule="1se"))


@pytest.mark.parametrize("fixed", [None, 0.02])
def test_non_finite_member_fails_at_once_and_alone(fixed):
    # A member whose Gram system holds a NaN has a non-finite support
    # solve, which no step mends: it fails at its first solve, and the
    # other members of its batch keep the bits they get without it.
    rng = np.random.default_rng(35)
    X = rng.standard_normal((80, 4))
    cases = [(X, X @ rng.standard_normal(4) + rng.standard_normal(80)) for _ in range(3)]

    def batch(bad):
        fits, pf = [], None
        for b, (Xc, yc) in enumerate(cases):
            fit, pf = row_gram_fit(Xc, yc, l2=1e-6, fixed_l1=fixed, cv_rule="min")
            if b == bad:
                fit.c[2] = np.nan
                if fit.fold_c is not None:
                    fit.fold_c[:, 2] = np.nan
            fits.append(fit)
        fit_gram_batch(fits, l2=1e-6, pf=pf, fit_intercept=True, cv_rule="min")
        return [fit.result for fit in fits]

    clean, broken = batch(None), batch(1)
    assert isinstance(broken[1], NoConvergence)
    assert "singular or non-finite support system" in str(broken[1])
    for b in (0, 2):
        assert broken[b].l1 == clean[b].l1 and broken[b].n_sweeps == clean[b].n_sweeps
        assert np.array_equal(broken[b].coef, clean[b].coef)
        assert broken[b].intercept == clean[b].intercept
    # The path engine itself: an explicit failure at the first solve.
    G, c = _random_gram_batch(rng, 3, 3)
    c[1, 2] = np.nan
    grid = np.tile([0.5, 0.1, 0.01], (3, 1))
    path, steps, failed = _lasso_path(G, c, grid, 0.0, np.ones(3))
    assert failed.tolist() == [0, 1, 0] and steps[1] == 1
    alone, alone_steps, _ = _lasso_path(G[[0, 2]], c[[0, 2]], grid[[0, 2]], 0.0, np.ones(3))
    assert np.array_equal(path[[0, 2]], alone) and np.array_equal(steps[[0, 2]], alone_steps)


def _random_row_gram_fit(rng, fit_intercept):
    """A CV GramFit of random rows with zero-weight rows, a constant column
    and more folds than rows of the smaller designs, so that an inner fold
    may hold no row."""
    n = int(rng.integers(3, 40))
    p = int(rng.integers(1, 6))
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 5.0, p) + rng.uniform(-3, 3, p)
    X[:, int(rng.integers(p))] = 2.5
    y = X @ rng.standard_normal(p) + rng.standard_normal(n) + 4.0
    w = rng.uniform(0.2, 3.0, n)
    w[rng.random(n) < 0.2] = 0.0
    w[0] = 1.0
    n_folds = int(rng.integers(2, 8))
    fit, _ = row_gram_fit(X, y, l2=1e-6, weights=w, fit_intercept=fit_intercept,
                          n_folds=n_folds)
    return X, y, w, n_folds, fit


def test_held_out_moments_score_as_residuals_by_rows():
    # The engine's (fold, l1) errors, [-b, 1]' H [-b, 1] on a fold's
    # held-out moments, against the weighted mean squared residual of the
    # fold's held-out rows. The form sums terms of the size of the held-out
    # response's mean square, H[-1, -1], so its rounding is relative to
    # that: a fold predicted far better than its mean (here down to 1e-4 of
    # it) agrees to 1e-12 of H[-1, -1], not of its own error.
    rng = np.random.default_rng(36)
    n_empty = n_cases = 0
    while n_cases < 60:
        fit_intercept = n_cases % 3 != 0
        X, y, w, n_folds, fit = _random_row_gram_fit(rng, fit_intercept)
        learners.cv_grid([fit], np.ones(X.shape[1]), 1e-6)
        if fit.grid is None:
            continue
        n_cases += 1
        K = fit.fold_G.shape[0]
        path, *_ = _lasso_path(fit.fold_G, fit.fold_c, np.tile(fit.grid, (K, 1)),
                               1e-6, np.ones(X.shape[1]))
        got = _held_out_errors(path, fit.fold_held)
        wn = w / w.sum()
        Z, _, _ = _standardize(X, wn, center=fit_intercept)
        fold = np.arange(X.shape[0]) % n_folds
        for k in range(n_folds):
            test, train = fold == k, fold != k
            if wn[test].sum() == 0:
                assert np.all(got[k] == 0.0)
                n_empty += 1
                continue
            ybar = wn[train] @ y[train] / wn[train].sum() if fit_intercept else 0.0
            resid = (y[test] - ybar)[:, None] - Z[test] @ path[k].T
            want = wn[test] / wn[test].sum() @ resid**2
            assert_allclose(got[k], want, rtol=1e-12, atol=1e-12 * fit.fold_held[k, -1, -1])
    assert n_empty > 0


@pytest.mark.parametrize("fit_intercept", [True, False])
def test_moment_fits_match_row_front_end(fit_intercept):
    # The shared builder, fed the moments of a regression's rows and of its
    # inner classes, gives the GramFit the row front end builds.
    rng = np.random.default_rng(37)
    for _ in range(30):
        X, y, w, n_folds, want = _random_row_gram_fit(rng, fit_intercept)
        n, p = X.shape
        # Moments about a row of the data; without centring, about zero.
        shift = np.append(X[0], y[0]) if fit_intercept else np.zeros(p + 1)
        V = np.column_stack([np.ones(n), X - shift[:p], y - shift[p]])
        fold = np.arange(n) % n_folds
        classes = np.stack([learners.weighted_gram(V[fold == k], w[fold == k])
                            for k in range(n_folds)])
        drawn = X[w > 0]
        [got] = moment_fits(
            learners.weighted_gram(V, w)[None], classes[None], fit_intercept=fit_intercept,
            l1=None, n_lambdas=learners.CV_N_LAMBDAS, shift=shift,
            ranges=(drawn.min(axis=0)[None], drawn.max(axis=0)[None]))
        for name in ("G", "c", "center", "scale", "fold_G", "fold_c", "fold_held"):
            a, b = getattr(got, name), getattr(want, name)
            if a is None or b is None:
                assert a is b, name
            else:
                assert_allclose(a, b, rtol=1e-9, atol=1e-9, err_msg=name)
        assert got.ybar == pytest.approx(want.ybar, rel=1e-12, abs=1e-12)
        assert got.l1 == want.l1


def _two_cells_regressions():
    """The outcome-regression GramFits of two cells, with CV, one inner fold forced to fail.

    Inner fold 2 of the first cell's fourth regression gets a NaN in its
    right-hand side, so its path's support solves are not finite and the
    fit fails with NoConvergence.
    """
    panel = simulate(DgpConfig(n_units=200, assignment="logit-x123", seed=6)).panel
    cells = []
    for g, t in ((2, 2), (3, 4)):
        sl = slice_two_period(panel, g, t)
        plan = make_fold_plan(sl.n_units, 5, seed=g * 10 + t)
        _, fits = _regression_systems(sl.X, sl.y_pre, sl.y_post, plan,
                                      np.ones((sl.n_units, 1)))
        cells.append(fits)
    fit = cells[0][3]
    fit.fold_c = fit.fold_c.copy()
    fit.fold_c[2, 1] = np.nan
    return cells


def test_merged_gram_batch_equals_a_batch_per_cell():
    # Fits of two cells, with different grids, solved as one batch get the
    # models (bit for bit) and errors of a batch per cell.
    merged, alone = _two_cells_regressions(), _two_cells_regressions()
    solve_regressions([fit for fits in merged for fit in fits])
    for fits in alone:
        solve_regressions(fits)
    assert not np.array_equal(merged[0][0].grid, merged[1][0].grid)
    n_failed = 0
    for got, want in zip([f for fits in merged for f in fits], [f for fits in alone for f in fits]):
        if isinstance(want.result, MldidError):
            assert type(got.result) is type(want.result) is NoConvergence
            assert str(got.result) == str(want.result)
            n_failed += 1
            continue
        assert got.result.coef.tobytes() == want.result.coef.tobytes()
        assert got.result.intercept == want.result.intercept
        assert got.result.l1 == want.result.l1
        assert got.result.n_sweeps == want.result.n_sweeps
    assert n_failed == 1 and isinstance(merged[0][3].result, NoConvergence)


def test_batch_reports_bad_regression_without_failing_others():
    rng = np.random.default_rng(35)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    y_bad = y.copy()
    y_bad[4] = np.nan
    results = _row_batch([(X, y), (X, y_bad), (X[:1], y[:1])], l2=1e-6, cv_rule="min")
    assert isinstance(results[0], learners.LinearModel)
    assert isinstance(results[1], NonFiniteData)
    assert isinstance(results[2], MldidError)
    _assert_same_fit(results[0], sequential.fit_ls_cv(X, y))


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


@pytest.mark.parametrize("l1", [-1.0, np.nan, np.inf, -np.inf])
def test_bad_fixed_l1_rejected(l1):
    X, y = np.arange(20.0).reshape(10, 2), np.arange(10.0)
    with pytest.raises(MldidError, match="finite and nonnegative"):
        fit_penalized_ls(X, y, l1)
    with pytest.raises(MldidError, match="finite and nonnegative"):
        fit_penalized_ls_cv(X, y, fixed_l1=l1)


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
    m = fit_probability(X, labels, l2=1e-6)
    proba = np.clip(m.predict_proba(X), DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)
    assert proba.min() >= 0.01 and proba.max() <= 0.99
    raw = m.predict_proba(X)
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
    assert_allclose(got.predict_proba(X),
                    want.predict_proba(X), rtol=0, atol=1e-10)


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
    # A non-finite covariate fails the whole call, not only the members
    # whose rows hold it.
    X_bad = X.copy()
    X_bad[0, 1] = np.nan  # row 0 is in fold 0
    with pytest.raises(NonFiniteData):
        fit_probability_batch(X_bad, labels, _fold_weights(fold, 3), l2=l2)


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
        assert_allclose(batch[b].predict_proba(X),
                        alone.predict_proba(X), rtol=0, atol=1e-13)
    assert isinstance(batch[2], MldidError)
    # Integer weights act as repeated rows.
    repeated = newton_ref.fit_probability(np.repeat(X, 2, axis=0), np.repeat(labels, 2))
    doubled = fit_probability_batch(X, labels, np.full((n, 1), 2.0))[0]
    _assert_same_probability_fit(doubled, repeated, X)


def test_probability_engine_step_halving_in_part_of_the_batch():
    # A cohort of one unit: the fold fits are nearly separable, and at one
    # iteration a single member halves its step while the others take the
    # full step, so the batch carries P(1) of members that stopped searching.
    panel = thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 1)
    sl = slice_two_period(panel, 4, 1)
    fold = make_fold_plan(sl.n_units, 5, 1).assignment
    assert _assert_matches_reference(sl.X, sl.g_flag.astype(int), fold, 5, 1e-6) == 4


def _bootstrap_shaped_batch():
    """250 count-weighted cross-fit members on 750 rows: 50 count columns x 5 folds.

    Member 0 weights only label-1 rows (it fails), and member 1 leaves out
    the rows where the binary x3 is 1 (x3 is constant 0 on its rows).
    """
    rng = np.random.default_rng(45)
    n = 750
    X = np.column_stack([rng.standard_normal(n), rng.standard_normal(n) * 3.0 + 2.0,
                         rng.integers(0, 2, n), rng.integers(0, 2, n),
                         rng.standard_normal(n)]).astype(float)
    labels = (rng.random(n) < 1 / (1 + np.exp(1.0 - X[:, 0] - 0.5 * X[:, 2]))).astype(int)
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=50).T.astype(float)
    fold = rng.permutation(n) % 5
    W = np.concatenate([np.where((fold != k)[:, None], counts, 0.0) for k in range(5)],
                       axis=1)
    W[:, 0] *= labels
    W[X[:, 2] == 1.0, 1] = 0.0
    return X, labels, W


def test_probability_batch_beyond_old_chunk_size_matches_one_member_calls():
    # More (member, row) entries than a batch was once split at (1 << 14);
    # every member is still the fit it makes alone.
    X, labels, W = _bootstrap_shaped_batch()
    assert W.size > 1 << 14
    batch = fit_probability_batch(X, labels, W)
    for b in range(W.shape[1]):
        alone = fit_probability_batch(X, labels, W[:, [b]])[0]
        if isinstance(alone, MldidError):
            assert type(batch[b]) is type(alone) and str(batch[b]) == str(alone)
            continue
        assert batch[b].n_iter == alone.n_iter
        assert_allclose(batch[b].predict_proba(X),
                        alone.predict_proba(X), rtol=0, atol=1e-13)
    assert "both labels 0 and 1" in str(batch[0])
    assert batch[1].coef[1, 2] == 0.0
    assert sum(isinstance(res, ProbabilityModel) for res in batch) == W.shape[1] - 1


def test_probability_batch_working_set_is_a_few_member_row_arrays():
    # The kernel keeps a few (members, rows) arrays. A (members, d, rows)
    # Hessian temporary or a (members, rows, p) standardization temporary
    # alone would take 48 or 40 bytes per entry on top of those.
    X, labels, W = _bootstrap_shaped_batch()
    fit_probability_batch(X, labels, W[:, :2])  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        fit_probability_batch(X, labels, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * W.size, peak / W.size


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_probability_batch_rejects_non_finite_x(value):
    # Even on a row that no member weights: the whole call fails.
    X = np.random.default_rng(44).standard_normal((30, 2))
    X[5, 1] = value
    weights = np.ones((30, 2))
    weights[5] = 0.0
    with pytest.raises(NonFiniteData, match="^X contains NaN or infinite"):
        fit_probability_batch(X, np.arange(30) % 2, weights)


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
