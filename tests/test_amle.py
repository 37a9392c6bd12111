import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import (
    AmleProblem,
    amle_objective,
    build_function_class,
    estimate_sigma2,
    solve_amle,
)
from mldid.exceptions import IllConditionedWarning
from mldid.nuisance import NuisanceBundle

from _utils import oracle_bundle, two_period_dgp


def small_bundle(n=200, seed=0):
    sl, truth = two_period_dgp(n, seed, tau_fn=lambda x: x[:, 0])
    return oracle_bundle(sl, truth)


def test_contrast_targets():
    bundle = small_bundle()
    problem = build_function_class(bundle, sigma2=1.0)
    names = list(problem.feature_names)
    # A function of x alone has a vanishing treatment contrast; the group
    # indicator contrasts to exactly one per unit.
    assert problem.target[names.index("1")] == 0.0
    assert problem.target[names.index("G")] == 1.0
    assert problem.target[names.index("x_1")] == 0.0
    # Standardized covariates are mean zero over the units, so the x*G
    # contrasts average to zero as well.
    assert abs(problem.target[names.index("x_1*G")]) < 1e-12
    # Hand evaluation on the raw definition for one feature.
    X = bundle.X
    xs = (X[:, 0] - X[:, 0].mean()) / X[:, 0].std()
    hand = np.mean(xs * 1 - xs * 0)
    assert_allclose(problem.target[names.index("x_1*G")], hand, atol=1e-12)


def four_map_target(bundle):
    """The contrast target as the mean of four stacked feature-map evaluations.

    On a unit's stacked rows the features are psi(x, g, t) = t * phi(x, g):
    the first difference's features on the post row. Their
    difference-in-differences contrast psi(x,1,1) - psi(x,0,1) - psi(x,1,0)
    + psi(x,0,0) is the unit contrast phi(x, 1) - phi(x, 0).
    """
    from mldid.amle import _feature_map

    X = bundle.X
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xs = (X - X.mean(axis=0)) / sd
    ones, zeros = np.ones(X.shape[0]), np.zeros(X.shape[0])

    def psi(g, t):
        return t[:, None] * _feature_map(Xs, g)

    contrast = psi(ones, ones) - psi(zeros, ones) - psi(ones, zeros) + psi(zeros, zeros)
    return contrast.mean(axis=0)


def test_closed_form_target_matches_four_map_contrast():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, p = int(rng.integers(5, 60)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p) + rng.uniform(-5, 5, p)
        if rng.random() < 0.3:
            X[:, 0] = 2.5  # a constant column keeps its unit scale
        bundle = NuisanceBundle(
            y_pre=rng.standard_normal(n), y_post=rng.standard_normal(n),
            g=rng.integers(0, 2, n).astype(np.int8), X=X, unit_ids=np.arange(n),
            covariate_names=tuple(f"x_{j + 1}" for j in range(p)),
            g_hat=np.full(n, 0.5), nu_hat=np.zeros(n),
        )
        problem = build_function_class(bundle, sigma2=1.0)
        assert_allclose(problem.target, four_map_target(bundle), rtol=0, atol=1e-12)


def test_huge_variance_shrinks_weights_to_zero():
    bundle = small_bundle()
    problem = build_function_class(bundle, sigma2=1.0)
    gamma = solve_amle(dataclasses.replace(problem, sigma2=1e14))
    assert np.max(np.abs(gamma)) < 1e-6


def test_scalar_closed_form():
    # One basis column: gamma = psi * b / (psi'psi / n + sigma^2 / n).
    psi = np.array([[1.0], [2.0], [-1.0]])
    problem = AmleProblem(basis=psi, target=np.array([0.5]), sigma2=2.0)
    gamma = solve_amle(problem)
    expected = psi[:, 0] * 0.5 / (6.0 / 3.0 + 2.0 / 3.0)
    assert_allclose(gamma, [0.1875, 0.375, -0.1875], atol=1e-10)
    assert_allclose(gamma, expected, atol=1e-10)


def test_objective_beats_reference_candidates():
    bundle = small_bundle(400, seed=1)
    problem = build_function_class(bundle, sigma2=1.5)
    gamma = solve_amle(problem)
    obj = amle_objective(problem, gamma)
    assert obj <= amle_objective(problem, np.zeros(problem.n)) + 1e-12
    sign_pattern = bundle.g - 0.5
    assert obj <= amle_objective(problem, sign_pattern.astype(float)) + 1e-12


def test_permutation_equivariance():
    bundle = small_bundle(150, seed=2)
    problem = build_function_class(bundle, sigma2=1.0)
    gamma = solve_amle(problem)
    rng = np.random.default_rng(3)
    perm = rng.permutation(problem.n)
    permuted = dataclasses.replace(problem, basis=problem.basis[perm])
    assert_allclose(solve_amle(permuted), gamma[perm], atol=1e-10)


def test_weight_norm_monotone_in_sigma2():
    bundle = small_bundle(300, seed=4)
    problem = build_function_class(bundle, sigma2=0.5)
    norms = []
    for s2 in (0.5, 2.0, 8.0, 32.0):
        norms.append(np.linalg.norm(solve_amle(
            dataclasses.replace(problem, sigma2=s2))))
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_solution_residual_is_tight():
    bundle = small_bundle(250, seed=5)
    problem = build_function_class(bundle, sigma2=1.0)
    gamma = solve_amle(problem)
    psi = problem.basis
    # First-order condition of the quadratic program.
    lhs = psi @ (psi.T @ gamma / problem.n - problem.target) / problem.n
    rhs = -problem.sigma2 / problem.n**2 * gamma
    assert_allclose(lhs, rhs, atol=1e-9)


def test_ill_conditioned_falls_back_with_warning():
    psi = np.column_stack([np.ones(5), np.ones(5) * (1 + 1e-15)])
    problem = AmleProblem(basis=psi, target=np.array([1.0, 1.0]),
                          sigma2=1e-15)
    with pytest.warns(IllConditionedWarning):
        gamma = solve_amle(problem)
    assert np.all(np.isfinite(gamma))


# ---------------------------------------------------------------------------
# Noise bound
# ---------------------------------------------------------------------------

def test_sigma2_floor_when_noiseless():
    bundle = small_bundle(100, seed=6)
    bundle = dataclasses.replace(bundle, dH=np.zeros(bundle.n_units))
    assert estimate_sigma2(bundle) == 1e-8


def test_sigma2_constant_residual_hits_floor():
    bundle = small_bundle(100, seed=7)
    bundle = dataclasses.replace(bundle, dH=np.full(bundle.n_units, 3.0))
    assert estimate_sigma2(bundle) == 1e-8


def test_sigma2_standard_normal_residuals():
    bundle = small_bundle(2500, seed=8)
    rng = np.random.default_rng(9)
    bundle = dataclasses.replace(bundle, dH=rng.standard_normal(bundle.n_units))
    s2 = estimate_sigma2(bundle)
    assert 1.3 <= s2 <= 1.7


def test_sigma2_uses_effect_residual_when_given():
    bundle = small_bundle(500, seed=10)
    tau = bundle.dH / np.where(np.abs(bundle.B) < 1e-9, 1.0, bundle.B)
    tau[np.abs(bundle.B) < 1e-9] = 0.0
    s2_with = estimate_sigma2(bundle, tau)
    s2_without = estimate_sigma2(bundle)
    assert s2_with <= s2_without
