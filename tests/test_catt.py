import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import fit_catt, fit_penalized_ls_cv, predict_catt
from mldid.catt import catt_loss
from mldid.exceptions import AllWeightsZero, SchemaMismatch
from mldid.learners import DEFAULT_L2

from _stacked_rows import stacked_tau
from _utils import catt_columns, oracle_bundle, two_period_dgp


def bundle_with_tau(n, seed, tau_fn, noise=1.0):
    sl, truth = two_period_dgp(n, seed, tau_fn=tau_fn, noise=noise)
    return oracle_bundle(sl, truth), truth


def test_zero_h_gives_zero_tau():
    bundle, _ = bundle_with_tau(200, 0, lambda x: x[:, 0])
    bundle = dataclasses.replace(bundle, dH=np.zeros(bundle.n_units))
    model = fit_catt(bundle)
    assert model.intercept == 0.0
    assert_allclose(model.coef, 0.0, atol=1e-12)


def test_large_penalty_kills_slopes():
    bundle, _ = bundle_with_tau(300, 1, lambda x: 2.0 * x[:, 0])
    model = fit_catt(bundle, fixed_l1=1e8)
    assert_allclose(model.coef, 0.0, atol=1e-12)


def test_recovers_linear_effect_with_oracle_nuisances():
    bundle, truth = bundle_with_tau(5000, 2, lambda x: 2.0 * x[:, 0],
                                    noise=0.3)
    model = fit_catt(bundle, fixed_l1=0.0)
    assert abs(model.coef[0] - 2.0) < 0.1
    assert abs(model.coef[1]) < 0.05
    assert abs(model.intercept) < 0.1


def test_unpenalized_fit_solves_normal_equations():
    bundle, _ = bundle_with_tau(400, 3, lambda x: 1.0 + x[:, 0] - 0.5 * x[:, 1])
    model = fit_catt(bundle, fixed_l1=0.0)
    # The normal equations of the fit's ridge DEFAULT_L2 on the slopes,
    # which are RMS-scaled (the design has no intercept column to centre).
    B = bundle.B
    Z = np.concatenate([B[:, None], B[:, None] * bundle.X], axis=1)
    scale = np.sqrt(np.mean(Z**2, axis=0))
    Zs = Z / scale
    A = Zs.T @ Zs / len(B) + DEFAULT_L2 * np.diag([0.0, 1.0, 1.0])
    expected = np.linalg.solve(A, Zs.T @ bundle.dH / len(B)) / scale
    got = np.concatenate([[model.intercept], model.coef])
    assert_allclose(got, expected, atol=1e-8)


def test_objective_no_worse_than_zero_model():
    bundle, _ = bundle_with_tau(600, 4, lambda x: x[:, 0] ** 0 + x[:, 1])
    model = fit_catt(bundle)
    zero = dataclasses.replace(model, intercept=0.0,
                               coef=np.zeros_like(model.coef))
    assert catt_loss(bundle, model) <= catt_loss(bundle, zero) + 1e-9


def test_predict_constant_model():
    bundle, _ = bundle_with_tau(100, 5, lambda x: x[:, 0])
    model = fit_catt(bundle, fixed_l1=1e8)
    x = np.array([[3.0, -1.0], [0.0, 0.0]])
    assert_allclose(predict_catt(model, x), model.intercept)


def test_predict_linear_arithmetic():
    from mldid.catt import CattModel

    model = CattModel(intercept=0.0, coef=np.array([2.0]), l1=0.0,
                      covariate_names=("x_1",))
    assert_allclose(predict_catt(model, np.array([[1.5]])), [3.0])


def test_fit_predict_round_trip():
    bundle, _ = bundle_with_tau(300, 6, lambda x: 0.5 * x[:, 0])
    model = fit_catt(bundle, fixed_l1=0.01)
    first = predict_catt(model, bundle.X)
    again = predict_catt(model, bundle.X)
    assert_allclose(first, again, atol=1e-10)


def test_all_weights_zero():
    bundle, _ = bundle_with_tau(150, 7, lambda x: x[:, 0])
    bundle = dataclasses.replace(bundle, B=np.zeros(bundle.n_units))
    with pytest.raises(AllWeightsZero):
        fit_catt(bundle)


def test_schema_mismatch():
    bundle, _ = bundle_with_tau(150, 8, lambda x: x[:, 0])
    model = fit_catt(bundle, fixed_l1=0.1)
    with pytest.raises(SchemaMismatch):
        predict_catt(model, np.zeros((4, 5)))


def _unit_rows(seed):
    """X, B and dH of an oracle bundle with tau(x) = 1 + x_1 - x_3, and counts."""
    sl, truth = two_period_dgp(300, seed, tau_fn=lambda x: 1.0 + x[:, 0] - x[:, 2], p=4)
    bundle = oracle_bundle(sl, truth)
    rng = np.random.default_rng(seed)
    counts = np.column_stack([np.ones(sl.n_units), rng.integers(0, 3, sl.n_units)])
    return bundle.X, bundle.B, bundle.dH, counts, rng


def test_fixed_l1_unit_fit_matches_stacked_rows():
    # The unit fit against the lasso on the stacked rows of the units'
    # copies, whose partial residuals differ by dH and otherwise are
    # arbitrary: the all-ones column and a column of counts.
    X, B, dH, counts, rng = _unit_rows(14)
    level = 5.0 * rng.standard_normal(X.shape[0])
    coef, chosen, errors = catt_columns(
        X, np.tile(B[:, None], 2), np.tile(dH[:, None], 2), counts, fixed_l1=0.01)
    assert errors == [None, None] and (chosen == 0.01).all()
    for r in range(2):
        idx = np.repeat(np.arange(X.shape[0]), counts[:, r].astype(int))
        want = stacked_tau(X[idx], B[idx], level[idx], level[idx] + dH[idx], 0.01, 1e-6)
        assert_allclose(coef[r], want, rtol=0, atol=1e-10)


def test_cv_fit_matches_penalized_cv_on_drawn_units():
    # Each column's CV fit is fit_penalized_ls_cv on its drawn units, with
    # design (B/2)[1, x], response dH/2 and the counts as weights.
    X, B, dH, counts, _ = _unit_rows(15)
    coef, chosen, errors = catt_columns(
        X, np.tile(B[:, None], 2), np.tile(dH[:, None], 2), counts)
    assert errors == [None, None]
    Z = np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)
    for r in range(2):
        drawn = counts[:, r] > 0
        ref = fit_penalized_ls_cv(
            B[drawn, None] / 2 * Z[drawn], dH[drawn] / 2,
            weights=counts[drawn, r], penalty_factor=np.r_[0.0, np.ones(X.shape[1])],
            fit_intercept=False, cv_rule="1se")
        assert_allclose(coef[r], ref.coef, rtol=0, atol=1e-10)
        # The same grid point (neighbouring points differ by a factor of
        # about 1.8); the grids agree to rounding.
        assert chosen[r] == pytest.approx(ref.l1, rel=1e-9, abs=0)
        assert ref.l1 > 0 and np.count_nonzero(ref.coef[1:]) > 0
