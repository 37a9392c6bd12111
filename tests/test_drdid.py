import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import DgpConfig, compare_rmse, estimate_cell_dr, simulate, slice_two_period
from mldid.exceptions import KeyMismatch, NoOverlap

from _utils import two_period_dgp


def test_randomized_with_flat_oracle_equals_two_means():
    # Constant control outcome-change and a constant propensity collapse
    # the estimator to the plain difference in mean outcome changes.
    sl, _ = two_period_dgp(500, seed=0, tau_fn=lambda x: 1.0 + x[:, 0],
                           rho_fn=lambda x: np.full(x.shape[0], 2.0))
    dy = sl.y_post - sl.y_pre
    treated = sl.g_flag == 1
    res = estimate_cell_dr(
        sl,
        propensity=np.full(sl.n_units, 0.4),
        outcome_change=np.full(sl.n_units, 2.0),
    )
    expected = dy[treated].mean() - dy[~treated].mean()
    assert_allclose(res.att_dr, expected, atol=1e-10)


def test_zero_effect_is_near_zero():
    sl, _ = two_period_dgp(3000, seed=1, tau_fn=lambda x: np.zeros(x.shape[0]))
    res = estimate_cell_dr(sl)
    assert abs(res.att_dr) < 0.2


def test_double_robustness_smoke():
    # An informative propensity with a broken outcome model (and the
    # reverse) both stay near the truth; breaking both does not.
    n = 8000
    tau_fn = lambda x: np.full(x.shape[0], 2.0)
    g_fn = lambda x: 1.0 / (1.0 + np.exp(-0.8 * x[:, 0]))
    sl, truth = two_period_dgp(n, seed=2, tau_fn=tau_fn, g_fn=g_fn,
                               rho_fn=lambda x: 1.0 + x[:, 0])
    mu_oracle = truth["rho"]  # E[dY | X, G=0]
    res_or_p = estimate_cell_dr(sl, propensity=truth["g"],
                                outcome_change=np.zeros(n))
    res_or_mu = estimate_cell_dr(sl, propensity=np.full(n, 0.5),
                                 outcome_change=mu_oracle)
    assert abs(res_or_p.att_dr - 2.0) < 0.15
    assert abs(res_or_mu.att_dr - 2.0) < 0.15


def test_estimated_nuisances_recover_effect():
    sl, _ = two_period_dgp(4000, seed=3, tau_fn=lambda x: 2.0 + x[:, 0],
                           g_fn=lambda x: 1 / (1 + np.exp(-0.5 * x[:, 1])))
    res = estimate_cell_dr(sl)
    treated = sl.g_flag == 1
    truth = (2.0 + sl.X[treated, 0]).mean()
    assert abs(res.att_dr - truth) < 0.15


def test_control_weights_normalized():
    sl, _ = two_period_dgp(300, seed=4, tau_fn=lambda x: x[:, 0])
    # Reproduce the internal weighting and confirm exact normalization.
    from mldid.learners import fit_probability

    model = fit_probability(sl.X, sl.g_flag.astype(np.int64))
    p = model.predict_proba(sl.X)[:, 1]
    control = sl.g_flag == 0
    w = p[control] / (1 - p[control])
    w = w / w.sum()
    assert_allclose(w.sum(), 1.0, atol=1e-15)


def test_no_overlap_raises():
    sl, _ = two_period_dgp(200, seed=5, tau_fn=lambda x: x[:, 0])
    with pytest.raises(NoOverlap):
        estimate_cell_dr(sl, propensity=np.full(sl.n_units, 1.0))


def test_dr_on_simulated_panel_tracks_oracle():
    oracle = simulate(DgpConfig(n_units=4000, seed=6))
    sl = slice_two_period(oracle.panel, 2, 2)
    res = estimate_cell_dr(sl)
    assert abs(res.att_dr - oracle.oracle_att(2, 2)) < 0.25


# ---------------------------------------------------------------------------
# RMSE comparison
# ---------------------------------------------------------------------------

def test_rmse_zero_when_estimator_is_oracle():
    cells = {(2, 2): np.array([1.0, -2.0, 0.5])}
    rows = compare_rmse(cells, cells, cells)
    assert rows[0].rmse_ml == 0.0
    assert rows[0].rmse_dr == 0.0


def test_rmse_single_rep_is_absolute_error():
    ml = {(2, 2): np.array([1.5])}
    dr = {(2, 2): np.array([0.5])}
    orc = {(2, 2): np.array([1.0])}
    rows = compare_rmse(ml, dr, orc)
    assert_allclose(rows[0].rmse_ml, 0.5)
    assert_allclose(rows[0].rmse_dr, 0.5)
    assert rows[0].n_reps == 1


def test_rmse_key_mismatch():
    with pytest.raises(KeyMismatch):
        compare_rmse({(2, 2): np.array([1.0])}, {(2, 3): np.array([1.0])},
                     {(2, 2): np.array([1.0])})
    with pytest.raises(KeyMismatch):
        compare_rmse({(2, 2): np.array([1.0, 2.0])},
                     {(2, 2): np.array([1.0])},
                     {(2, 2): np.array([1.0])})
