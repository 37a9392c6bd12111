import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import DgpConfig, compare_rmse, estimate_cell_dr, simulate, slice_two_period
from mldid.drdid import estimate_slice_dr
from mldid.exceptions import KeyMismatch, MldidError, NoOverlap
from mldid.learners import DEFAULT_L2, fit_probability, ridge_fits

from _dr_reference import estimate_cell_dr_rows
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
# One pass per slice against the cell-by-cell reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def slice_cells():
    """The post cell (6, 6) and its four placebo cells, which share its units."""
    panel = simulate(DgpConfig(n_units=700, n_periods=7, assignment="logit-x123",
                               seed=8)).panel
    cells = [slice_two_period(panel, 6, t) for t in (6, 1, 2, 3, 4)]
    assert all(np.array_equal(c.unit_rows, cells[0].unit_rows) for c in cells)
    return cells


def _propensity(sl):
    return fit_probability(sl.X, sl.g_flag.astype(np.int64)).predict_proba(sl.X)[:, 1]


def _outcomes(call):
    try:
        return call()
    except MldidError as err:
        return type(err), str(err)


def _assert_each_cell_as_alone(cells, propensity=None):
    got = estimate_slice_dr(cells, propensity)
    assert len(got) == len(cells)
    for cell, result in zip(cells, got):
        ref = _outcomes(lambda: estimate_cell_dr_rows(cell, propensity))
        if isinstance(result, MldidError):
            result = type(result), str(result)
        assert result == ref, (cell.g, cell.t)
        assert _outcomes(lambda: estimate_cell_dr(cell, propensity)) == ref
    return got


@pytest.mark.parametrize("fitted", [True, False])
def test_slice_pass_equals_each_cell_alone(slice_cells, fitted):
    propensity = _propensity(slice_cells[0]) if fitted else None
    got = _assert_each_cell_as_alone(slice_cells, propensity)
    assert all(r.att_dr is not None for r in got)
    # A cell's bits do not depend on which other cells share the pass.
    for j in range(len(slice_cells)):
        assert estimate_slice_dr(slice_cells[j:][::-1], propensity)[-1] == got[j]


def test_covariate_constant_on_controls_stays_pinned(slice_cells):
    control = slice_cells[0].g_flag == 0
    X = slice_cells[0].X.copy()
    X[control, 1] = 0.1 + 0.2  # constant, at a value a weighted mean rounds off
    cells = [dataclasses.replace(c, X=X) for c in slice_cells]
    _assert_each_cell_as_alone(cells, _propensity(cells[0]))
    fit = ridge_fits(X[control], DEFAULT_L2)(cells[0].y_post[control]
                                              - cells[0].y_pre[control])
    # Centred exactly at its value with unit scale, the column standardizes to zeros.
    assert fit.center[1] == 0.1 + 0.2 and fit.scale[1] == 1.0


def test_propensities_at_clip_bounds_raise_no_overlap_per_cell(slice_cells):
    treated = slice_cells[0].g_flag == 1
    propensity = np.where(treated, 0.5, np.where(np.arange(treated.size) % 2, 0.0, 1.0))
    got = _assert_each_cell_as_alone(slice_cells, propensity)
    assert [type(r) for r in got] == [NoOverlap] * len(slice_cells)
    assert [str(r) for r in got] == [
        f"cell (g=6, t={c.t}): every control propensity sits at the clip bounds"
        for c in slice_cells]


def test_one_control_fails_every_cell_as_alone(slice_cells):
    keep = (slice_cells[0].g_flag == 1) | (np.cumsum(slice_cells[0].g_flag == 0) == 1)
    cells = [dataclasses.replace(c, **{f: getattr(c, f)[keep] for f in
                                       ("unit_ids", "unit_rows", "g_flag", "y_pre",
                                        "y_post", "X")})
             for c in slice_cells]
    got = _assert_each_cell_as_alone(cells, np.full(keep.sum(), 0.5))
    assert all(str(r) == "need at least 2 rows to fit" for r in got)


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
