"""The bootstrap's count columns against one run per resampled panel."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import DgpConfig, EstimatorConfig, bootstrap_se, run_mldid, simulate
from mldid.amle import balancing_columns, build_function_class, solve_amle
from mldid import estimator
from mldid.estimator import (
    _cell_plan,
    _estimate_parts,
    _Part,
    _replicate_atts,
    replicate_counts,
)
from mldid.exceptions import IllConditionedWarning
from mldid.nuisance import _regression_fits
from mldid.panel import enumerate_cells, slice_two_period

from _bootstrap_reference import reference_missing, reference_replicate
from _utils import oracle_bundle, thin_cohort, two_period_dgp

FIXED = EstimatorConfig(seed=4, fixed_l1=0.01)


def _cell_replicates(panel, g, t, config, counts):
    """Every replicate's att of one cell and, where it has none, the reason."""
    atts, reasons = _replicate_atts(panel, config, counts, [(g, t)])
    return atts[g, t], reasons[g, t]


def _cell_columns(sl, config, counts):
    """A slice's estimate for every count column, as a group of its own."""
    part, = _estimate_parts([_Part(sl.g, (sl.t,), slices=[sl], counts=counts)], config)
    assert part.error is None
    return part.results[0]


def test_replicate_counts_are_the_resampling_draws():
    counts = replicate_counts(40, 7, 5)
    assert counts.shape == (40, 5) and (counts.sum(axis=0) == 40).all()
    # A replicate's column does not depend on how many are drawn.
    assert np.array_equal(replicate_counts(40, 7, 2), counts[:, :2])


def test_fixed_l1_columns_match_resampled_panels():
    panel = simulate(DgpConfig(n_units=160, seed=21)).panel
    n_rep = 8
    counts = replicate_counts(panel.n_units, FIXED.seed, n_rep)
    want = [reference_replicate(panel, FIXED, b) for b in range(n_rep)]
    n_cmp = 0
    for g, t in enumerate_cells(panel, True):
        att, reasons = _cell_replicates(panel, g, t, FIXED, counts)
        for b in range(n_rep):
            ref = want[b].get((g, t))
            if isinstance(ref, float):
                assert reasons[b] is None
                assert abs(att[b] - ref) <= 1e-10, (g, t, b, att[b], ref)
                n_cmp += 1
            else:
                assert np.isnan(att[b]) and reasons[b] is not None
    assert n_cmp >= 60


def test_missing_replicate_without_a_drawn_cohort():
    # Cohort 4 keeps 2 units, so some replicates draw none of it: their
    # cells of cohort 4 say so, and the other cells are unaffected.
    small = thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 2)
    counts = replicate_counts(small.n_units, FIXED.seed, 40)
    none = counts[small.groups == 4].sum(axis=0) == 0
    assert none.any()
    att, reasons = _cell_replicates(small, 4, 4, FIXED, counts)
    assert np.isnan(att[none]).all()
    assert {reasons[b] for b in np.flatnonzero(none)} == {
        "cell (g=4, t=4) skipped: no units in cohort g=4"}
    other, _ = _cell_replicates(small, 2, 2, FIXED, counts)
    assert np.isfinite(other[none]).all()


def test_undrawn_non_finite_unit_leaves_column_unchanged():
    # A column that does not draw a unit with a NaN covariate and outcome is
    # the estimate without that unit; the all-ones column fails.
    panel = simulate(DgpConfig(n_units=160, seed=8)).panel
    sl = slice_two_period(panel, 2, 2)
    counts = np.ones((sl.n_units, 2))
    counts[5, 0] = 0
    X_nan, y_nan = sl.X.copy(), sl.y_post.copy()
    X_nan[5, 1], y_nan[5] = np.nan, np.inf
    got = _cell_columns(dataclasses.replace(sl, X=X_nan, y_post=y_nan), FIXED, counts)
    X_any = sl.X.copy()
    X_any[5, 1] = 123.0
    want = _cell_columns(dataclasses.replace(sl, X=X_any), FIXED, counts[:, :1])
    assert got.errors[0] is None and abs(got.att[0] - want.att[0]) <= 1e-12
    assert str(got.errors[1]).startswith("fold ") and np.isnan(got.att[1])


@pytest.mark.slow
@pytest.mark.parametrize("panel, seed", [
    # Replicates that draw cohort 4's four units all in one fold skip its cells.
    (thin_cohort(simulate(DgpConfig(n_units=120, seed=3)).panel, 4, 4), 1),
    # Some replicates draw none of cohort 4's two units.
    (thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 2), 4),
], ids=["thin-cells", "two-unit-cohort"])
def test_missing_counts_and_messages_match_reference(panel, seed):
    config = EstimatorConfig(seed=seed, fixed_l1=0.01)
    cells, thetas, reasons = reference_missing(panel, config, 50)
    boot = bootstrap_se(panel, config, 50)
    assert boot.n_failed == 0
    assert boot.cell_missing == cells and boot.dynamic_missing == thetas
    assert boot.cell_reasons == reasons and sum(cells.values()) > 0


def test_column_chunks_do_not_change_replicates(monkeypatch):
    # More chunks than columns (a slice of more units than the cap) and
    # chunks of one column give the same replicates as one chunk.
    panel = simulate(DgpConfig(n_units=160, seed=21)).panel
    counts = replicate_counts(panel.n_units, FIXED.seed, 6)
    whole = _cell_replicates(panel, 2, 3, FIXED, counts)
    monkeypatch.setattr(estimator, "MAX_GROUP_ENTRIES", 10)
    chunked = _cell_replicates(panel, 2, 3, FIXED, counts)
    assert np.isfinite(whole[0]).all()
    assert_allclose(chunked[0], whole[0], rtol=0, atol=1e-12)
    assert chunked[1] == whole[1]


def test_chunk_of_failed_columns_is_reported():
    # Cohort 4 keeps one unit: a replicate that draws it has it in one fold
    # only, whose training set then lacks cohort 4, so every drawn column's
    # propensity fit fails; the others have no treated unit.
    small = thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 1)
    counts = replicate_counts(small.n_units, FIXED.seed, 6)
    att, reasons = _cell_replicates(small, 4, 4, FIXED, counts)
    assert np.isnan(att).all()
    for b in range(counts.shape[1]):
        assert reasons[b] == reference_replicate(small, FIXED, b)[4, 4]
    drawn = counts[small.groups == 4].sum(axis=0) > 0
    assert drawn.any() and all(reasons[b].endswith("training fold lacks both binary classes")
                               for b in np.flatnonzero(drawn))


def test_cv_column_alone_equals_column_in_batch():
    panel = simulate(DgpConfig(n_units=220, assignment="logit-x123", seed=6)).panel
    config = EstimatorConfig(seed=3)
    counts = replicate_counts(panel.n_units, config.seed, 4)
    for g, t in ((2, 2), (3, 1)):
        sl = slice_two_period(panel, g, t)
        plan = _cell_plan(sl, config, g, t)
        c = counts[sl.unit_rows]
        batch = _cell_columns(sl, config, c)
        fits = _regression_fits(sl.X, sl.y_pre, sl.y_post, plan, c, config.fixed_l1)
        for r in range(c.shape[1]):
            alone = _cell_columns(sl, config, c[:, [r]])
            assert batch.errors[r] is None and alone.errors[0] is None
            assert abs(alone.att[0] - batch.att[r]) <= 1e-12
            # The same grid point (neighbouring points differ by a factor of
            # about 1.8); the grids agree to rounding.
            assert alone.catt_l1[0] == pytest.approx(batch.catt_l1[r], rel=1e-9, abs=0)
            own = _regression_fits(sl.X, sl.y_pre, sl.y_post, plan, c[:, [r]],
                                   config.fixed_l1)[0]
            assert own.keys() == fits[r].keys()
            for key, fit in own.items():
                assert fit.l1 == pytest.approx(fits[r][key].l1, rel=1e-9, abs=0), key


def test_balancing_columns_match_row_basis():
    # Unit-moment weights against the basis of build_function_class on the
    # units' copies, for counts given as copies of the units.
    sl, truth = two_period_dgp(90, seed=3, tau_fn=lambda x: x[:, 0], p=3)
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 3, size=(sl.n_units, 4))
    sigma2 = np.array([0.5, 1.0, 2.0, 1e-3])
    w = balancing_columns(sl.X, sl.g_flag.astype(float), counts)(sigma2)
    for r in range(counts.shape[1]):
        idx = np.repeat(np.arange(sl.n_units), counts[:, r])
        copies = dataclasses.replace(
            sl, X=sl.X[idx], g_flag=sl.g_flag[idx], y_pre=sl.y_pre[idx], y_post=sl.y_post[idx],
            unit_ids=np.arange(idx.size, dtype=object), unit_rows=np.arange(idx.size))
        bundle = oracle_bundle(copies, {k: v[idx] for k, v in truth.items()})
        gamma = solve_amle(build_function_class(bundle, float(sigma2[r])))
        assert_allclose(w[idx, r], gamma, rtol=0, atol=1e-9)


@pytest.mark.slow
def test_bootstrap_se_does_not_depend_on_threads():
    panel = thin_cohort(simulate(DgpConfig(n_units=120, seed=3)).panel, 4, 4)
    config = EstimatorConfig(seed=1, fixed_l1=0.01)
    serial = bootstrap_se(panel, config, 50)
    parallel = bootstrap_se(panel, dataclasses.replace(config, threads=2), 50)
    assert serial.cell_se == parallel.cell_se
    assert serial.dynamic_se == parallel.dynamic_se
    assert serial.cell_missing == parallel.cell_missing
    assert serial.dynamic_missing == parallel.dynamic_missing
    assert serial.cell_reasons == parallel.cell_reasons
    assert serial.n_failed == parallel.n_failed


def test_worker_warnings_reach_the_caller():
    # Noiseless outcomes put sigma^2 at its floor, and copies of a covariate
    # make the balancing-weight system singular: the ridge is increased.
    # Four copies put the condition number of cell (2, 2) at about 1.6e12,
    # over the limit of 1e12 (one copy: 6.3e11).
    panel = simulate(DgpConfig(n_units=3000, seed=5)).panel
    dup = dataclasses.replace(
        panel, outcomes=np.zeros_like(panel.outcomes),
        covariates=np.concatenate([panel.covariates] + [panel.covariates[:, :, :1]] * 4,
                                  axis=2),
        covariate_names=panel.covariate_names + tuple(f"x_dup{k}" for k in range(4)))
    config = EstimatorConfig(seed=0, fixed_l1=0.02,
                             include_placebo=False, threads=2)
    with pytest.warns(IllConditionedWarning, match=r"cell \(g=\d, t=\d\): .*ridge") as caught:
        run_mldid(dup, config)
    assert any(str(w.message).startswith("cell (g=2, t=2): balancing-weight system ill "
                                         "conditioned; ridge increased") for w in caught)
