import dataclasses
import multiprocessing
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import (
    DgpConfig,
    EstimatorConfig,
    aggregate_event_study,
    attach_bootstrap_se,
    bootstrap_se,
    estimate_cell,
    event_study_weights,
    run_mldid,
    simulate,
)
from mldid import amle, estimator, learners, nuisance
from mldid.drdid import estimate_cell_dr
from mldid.estimator import GroupTimeResult, _replicate_se, estimate_from_bundle
from mldid.exceptions import CellSkipped, DegenerateFold, IllConditionedWarning, MldidError
from mldid.learners import fit_probability_batch
from mldid.nuisance import cross_fit_nuisances, start_nuisances
from mldid.panel import enumerate_cells, slice_two_period

from _utils import make_panel, oracle_bundle, thin_cohort, two_period_dgp

FAST = EstimatorConfig(seed=0, fixed_l1=0.02)


def test_reference_cell_is_hard_zero():
    oracle = simulate(DgpConfig(n_units=100, seed=0))
    res = estimate_cell(oracle.panel, 3, 2, FAST)
    assert res.is_reference
    assert res.att == 0.0
    assert res.tau_unit.shape == (0,)
    assert res.score_unit.shape == (0,)


def test_no_change_no_effect_with_oracle_nuisances():
    # Outcomes identical pre and post and a deterministic function of X:
    # the partial residual vanishes, the effect fit is exactly zero, and
    # the robust correction has nothing to correct.
    sl, truth = two_period_dgp(
        300, seed=1,
        tau_fn=lambda x: np.zeros(x.shape[0]),
        alpha_fn=lambda x: 1.0 + 2.0 * x[:, 0],
        xi_fn=lambda x: np.zeros(x.shape[0]),
        rho_fn=lambda x: np.zeros(x.shape[0]),
        noise=0.0,
    )
    bundle = oracle_bundle(sl, truth)
    att, *_ = estimate_from_bundle(bundle, EstimatorConfig())
    assert abs(att) < 1e-6


def test_att_invariant_to_outcome_level_shift():
    sl, truth = two_period_dgp(800, seed=2, tau_fn=lambda x: 1.0 + x[:, 0])
    att0, *_ = estimate_from_bundle(oracle_bundle(sl, truth),
                                    EstimatorConfig())
    att1, *_ = estimate_from_bundle(oracle_bundle(sl, truth, y_shift=57.0),
                                    EstimatorConfig())
    assert abs(att0 - att1) < 1e-8


def test_unit_score_mean_reproduces_att():
    oracle = simulate(DgpConfig(n_units=300, seed=3))
    res = estimate_cell(oracle.panel, 2, 2, FAST)
    assert_allclose(res.score_unit.mean(), res.att, atol=1e-12)


def test_event_study_weights_sum_to_one():
    sizes = {2: 50, 3: 30, 4: 20}
    for e in (-3, -2, 0, 1, 2):
        w = event_study_weights(sizes, e, n_periods=4)
        if w:
            assert abs(sum(w.values()) - 1.0) < 1e-12
            assert all(v >= 0 for v in w.values())
    # e = -1 is the reference period and never carries weight.
    assert event_study_weights(sizes, -1, 4) == {}
    # At e = 2 only cohort 2 is observable within T = 4.
    assert event_study_weights(sizes, 2, 4) == {2: 1.0}


def _fake_cell(g, t, att, n_treated=10):
    z = np.zeros(n_treated)
    return GroupTimeResult(
        g=g, t=t, att=att, n_treated=n_treated, n_control=5,
        unit_ids=np.arange(n_treated, dtype=object),
        g_flag=np.ones(n_treated, dtype=np.int8),
        tau_unit=np.full(n_treated, att), score_unit=z, X_unit=np.zeros((n_treated, 1)),
    )


def test_aggregation_single_group_degenerate():
    cells = [_fake_cell(2, 2, -1.0), _fake_cell(2, 3, -2.0)]
    dyn = aggregate_event_study(cells, {2: 10}, n_periods=4)
    assert {d.e: d.theta for d in dyn} == {0: -1.0, 1: -2.0}


def test_aggregation_two_equal_groups():
    cells = [_fake_cell(2, 2, -4.0), _fake_cell(3, 3, -6.0)]
    dyn = aggregate_event_study(cells, {2: 10, 3: 10}, n_periods=4)
    at0 = [d for d in dyn if d.e == 0][0]
    assert_allclose(at0.theta, -5.0)
    assert_allclose(sorted(at0.weights.values()), [0.5, 0.5])


def test_aggregation_unequal_shares():
    cells = [_fake_cell(2, 2, -4.0), _fake_cell(3, 3, -6.0)]
    dyn = aggregate_event_study(cells, {2: 30, 3: 10}, n_periods=4)
    at0 = [d for d in dyn if d.e == 0][0]
    assert_allclose(at0.theta, 0.75 * -4.0 + 0.25 * -6.0)


def test_aggregation_missing_cohort_renormalizes():
    cells = [_fake_cell(2, 2, -4.0)]
    dyn = aggregate_event_study(cells, {2: 10, 3: 10, 4: 10}, n_periods=4)
    at0 = [d for d in dyn if d.e == 0][0]
    assert at0.weights == {2: 1.0}
    assert at0.missing_cohorts == (3, 4)


def test_run_covers_all_cells_with_references():
    oracle = simulate(DgpConfig(n_units=400, seed=4))
    run = run_mldid(oracle.panel, FAST)
    post = [(c.g, c.t) for c in run.cells if not c.is_reference and c.e >= 0]
    placebo = [(c.g, c.t) for c in run.cells if not c.is_reference and c.e < 0]
    refs = [(c.g, c.t) for c in run.cells if c.is_reference]
    assert len(post) == 6 and len(placebo) == 3 and len(refs) == 3
    assert run.skipped == []
    assert {d.e for d in run.dynamics} == {-3, -2, -1, 0, 1, 2}
    ref_dyn = run.dynamic(-1)
    assert ref_dyn.is_reference and ref_dyn.theta == 0.0


@pytest.mark.parametrize("fixed_l1", [0.013, None])
def test_one_l1_setting_reaches_both_lasso_stages(fixed_l1, monkeypatch):
    # The config's fixed_l1 pins the effect fit of every cell and every
    # outcome regression; without it every regression searches a CV grid.
    regressions = []

    def spy(*args, **kwargs):
        fits, finish = start_nuisances(*args, **kwargs)
        regressions.extend(fits)
        return fits, finish

    monkeypatch.setattr(estimator, "start_nuisances", spy)
    oracle = simulate(DgpConfig(n_units=250, seed=5))
    run = run_mldid(oracle.panel, EstimatorConfig(seed=0, fixed_l1=fixed_l1))
    cells = [c for c in run.cells if not c.is_reference]
    assert len(cells) == 9 and run.skipped == []
    # 6 slices, 5 folds, and a regression per cell plus mu_t0 per slice:
    # slice (3, 3) serves 2 cells and slice (4, 4) serves 3.
    assert len(regressions) == 75
    if fixed_l1 is None:
        assert all(fit.grid is not None for fit in regressions)
        return
    assert all(c.catt_l1 == fixed_l1 for c in cells)
    assert all(fit.l1 == fixed_l1 and fit.grid is None for fit in regressions)
    assert all(fit.result.l1 == fixed_l1 for fit in regressions)


def test_run_deterministic_given_seed():
    oracle = simulate(DgpConfig(n_units=250, seed=5))
    r1 = run_mldid(oracle.panel, FAST)
    r2 = run_mldid(oracle.panel, FAST)
    for c1, c2 in zip(r1.cells, r2.cells):
        assert c1.att == c2.att
        assert np.array_equal(c1.tau_unit, c2.tau_unit)
        assert np.array_equal(c1.score_unit, c2.score_unit)
    for d1, d2 in zip(r1.dynamics, r2.dynamics):
        assert d1.theta == d2.theta


def test_cell_skipped_context():
    rng = np.random.default_rng(6)
    panel = make_panel(np.repeat([2, 3, 4], 10), 4,
                       rng.standard_normal((30, 4)),
                       rng.standard_normal((30, 4, 2)))
    with pytest.raises(CellSkipped) as err:
        estimate_cell(panel, 2, 4, FAST)
    assert err.value.g == 2 and err.value.t == 4


def test_run_skips_cells_without_controls():
    # Everyone treated by T and no never-treated units: every cell whose
    # horizon reaches T loses its control group.
    rng = np.random.default_rng(7)
    n_per = 40
    panel = make_panel(
        np.repeat([2, 3, 4], n_per), 4,
        rng.standard_normal((3 * n_per, 4)),
        rng.standard_normal((3 * n_per, 4, 2)),
    )
    run = run_mldid(panel, FAST)
    skipped_keys = {(g, t) for g, t, _ in run.skipped}
    cohorts = (2, 3, 4)
    expected = {
        (g, t) for g in cohorts
        for t in list(range(g, 5)) + list(range(1, g - 1))
        if not any(gc != g and gc > max(g - 1, t) for gc in cohorts)
    }
    assert expected == {(2, 4), (3, 4), (4, 1), (4, 2), (4, 4)}
    assert skipped_keys == expected
    estimated = {(c.g, c.t) for c in run.cells if not c.is_reference}
    assert estimated and not (estimated & skipped_keys)


def test_catt_panel_covers_treated_units_at_each_event_time():
    oracle = simulate(DgpConfig(n_units=300, seed=8))
    run = run_mldid(oracle.panel, FAST)
    cp = run.catt_panel
    sizes = oracle.panel.group_sizes
    for e in (0, 1, 2):
        expected = sum(sz for g, sz in sizes.items() if g + e <= 4)
        assert int(np.sum(cp.e == e)) == expected
    # Placebo rows are present for the cohorts they exist for.
    assert int(np.sum(cp.e == -2)) == sizes[3] + sizes[4]


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_requires_minimum_replicates():
    oracle = simulate(DgpConfig(n_units=120, seed=9))
    with pytest.raises(MldidError):
        bootstrap_se(oracle.panel, FAST, 10)


@pytest.mark.slow
def test_bootstrap_reproducible_and_attaches():
    oracle = simulate(DgpConfig(n_units=150, seed=10))
    boot1 = bootstrap_se(oracle.panel, FAST, 50)
    boot2 = bootstrap_se(oracle.panel, FAST, 50)
    assert boot1.cell_se == boot2.cell_se
    assert boot1.dynamic_se == boot2.dynamic_se
    run = attach_bootstrap_se(run_mldid(oracle.panel, FAST), boot1)
    for c in run.cells:
        if not c.is_reference:
            assert c.se is not None and c.se > 0


# Cohort 4 keeps 4 units, so some replicates draw none of them, or draw
# them all in one fold, whose training set then lacks cohort 4. The counts
# are those of tests/_bootstrap_reference.py (one run per resampled panel).
THIN_CELLS_PANEL = DgpConfig(n_units=120, seed=3)
THIN_CELLS_CONFIG = EstimatorConfig(seed=1, fixed_l1=0.01)
THIN_CELLS_MISSING = {(4, 1): 9, (4, 2): 9, (4, 4): 9}


@pytest.mark.slow
def test_bootstrap_counts_replicates_missing_a_cell():
    panel = thin_cohort(simulate(THIN_CELLS_PANEL).panel, 4, 4)
    boot = bootstrap_se(panel, THIN_CELLS_CONFIG, 50)
    assert boot.n_failed == 0
    assert {k: n for k, n in boot.cell_missing.items() if n} == THIN_CELLS_MISSING
    # Cohort 4's cells share one slice and its fold plan, so a replicate
    # that skips one skips all three. theta(e) is missing where a replicate
    # that drew cohort 4 lacks its cell: one replicate drew no cohort-4
    # unit, so e = -2 and e = 0 miss one replicate less than their cells;
    # e = -3 has no cell at all there.
    assert {e: n for e, n in boot.dynamic_missing.items() if n} == {-3: 9, -2: 8, 0: 8}
    assert len(boot.cell_missing) == 9 and set(boot.dynamic_missing) == {-3, -2, 0, 1, 2}
    # A key has an SE only if at least 45 of 50 replicates supplied it.
    assert set(boot.cell_se) == {k for k, n in boot.cell_missing.items() if n <= 5}
    assert set(boot.dynamic_se) == {1, 2}
    # Every skip says why, and the messages add up to the counts.
    assert {k: sum(why.values()) for k, why in boot.cell_reasons.items()} == THIN_CELLS_MISSING
    assert "cell (g=4, t=4) skipped: no units in cohort g=4" in boot.cell_reasons[4, 4]


def test_cell_with_a_one_class_training_fold_is_skipped():
    # Cohort 4 keeps one unit, so the training set of its fold has no
    # cohort-4 unit and that fold's propensity cannot be fit.
    panel = thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 1)
    config = EstimatorConfig(seed=4, fixed_l1=0.01)
    with pytest.raises(DegenerateFold, match="training fold lacks both binary classes"):
        estimate_cell(panel, 4, 4, config)
    run = run_mldid(panel, config)
    skipped = {(g, t): why for g, t, why in run.skipped}
    assert (4, 4) in skipped and skipped[4, 4].endswith("training fold lacks both binary classes")
    assert all(g == 4 for g, _ in skipped)


def test_replicate_se_needs_ninety_percent_of_replicates():
    values = {"a": [float(v) for v in range(45)], "b": [float(v) for v in range(44)],
              "c": [1.0]}
    se, missing = _replicate_se(values, ["a", "b", "c", "d"], 50, 48)
    assert se == {"a": float(np.std(values["a"], ddof=1))}
    assert missing == {"a": 3, "b": 4, "c": 47, "d": 48}


@pytest.mark.slow
def test_bootstrap_se_shrinks_with_sample_size():
    ses = {}
    for n in (400, 1600):
        oracle = simulate(DgpConfig(n_units=n, seed=11, tau="const"))
        cfg = dataclasses.replace(FAST, include_placebo=False)
        boot = bootstrap_se(oracle.panel, cfg, 60)
        ses[n] = boot.cell_se[(2, 2)]
    assert ses[1600] < ses[400]


@pytest.mark.slow
def test_parallel_matches_serial():
    oracle = simulate(DgpConfig(n_units=300, seed=12))
    serial = run_mldid(oracle.panel, FAST)
    parallel = run_mldid(oracle.panel, dataclasses.replace(FAST, threads=2))
    assert len(serial.cells) == len(parallel.cells)
    for c1, c2 in zip(serial.cells, parallel.cells):
        assert (c1.g, c1.t) == (c2.g, c2.t)
        assert c1.att == c2.att
        assert c1.tau_unit.tobytes() == c2.tau_unit.tobytes()
        assert c1.score_unit.tobytes() == c2.score_unit.tobytes()
    assert serial.skipped == parallel.skipped


@pytest.mark.parametrize("panel, config", [
    (simulate(DgpConfig(n_units=300, assignment="logit-x123", seed=4)).panel,
     EstimatorConfig(seed=2)),
    # Cohort 4 keeps one unit, so its cells are skipped.
    (thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 1),
     EstimatorConfig(seed=4, fixed_l1=0.01)),
], ids=["cv", "skipped-cells"])
def test_run_cells_equal_estimate_cell(panel, config):
    # A cell estimated in its run's group is the cell estimated alone, and
    # a skipped cell gives the reason that estimating it alone raises.
    run = run_mldid(panel, config)
    skipped = {(g, t): why for g, t, why in run.skipped}
    n_skipped = 0
    for g, t in enumerate_cells(panel, config.include_placebo):
        try:
            own = estimate_cell(panel, g, t, config)
        except MldidError as err:
            assert skipped.pop((g, t)) == str(err)
            n_skipped += 1
            continue
        cell = run.cell(g, t)
        assert cell.att == own.att
        assert cell.tau_unit.tobytes() == own.tau_unit.tobytes()
        assert cell.score_unit.tobytes() == own.score_unit.tobytes()
    assert not skipped
    assert n_skipped == (0 if config.fixed_l1 is None else 3)


@pytest.mark.parametrize("threads", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers must inherit the patched limit")),
])
def test_run_warnings_carry_their_own_cell(monkeypatch, threads):
    # A condition limit of 5 makes every balancing-weight solve grow its
    # ridge, to values of its own cell. The run raises each cell's warnings
    # again, prefixed with that cell, whether it ran in a worker or not.
    monkeypatch.setattr(amle, "COND_LIMIT", 5.0)
    panel = simulate(DgpConfig(n_units=200, seed=9)).panel
    config = EstimatorConfig(seed=0, fixed_l1=0.02,
                             include_placebo=False, threads=threads)
    with pytest.warns(IllConditionedWarning) as caught:
        run_mldid(panel, config)
    got = {}
    for w in caught:
        prefix, message = str(w.message).split(": ", 1)
        got.setdefault(prefix, []).append(message)
    want = {}
    for g, t in enumerate_cells(panel, False):
        with warnings.catch_warnings(record=True) as own:
            warnings.simplefilter("always")
            estimate_cell(panel, g, t, config)
        counts = Counter(str(w.message) for w in own)
        want[f"cell (g={g}, t={t})"] = [m + (f" ({n} times)" if n > 1 else "")
                                       for m, n in counts.items()]
    assert got == want
    assert len({tuple(m) for m in want.values()}) == len(want) == 6


def _post(cells):
    return {(c.g, c.t): c for c in cells if c.t >= c.g}


def test_placebo_cell_shares_its_post_cells_plan_and_propensity():
    # Placebo cell (g, t < g - 1) and post cell (g, g) have the same units,
    # x and group flag, so they share the slice's fold plan, and with it
    # every cross-fitted propensity, bit for bit.
    panel = simulate(DgpConfig(n_units=300, n_periods=5, assignment="logit-x123",
                               seed=7)).panel
    config = EstimatorConfig(seed=3, fixed_l1=0.02)
    n_placebo = 0
    for g, t in enumerate_cells(panel, True):
        if t >= g:
            continue
        n_placebo += 1
        placebo, post = slice_two_period(panel, g, t), slice_two_period(panel, g, g)
        assert placebo.unit_ids.tolist() == post.unit_ids.tolist()
        plans = [estimator._cell_plan(sl, config, g, sl.t) for sl in (placebo, post)]
        assert plans[0].seed == plans[1].seed
        assert plans[0].assignment.tobytes() == plans[1].assignment.tobytes()
        g_hat = [cross_fit_nuisances(sl, plan, np.ones((sl.n_units, 1)), 0.02).g_hat
                 for sl, plan in zip((placebo, post), plans)]
        assert g_hat[0].tobytes() == g_hat[1].tobytes()
    assert n_placebo == 6
    # A post cell's plan is keyed by the cell itself, as before slices.
    sl = slice_two_period(panel, 3, 5)
    assert estimator._cell_plan(sl, config, 3, 5).seed == estimator.derive_seed(
        config.seed, estimator._SEED_FOLDS, 3, 5)


@pytest.mark.slow
def test_post_cells_do_not_depend_on_placebo_cells():
    panel = simulate(DgpConfig(n_units=200, assignment="logit-x123", seed=4)).panel
    config = EstimatorConfig(seed=2, fixed_l1=0.02)
    runs = {placebo: run_mldid(panel, dataclasses.replace(config, include_placebo=placebo))
            for placebo in (True, False)}
    with_placebo, without = (_post(runs[p].cells) for p in (True, False))
    assert with_placebo.keys() == without.keys() and len(without) == 6
    for key, cell in without.items():
        assert cell.att == with_placebo[key].att
        assert cell.tau_unit.tobytes() == with_placebo[key].tau_unit.tobytes()
        assert cell.score_unit.tobytes() == with_placebo[key].score_unit.tobytes()
    assert [d for d in runs[False].dynamics if d.e >= 0] == [
        d for d in runs[True].dynamics if d.e >= 0]
    boots = {placebo: bootstrap_se(panel, dataclasses.replace(config, include_placebo=placebo),
                                   50)
             for placebo in (True, False)}
    assert boots[False].cell_se == {k: se for k, se in boots[True].cell_se.items()
                                    if k in without}
    assert boots[False].dynamic_se == {e: se for e, se in boots[True].dynamic_se.items()
                                       if e >= 0}


def test_run_dr_cells_equal_the_dr_estimate_of_each_slice():
    panel = simulate(DgpConfig(n_units=300, assignment="logit-x123", seed=5)).panel
    run = run_mldid(panel, FAST)
    assert [(d.g, d.t) for d in run.dr_cells] == [(c.g, c.t) for c in run.cells]
    assert run.dr_skipped == []
    for cell, dr in zip(run.cells, run.dr_cells):
        assert (dr.n_treated, dr.n_control) == (cell.n_treated, cell.n_control)
        if cell.is_reference:
            assert dr.att_dr == 0.0
            continue
        own = estimate_cell_dr(slice_two_period(panel, cell.g, cell.t)).att_dr
        assert dr.att_dr == pytest.approx(own, rel=1e-12, abs=0)


@pytest.mark.parametrize("placebo", [True, False])
def test_one_newton_batch_per_slice(monkeypatch, placebo):
    # T = 8: 28 post cells, each the post cell of its own slice, and 21
    # placebo cells that join the slices (g, g). One Newton batch per slice
    # fits every fold's propensity and the DR baseline's.
    calls = []

    def spy(X, labels, weights, **kwargs):
        calls.append(weights.shape[1])
        return fit_probability_batch(X, labels, weights, **kwargs)

    monkeypatch.setattr(nuisance, "fit_probability_batch", spy)
    monkeypatch.setattr(learners, "fit_probability_batch", spy)
    panel = simulate(DgpConfig(n_units=400, n_periods=8, seed=6)).panel
    run = run_mldid(panel, dataclasses.replace(FAST, include_placebo=placebo))
    n_cells = sum(not c.is_reference for c in run.cells)
    assert n_cells == (49 if placebo else 28) and run.skipped == []
    assert calls == [6] * 28
