import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import (
    DgpConfig,
    EstimatorConfig,
    LearnerConfig,
    aggregate_event_study,
    attach_bootstrap_se,
    bootstrap_se,
    estimate_cell,
    event_study_weights,
    run_mldid,
    simulate,
)
from mldid.estimator import GroupTimeResult, _replicate_se, estimate_from_bundle
from mldid.exceptions import CellSkipped, DegenerateFold, MldidError

from _utils import make_panel, oracle_bundle, thin_cohort, two_period_dgp

FAST = EstimatorConfig(seed=0, learners=LearnerConfig(fixed_l1=0.02))


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
THIN_CELLS_CONFIG = EstimatorConfig(seed=1, learners=LearnerConfig(fixed_l1=0.01))
THIN_CELLS_MISSING = {(4, 1): 7, (4, 2): 6, (4, 4): 9}


@pytest.mark.slow
def test_bootstrap_counts_replicates_missing_a_cell():
    panel = thin_cohort(simulate(THIN_CELLS_PANEL).panel, 4, 4)
    boot = bootstrap_se(panel, THIN_CELLS_CONFIG, 50)
    assert boot.n_failed == 0
    assert {k: n for k, n in boot.cell_missing.items() if n} == THIN_CELLS_MISSING
    # theta(e) is missing where a replicate that drew cohort 4 lacks its
    # cell: one replicate drew no cohort-4 unit, so e = -2 and e = 0 miss
    # one replicate less than their cells; e = -3 has no cell at all there.
    assert {e: n for e, n in boot.dynamic_missing.items() if n} == {-3: 7, -2: 5, 0: 8}
    assert len(boot.cell_missing) == 9 and set(boot.dynamic_missing) == {-3, -2, 0, 1, 2}
    # A key has an SE only if at least 45 of 50 replicates supplied it:
    # theta(-2) keeps its SE with 5 missing, and (4, 2) loses it with 6.
    assert set(boot.cell_se) == {k for k, n in boot.cell_missing.items() if n <= 5}
    assert set(boot.dynamic_se) == {-2, 1, 2}
    # Every skip says why, and the messages add up to the counts.
    assert {k: sum(why.values()) for k, why in boot.cell_reasons.items()} == THIN_CELLS_MISSING
    assert "cell (g=4, t=4) skipped: no units in cohort g=4" in boot.cell_reasons[4, 4]


def test_cell_with_a_one_class_training_fold_is_skipped():
    # Cohort 4 keeps one unit, so the training set of its fold has no
    # cohort-4 unit and that fold's propensity cannot be fit.
    panel = thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 1)
    config = EstimatorConfig(seed=4, learners=LearnerConfig(fixed_l1=0.01))
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
    for c1, c2 in zip(serial.cells, parallel.cells):
        assert c1.att == c2.att
