"""The bootstrap's count columns against one run per resampled panel."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import DgpConfig, EstimatorConfig, bootstrap_se, multiplier_se, run_mldid, simulate
from mldid.amle import balancing_columns, build_function_class, solve_amle
from mldid import estimator
from mldid.estimator import (
    _cell_plan,
    _collect,
    _estimate_parts,
    _multiplier_draws,
    _multiplier_weights,
    _Part,
    replicate_counts,
)
from mldid.exceptions import IllConditionedWarning, MldidError
from mldid.panel import enumerate_cells, slice_two_period

from _bootstrap_reference import reference_missing, reference_replicate
from _utils import oracle_bundle, regression_fits, thin_cohort, two_period_dgp

FIXED = EstimatorConfig(seed=4, fixed_l1=0.01)


def _cell_replicates(panel, g, t, config, counts):
    """Every replicate's att of one cell and, where it has none, the reason."""
    atts, reasons, _ = _collect(panel, config, counts, [(g, t)], "bootstrap cell")
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
        fits = regression_fits(sl.X, sl.y_pre, sl.y_post, plan, c, config.fixed_l1)
        for r in range(c.shape[1]):
            alone = _cell_columns(sl, config, c[:, [r]])
            assert batch.errors[r] is None and alone.errors[0] is None
            assert abs(alone.att[0] - batch.att[r]) <= 1e-12
            # The same grid point (neighbouring points differ by a factor of
            # about 1.8); the grids agree to rounding.
            assert alone.catt_l1[0] == pytest.approx(batch.catt_l1[r], rel=1e-9, abs=0)
            own = regression_fits(sl.X, sl.y_pre, sl.y_post, plan, c[:, [r]],
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


def test_multiplier_weights_are_mammens():
    xi = _multiplier_weights(20_000, 3, range(2))
    assert set(np.unique(xi)) == {-(5**0.5 - 1) / 2, (5**0.5 + 1) / 2}
    assert abs(xi.mean()) < 0.02 and abs(xi.var() - 1.0) < 0.02
    # A draw's weights depend on its index only.
    assert np.array_equal(_multiplier_weights(20_000, 3, range(1, 2))[0], xi[1])


def test_multiplier_draws_do_not_depend_on_their_number_or_chunks(monkeypatch):
    panel = simulate(DgpConfig(n_units=300, seed=8)).panel
    run = run_mldid(panel, FIXED)
    cells, thetas = _multiplier_draws(panel, run, 100, 7)
    se = multiplier_se(panel, run, 50, 7)
    assert se.cell_se == {key: float(np.std(d[:50], ddof=1)) for key, d in cells.items()}
    assert se.dynamic_se == {e: float(np.std(d[:50], ddof=1)) for e, d in thetas.items()}
    assert multiplier_se(panel, run, 50, 7) == se
    # Chunks of one draw, then of seven, give the same bits.
    for entries in (1, 7 * panel.n_units):
        monkeypatch.setattr(estimator, "MAX_MULTIPLIER_ENTRIES", entries)
        assert multiplier_se(panel, run, 50, 7) == se
    assert se.n_replicates == 50 and se.n_failed == 0
    assert multiplier_se(panel, run, 50, 8) != se
    with pytest.raises(MldidError, match="at least 50 draws"):
        multiplier_se(panel, run, 49, 7)


@pytest.mark.slow
@pytest.mark.parametrize("assignment", ["random", "logit-x123"])
def test_multiplier_se_agrees_with_replicates(assignment):
    panel = simulate(DgpConfig(n_units=600, assignment=assignment, seed=5)).panel
    config = EstimatorConfig(seed=3, fixed_l1=0.01)
    mult = multiplier_se(panel, run_mldid(panel, config), 999, config.seed)
    boot = bootstrap_se(panel, config, 200)
    assert mult.cell_se.keys() == boot.cell_se.keys()
    assert mult.dynamic_se.keys() == boot.dynamic_se.keys()
    for key, se in [*boot.cell_se.items(), *boot.dynamic_se.items()]:
        got = mult.cell_se[key] if isinstance(key, tuple) else mult.dynamic_se[key]
        assert 0.8 <= got / se <= 1.25, (key, got, se)


def test_skipped_cell_gets_no_multiplier_se():
    # Cohort 4 keeps one unit, so the run skips its cells; the event times
    # average the other cohorts, as the run's thetas do.
    small = thin_cohort(simulate(DgpConfig(n_units=150, seed=2)).panel, 4, 1)
    run = run_mldid(small, FIXED)
    assert {(g, t) for g, t, _ in run.skipped} == {(4, 1), (4, 2), (4, 4)}
    se = multiplier_se(small, run, 50, FIXED.seed)
    assert se.cell_se.keys() == {(c.g, c.t) for c in run.cells if not c.is_reference}
    assert se.dynamic_se.keys() == {d.e for d in run.dynamics if not d.is_reference}
    assert all(np.isfinite(v) and v > 0 for v in [*se.cell_se.values(),
                                                 *se.dynamic_se.values()])
