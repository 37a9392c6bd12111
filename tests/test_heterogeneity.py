import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import DgpConfig, EstimatorConfig, blp, clan, run_mldid, simulate
from mldid.cli import _heterogeneity_results
from mldid.exceptions import MldidError, RankDeficient, TooFewUnits
from mldid.report import write_blp_csv, write_clan_csv

from _heterogeneity_reference import clan_one, heterogeneity_results

NAMES = ("x_1", "x_2", "x_3")


def linear_target_panel(n_per_e=400, seed=0):
    rng = np.random.default_rng(seed)
    es, xs, vals = [], [], []
    for e in (0, 1, 2):
        X = rng.standard_normal((n_per_e, 3))
        es.append(np.full(n_per_e, e))
        xs.append(X)
        vals.append((e + 1.0) * X[:, 0])
    return np.concatenate(vals), np.concatenate(es), np.vstack(xs)


def test_per_event_exact_recovery_of_linear_target():
    vals, es, X = linear_target_panel()
    res = blp(vals, es, X, NAMES, mode="per-event")
    for e in (0, 1, 2):
        assert_allclose(res.coef("x_1", e).coef, e + 1.0, atol=1e-8)
        assert_allclose(res.coef("x_2", e).coef, 0.0, atol=1e-8)
        assert_allclose(res.coef("(intercept)", e).coef, 0.0, atol=1e-8)
    # An exact fit leaves residuals at rounding level: no t or p is reported.
    for c in res.coefficients:
        assert np.isnan(c.t) and np.isnan(c.p), c
        assert np.isfinite(c.coef) and np.isfinite(c.se)


def test_noisy_target_keeps_t_and_p():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, 3))
    vals = 2.0 * X[:, 0] + rng.standard_normal(300)
    res = blp(vals, np.zeros(300, dtype=int), X, NAMES, mode="per-event")
    design = np.column_stack([np.ones(300), X])
    beta = np.linalg.solve(design.T @ design, design.T @ vals)
    resid = vals - design @ beta
    bread = np.linalg.inv(design.T @ design)
    vcov = bread @ (design.T * resid**2) @ design @ bread * 300 / 296
    se = np.sqrt(np.diag(vcov))
    for j, name in enumerate(["(intercept)", *NAMES]):
        c = res.coef(name, 0)
        assert_allclose(c.coef, beta[j], rtol=1e-10)
        assert_allclose(c.se, se[j], rtol=1e-10)
        assert_allclose(c.t, beta[j] / se[j], rtol=1e-10)
        assert_allclose(c.p, math.erfc(abs(beta[j] / se[j]) / math.sqrt(2.0)),
                        rtol=1e-8, atol=1e-300)
    assert res.coef("x_1", 0).p < 1e-10


def test_constant_target():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 3))
    vals = np.full(100, 4.5)
    res = blp(vals, np.zeros(100, dtype=int), X, NAMES, mode="per-event")
    assert_allclose(res.coef("(intercept)", 0).coef, 4.5, atol=1e-10)
    for name in NAMES:
        assert_allclose(res.coef(name, 0).coef, 0.0, atol=1e-10)


def test_shift_moves_only_intercept():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((200, 3))
    vals = X[:, 0] + 0.3 * rng.standard_normal(200)
    es = np.zeros(200, dtype=int)
    base = blp(vals, es, X, NAMES, mode="per-event")
    shifted = blp(vals + 11.0, es, X, NAMES, mode="per-event")
    for name in NAMES:
        assert_allclose(shifted.coef(name, 0).coef, base.coef(name, 0).coef,
                        atol=1e-10)
    assert_allclose(shifted.coef("(intercept)", 0).coef,
                    base.coef("(intercept)", 0).coef + 11.0, atol=1e-10)


def test_pooled_mode_has_event_dummies():
    vals, es, X = linear_target_panel(seed=3)
    res = blp(vals, es, X, NAMES, mode="pooled")
    labels = {c.covariate for c in res.coefficients}
    assert {"e=1", "e=2"} <= labels
    assert "e=0" not in labels  # base level absorbed by the intercept
    assert all(c.e is None for c in res.coefficients)


def test_blp_robust_se_positive_and_significance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((500, 3))
    vals = 2.0 * X[:, 0] + rng.standard_normal(500)
    res = blp(vals, np.zeros(500, dtype=int), X, NAMES)
    c1 = res.coef("x_1", 0)
    assert c1.se > 0 and c1.p < 1e-10
    c2 = res.coef("x_2", 0)
    assert c2.p > 1e-4


def test_rank_deficient_names_columns():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 3))
    X[:, 2] = X[:, 0]
    with pytest.raises(RankDeficient) as err:
        blp(X[:, 0], np.zeros(50, dtype=int), X, NAMES)
    assert "x_3" in err.value.columns


def test_blp_too_few_rows():
    with pytest.raises(TooFewUnits):
        blp(np.zeros(3), np.zeros(3, dtype=int), np.zeros((3, 3)), NAMES)


# ---------------------------------------------------------------------------
# Classification analysis
# ---------------------------------------------------------------------------

def test_clan_detects_ranked_covariate():
    rng = np.random.default_rng(6)
    n = 2000
    X = rng.standard_normal((n, 3))
    vals = X[:, 0]  # ranking exactly by the first covariate
    res = clan(vals, X, np.arange(n), NAMES, n_bins=4)
    row = res.row("x_1")
    assert row.diff > 0 and row.ci_low > 0
    # Quartile-extreme gap of a standard normal: 2 * E[Z | Z > q3] ~ 2.54.
    assert abs(row.diff - 2.54) < 0.2
    row2 = res.row("x_2")
    assert row2.ci_low <= 0 <= row2.ci_high


def test_clan_constant_covariate():
    rng = np.random.default_rng(7)
    n = 400
    X = np.column_stack([rng.standard_normal(n), np.full(n, 2.0),
                         rng.standard_normal(n)])
    res = clan(X[:, 0], X, np.arange(n), NAMES, n_bins=4)
    row = res.row("x_2")
    assert row.diff == 0.0
    assert row.ci_low <= 0.0 <= row.ci_high


def test_clan_invariant_to_monotone_transform():
    rng = np.random.default_rng(8)
    n = 500
    X = rng.standard_normal((n, 3))
    vals = X[:, 0] + 0.5 * rng.standard_normal(n)
    a = clan(vals, X, np.arange(n), NAMES, n_bins=5)
    b = clan(np.exp(2.0 * vals) + 7.0, X, np.arange(n), NAMES, n_bins=5)
    for name in NAMES:
        assert_allclose(a.row(name).delta_low, b.row(name).delta_low,
                        atol=1e-12)
        assert_allclose(a.row(name).delta_high, b.row(name).delta_high,
                        atol=1e-12)


def test_clan_bins_near_equal_and_deterministic_ties():
    n = 41
    vals = np.zeros(n)  # all tied: ordering falls back to unit ids
    X = np.arange(n, dtype=float).reshape(-1, 1)
    res = clan(vals, X, np.arange(n), ("x_1",), n_bins=4)
    assert abs(res.bin_size_low - res.bin_size_high) <= 1
    # With ids as tie-break the low bin holds the smallest ids.
    assert res.row("x_1").delta_low == pytest.approx(np.arange(11).mean())


def test_clan_sign_flip():
    rng = np.random.default_rng(9)
    n = 600
    X = rng.standard_normal((n, 3))
    vals = X[:, 0]
    flipped = clan(vals, X, np.arange(n), NAMES, n_bins=4,
                   most_affected="lowest")
    assert flipped.row("x_1").diff < 0


def test_clan_too_few_units():
    with pytest.raises(TooFewUnits):
        clan(np.zeros(5), np.zeros((5, 1)), np.arange(5), ("x_1",), n_bins=4)


@pytest.mark.parametrize("n_bins", [1, 0, -1])
def test_clan_needs_two_bins(n_bins):
    # One bin would compare the units with themselves (diff exactly 0).
    rng = np.random.default_rng(0)
    with pytest.raises(MldidError, match="at least 2 bins"):
        clan(rng.normal(size=40), rng.normal(size=(40, 2)), np.arange(40),
             ("x_1", "x_2"), n_bins=n_bins)


# ---------------------------------------------------------------------------
# Shared designs against the per-target reference
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_catt():
    oracle = simulate(DgpConfig(n_units=400, assignment="logit-x123", seed=3))
    run = run_mldid(oracle.panel, EstimatorConfig(seed=1, fixed_l1=0.01))
    return run.catt_panel


def _table_bytes(tmp_path, name, blps, clans):
    write_blp_csv(tmp_path / f"{name}_blp.csv", blps)
    write_clan_csv(tmp_path / f"{name}_clan.csv", clans)
    return ((tmp_path / f"{name}_blp.csv").read_bytes(),
            (tmp_path / f"{name}_clan.csv").read_bytes())


def _assert_tables_match_reference(tmp_path, catt_panel, **kwargs):
    blps, clans, _ = _heterogeneity_results(catt_panel, 4, **kwargs)
    ref_blps, ref_clans = heterogeneity_results(catt_panel, 4, **kwargs)
    assert (_table_bytes(tmp_path, "new", blps, clans)
            == _table_bytes(tmp_path, "ref", ref_blps, ref_clans))


@pytest.mark.parametrize("most_affected", ["highest", "lowest"])
def test_tables_of_a_run_match_per_target_reference(tmp_path, run_catt, most_affected):
    oracle = np.where(run_catt.e >= 0, run_catt.X[:, 0] * (run_catt.e + 1.0), 0.0)
    _assert_tables_match_reference(tmp_path, run_catt, oracle_values=oracle,
                                   most_affected=most_affected)


def test_tied_effects_match_per_target_reference(tmp_path, run_catt):
    # A constant effect within each event time, as when every slope is
    # zero: CLAN orders the tied units by id, which the rows do not follow.
    order = np.random.default_rng(3).permutation(run_catt.n_rows)
    shuffled = dataclasses.replace(
        run_catt,
        **{f.name: getattr(run_catt, f.name)[order]
           for f in dataclasses.fields(run_catt) if f.name != "covariate_names"})
    tied = dataclasses.replace(shuffled, tau=shuffled.e + 1.0)
    assert not np.all(np.diff(tied.unit_ids[tied.e == 0].astype(int)) > 0)
    _assert_tables_match_reference(tmp_path, tied)


def test_rank_deficient_design_raises_as_per_target_reference(run_catt):
    X = run_catt.X.copy()
    X[:, 2] = 2.0 * X[:, 0]
    broken = dataclasses.replace(run_catt, X=X)
    with pytest.raises(RankDeficient) as new:
        _heterogeneity_results(broken, 4)
    with pytest.raises(RankDeficient) as ref:
        heterogeneity_results(broken, 4)
    assert str(new.value) == str(ref.value)
    assert new.value.columns == ref.value.columns == ["x_3"]


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0, 5.0, 4.0, 0.5, 7.0, 6.0],
    [1.0, -0.0, 2.0, 0.0, 4.0, 0.0, 7.0, -0.0],
    # NaNs sort last, and the ids order the three across the top bin's edge.
    [np.nan, np.nan, 2.0, 5.0, 4.0, 0.5, np.nan, 6.0],
    [1.0] * 8,
])
@pytest.mark.parametrize("most_affected", ["highest", "lowest"])
def test_clan_sort_matches_id_tiebreak_reference(values, most_affected):
    X = np.arange(16, dtype=float).reshape(8, 2) ** 2
    ids = np.array(["h", "c", "a", "g", "b", "f", "e", "d"], dtype=object)
    args = (np.array(values), X, ids, ("x_1", "x_2"))
    assert (clan(*args, n_bins=4, most_affected=most_affected)
            == clan_one(*args, n_bins=4, most_affected=most_affected))


def test_blp_of_several_targets_equals_each_target_alone():
    vals, es, X = linear_target_panel()
    noisy = vals + np.random.default_rng(2).standard_normal(vals.shape[0])
    for mode in ("per-event", "pooled"):
        both = blp([vals, noisy], es, X, NAMES, mode=mode, target=["a", "b"])
        # repr, not ==: the exact fit of ``vals`` has NaN t and p, and a
        # float's repr gives its bits back.
        assert repr(both) == repr([blp(vals, es, X, NAMES, mode=mode, target="a"),
                                   blp(noisy, es, X, NAMES, mode=mode, target="b")])
