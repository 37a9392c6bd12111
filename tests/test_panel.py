import dataclasses
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import (
    ColumnSchema,
    DgpConfig,
    NEVER_TREATED,
    enumerate_cells,
    load_panel,
    simulate,
    slice_two_period,
    write_panel_csv,
)
from mldid.exceptions import (
    EmptyControlGroup,
    EmptyTreatedGroup,
    GroupOne,
    MissingValue,
    MldidError,
    NonFiniteData,
    NonMonotoneTreatment,
    PanelValidationError,
    UnbalancedPanel,
)

from _utils import make_panel


def csv_bytes(rows, header="id,time,group,y,x_1"):
    return ("\n".join([header] + rows) + "\n").encode()


def minimal_rows(skip=None, group_override=None):
    rows = []
    groups = {"a": "2", "b": "3", "c": ""}
    for unit in ("a", "b", "c"):
        for t in range(1, 5):
            if skip and (unit, t) == skip:
                continue
            g = group_override(unit, t) if group_override else groups[unit]
            rows.append(f"{unit},{t},{g},{t + 0.5},{0.1 * t}")
    return rows


def test_load_minimal_panel():
    panel = load_panel(csv_bytes(minimal_rows()))
    assert panel.n_units == 3
    assert panel.n_periods == 4
    assert panel.cohorts == [2, 3]
    assert panel.groups[2] == NEVER_TREATED
    assert panel.covariate_names == ("x_1",)
    assert_allclose(panel.outcomes[0], [1.5, 2.5, 3.5, 4.5])


def test_group_one_rejected():
    rows = minimal_rows(group_override=lambda u, t: "1" if u == "a" else "3")
    with pytest.raises(GroupOne):
        load_panel(csv_bytes(rows))


def test_unbalanced_panel_rejected():
    with pytest.raises(UnbalancedPanel):
        load_panel(csv_bytes(minimal_rows(skip=("b", 3))))


@pytest.mark.parametrize("as_path", [False, True])
def test_time_coverage_names_periods_past_int64(as_path, tmp_path):
    # A time that does not fit in 64 bits is named exactly as read.
    text = b"id,time,group,y\na,1,0,1\na,18446744073709551615,0,2\n"
    source = tmp_path / "p.csv" if as_path else text
    if as_path:
        source.write_bytes(text)
    with pytest.raises(UnbalancedPanel, match=r"saw \[1, 18446744073709551615\]$"):
        load_panel(source)


def test_non_monotone_group_rejected():
    rows = minimal_rows(group_override=lambda u, t:
                        ("2" if t < 3 else "4") if u == "a" else "3")
    with pytest.raises(NonMonotoneTreatment):
        load_panel(csv_bytes(rows))


def test_missing_value_rejected():
    rows = minimal_rows()
    rows[2] = "a,3,2,,0.3"
    with pytest.raises(MissingValue) as err:
        load_panel(csv_bytes(rows))
    assert "unit a" in str(err.value)


def test_missing_column_rejected():
    with pytest.raises(PanelValidationError):
        load_panel(csv_bytes(minimal_rows(), header="id,time,cohort,y,x_1"))


def test_group_beyond_horizon_rejected():
    rows = minimal_rows(group_override=lambda u, t: "9" if u == "a" else "3")
    with pytest.raises(PanelValidationError):
        load_panel(csv_bytes(rows))


@pytest.mark.parametrize("short_row", ["b,2", "c,2,,1.0", "b,2,3,1.0"])
def test_short_row_is_too_few_fields(short_row):
    rows = minimal_rows()
    rows[5] = short_row  # line 7, after the header and five full rows
    with pytest.raises(PanelValidationError) as err:
        load_panel(csv_bytes(rows))
    assert type(err.value) is PanelValidationError
    assert str(err.value) == "line 7: too few fields"


@pytest.mark.parametrize("header,name", [
    ("id,time,group,y,x_1,x_1", "x_1"),
    ("id,time,group,y, x_1,x_1 ", "x_1"),
    ("id,time,time,group,y,x_1", "time"),
])
def test_repeated_column_name_rejected(header, name):
    rows = [r + ",0.5" for r in minimal_rows()]
    with pytest.raises(PanelValidationError) as err:
        load_panel(csv_bytes(rows, header=header))
    assert str(err.value) == f"duplicate column {name!r}"


def test_repeated_covariate_rejected(tmp_path):
    # A copy of x_1 would leave no lasso of any cell a unique solution.
    panel = simulate(DgpConfig(n_units=200, seed=5)).panel
    copy = dataclasses.replace(
        panel, covariates=np.concatenate([panel.covariates, panel.covariates[:, :, :1]], axis=2),
        covariate_names=panel.covariate_names + ("x_1_again",))
    path = tmp_path / "panel.csv"
    write_panel_csv(copy, path)
    with pytest.raises(PanelValidationError,
                       match="covariate 'x_1_again' equals covariate 'x_1' on every row"):
        load_panel(path)
    write_panel_csv(panel, path)
    assert load_panel(path).covariate_names == panel.covariate_names


def test_custom_delimiter():
    rows = [r.replace(",", ";") for r in minimal_rows()]
    text = "\n".join(["id;time;group;y;x_1"] + rows) + "\n"
    panel = load_panel(text.encode(), ColumnSchema(delimiter=";"))
    assert panel.n_units == 3


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    panel = make_panel(
        groups=[2, 3, 4, 0, 0],
        n_periods=4,
        outcomes=rng.standard_normal((5, 4)),
        covariates=rng.standard_normal((5, 4, 2)),
    )
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    loaded = load_panel(path)
    assert_allclose(loaded.outcomes, panel.outcomes)
    assert_allclose(loaded.covariates, panel.covariates)
    assert np.array_equal(loaded.groups, panel.groups)


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------

def four_group_panel(n_per=5, seed=0):
    rng = np.random.default_rng(seed)
    groups = np.repeat([2, 3, 4, 0], n_per)
    n = groups.shape[0]
    return make_panel(groups, 4, rng.standard_normal((n, 4)),
                      rng.standard_normal((n, 4, 2)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["outcomes", "covariates"])
def test_panel_rejects_non_finite_entries(name, value):
    # Checked where a panel is built, so no estimate meets a NaN.
    panel = four_group_panel()
    bad = getattr(panel, name).copy()
    bad[3, 1, ...] = value
    with pytest.raises(PanelValidationError, match=f"^{name} contain NaN or infinite"):
        dataclasses.replace(panel, **{name: bad})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["X", "y_pre", "y_post"])
def test_slice_rejects_non_finite_entries(name, value):
    sl = slice_two_period(four_group_panel(), 2, 3)
    bad = getattr(sl, name).copy()
    bad[2, ...] = value
    with pytest.raises(NonFiniteData, match=f"^{name} contains NaN or infinite"):
        dataclasses.replace(sl, **{name: bad})


def test_slice_2_3_controls_are_not_yet_treated():
    panel = four_group_panel()
    sl = slice_two_period(panel, 2, 3)
    assert sl.pre_period == 1
    treated_groups = panel.groups[sl.unit_rows[sl.g_flag == 1]]
    control_groups = panel.groups[sl.unit_rows[sl.g_flag == 0]]
    assert set(treated_groups) == {2}
    # Cohort 3 is treated by period 3 and must be excluded.
    assert set(control_groups) == {4, NEVER_TREATED}
    assert_allclose(sl.y_pre, panel.outcomes[sl.unit_rows, 0])
    assert_allclose(sl.y_post, panel.outcomes[sl.unit_rows, 2])
    # Covariates are the baseline-period values.
    assert_allclose(sl.X, panel.covariates[sl.unit_rows, 0, :])


def test_slice_2_2_first_post_cell():
    panel = four_group_panel()
    sl = slice_two_period(panel, 2, 2)
    control_groups = panel.groups[sl.unit_rows[sl.g_flag == 0]]
    assert set(control_groups) == {3, 4, NEVER_TREATED}


def test_slice_placebo_excludes_contaminated_baselines():
    # Cell (4, 2) uses periods (3, 2); cohorts 2 and 3 are treated by
    # period 3, so only never-treated units may serve as controls.
    panel = four_group_panel()
    sl = slice_two_period(panel, 4, 2)
    control_groups = panel.groups[sl.unit_rows[sl.g_flag == 0]]
    assert set(control_groups) == {NEVER_TREATED}


def test_slice_empty_control_group():
    rng = np.random.default_rng(1)
    groups = np.repeat([2, 3, 4], 4)
    panel = make_panel(groups, 4, rng.standard_normal((12, 4)))
    with pytest.raises(EmptyControlGroup):
        slice_two_period(panel, 2, 4)


def test_slice_empty_treated_group():
    panel = four_group_panel()
    with pytest.raises(EmptyTreatedGroup):
        # No cohort starting at period 3 in this panel.
        rng = np.random.default_rng(2)
        p2 = make_panel(np.repeat([2, 0], 4), 4, rng.standard_normal((8, 4)))
        slice_two_period(p2, 3, 3)


def test_slice_reference_cell_rejected():
    panel = four_group_panel()
    with pytest.raises(MldidError):
        slice_two_period(panel, 3, 2)


def test_slice_is_pure_function():
    panel = four_group_panel()
    a = slice_two_period(panel, 2, 3)
    b = slice_two_period(panel, 2, 3)
    assert np.array_equal(a.unit_rows, b.unit_rows)
    assert_allclose(a.y_pre, b.y_pre)
    assert_allclose(a.X, b.X)


def test_all_slices_disjoint_and_rule_conforming():
    panel = four_group_panel(n_per=7, seed=3)
    for g, t in enumerate_cells(panel, include_placebo=True):
        sl = slice_two_period(panel, g, t)
        tr = set(sl.unit_rows[sl.g_flag == 1])
        co = set(sl.unit_rows[sl.g_flag == 0])
        assert not (tr & co)
        horizon = max(g - 1, t)
        for row in co:
            grp = panel.groups[row]
            assert grp == NEVER_TREATED or grp > horizon
        for row in tr:
            assert panel.groups[row] == g


# ---------------------------------------------------------------------------
# Cell enumeration
# ---------------------------------------------------------------------------

def test_enumerate_cells_post_only():
    panel = four_group_panel()
    cells = enumerate_cells(panel)
    assert set(cells) == {(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)}
    # Sum over cohorts of (T - g + 1) post cells.
    assert len(cells) == sum(4 - g + 1 for g in (2, 3, 4))


def test_enumerate_cells_with_placebo():
    panel = four_group_panel()
    cells = enumerate_cells(panel, include_placebo=True)
    extra = set(cells) - set(enumerate_cells(panel))
    assert extra == {(3, 1), (4, 1), (4, 2)}
    assert all(t != g - 1 for g, t in cells)


def test_enumerate_cells_single_group():
    rng = np.random.default_rng(4)
    panel = make_panel([2] * 5 + [0] * 5, 2, rng.standard_normal((10, 2)))
    assert enumerate_cells(panel) == [(2, 2)]
