"""Per-cell effect estimation and event-study aggregation.

This module walks every estimable (g, t) cell. A cell is estimated on its
units' first differences: cross-fitted g(x) and nu(x) give B = G - g(x)
and dH = dY - nu(x) per unit (:mod:`mldid.nuisance`), the lasso of dH on
B[1, x] gives the effect function tau(x) (:mod:`mldid.catt`), and
balancing weights w on the features [1, x, G, x*G] (:mod:`mldid.amle`)
correct it: a unit's robust score is tau(x) + w (dH - B tau(x)) and the
cell's att is the mean score. Cell estimates then aggregate into
event-study effects with cohort-share weights. Standard errors come from
a multiplier bootstrap on the run's unit scores (:func:`multiplier_se`);
the unit-level clustered bootstrap that refits every replicate
(:func:`bootstrap_se`) is its reference.

The unit of work is a slice, not a cell. Cell (g, t) compares cohort g
with the units untreated through max(g - 1, t) at base period g - 1, so
every placebo cell (g, t < g - 1) has the units, x, group flag and y_pre
of the post cell (g, g); only y_t differs. Slice (g, s) is estimated once
for all its cells (g, t) with max(g, t) = s: it has one fold plan, seeded
by (g, s), one propensity Newton batch, one set of moment blocks, one
mu_t0 and one balancing system, and each cell adds only its mu_t, its
effect fit, its balancing solve and its scores. So a post cell's estimate
does not depend on whether placebo cells are estimated. A run's slices
also fit the doubly-robust baseline's propensity as one more member of
their Newton batch, and finish their cells' DR estimates in one pass
(:func:`drdid.estimate_slice_dr`).

A slice is estimated for a matrix of unit counts at once: each column is
one estimate, with the slice's units weighted by their counts and split
by the slice's own fold plan, so a unit's copies share its fold. The
bootstrap draws every replicate as a column of counts over the original
panel's units, and a run is the single all-ones column: both are one
driver (:func:`_collect`). Its columns are screened once
(:func:`_screen`, which :func:`estimate_cell` uses too): a column without
a unit of cohort g, or without a control of the slice, skips the slice's
cells with the CellSkipped that slicing its panel raises.

The engine is stage-major. Slices (for the bootstrap, parts of a slice's
columns) are estimated in groups of at most MAX_GROUP_ENTRIES (unit,
column) entries. A part's stages are one generator (:func:`_stages`),
and a group advances its parts together (:func:`_estimate_parts`): every
slice cross-fits its propensity and yields its outcome regressions, all
the group's regressions are one lasso batch, every cell then yields its
effect fits, and all of those are a second batch, before each cell forms
its balancing weights and scores. A column whose nuisance fits failed is
skipped by the effect fit (:func:`catt.catt_fits`) and keeps its error.
Every member of a lasso batch follows the iterates of its own solve, so a
slice's estimate does not depend on its group. ``--threads`` maps over
the groups, and the warnings of each cell are raised again with its
(g, t). The data are finite: a panel and a slice check that when they
are built (:mod:`mldid.panel`), so the engine carries no NaN guard.
"""

from __future__ import annotations

import contextlib
import dataclasses
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .amle import balancing_columns, sigma2_columns
from .catt import catt_fits, solve_catt
from .drdid import DrCellResult, estimate_slice_dr
from .exceptions import (
    BootstrapFailed,
    CellSkipped,
    EmptyControlGroup,
    EmptyTreatedGroup,
    MldidError,
    NoCellsForEventTime,
)
from .learners import check_fixed_l1, make_fold_plan
from .nuisance import NuisanceBundle, solve_regressions, start_nuisances
from .panel import (
    PanelDataset,
    TwoPeriodSlice,
    empty_control_error,
    empty_treated_error,
    enumerate_cells,
    slice_rows,
    slice_two_period,
)

# The benchmark's tracer (perfbench/tracing.py) wraps these names in this
# module, so they stay importable here although a cell now fits every count
# column from unit moments without them.
from .amle import build_function_class, estimate_sigma2, solve_amle  # noqa: F401
from .catt import fit_catt, predict_catt  # noqa: F401
from .nuisance import compute_abch, estimate_nuisances  # noqa: F401

# Namespacing constants for derived seeds; results must not depend on
# scheduling order, so every seed is a pure function of (master, purpose, ids).
_SEED_FOLDS = 101
_SEED_BOOT = 202
_SEED_REP = 303
_SEED_MULTIPLIER = 404

# Fewest replicates (or multiplier draws) whose standard deviation the
# bootstrap reports.
MIN_BOOTSTRAP_REPLICATES = 50

# Mammen's (1993) two-point multiplier weights: -(sqrt 5 - 1)/2 with
# probability (sqrt 5 + 1)/(2 sqrt 5), else (sqrt 5 + 1)/2; mean 0, variance 1.
_MAMMEN_LOW = -(np.sqrt(5.0) - 1.0) / 2.0
_MAMMEN_HIGH = (np.sqrt(5.0) + 1.0) / 2.0
_MAMMEN_P_LOW = (np.sqrt(5.0) + 1.0) / (2.0 * np.sqrt(5.0))

# Most (unit, draw) multiplier weights held at once.
MAX_MULTIPLIER_ENTRIES = 1 << 18

# Most (unit, count column) entries a group of cells holds through the
# stages; a bootstrap cell with more is estimated in parts of columns, at
# least one column each.
MAX_GROUP_ENTRIES = 1 << 14


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings for a full estimation run.

    ``fixed_l1`` pins the l1 penalty of every lasso fit, the outcome
    regressions and the effect function, instead of choosing it by inner
    cross-validation; the other learner settings are the constants of
    :mod:`mldid.learners`. ``threads`` > 1 maps groups of cells over that
    many worker processes; results do not depend on it.
    """

    n_folds: int = 5
    seed: int = 0
    fixed_l1: float | None = None
    include_placebo: bool = True
    threads: int = 1


@dataclass(frozen=True)
class GroupTimeResult:
    """One cell's effect estimate with its per-unit components.

    ``tau_unit``/``score_unit`` cover every slice unit in slice order;
    ``g_flag`` marks cohort members. ``sigma2`` is the noise bound of the
    balancing weights: 1.5 times the variance of the units' differenced
    partial residual dH = dY - nu(x), at least 1e-8. ``catt_l1`` is the l1
    of the effect fit. The reference cell (t = g-1) is a hard zero with
    empty arrays.
    """

    g: int
    t: int
    att: float
    n_treated: int
    n_control: int
    unit_ids: np.ndarray
    g_flag: np.ndarray
    tau_unit: np.ndarray
    score_unit: np.ndarray
    X_unit: np.ndarray
    is_reference: bool = False
    se: float | None = None
    sigma2: float | None = None
    catt_l1: float | None = None

    @property
    def e(self) -> int:
        return self.t - self.g


@dataclass(frozen=True)
class DynamicEffect:
    """Event-study aggregate at one event time."""

    e: int
    theta: float
    theta_tau: float
    weights: dict[int, float]
    se: float | None = None
    is_reference: bool = False
    missing_cohorts: tuple[int, ...] = ()


@dataclass(frozen=True)
class CattPanel:
    """Long-format per-unit effect panel for heterogeneity analysis."""

    unit_ids: np.ndarray
    g: np.ndarray
    e: np.ndarray
    tau: np.ndarray
    score: np.ndarray
    X: np.ndarray
    covariate_names: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return int(self.e.shape[0])


@dataclass(frozen=True)
class MldidRun:
    """Everything a full run produces.

    ``skipped`` lists the cells that could not be estimated, each with its
    reason. ``dr_cells`` is the doubly-robust baseline of every cell of
    ``cells``, estimated in the same pass (its propensity is a member of
    the slice's Newton batch); a cell whose baseline failed has att None
    there and is listed in ``dr_skipped`` with the reason.
    """

    cells: list[GroupTimeResult]
    dynamics: list[DynamicEffect]
    catt_panel: CattPanel | None
    skipped: list[tuple[int, int, str]]
    config: EstimatorConfig
    dr_cells: list[DrCellResult] = field(default_factory=list)
    dr_skipped: list[tuple[int, int, str]] = field(default_factory=list)

    def cell(self, g: int, t: int) -> GroupTimeResult:
        for c in self.cells:
            if c.g == g and c.t == t:
                return c
        raise KeyError((g, t))

    def dynamic(self, e: int) -> DynamicEffect:
        for d in self.dynamics:
            if d.e == e:
                return d
        raise KeyError(e)


@dataclass(frozen=True)
class _Columns:
    """Per count column of a cell: att, unit effects and scores, sigma2, tau l1.

    Arrays are (units, columns) or (columns,); ``errors[r]`` is the
    MldidError that stopped column r, or None, and a failed column's
    entries are NaN.
    """

    att: np.ndarray
    tau_unit: np.ndarray
    score_unit: np.ndarray
    sigma2: np.ndarray
    catt_l1: np.ndarray
    errors: list


def _scores(X, B, dH, counts, coef, l1, errors, balance) -> _Columns:
    """The balancing weights, robust unit scores and att of a cell's collected columns.

    ``balance(sigma2, idx)`` gives the balancing weights of columns ``idx``
    with noise bounds ``sigma2`` (:func:`amle.balancing_columns`). A unit's
    score is tau(x) + w (dH - B tau(x)), and the column's att is the
    count-weighted mean of the scores.
    """
    m, n_cols = counts.shape
    out = _Columns(np.full(n_cols, np.nan), np.full((m, n_cols), np.nan),
                   np.full((m, n_cols), np.nan), np.full(n_cols, np.nan),
                   np.full(n_cols, np.nan), errors)
    ok = np.flatnonzero([err is None for err in errors])
    if not ok.size:
        return out
    c, b, dh = _columns(ok, counts, B, dH)
    tau = coef[ok, 0] + X @ coef[ok, 1:].T
    sigma2 = sigma2_columns(dh, c)
    w = balance(sigma2, ok)
    score = tau + w * (dh - b * tau)
    out.att[ok] = (c * score).sum(axis=0) / c.sum(axis=0)
    out.tau_unit[:, ok], out.score_unit[:, ok] = tau, score
    out.sigma2[ok], out.catt_l1[ok] = sigma2, l1[ok]
    return out


def _columns(idx, *arrays):
    """The columns ``idx`` of each (units, columns) array, without a copy if all."""
    if all(idx.size == a.shape[1] for a in arrays):
        return arrays
    return tuple(a[:, idx] for a in arrays)


@dataclass
class _Part:
    """A slice's cells and count columns on their way through the stages.

    The slice (g, s) is cohort g against the units untreated through
    period s, at base period g - 1 (``panel.slice_rows``). It serves every
    cell (g, t) with max(g, t) = s: the post cell (g, s) and, for s = g,
    the placebo cells (g, t < g - 1), whose controls are the same units.
    ``periods`` are the cells' t, s first, and ``slices`` their
    TwoPeriodSlices, which share units, x, group flag and y_pre and differ
    in t and y_post. ``counts`` weights the slice's units, one column per
    estimate, and ``columns`` names those columns among the driver's count
    columns: a bootstrap replicate, or column 0, the all-ones column of a
    run. With ``full`` the all-ones column also fits the DR baseline's
    propensity on every unit, and ``dr`` then holds each cell's
    DrCellResult or the MldidError that stopped it. ``results`` holds each
    cell's final _Columns, ``error`` an MldidError that stopped the whole
    part, and ``caught`` per cell the (category, message) of every warning
    its steps raised; a step shared by the cells records its warnings for
    each of them.
    """

    g: int
    periods: tuple[int, ...]
    slices: list
    counts: np.ndarray
    columns: np.ndarray | None = None
    full: bool = False
    results: list = field(default_factory=list)
    dr: list = field(default_factory=list)
    error: MldidError | None = None
    caught: list = field(init=False)

    def __post_init__(self):
        self.caught = [[] for _ in self.periods]

    @contextlib.contextmanager
    def step(self, cells: list[int] | None = None):
        """Run one step of the ``cells`` (indices), or of every cell.

        The step's warnings are recorded for those cells, and an MldidError
        as the part's error.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            except MldidError as err:
                self.error = err
        for i in range(len(self.periods)) if cells is None else cells:
            self.caught[i] += [(w.category, str(w.message)) for w in caught]


def _slices(keys) -> list[tuple[int, tuple[int, ...]]]:
    """The slices of the cells ``keys``: (g, periods) each, in order of first cell.

    Cell (g, t) belongs to slice (g, max(g, t)); the periods start with
    that post period s, and the placebo periods follow in order.
    """
    by_slice: dict[tuple[int, int], set] = {}
    for g, t in keys:
        by_slice.setdefault((g, max(g, t)), set()).add(t)
    return [(g, (s, *sorted(ts - {s}))) for (g, s), ts in by_slice.items()]


def _sliced(panel: PanelDataset, counts, g: int, periods, columns, full: bool) -> _Part:
    """The part of slice (g, periods[0]) for ``columns`` of ``counts``.

    ``counts`` holds draw counts over the panel's units, and the columns
    passed :func:`_screen`, so the slice exists.
    """
    sl = slice_two_period(panel, g, periods[0])
    slices = [sl] + [dataclasses.replace(sl, t=t, y_post=panel.outcomes[sl.unit_rows, t - 1])
                     for t in periods[1:]]
    return _Part(g, tuple(periods), slices, counts[sl.unit_rows][:, columns], columns, full)


def _estimate_parts(parts: list[_Part], config: EstimatorConfig) -> list[_Part]:
    """Estimate a group of sliced parts stage by stage.

    Each part runs as the generator :func:`_stages`, and every round
    advances all parts still without an error by one step: the
    regressions they yield are solved as one lasso batch, then the effect
    fits they yield as a second batch, and the last round scores their
    cells. A batch member's result does not depend on the rest of the
    batch, so a part's estimate is the one of a group of its own. A part
    whose step raises an MldidError stops with it; the others go on.
    """
    stages = [_stages(part, config) for part in parts]

    def advance() -> list:
        fits = []
        for part, stage in zip(parts, stages):
            if part.error is None:
                with part.step():
                    fits += next(stage, [])
        return fits

    solve_regressions(advance())
    solve_catt(advance())
    advance()
    return parts


def _stages(part: _Part, config: EstimatorConfig):
    """The stages of one part, as a generator of its lasso batches.

    It cross-fits the slice's propensity (one Newton batch, shared by the
    cells, with the DR member if ``part.full``) and yields the outcome
    regressions: mu_t0 once, and mu_t per cell. Once they are solved it
    forms B and each cell's dH and yields the cells' effect fits, of the
    columns whose nuisances were fit. Once those are solved it forms the
    balancing systems once, for the columns that some cell fit, and each
    cell solves those of its own columns for its weights, scores and att.
    With ``part.full`` one DR pass over the cells whose all-ones column
    was estimated then gives their DR atts.
    """
    sl = part.slices[0]
    plan = _cell_plan(sl, config, part.g, part.periods[0])
    fits, finish = start_nuisances(part.slices, plan, part.counts, config.fixed_l1,
                                   full=part.full)
    yield fits
    nuis = finish()
    del finish  # drops the solved regressions before the next batch
    B = sl.g_flag[:, None] - nuis.g_hat
    fits, cells = [], []
    for j, cell in enumerate(part.slices):
        dH = (cell.y_post - sl.y_pre)[:, None] - nuis.nu_hat[j]
        cell_fits, collect = catt_fits(sl.X, B, dH, part.counts, config.fixed_l1,
                                       nuis.errors[j])
        fits += cell_fits
        cells.append((dH, collect))
    yield fits
    collected = [collect() for _, collect in cells]
    fitted = np.flatnonzero(np.any([[err is None for err in errors]
                                    for _, _, errors in collected], axis=0))
    solve = (balancing_columns(sl.X, sl.g_flag.astype(float), *_columns(fitted, part.counts))
             if fitted.size else None)

    def balance(sigma2, idx):
        return solve(sigma2, np.searchsorted(fitted, idx))

    for j, ((dH, _), (coef, l1, errors)) in enumerate(zip(cells, collected)):
        with part.step([j]):
            part.results.append(_scores(sl.X, B, dH, part.counts, coef, l1, errors, balance))
    if part.full and part.error is None:
        live = [j for j, (_, _, errors) in enumerate(collected) if errors[0] is None]
        with part.step(live):
            part.dr = _dr_cells(part.slices, live, nuis.propensity)


def _dr_cells(slices: list[TwoPeriodSlice], live: list[int], propensity) -> list:
    """The DR baseline of the cells ``live`` from their slice's full-sample propensity.

    One :func:`drdid.estimate_slice_dr` pass; a cell's entry is its
    DrCellResult or the MldidError that stopped it, None off ``live``.
    """
    dr = [None] * len(slices)
    if live:
        results = ([propensity] * len(live) if isinstance(propensity, MldidError)
                   else estimate_slice_dr([slices[j] for j in live], propensity))
        for j, result in zip(live, results):
            dr[j] = result
    return dr


def estimate_from_bundle(bundle: NuisanceBundle, config: EstimatorConfig):
    """Effect fit, balancing weights and robust scores for a built bundle.

    Returns (att, score_unit, tau_unit, sigma2) of the bundle's units;
    exposed separately so properties can be checked with known nuisance
    values substituted for the fitted ones.
    """
    counts, B, dH = np.ones((bundle.n_units, 1)), bundle.B[:, None], bundle.dH[:, None]
    fits, collect = catt_fits(bundle.X, B, dH, counts, config.fixed_l1)
    solve_catt(fits)
    solve = balancing_columns(bundle.X, bundle.g.astype(float), counts)
    cols = _scores(bundle.X, B, dH, counts, *collect(), solve)
    if cols.errors[0] is not None:
        raise cols.errors[0]
    return (float(cols.att[0]), cols.score_unit[:, 0], cols.tau_unit[:, 0],
            float(cols.sigma2[0]))


def _check_config(config: EstimatorConfig) -> None:
    """Reject settings on which every cell would fail, before estimating any."""
    if config.n_folds < 2:
        raise MldidError("need at least 2 folds")
    if config.threads < 1:
        raise MldidError(f"need at least 1 thread, got {config.threads}")
    check_fixed_l1(config.fixed_l1)


def _reference_result(panel: PanelDataset, g: int) -> GroupTimeResult:
    empty = np.empty(0)
    return GroupTimeResult(
        g=g,
        t=g - 1,
        att=0.0,
        n_treated=int(np.sum(panel.groups == g)),
        n_control=0,
        unit_ids=np.empty(0, dtype=object),
        g_flag=np.empty(0, dtype=np.int8),
        tau_unit=empty,
        score_unit=empty,
        X_unit=np.empty((0, len(panel.covariate_names))),
        is_reference=True,
    )


def _cell_plan(sl, config: EstimatorConfig, g: int, t: int):
    """The fold plan of cell (g, t): its slice's, seeded by (g, max(g, t)).

    So a placebo cell shares the plan of the post cell (g, g), whose units
    it has.
    """
    return make_fold_plan(
        sl.n_units, min(config.n_folds, sl.n_units),
        derive_seed(config.seed, _SEED_FOLDS, g, max(g, t)),
    )


def _cell_result(part: _Part, j: int) -> GroupTimeResult:
    """The result of cell j's all-ones column, which was estimated."""
    sl, cols = part.slices[j], part.results[j]
    return GroupTimeResult(
        g=part.g,
        t=sl.t,
        att=float(cols.att[0]),
        n_treated=sl.n_treated,
        n_control=sl.n_control,
        unit_ids=sl.unit_ids,
        g_flag=sl.g_flag,
        tau_unit=cols.tau_unit[:, 0],
        score_unit=cols.score_unit[:, 0],
        X_unit=sl.X,
        sigma2=float(cols.sigma2[0]),
        catt_l1=float(cols.catt_l1[0]),
    )


def estimate_cell(
    panel: PanelDataset, g: int, t: int, config: EstimatorConfig | None = None
) -> GroupTimeResult:
    """Estimate one group-time effect as a run does.

    A run estimates the cells of a slice together (see :class:`_Part`), so
    the cell is estimated with the other cells of its slice that
    ``config`` enumerates, as a group of its own, and its result is
    returned with its warnings. The reference cell t = g-1 returns a fixed
    zero. A cell without treated units or controls raises the run's
    CellSkipped (:func:`_screen`); other module errors propagate.
    """
    config = config or EstimatorConfig()
    _check_config(config)
    if t == g - 1:
        return _reference_result(panel, g)
    if not 1 <= t <= panel.n_periods:
        raise MldidError(f"t={t} outside 1..{panel.n_periods}")
    keys = [(h, u) for h, u in enumerate_cells(panel, config.include_placebo)
            if h == g and max(h, u) == max(g, t)]
    ones = np.ones((panel.n_units, 1))
    parts, _, skips = _screen(panel, [*keys, (g, t)], ones)
    if skips[g, t][0] is not None:
        raise skips[g, t][0]
    part, = _estimate_parts([_sliced(panel, ones, *parts[0], full=True)], config)
    j = part.periods.index(t)
    for category, message in part.caught[j]:
        warnings.warn(message, category, stacklevel=2)
    error = part.error or part.results[j].errors[0]
    if error is not None:
        raise error
    return _cell_result(part, j)


def event_study_weights(
    group_sizes: dict[int, int], e: int, n_periods: int
) -> dict[int, float]:
    """Cohort-share weights P(G=g | g+e inside the panel) at event time e."""
    eligible = {
        g: size
        for g, size in group_sizes.items()
        if 1 <= g + e <= n_periods and e != -1
    }
    total = sum(eligible.values())
    if total == 0:
        return {}
    return {g: size / total for g, size in eligible.items()}


def _event_thetas(atts: dict, group_sizes: dict[int, int], n_periods: int) -> dict:
    """theta(e), its weights and its missing cohorts at every event time of ``atts``.

    ``atts`` maps each estimated (g, t) to its att. Weights are cohort
    shares among the cohorts observable at event time e; when an eligible
    cohort's cell is missing, the remaining weights renormalize and the
    cohort is listed as missing.
    """
    out = {}
    for e in sorted({t - g for g, t in atts}):
        weights = event_study_weights(group_sizes, e, n_periods)
        have = {g: w for g, w in weights.items() if (g, g + e) in atts}
        if not have:
            raise NoCellsForEventTime(f"no estimated cells at event time {e}")
        total = sum(have.values())
        norm = {g: w / total for g, w in have.items()}
        theta = sum(w * atts[g, g + e] for g, w in norm.items())
        out[e] = float(theta), norm, tuple(sorted(set(weights) - set(have)))
    return out


def aggregate_event_study(
    cells: list[GroupTimeResult],
    group_sizes: dict[int, int],
    n_periods: int,
) -> list[DynamicEffect]:
    """Aggregate cell estimates into event-study effects.

    Weights are cohort shares among cohorts observable at event time e;
    when an eligible cohort's cell is missing (skipped), the remaining
    weights renormalize and the cohort is reported in
    ``missing_cohorts``.
    """
    by_key = {(c.g, c.t): c for c in cells if not c.is_reference}
    thetas = _event_thetas({k: c.att for k, c in by_key.items()}, group_sizes, n_periods)
    out = []
    for e, (theta, norm, missing) in thetas.items():
        theta_tau = 0.0
        for g, w in norm.items():
            cell = by_key[(g, g + e)]
            treated = cell.g_flag == 1
            theta_tau += w * float(cell.tau_unit[treated].mean())
        out.append(DynamicEffect(e=e, theta=theta, theta_tau=float(theta_tau),
                                 weights=norm, missing_cohorts=missing))
    return out


def _build_catt_panel(cells: list[GroupTimeResult], covariate_names) -> CattPanel | None:
    ids, gs, es, taus, scores, xs = [], [], [], [], [], []
    for cell in cells:
        if cell.is_reference:
            continue
        treated = cell.g_flag == 1
        if not treated.any():
            continue
        ids.append(cell.unit_ids[treated])
        gs.append(np.full(int(treated.sum()), cell.g))
        es.append(np.full(int(treated.sum()), cell.e))
        taus.append(cell.tau_unit[treated])
        scores.append(cell.score_unit[treated])
        xs.append(cell.X_unit[treated])
    if not ids:
        return None
    return CattPanel(
        unit_ids=np.concatenate(ids),
        g=np.concatenate(gs).astype(np.int64),
        e=np.concatenate(es).astype(np.int64),
        tau=np.concatenate(taus),
        score=np.concatenate(scores),
        X=np.vstack(xs),
        covariate_names=tuple(covariate_names),
    )


def _map_tasks(task, args: list, threads: int) -> list:
    """``task`` over ``args``, in a pool of ``threads`` processes if > 1.

    Each call runs with its warnings recorded and returns them with its
    result, so a worker's warnings are not lost; :func:`_reemit` raises
    them again in the caller. The CLI's benchmark maps its repetitions the
    same way.
    """
    if threads > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_recording, [(task, a) for a in args]))
    return [_recording((task, a)) for a in args]


def _recording(job):
    task, args = job
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = task(args)
    return result, [(w.category, str(w.message)) for w in caught]


def _reemit(prefix: str | None, caught, stacklevel: int = 3) -> None:
    """Warn again, once per distinct message, with ``prefix`` and its count.

    ``stacklevel`` counts frames from here, so the default 3 names the line
    that called the caller.
    """
    head = f"{prefix}: " if prefix else ""
    for (category, message), n in Counter(caught).items():
        times = f" ({n} times)" if n > 1 else ""
        warnings.warn(f"{head}{message}{times}", category, stacklevel=stacklevel)


def _groups(items: list, sizes: list[int], threads: int) -> list[list]:
    """Consecutive items in groups of at most MAX_GROUP_ENTRIES entries.

    An item is a part of a slice, whose size counts its (unit, column)
    entries once whatever its cells. An item larger than the cap is a group
    of its own. With ``threads`` > 1 a group holds at most 1/threads of all
    entries, so that every process of the pool gets a group.
    """
    cap = min(MAX_GROUP_ENTRIES, -(-sum(sizes) // max(threads, 1)))
    groups, total = [], 0
    for item, size in zip(items, sizes):
        if not groups or total + size > cap:
            groups.append([])
            total = 0
        groups[-1].append(item)
        total += size
    return groups


def _screen(panel: PanelDataset, keys, counts):
    """The parts of the cells ``keys`` for the count columns ``counts``, screened once.

    A column that drew no unit of cohort g, or no control of slice (g, s),
    has no slice: each cell of the slice gets, for that column, the
    CellSkipped that slicing its panel raises. A slice's other columns are
    split into parts of at most MAX_GROUP_ENTRIES (unit, column) entries,
    or one column each. Returns the parts (g, periods, columns), their
    sizes in entries, and per cell a list of every column's CellSkipped or
    None.
    """
    n_cols = counts.shape[1]
    skips = {key: [None] * n_cols for key in keys}
    parts, sizes = [], []
    for g, periods in _slices(keys):
        treated = counts[panel.groups == g].sum(axis=0) > 0
        try:
            rows = slice_rows(panel, g, periods[0])
            control = counts[rows[panel.groups[rows] != g]].sum(axis=0) > 0
        except (EmptyTreatedGroup, EmptyControlGroup):
            rows, control = None, np.zeros(n_cols, dtype=bool)
        live = treated & control
        for t in (t for t in periods if (g, t) in skips):
            no_control = CellSkipped(g, t, empty_control_error(g, t))
            no_treated = CellSkipped(g, t, empty_treated_error(g))
            for r in np.flatnonzero(~live):
                skips[g, t][r] = no_control if treated[r] else no_treated
        live = np.flatnonzero(live)
        if live.size:
            n_parts = -(-live.size * rows.size // MAX_GROUP_ENTRIES)
            for cols in np.array_split(live, min(n_parts, live.size)):
                parts.append((g, periods, cols))
                sizes.append(rows.size * cols.size)
    return parts, sizes, skips


def _task(args):
    """Each cell's columns, their atts and reasons, its result and warnings, of a group of parts.

    A column's reason is the message of the error that stopped it, or
    None. With ``full`` a cell whose all-ones column was estimated has as
    result its GroupTimeResult and DR result, a DrCellResult or the message
    of the error that stopped it; other cells have None.
    """
    panel, config, counts, items, full = args
    parts = _estimate_parts([_sliced(panel, counts, *item, full) for item in items], config)
    out = []
    for part in parts:
        for j, t in enumerate(part.periods):
            if part.error is not None:
                att, errors = np.full(part.columns.size, np.nan), [part.error] * part.columns.size
            else:
                att, errors = part.results[j].att, part.results[j].errors
            result = None
            if full and errors[0] is None:
                dr = part.dr[j]
                result = _cell_result(part, j), str(dr) if isinstance(dr, MldidError) else dr
            out.append(((part.g, t), part.columns, att,
                        [None if err is None else str(err) for err in errors], result,
                        part.caught[j]))
    return out


def _collect(panel: PanelDataset, config: EstimatorConfig, counts, keys, prefix: str,
             full: bool = False):
    """Every column's att of each cell ``keys`` and, where it has none, the reason.

    The one driver of the run and the bootstrap. Its columns are screened
    once (:func:`_screen`), the parts estimated in groups (:func:`_groups`)
    mapped over ``--threads``, and each cell's warnings raised again with
    ``prefix`` and its (g, t), at the line that called the caller. A
    column's estimate depends on its part only through rounding. Returns
    the atts and the reasons, each a dict by cell, and the results
    (:func:`_task`) by estimated cell, which only ``full`` gives.
    """
    parts, sizes, skips = _screen(panel, keys, counts)
    atts = {key: np.full(counts.shape[1], np.nan) for key in keys}
    reasons = {key: [None if err is None else str(err) for err in errs]
               for key, errs in skips.items()}
    results, caught, leftover = {}, {key: [] for key in keys}, []
    groups = _groups(parts, sizes, config.threads)
    outputs = _map_tasks(_task, [(panel, config, counts, group, full) for group in groups],
                         config.threads)
    for cells, group_caught in outputs:
        for key, cols, att, why, result, cell_caught in cells:
            if key not in atts:
                # A post cell that its slice's placebo cells need, not asked for.
                continue
            atts[key][cols] = att
            for r, reason in zip(cols, why):
                reasons[key][r] = reason
            if result is not None:
                results[key] = result
            caught[key] += cell_caught
        leftover += group_caught
    for (g, t), cell_caught in caught.items():
        _reemit(f"{prefix} (g={g}, t={t})", cell_caught, stacklevel=4)
    _reemit(None, leftover, stacklevel=4)
    return atts, reasons, results


def run_mldid(panel: PanelDataset, config: EstimatorConfig | None = None) -> MldidRun:
    """Estimate every cell, aggregate, and assemble the per-unit panel.

    The run is the all-ones column of the driver :func:`_collect`: the
    cells are estimated by slice (:func:`_slices`), the slices in groups
    (:func:`_groups`), each group stage by stage (:func:`_estimate_parts`);
    the DR baseline of every estimated cell comes from the same pass.
    Skipped cells are recorded with their reason, never silently dropped,
    and so are cells whose DR baseline failed; reference cells (t = g-1)
    appear as hard zeros. Warnings of a cell are raised again at the line
    that called this, prefixed with its (g, t). Settings on which every
    cell would fail (fewer than 2 folds, a lasso option no fit can use)
    raise MldidError up front.
    """
    config = config or EstimatorConfig()
    _check_config(config)
    keys = enumerate_cells(panel, config.include_placebo)
    _, reasons, estimated = _collect(panel, config, np.ones((panel.n_units, 1)), keys,
                                     "cell", full=True)
    skipped = [(g, t, why[0]) for (g, t), why in reasons.items() if why[0] is not None]
    dr = {key: dr_res for key, (_, dr_res) in estimated.items()}
    cells = [res for res, _ in estimated.values()]
    cells += [_reference_result(panel, g) for g in panel.cohorts]
    cells.sort(key=lambda c: (c.g, c.t))
    dr_cells, dr_skipped = [], []
    for c in cells:
        res = dr.get((c.g, c.t))
        if isinstance(res, str):
            dr_skipped.append((c.g, c.t, res))
            res = DrCellResult(c.g, c.t, None, c.n_treated, c.n_control)
        elif c.is_reference:
            res = DrCellResult(c.g, c.t, 0.0, c.n_treated, c.n_control)
        dr_cells.append(res)

    dynamics = aggregate_event_study(
        [c for c in cells if not c.is_reference], panel.group_sizes, panel.n_periods
    )
    dynamics.append(
        DynamicEffect(e=-1, theta=0.0, theta_tau=0.0, weights={}, is_reference=True)
    )
    dynamics.sort(key=lambda d: d.e)

    return MldidRun(
        cells=cells,
        dynamics=dynamics,
        catt_panel=_build_catt_panel(cells, panel.covariate_names),
        skipped=sorted(skipped),
        config=config,
        dr_cells=dr_cells,
        dr_skipped=dr_skipped,
    )


@dataclass(frozen=True)
class BootstrapSE:
    """Bootstrap standard deviations of the cell atts and event-study thetas.

    From :func:`bootstrap_se`, over ``n_replicates`` replicate refits:
    ``n_failed`` counts replicates that failed as a whole. Per key,
    ``cell_missing`` and ``dynamic_missing`` count the other replicates
    that did not supply the value: a skipped cell, or an event time whose
    aggregate lacked one of its cohorts (and so averaged other cohorts).
    ``cell_reasons`` counts, per cell, the messages of the replicates that
    skipped it. A key has an SE only if at least 90% of all replicates
    supplied it. From :func:`multiplier_se`, ``n_replicates`` multiplier
    draws, none of which fails or misses a key.
    """

    cell_se: dict[tuple[int, int], float]
    dynamic_se: dict[int, float]
    n_replicates: int
    n_failed: int
    cell_missing: dict[tuple[int, int], int] = field(default_factory=dict)
    dynamic_missing: dict[int, int] = field(default_factory=dict)
    cell_reasons: dict[tuple[int, int], dict[str, int]] = field(default_factory=dict)


def replicate_counts(n_units: int, seed: int, n_replicates: int) -> np.ndarray:
    """(units, replicates) draw counts of the clustered bootstrap.

    Replicate b draws ``n_units`` units with replacement from a generator
    seeded by (seed, _SEED_BOOT, b), so its column does not depend on how
    many replicates are drawn or in which order.
    """
    counts = np.empty((n_units, n_replicates), dtype=np.int64)
    for b in range(n_replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _SEED_BOOT, b]))
        counts[:, b] = np.bincount(rng.integers(0, n_units, size=n_units),
                                   minlength=n_units)
    return counts


def _replicate_se(values: dict, keys, n_replicates: int, n_ran: int):
    """SE and missing-replicate count of every key, by the 90% rule."""
    se, missing = {}, {}
    for key in keys:
        vals = values.get(key, [])
        missing[key] = n_ran - len(vals)
        if len(vals) >= max(2, 0.9 * n_replicates):
            se[key] = float(np.std(vals, ddof=1))
    return se, missing


def bootstrap_se(
    panel: PanelDataset, config: EstimatorConfig, n_replicates: int
) -> BootstrapSE:
    """Clustered nonparametric bootstrap over units.

    A replicate is a column of unit draw counts (:func:`replicate_counts`)
    on the original panel, and a cell is estimated once for all columns:
    each column is the estimate on the resampled panel, with a unit's
    copies in that unit's fold of the cell's slice. The columns go through
    the run's driver (:func:`_collect`), and ``--threads`` maps over its
    groups of parts. The SE is the replicate
    standard deviation. The run is invalid if more than 10% of replicates
    fail, and a cell or event time gets no SE if more than 10% of
    replicates did not supply it.
    """
    _check_config(config)
    if n_replicates < MIN_BOOTSTRAP_REPLICATES:
        raise MldidError(
            f"bootstrap needs at least {MIN_BOOTSTRAP_REPLICATES} replicates")
    counts = replicate_counts(panel.n_units, config.seed, n_replicates)
    keys = enumerate_cells(panel, config.include_placebo)
    atts, reasons, _ = _collect(panel, config, counts, keys, "bootstrap cell")
    sizes = {g: counts[panel.groups == g].sum(axis=0) for g in panel.cohorts}

    cell_values: dict[tuple[int, int], list[float]] = {}
    theta_values: dict[int, list[float]] = {}
    cell_reasons: dict[tuple[int, int], Counter] = {key: Counter() for key in keys}
    n_failed = 0
    for b in range(n_replicates):
        # The replicate's panel has the cohorts it drew, with their draw counts.
        group_sizes = {g: int(size[b]) for g, size in sizes.items() if size[b] > 0}
        cell_atts = {key: float(att[b]) for key, att in atts.items()
                     if reasons[key][b] is None}
        try:
            thetas = _event_thetas(cell_atts, group_sizes, panel.n_periods)
        except MldidError:
            n_failed += 1
            continue
        for key, val in cell_atts.items():
            cell_values.setdefault(key, []).append(val)
        for key in keys:
            if reasons[key][b] is not None:
                cell_reasons[key][reasons[key][b]] += 1
        for e, (theta, _, missing) in thetas.items():
            if not missing:
                theta_values.setdefault(e, []).append(theta)

    if n_replicates - n_failed < 0.9 * n_replicates:
        raise BootstrapFailed(
            f"{n_failed} of {n_replicates} bootstrap replicates failed"
        )
    n_ran = n_replicates - n_failed
    cell_se, cell_missing = _replicate_se(cell_values, keys, n_replicates, n_ran)
    dynamic_se, dynamic_missing = _replicate_se(
        theta_values, sorted({t - g for g, t in keys}), n_replicates, n_ran)
    return BootstrapSE(cell_se, dynamic_se, n_replicates, n_failed,
                       cell_missing, dynamic_missing,
                       {key: dict(why) for key, why in cell_reasons.items() if why})


def _multiplier_weights(n_units: int, seed: int, draws: range) -> np.ndarray:
    """(draws, units) Mammen weights of the multiplier bootstrap.

    Draw b comes from a generator seeded by (seed, _SEED_MULTIPLIER, b), so
    its weights do not depend on how many draws are made or in which chunk.
    """
    xi = np.empty((len(draws), n_units))
    for k, b in enumerate(draws):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _SEED_MULTIPLIER, b]))
        xi[k] = np.where(rng.random(n_units) < _MAMMEN_P_LOW, _MAMMEN_LOW, _MAMMEN_HIGH)
    return xi


def _multiplier_draws(panel: PanelDataset, run: MldidRun, n_draws: int, seed: int):
    """Every estimated cell's and event time's multiplier draws, as dicts of arrays.

    Draw b gives each panel unit one weight xi (:func:`_multiplier_weights`),
    shared by every cell the unit enters. A cell's draw is att + sum_i xi_i
    (score_i - att) / n over its slice's n units, and theta(e)'s draw
    weights the draws of the cells of the run's theta(e) by their cohorts'
    drawn sizes sum_{i in g} (1 + xi_i), as a replicate redraws them. The
    weights are drawn and applied in chunks of at most
    MAX_MULTIPLIER_ENTRIES, and each draw's sums run over its own row, so
    its bits do not depend on its chunk.
    """
    by_slice: dict[tuple[int, int], list] = {}
    for c in run.cells:
        if not c.is_reference:
            by_slice.setdefault((c.g, max(c.g, c.t)), []).append(
                ((c.g, c.t), c.att, c.score_unit - c.att))
    rows = {key: slice_rows(panel, *key) for key in by_slice}
    dynamics = [(d.e, sorted(d.weights)) for d in run.dynamics if not d.is_reference]
    cohorts = {g: np.flatnonzero(panel.groups == g) for _, gs in dynamics for g in gs}
    cell_draws = {key: np.empty(n_draws) for cells in by_slice.values() for key, *_ in cells}
    theta_draws = {e: np.empty(n_draws) for e, _ in dynamics}
    step = max(1, MAX_MULTIPLIER_ENTRIES // panel.n_units)
    for start in range(0, n_draws, step):
        draws = range(start, min(start + step, n_draws))
        chunk = slice(draws.start, draws.stop)
        xi = _multiplier_weights(panel.n_units, seed, draws)
        for key, cells in by_slice.items():
            # np.take keeps a draw's weights a contiguous row, which sum()
            # adds pairwise whatever the number of rows; xi[:, rows] would
            # be Fortran-ordered and summed in another order.
            xi_slice = np.take(xi, rows[key], axis=1)
            for cell, att, centred in cells:
                cell_draws[cell][chunk] = att + (xi_slice * centred).sum(axis=1) / centred.size
        sizes = {g: units.size + np.take(xi, units, axis=1).sum(axis=1)
                 for g, units in cohorts.items()}
        for e, gs in dynamics:
            total = sum(sizes[g] for g in gs)
            theta_draws[e][chunk] = sum(sizes[g] / total * cell_draws[g, g + e][chunk]
                                        for g in gs)
    return cell_draws, theta_draws


def multiplier_se(panel: PanelDataset, run: MldidRun, n_draws: int, seed: int) -> BootstrapSE:
    """Multiplier-bootstrap SEs of a run's cells and event times, without a refit.

    Each draw perturbs the run's unit scores with one Mammen (1993) weight
    per unit (Callaway & Sant'Anna 2021, section 4; see
    :func:`_multiplier_draws`), and an SE is the standard deviation of a
    key's ``n_draws`` draws (at least MIN_BOOTSTRAP_REPLICATES). Every
    estimated cell and event time of ``run`` gets one; a cell the run
    skipped gets none. ``panel`` is the panel ``run`` was estimated on.
    """
    if n_draws < MIN_BOOTSTRAP_REPLICATES:
        raise MldidError(f"bootstrap needs at least {MIN_BOOTSTRAP_REPLICATES} draws")
    cell_draws, theta_draws = _multiplier_draws(panel, run, n_draws, seed)
    return BootstrapSE({key: float(np.std(d, ddof=1)) for key, d in cell_draws.items()},
                       {e: float(np.std(d, ddof=1)) for e, d in theta_draws.items()},
                       n_draws, 0)


def attach_bootstrap_se(run: MldidRun, boot: BootstrapSE) -> MldidRun:
    cells = [
        dataclasses.replace(c, se=boot.cell_se.get((c.g, c.t)))
        if not c.is_reference
        else c
        for c in run.cells
    ]
    dynamics = [
        dataclasses.replace(d, se=boot.dynamic_se.get(d.e))
        if not d.is_reference
        else d
        for d in run.dynamics
    ]
    return dataclasses.replace(run, cells=cells, dynamics=dynamics)
