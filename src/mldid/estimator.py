"""Per-cell effect estimation and event-study aggregation.

This module walks every estimable (g, t) cell. A cell is estimated on its
units' first differences: cross-fitted g(x) and nu(x) give B = G - g(x)
and dH = dY - nu(x) per unit (:mod:`mldid.nuisance`), the lasso of dH on
B[1, x] gives the effect function tau(x) (:mod:`mldid.catt`), and
balancing weights w on the features [1, x, G, x*G] (:mod:`mldid.amle`)
correct it: a unit's robust score is tau(x) + w (dH - B tau(x)) and the
cell's att is the mean score. Cell estimates then aggregate into
event-study effects with cohort-share weights, and a unit-level clustered
bootstrap supplies standard errors.

A cell is estimated for a matrix of unit counts at once: each column is
one estimate, with the slice's units weighted by their counts. A run uses
the single all-ones column. The bootstrap draws every replicate as a
column of counts over the original panel's units and estimates each cell
once for all of them, with the cell's own fold plan, so a unit's copies
share its fold. ``--threads`` maps over cells in both.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .amle import balancing_columns, sigma2_columns
from .catt import fit_catt_columns
from .exceptions import (
    BootstrapFailed,
    CellSkipped,
    EmptyControlGroup,
    EmptyTreatedGroup,
    MldidError,
    NoCellsForEventTime,
)
from .learners import make_fold_plan
from .nuisance import LearnerConfig, NuisanceBundle, cross_fit_nuisances
from .panel import (
    PanelDataset,
    empty_control_error,
    empty_treated_error,
    enumerate_cells,
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

# Fewest replicates whose standard deviation the bootstrap reports.
MIN_BOOTSTRAP_REPLICATES = 50

# Most (unit, count column) entries a cell estimates in one pass; a
# bootstrap cell with more is estimated in chunks of columns, at least one
# column each.
MAX_CELL_ENTRIES = 1 << 14


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings for a full estimation run."""

    n_folds: int = 5
    seed: int = 0
    learners: LearnerConfig = field(default_factory=LearnerConfig)
    include_placebo: bool = True
    bootstrap: int = 0
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
    """Everything a full run produces."""

    cells: list[GroupTimeResult]
    dynamics: list[DynamicEffect]
    catt_panel: CattPanel | None
    skipped: list[tuple[int, int, str]]
    config: EstimatorConfig

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


def _effect_columns(X, g, B, dH, counts, config: EstimatorConfig, errors=None) -> _Columns:
    """Effect fit, balancing weights and robust unit scores of every count column.

    The inputs are per unit and column (``X`` and ``g`` per unit): B = G -
    g_hat and dH = dY - nu_hat. Columns with an entry in ``errors`` have
    failed already and are skipped. A unit's score is tau(x) + w (dH -
    B tau(x)), and the column's att is the count-weighted mean of the
    scores.
    """
    m, n_cols = counts.shape
    out = _Columns(np.full(n_cols, np.nan), np.full((m, n_cols), np.nan),
                   np.full((m, n_cols), np.nan), np.full(n_cols, np.nan),
                   np.full(n_cols, np.nan), list(errors or [None] * n_cols))
    live = np.flatnonzero([err is None for err in out.errors])
    if not live.size:
        return out
    counts, B, dH = _columns(live, counts, B, dH)
    coef, l1, fit_errors = fit_catt_columns(X, B, dH, counts, config=config.learners)
    for r, err in zip(live, fit_errors):
        out.errors[r] = err
    fit = np.flatnonzero([err is None for err in fit_errors])
    ok = live[fit]
    if not ok.size:
        return out
    c, B, dH = _columns(fit, counts, B, dH)
    tau = coef[fit, 0] + X @ coef[fit, 1:].T
    sigma2 = sigma2_columns(dH, c)
    w = balancing_columns(X, g.astype(float), c, sigma2)
    score = tau + w * (dH - B * tau)
    out.att[ok] = (c * score).sum(axis=0) / c.sum(axis=0)
    out.tau_unit[:, ok], out.score_unit[:, ok] = tau, score
    out.sigma2[ok], out.catt_l1[ok] = sigma2, l1[fit]
    return out


def _columns(idx, *arrays):
    """The columns ``idx`` of each (units, columns) array, without a copy if all."""
    if all(idx.size == a.shape[1] for a in arrays):
        return arrays
    return tuple(a[:, idx] for a in arrays)


def _cell_columns(sl, plan, config: EstimatorConfig, counts) -> _Columns:
    """Estimate a slice for every count column: cross-fit nuisances, then effects.

    Column r weights the slice's units by ``counts[:, r]`` and shares the
    fold plan, so it is the estimate on a resampled slice whose copies of a
    unit sit in that unit's fold.
    """
    nuis = cross_fit_nuisances(sl, plan, config.learners, counts)
    # A non-finite value of a unit that a column did not draw must not reach
    # its sums; one of a drawn unit has failed the column's nuisance fits.
    X, y_pre, y_post = (np.where(np.isfinite(a), a, 0.0) for a in (sl.X, sl.y_pre, sl.y_post))
    B = sl.g_flag[:, None] - nuis.g_hat
    dH = (y_post - y_pre)[:, None] - nuis.nu_hat
    return _effect_columns(X, sl.g_flag, B, dH, counts, config, nuis.errors)


def estimate_from_bundle(bundle: NuisanceBundle, config: EstimatorConfig):
    """Effect fit, balancing weights and robust scores for a built bundle.

    Returns (att, score_unit, tau_unit, sigma2) of the bundle's units;
    exposed separately so properties can be checked with known nuisance
    values substituted for the fitted ones.
    """
    cols = _effect_columns(bundle.X, bundle.g, bundle.B[:, None], bundle.dH[:, None],
                           np.ones((bundle.n_units, 1)), config)
    if cols.errors[0] is not None:
        raise cols.errors[0]
    return (float(cols.att[0]), cols.score_unit[:, 0], cols.tau_unit[:, 0],
            float(cols.sigma2[0]))


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
    return make_fold_plan(
        sl.n_units, min(config.n_folds, sl.n_units),
        derive_seed(config.seed, _SEED_FOLDS, g, t),
    )


def estimate_cell(
    panel: PanelDataset, g: int, t: int, config: EstimatorConfig | None = None
) -> GroupTimeResult:
    """Estimate one group-time effect.

    The reference cell t = g-1 returns a fixed zero. Slice construction
    failures are wrapped as CellSkipped with the (g, t) context; other
    module errors propagate.
    """
    config = config or EstimatorConfig()
    if t == g - 1:
        return _reference_result(panel, g)
    try:
        sl = slice_two_period(panel, g, t)
    except (EmptyControlGroup, EmptyTreatedGroup) as err:
        raise CellSkipped(g, t, err) from err

    cols = _cell_columns(sl, _cell_plan(sl, config, g, t), config,
                         np.ones((sl.n_units, 1)))
    if cols.errors[0] is not None:
        raise cols.errors[0]
    return GroupTimeResult(
        g=g,
        t=t,
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


def _map_cells(task, args: list, threads: int) -> list:
    """``task`` over per-cell arguments, in a pool of ``threads`` processes if > 1.

    The CLI's benchmark maps its repetitions the same way. Each call runs with its warnings recorded and returns them with its
    result, so a worker's warnings are not lost; :func:`_reemit` raises
    them again in the caller.
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


def _reemit(prefix: str, caught) -> None:
    """Warn again, once per distinct message, with ``prefix`` and its count."""
    for (category, message), n in Counter(caught).items():
        times = f" ({n} times)" if n > 1 else ""
        warnings.warn(f"{prefix}: {message}{times}", category, stacklevel=3)


def _cell_task(args):
    panel, g, t, config = args
    try:
        return g, t, estimate_cell(panel, g, t, config), None
    except MldidError as err:
        return g, t, None, str(err)


def run_mldid(panel: PanelDataset, config: EstimatorConfig | None = None) -> MldidRun:
    """Estimate every cell, aggregate, and assemble the per-unit panel.

    Skipped cells are recorded with their reason, never silently
    dropped; reference cells (t = g-1) appear as hard zeros. Warnings of a
    cell are raised again here, prefixed with its (g, t).
    """
    config = config or EstimatorConfig()
    keys = enumerate_cells(panel, config.include_placebo)
    results: dict[tuple[int, int], GroupTimeResult] = {}
    skipped: list[tuple[int, int, str]] = []

    outputs = _map_cells(_cell_task, [(panel, g, t, config) for g, t in keys],
                         config.threads)
    for (g, t, res, err), caught in outputs:
        _reemit(f"cell (g={g}, t={t})", caught)
        if res is None:
            skipped.append((g, t, err))
        else:
            results[(g, t)] = res

    cells = [results[k] for k in sorted(results)]
    for g in panel.cohorts:
        cells.append(_reference_result(panel, g))
    cells.sort(key=lambda c: (c.g, c.t))

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
        skipped=skipped,
        config=config,
    )


@dataclass(frozen=True)
class BootstrapSE:
    """Replicate standard deviations of the cell atts and event-study thetas.

    ``n_failed`` counts replicates that failed as a whole. Per key,
    ``cell_missing`` and ``dynamic_missing`` count the other replicates
    that did not supply the value: a skipped cell, or an event time whose
    aggregate lacked one of its cohorts (and so averaged other cohorts).
    ``cell_reasons`` counts, per cell, the messages of the replicates that
    skipped it. A key has an SE only if at least 90% of all replicates
    supplied it.
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


def _bootstrap_task(args):
    """Every replicate's att of one cell and, where it has none, the reason."""
    panel, g, t, config, counts = args
    n_cols = counts.shape[1]
    att = np.full(n_cols, np.nan)
    # A replicate that drew no unit of cohort g, or no control, has no slice;
    # its reason is what slicing its panel raises.
    treated = counts[panel.groups == g].sum(axis=0) > 0
    try:
        sl = slice_two_period(panel, g, t)
        control = counts[sl.unit_rows[sl.g_flag == 0]].sum(axis=0) > 0
    except EmptyControlGroup:
        sl, control = None, np.zeros(n_cols, dtype=bool)
    live = np.flatnonzero(treated & control)
    reasons: list[str | None] = [None] * n_cols
    for r in np.flatnonzero(~(treated & control)):
        cause = empty_control_error(g, t) if treated[r] else empty_treated_error(g)
        reasons[r] = str(CellSkipped(g, t, cause))
    if live.size:
        plan, sub = _cell_plan(sl, config, g, t), counts[sl.unit_rows]
        # Chunks of columns bound the (units, columns) arrays and batches;
        # a column's estimate depends on its chunk only through rounding.
        n_chunks = -(-live.size * sl.n_units // MAX_CELL_ENTRIES)
        for part in np.array_split(live, min(n_chunks, live.size)):
            cols = _cell_columns(sl, plan, config, sub[:, part])
            att[part] = cols.att
            for r, err in zip(part, cols.errors):
                reasons[r] = None if err is None else str(err)
    return att, reasons


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
    copies in that unit's fold of the cell. ``--threads`` maps over the
    cells. The SE is the replicate standard deviation. The run is invalid
    if more than 10% of replicates fail, and a cell or event time gets no
    SE if more than 10% of replicates did not supply it.
    """
    if n_replicates < MIN_BOOTSTRAP_REPLICATES:
        raise MldidError(
            f"bootstrap needs at least {MIN_BOOTSTRAP_REPLICATES} replicates")
    counts = replicate_counts(panel.n_units, config.seed, n_replicates)
    keys = enumerate_cells(panel, config.include_placebo)
    outputs = _map_cells(_bootstrap_task, [(panel, g, t, config, counts) for g, t in keys],
                         config.threads)
    atts, reasons = {}, {}
    for (g, t), ((att, why), caught) in zip(keys, outputs):
        _reemit(f"bootstrap cell (g={g}, t={t})", caught)
        atts[g, t], reasons[g, t] = att, why
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
