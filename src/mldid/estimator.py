"""Per-cell effect estimation and event-study aggregation.

The driver walks every estimable (g, t) cell: cross-fitted nuisances, the
orthogonal decomposition, the penalized effect-function fit, balancing
weights, and the robust-score average. Cell estimates then aggregate into
event-study effects with cohort-share weights, and a unit-level clustered
bootstrap supplies standard errors.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .amle import build_function_class, estimate_sigma2, solve_amle
from .catt import fit_catt, predict_catt
from .exceptions import (
    BootstrapFailed,
    CellSkipped,
    EmptyControlGroup,
    EmptyTreatedGroup,
    MldidError,
    NoCellsForEventTime,
)
from .learners import make_fold_plan
from .nuisance import LearnerConfig, NuisanceBundle, compute_abch, estimate_nuisances
from .panel import PanelDataset, enumerate_cells, slice_two_period

# Namespacing constants for derived seeds; results must not depend on
# scheduling order, so every seed is a pure function of (master, purpose, ids).
_SEED_FOLDS = 101
_SEED_BOOT = 202
_SEED_REP = 303

# Fewest replicates whose standard deviation the bootstrap reports.
MIN_BOOTSTRAP_REPLICATES = 50


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings for a full estimation run."""

    n_folds: int = 5
    seed: int = 0
    learners: LearnerConfig = field(default_factory=LearnerConfig)
    catt_l1: float | None = None
    include_placebo: bool = True
    bootstrap: int = 0
    threads: int = 1


@dataclass(frozen=True)
class GroupTimeResult:
    """One cell's effect estimate with its per-unit components.

    ``tau_unit``/``score_unit`` cover every slice unit in slice order;
    ``g_flag`` marks cohort members. The reference cell (t = g-1) is a
    hard zero with empty arrays.
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


def estimate_from_bundle(bundle: NuisanceBundle, config: EstimatorConfig):
    """Effect fit, balancing weights and robust scores for a built bundle.

    Returns (att, row_scores, tau_row, gamma, catt_model, sigma2) per
    stacked row; exposed separately so properties can be checked with
    known nuisance values substituted for the fitted ones.
    """
    catt_model = fit_catt(bundle, l1=config.catt_l1, config=config.learners)
    tau_row = predict_catt(catt_model, bundle.X)
    sigma2 = estimate_sigma2(bundle, tau_row)
    problem = build_function_class(bundle, sigma2)
    gamma = solve_amle(problem)
    row_scores = tau_row + gamma * (bundle.H - bundle.C * tau_row)
    att = float(row_scores.mean())
    return att, row_scores, tau_row, gamma, catt_model, sigma2


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

    plan = make_fold_plan(
        sl.n_units, min(config.n_folds, sl.n_units),
        derive_seed(config.seed, _SEED_FOLDS, g, t),
    )
    bundle = compute_abch(estimate_nuisances(sl, plan, config.learners))
    att, row_scores, tau_row, gamma, catt_model, sigma2 = estimate_from_bundle(
        bundle, config
    )

    # A unit's score correction is the mean of its two stacked rows, so the
    # unit-score mean reproduces att.
    m = sl.n_units
    corr = gamma * (bundle.H - bundle.C * tau_row)
    tau_unit = predict_catt(catt_model, sl.X)
    score_unit = tau_unit + (corr[:m] + corr[m:]) / 2

    return GroupTimeResult(
        g=g,
        t=t,
        att=att,
        n_treated=sl.n_treated,
        n_control=sl.n_control,
        unit_ids=sl.unit_ids,
        g_flag=sl.g_flag,
        tau_unit=tau_unit,
        score_unit=score_unit,
        X_unit=sl.X,
        sigma2=sigma2,
        catt_l1=catt_model.l1,
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
    events = sorted({c.t - c.g for c in cells if not c.is_reference})
    out = []
    for e in events:
        weights = event_study_weights(group_sizes, e, n_periods)
        have = {g: w for g, w in weights.items() if (g, g + e) in by_key}
        if not have:
            raise NoCellsForEventTime(f"no estimated cells at event time {e}")
        total = sum(have.values())
        norm = {g: w / total for g, w in have.items()}
        theta = sum(w * by_key[(g, g + e)].att for g, w in norm.items())
        theta_tau = 0.0
        for g, w in norm.items():
            cell = by_key[(g, g + e)]
            treated = cell.g_flag == 1
            theta_tau += w * float(cell.tau_unit[treated].mean())
        out.append(
            DynamicEffect(
                e=e,
                theta=float(theta),
                theta_tau=float(theta_tau),
                weights=norm,
                missing_cohorts=tuple(sorted(set(weights) - set(have))),
            )
        )
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


def _cell_task(args):
    panel, g, t, config = args
    try:
        return g, t, estimate_cell(panel, g, t, config), None
    except MldidError as err:
        return g, t, None, str(err)


def run_mldid(panel: PanelDataset, config: EstimatorConfig | None = None) -> MldidRun:
    """Estimate every cell, aggregate, and assemble the per-unit panel.

    Skipped cells are recorded with their reason, never silently
    dropped; reference cells (t = g-1) appear as hard zeros.
    """
    config = config or EstimatorConfig()
    keys = enumerate_cells(panel, config.include_placebo)
    results: dict[tuple[int, int], GroupTimeResult] = {}
    skipped: list[tuple[int, int, str]] = []

    if config.threads > 1 and len(keys) > 1:
        tasks = [(panel, g, t, config) for g, t in keys]
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            outputs = list(pool.map(_cell_task, tasks))
    else:
        outputs = [_cell_task((panel, g, t, config)) for g, t in keys]
    for g, t, res, err in outputs:
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


def resample_panel(panel: PanelDataset, rng: np.random.Generator) -> PanelDataset:
    """Unit-level (clustered) resample with replacement, units renumbered."""
    m = panel.n_units
    idx = rng.integers(0, m, size=m)
    return PanelDataset(
        unit_ids=np.arange(m, dtype=object),
        groups=panel.groups[idx].copy(),
        n_periods=panel.n_periods,
        outcomes=panel.outcomes[idx].copy(),
        covariates=panel.covariates[idx].copy(),
        covariate_names=panel.covariate_names,
    )


@dataclass(frozen=True)
class BootstrapSE:
    """Replicate standard deviations of the cell atts and event-study thetas.

    ``n_failed`` counts replicates that failed as a whole. Per key,
    ``cell_missing`` and ``dynamic_missing`` count the other replicates
    that did not supply the value: a skipped cell, or an event time whose
    aggregate lacked one of its cohorts (and so averaged other cohorts). A
    key has an SE only if at least 90% of all replicates supplied it.
    """

    cell_se: dict[tuple[int, int], float]
    dynamic_se: dict[int, float]
    n_replicates: int
    n_failed: int
    cell_missing: dict[tuple[int, int], int] = field(default_factory=dict)
    dynamic_missing: dict[int, int] = field(default_factory=dict)


def _bootstrap_task(args):
    panel, config, b = args
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _SEED_BOOT, b])
    )
    rep_config = dataclasses.replace(config, bootstrap=0, threads=1)
    try:
        run = run_mldid(resample_panel(panel, rng), rep_config)
    except MldidError:
        return b, None, None
    cell_atts = {
        (c.g, c.t): c.att for c in run.cells if not c.is_reference
    }
    thetas = {d.e: d.theta for d in run.dynamics
              if not d.is_reference and not d.missing_cohorts}
    return b, cell_atts, thetas


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

    Each replicate re-runs the full estimation on a unit resample with a
    seed derived from (master seed, replicate); the SE is the replicate
    standard deviation. The run is invalid if more than 10% of
    replicates fail, and a cell or event time gets no SE if more than 10%
    of replicates did not supply it.
    """
    if n_replicates < MIN_BOOTSTRAP_REPLICATES:
        raise MldidError(
            f"bootstrap needs at least {MIN_BOOTSTRAP_REPLICATES} replicates")
    tasks = [(panel, config, b) for b in range(n_replicates)]
    outputs = []
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            outputs = list(pool.map(_bootstrap_task, tasks))
    else:
        outputs = [_bootstrap_task(t) for t in tasks]

    cell_values: dict[tuple[int, int], list[float]] = {}
    theta_values: dict[int, list[float]] = {}
    n_failed = 0
    for _, cell_atts, thetas in sorted(outputs, key=lambda o: o[0]):
        if cell_atts is None:
            n_failed += 1
            continue
        for key, val in cell_atts.items():
            cell_values.setdefault(key, []).append(val)
        for e, val in thetas.items():
            theta_values.setdefault(e, []).append(val)

    if n_replicates - n_failed < 0.9 * n_replicates:
        raise BootstrapFailed(
            f"{n_failed} of {n_replicates} bootstrap replicates failed"
        )
    keys = enumerate_cells(panel, config.include_placebo)
    n_ran = n_replicates - n_failed
    cell_se, cell_missing = _replicate_se(cell_values, keys, n_replicates, n_ran)
    dynamic_se, dynamic_missing = _replicate_se(
        theta_values, sorted({t - g for g, t in keys}), n_replicates, n_ran)
    return BootstrapSE(cell_se, dynamic_se, n_replicates, n_failed,
                       cell_missing, dynamic_missing)


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
