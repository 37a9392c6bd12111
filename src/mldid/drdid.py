"""Doubly-robust DiD baseline evaluated on the same two-period cells.

Combines an outcome-change regression on controls with normalized
inverse-propensity-odds weighting of the control outcome changes, the
standard panel doubly-robust construction (Sant'Anna & Zhao 2020).

The unit of work is a slice: cells (g, t) that share their units, x,
group flag and y_pre, and differ only in y_post, as the post cell (g, g)
and its placebo cells do. :func:`estimate_slice_dr` forms what they share
once: the propensity (fitted unless passed), the controls' standardized
design and its Gram matrix (``learners.ridge_fits``) and the odds
weights. Each cell then adds only its own one-response operations: the
outcome regression's mean, matrix-vector product and closed-form solve,
its predictions and its att. So a cell's estimate has the bits it has
alone and does not depend on the other cells of the slice. A run
(``estimator.run_mldid``) fits each slice's propensity as one more member
of the slice's Newton batch and passes it in; :func:`estimate_cell_dr` is
the one-cell case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyControlGroup, KeyMismatch, MldidError, NoOverlap
from .learners import DEFAULT_CLIP, DEFAULT_L2, fit_probability, ridge_fits
from .panel import TwoPeriodSlice

# The benchmark's tracer (perfbench/tracing.py) wraps this name in this
# module, so it stays importable here, though the outcome fits go
# through ``ridge_fits``.
from .learners import fit_penalized_ls  # noqa: F401


@dataclass(frozen=True)
class DrCellResult:
    """A cell's DR estimate; ``att_dr`` is None where a run's baseline failed."""

    g: int
    t: int
    att_dr: float | None
    n_treated: int
    n_control: int
    se: float | None = None

    @property
    def e(self) -> int:
        return self.t - self.g


def estimate_slice_dr(
    slices: list[TwoPeriodSlice],
    propensity: np.ndarray | None = None,
    outcome_changes: list[np.ndarray] | None = None,
) -> list[DrCellResult | MldidError]:
    """Doubly-robust effects of cells that share their units.

    ``slices`` are the cells' TwoPeriodSlices, which share units, x, group
    flag and y_pre (a post cell and its placebo cells do). With
    dY = Y_post - Y_pre, fitted propensity p(x) and control
    outcome-change regression mu(x) = E[dY | X, G=0], each cell's

        att = mean_{G=1}(dY - mu) - sum_{G=0} w * (dY - mu),

    where w is proportional to the odds p/(1-p), with p clipped to
    [DEFAULT_CLIP, 1 - DEFAULT_CLIP], and normalized to one over controls.
    Both fits use the ridge DEFAULT_L2. ``propensity`` (one per slice) and
    ``outcome_changes`` (one per cell) accept precomputed per-unit values
    so either nuisance can be swapped for an oracle. Returns per cell its
    DrCellResult, or the MldidError that stopped it: the same one, in the
    same order of checks, as the cell estimated alone.
    """
    sl = slices[0]
    treated = np.flatnonzero(sl.g_flag == 1)
    control = np.flatnonzero(sl.g_flag != 1)
    if not control.size:
        return [EmptyControlGroup(f"cell (g={cell.g}, t={cell.t}) has no controls")
                for cell in slices]
    try:
        if propensity is None:
            model_p = fit_probability(sl.X, sl.g_flag.astype(np.int64))
            propensity = model_p.predict_proba(sl.X)[:, 1]
        fit_mu = ridge_fits(sl.X[control], DEFAULT_L2) if outcome_changes is None else None
    except MldidError as err:
        return [err] * len(slices)
    p_hat = np.clip(np.asarray(propensity, float)[control], DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)
    odds = p_hat / (1.0 - p_hat)
    at_bounds = (p_hat <= DEFAULT_CLIP) | (p_hat >= 1.0 - DEFAULT_CLIP)
    w = None if at_bounds.all() else odds / odds.sum()

    results: list[DrCellResult | MldidError] = []
    for j, cell in enumerate(slices):
        dy = cell.y_post - cell.y_pre
        try:
            if fit_mu is None:
                mu_hat = np.asarray(outcome_changes[j], float)
            else:
                mu_hat = fit_mu(dy[control]).predict(sl.X)
            if w is None:
                raise NoOverlap(
                    f"cell (g={cell.g}, t={cell.t}): every control propensity sits "
                    f"at the clip bounds"
                )
        except MldidError as err:
            results.append(err)
            continue
        resid = dy - mu_hat
        att = float(resid[treated].mean() - w @ resid[control])
        results.append(DrCellResult(g=cell.g, t=cell.t, att_dr=att,
                                    n_treated=treated.size, n_control=control.size))
    return results


def estimate_cell_dr(
    sl: TwoPeriodSlice,
    propensity: np.ndarray | None = None,
    outcome_change: np.ndarray | None = None,
) -> DrCellResult:
    """Doubly-robust effect for one cell: :func:`estimate_slice_dr` of it alone.

    Raises the MldidError that stops it.
    """
    result, = estimate_slice_dr(
        [sl], propensity, None if outcome_change is None else [outcome_change])
    if isinstance(result, MldidError):
        raise result
    return result


@dataclass(frozen=True)
class RmseRow:
    g: int
    t: int
    rmse_ml: float
    rmse_dr: float
    bias_ml: float
    bias_dr: float
    n_reps: int


def compare_rmse(
    ml_cells: dict[tuple[int, int], np.ndarray],
    dr_cells: dict[tuple[int, int], np.ndarray],
    oracle_cells: dict[tuple[int, int], np.ndarray],
) -> list[RmseRow]:
    """Per-cell RMSE of both estimators against the oracle across reps."""
    keys = set(oracle_cells)
    if set(ml_cells) != keys or set(dr_cells) != keys:
        raise KeyMismatch(
            f"cell keys differ: ml={sorted(set(ml_cells) ^ keys)} "
            f"dr={sorted(set(dr_cells) ^ keys)}"
        )
    rows = []
    for g, t in sorted(keys):
        ml = np.asarray(ml_cells[(g, t)], float)
        dr = np.asarray(dr_cells[(g, t)], float)
        orc = np.asarray(oracle_cells[(g, t)], float)
        if not (ml.shape == dr.shape == orc.shape):
            raise KeyMismatch(f"cell (g={g}, t={t}): repetition counts differ")
        rows.append(
            RmseRow(
                g=g,
                t=t,
                rmse_ml=float(np.sqrt(np.mean((ml - orc) ** 2))),
                rmse_dr=float(np.sqrt(np.mean((dr - orc) ** 2))),
                bias_ml=float(np.mean(ml - orc)),
                bias_dr=float(np.mean(dr - orc)),
                n_reps=int(ml.shape[0]),
            )
        )
    return rows
