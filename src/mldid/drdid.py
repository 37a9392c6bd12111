"""Doubly-robust DiD baseline evaluated on the same two-period cells.

Combines an outcome-change regression on controls with normalized
inverse-propensity-odds weighting of the control outcome changes, the
standard panel doubly-robust construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyControlGroup, KeyMismatch, NoOverlap
from .learners import DEFAULT_CLIP, DEFAULT_L2, fit_penalized_ls, fit_probability
from .panel import TwoPeriodSlice


@dataclass(frozen=True)
class DrCellResult:
    g: int
    t: int
    att_dr: float
    n_treated: int
    n_control: int
    se: float | None = None

    @property
    def e(self) -> int:
        return self.t - self.g


def estimate_cell_dr(
    sl: TwoPeriodSlice,
    propensity: np.ndarray | None = None,
    outcome_change: np.ndarray | None = None,
) -> DrCellResult:
    """Doubly-robust effect for one cell.

    With dY = Y_post - Y_pre, fitted propensity p(x) and control
    outcome-change regression mu(x) = E[dY | X, G=0]:

        att = mean_{G=1}(dY - mu) - sum_{G=0} w * (dY - mu),

    where w is proportional to the odds p/(1-p), with p clipped to
    [DEFAULT_CLIP, 1 - DEFAULT_CLIP], and normalized to one over controls.
    Both fits use the ridge DEFAULT_L2. ``propensity`` / ``outcome_change``
    accept precomputed per-unit values so either nuisance can be swapped
    for an oracle.
    """
    treated = sl.g_flag == 1
    control = ~treated
    if not control.any():
        raise EmptyControlGroup(f"cell (g={sl.g}, t={sl.t}) has no controls")
    dy = sl.y_post - sl.y_pre

    if propensity is None:
        model_p = fit_probability(sl.X, sl.g_flag.astype(np.int64))
        propensity = model_p.predict_proba(sl.X)[:, 1]
    p_hat = np.clip(np.asarray(propensity, float), DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)

    if outcome_change is None:
        model_mu = fit_penalized_ls(sl.X[control], dy[control], 0.0, DEFAULT_L2)
        mu_hat = model_mu.predict(sl.X)
    else:
        mu_hat = np.asarray(outcome_change, float)

    odds = p_hat[control] / (1.0 - p_hat[control])
    at_bounds = (p_hat[control] <= DEFAULT_CLIP) | (p_hat[control] >= 1.0 - DEFAULT_CLIP)
    if at_bounds.all():
        raise NoOverlap(
            f"cell (g={sl.g}, t={sl.t}): every control propensity sits at the "
            f"clip bounds"
        )
    w = odds / odds.sum()

    resid = dy - mu_hat
    att = float(resid[treated].mean() - w @ resid[control])
    return DrCellResult(
        g=sl.g,
        t=sl.t,
        att_dr=att,
        n_treated=int(treated.sum()),
        n_control=int(control.sum()),
    )


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
