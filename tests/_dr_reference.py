"""The doubly-robust baseline one cell at a time, through the row front end: the test reference.

``estimate_cell_dr_rows`` is the single-cell estimate that
``drdid.estimate_slice_dr`` replaced: each cell standardizes its controls
and forms their Gram matrix again, and fits its outcome regression with
``learners.fit_penalized_ls`` at l1 = 0. The per-slice pass must give
each cell the same DrCellResult, compared with ``==``, or the same
exception type and message.
"""

from __future__ import annotations

import numpy as np

from mldid.drdid import DrCellResult
from mldid.exceptions import EmptyControlGroup, NoOverlap
from mldid.learners import DEFAULT_CLIP, DEFAULT_L2, fit_penalized_ls, fit_probability


def estimate_cell_dr_rows(sl, propensity=None, outcome_change=None) -> DrCellResult:
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
