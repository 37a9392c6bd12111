"""The clustered bootstrap as one run per resampled panel: the test reference.

Replicate b draws the panel's units with the generator of
``estimator.replicate_counts`` and renumbers the copies. Each cell of the
resampled panel is then estimated on its units' first differences, one
row per copy, the way the package would estimate the replicate as a panel
of its own, except that each copy sits in its original unit's fold of the
cell's plan. The effect fit, sigma^2 and balancing weights are computed
on the copies' rows: the lasso of dH/2 on the design (B/2)[1, x] and the
basis of ``build_function_class``. With CV the effect fit's inner folds
rank the copies, not the drawn units, so only fixed-l1 replicates are
comparable with the package's.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from mldid import PanelDataset
from mldid.amle import build_function_class, solve_amle
from mldid.catt import MIN_WEIGHT_MASS
from mldid.estimator import _SEED_BOOT, _SEED_FOLDS, derive_seed
from mldid.exceptions import (
    AllWeightsZero,
    CellSkipped,
    EmptyControlGroup,
    EmptyTreatedGroup,
    MldidError,
)
from mldid.learners import fit_penalized_ls_cv, make_fold_plan
from mldid.nuisance import compute_abch, estimate_nuisances
from mldid.panel import empty_treated_error, enumerate_cells, slice_two_period


def resample_panel(panel: PanelDataset, b: int, seed: int):
    """Replicate b's panel, units renumbered, and the original unit of each."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SEED_BOOT, b]))
    m = panel.n_units
    idx = rng.integers(0, m, size=m)
    resampled = PanelDataset(
        unit_ids=np.arange(m, dtype=object),
        groups=panel.groups[idx].copy(),
        n_periods=panel.n_periods,
        outcomes=panel.outcomes[idx].copy(),
        covariates=panel.covariates[idx].copy(),
        covariate_names=panel.covariate_names,
    )
    return resampled, idx


def unit_att(bundle, config) -> float:
    """att of a bundle's units, every step on the unit rows themselves."""
    B, dH, X = bundle.B, bundle.dH, bundle.X
    n, p = X.shape
    if n < p + 2:
        raise MldidError(f"need at least {p + 2} units to fit tau, have {n}")
    if float(np.sum(B**2)) < MIN_WEIGHT_MASS:
        raise AllWeightsZero("sum of B^2 is numerically zero; tau is unidentified")
    design = B[:, None] / 2 * np.concatenate([np.ones((n, 1)), X], axis=1)
    pf = np.concatenate([[0.0], np.ones(p)])
    model = fit_penalized_ls_cv(design, dH / 2, penalty_factor=pf, fit_intercept=False,
                                fixed_l1=config.fixed_l1, cv_rule="1se")
    tau = model.coef[0] + X @ model.coef[1:]
    sigma2 = max(1.5 * float(np.var(dH, ddof=1)), 1e-8)
    w = solve_amle(build_function_class(bundle, sigma2))
    return float(np.mean(tau + w * (dH - B * tau)))


def reference_cell(panel, resampled, idx, g, t, config) -> float:
    """att of cell (g, t) of a resampled panel, copies in their unit's fold."""
    try:
        sl = slice_two_period(resampled, g, t)
    except (EmptyControlGroup, EmptyTreatedGroup) as err:
        raise CellSkipped(g, t, err) from err
    original = slice_two_period(panel, g, t)
    plan = make_fold_plan(original.n_units, min(config.n_folds, original.n_units),
                          derive_seed(config.seed, _SEED_FOLDS, g, t))
    fold = np.full(panel.n_units, -1)
    fold[original.unit_rows] = plan.assignment
    # Copies of a unit share its fold, so the folds need not be balanced.
    shared = SimpleNamespace(n_folds=plan.n_folds, assignment=fold[idx[sl.unit_rows]])
    return unit_att(compute_abch(estimate_nuisances(sl, shared, config.fixed_l1)), config)


def reference_replicate(panel, config, b) -> dict:
    """Replicate b's att, or the message of its skip, per cell of the panel.

    A cell of a cohort the replicate did not draw is skipped with the
    message of slicing it from the replicate's panel.
    """
    resampled, idx = resample_panel(panel, b, config.seed)
    out = {}
    for g, t in enumerate_cells(panel, config.include_placebo):
        if g not in resampled.cohorts:
            out[g, t] = str(CellSkipped(g, t, empty_treated_error(g)))
            continue
        try:
            out[g, t] = reference_cell(panel, resampled, idx, g, t, config)
        except MldidError as err:
            out[g, t] = str(err)
    return out


def reference_missing(panel, config, n_replicates):
    """Per cell and per event time, the replicates that supplied no value.

    Also returns, per cell, the skip messages with their counts. A theta(e)
    is missing where the replicate has no cell at e or lacks the cell of a
    cohort it drew that is observable at e.
    """
    keys = enumerate_cells(panel, config.include_placebo)
    events = sorted({t - g for g, t in keys})
    cells = {key: 0 for key in keys}
    thetas = {e: 0 for e in events}
    reasons = {}
    for b in range(n_replicates):
        atts = reference_replicate(panel, config, b)
        cohorts = set(resample_panel(panel, b, config.seed)[0].cohorts)
        for key in keys:
            value = atts[key]
            if isinstance(value, float):
                continue
            cells[key] += 1
            reasons.setdefault(key, {}).setdefault(value, 0)
            reasons[key][value] += 1
        for e in events:
            eligible = [g for g in cohorts if 1 <= g + e <= panel.n_periods]
            have = [g for g in eligible if isinstance(atts.get((g, g + e)), float)]
            if not have or len(have) < len(eligible):
                thetas[e] += 1
    return cells, thetas, reasons
