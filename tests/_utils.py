"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from mldid import PanelDataset, TwoPeriodSlice
from mldid.catt import catt_fits, solve_catt
from mldid.nuisance import (NuisanceBundle, _regression_systems, _solved, compute_abch,
                            solve_regressions)


def make_panel(groups, n_periods, outcomes, covariates=None, unit_ids=None):
    groups = np.asarray(groups, dtype=np.int64)
    n = groups.shape[0]
    outcomes = np.asarray(outcomes, dtype=float)
    if covariates is None:
        covariates = np.zeros((n, n_periods, 1))
        names = ("x_1",)
    else:
        covariates = np.asarray(covariates, dtype=float)
        names = tuple(f"x_{j + 1}" for j in range(covariates.shape[2]))
    if unit_ids is None:
        unit_ids = np.arange(n, dtype=object)
    return PanelDataset(
        unit_ids=np.asarray(unit_ids, dtype=object),
        groups=groups,
        n_periods=n_periods,
        outcomes=outcomes,
        covariates=covariates,
        covariate_names=names,
    )


def two_period_dgp(n, seed, tau_fn, g_fn=None, alpha_fn=None, xi_fn=None,
                   rho_fn=None, noise=1.0, p=2):
    """A single randomized two-period cell with known structural functions.

    Y = alpha(x) + xi(x) G + rho(x) T + tau(x) G T + noise, with T balanced
    by construction (each unit observed pre and post) and G ~ Bern(g(x)).
    Returns (slice, truth dict).
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    g_fn = g_fn or (lambda x: np.full(x.shape[0], 0.4))
    alpha_fn = alpha_fn or (lambda x: 1.0 + x[:, 0])
    xi_fn = xi_fn or (lambda x: 0.5 * x[:, 1])
    rho_fn = rho_fn or (lambda x: 1.0 + 0.5 * x[:, 0])

    gx = np.clip(g_fn(X), 0.02, 0.98)
    G = (rng.random(n) < gx).astype(np.int8)
    alpha, xi, rho, tau = alpha_fn(X), xi_fn(X), rho_fn(X), tau_fn(X)
    y_pre = alpha + xi * G + noise * rng.standard_normal(n)
    y_post = alpha + xi * G + rho + tau * G + noise * rng.standard_normal(n)

    sl = TwoPeriodSlice(
        g=2,
        t=2,
        pre_period=1,
        unit_ids=np.arange(n, dtype=object),
        unit_rows=np.arange(n),
        g_flag=G,
        y_pre=y_pre,
        y_post=y_post,
        X=X,
        covariate_names=tuple(f"x_{j + 1}" for j in range(p)),
    )
    truth = {
        "g": gx, "alpha": alpha, "xi": xi, "rho": rho, "tau": tau, "X": X,
    }
    return sl, truth


def oracle_bundle(sl, truth, y_shift=0.0):
    """NuisanceBundle with the true nuisance values of two_period_dgp.

    g(x) is the true propensity and nu(x) = rho(x) + tau(x) g(x) the true
    time contrast E[Y_post - Y_pre | x]; ``y_shift`` moves both outcomes.
    """
    bundle = NuisanceBundle(
        y_pre=sl.y_pre + y_shift,
        y_post=sl.y_post + y_shift,
        g=sl.g_flag.astype(np.int8),
        X=sl.X,
        unit_ids=sl.unit_ids,
        covariate_names=sl.covariate_names,
        g_hat=truth["g"],
        nu_hat=truth["rho"] + truth["tau"] * truth["g"],
    )
    return compute_abch(bundle)


def regression_fits(X, y_pre, Y, plan, counts, fixed_l1=None):
    """The LinearModel, or the MldidError, of every (regression, outer fold) of every column.

    The Gram systems of ``nuisance._regression_systems``, solved as a batch
    of their own.
    """
    fits, live = _regression_systems(X, y_pre, Y, plan, counts, fixed_l1)
    solve_regressions(live)
    return _solved(fits)


def catt_columns(X, B, dH, counts, fixed_l1=None):
    """The (columns, 1 + p) coefficients, chosen l1s and errors of every column's effect fit.

    The GramFits of ``catt.catt_fits``, solved as a batch of their own.
    """
    fits, collect = catt_fits(X, B, dH, counts, fixed_l1)
    solve_catt(fits)
    return collect()


def thin_cohort(panel, g, n_keep):
    """The panel with only the first ``n_keep`` units of cohort ``g``."""
    keep = np.sort(np.r_[np.flatnonzero(panel.groups != g),
                         np.flatnonzero(panel.groups == g)[:n_keep]])
    return PanelDataset(
        unit_ids=panel.unit_ids[keep],
        groups=panel.groups[keep],
        n_periods=panel.n_periods,
        outcomes=panel.outcomes[keep],
        covariates=panel.covariates[keep],
        covariate_names=panel.covariate_names,
    )
