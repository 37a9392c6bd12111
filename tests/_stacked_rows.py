"""A cell's stacked pre and post rows: the test reference for its unit form.

Every unit of a two-period slice contributes a pre row and a post row with
its covariates and group. On those rows the decomposition coefficients are
A = T - 1/2, B = G - g_hat and C = B*A, and the MLDID effect fit is the
lasso of the partial residual H on the design [C, C*X] with the first
column unpenalized and no intercept. The package fits the same effect
function on the units' first differences; these helpers keep the stacked
form so the tests can compare the two.
"""

from __future__ import annotations

import numpy as np

from mldid.learners import fit_penalized_ls


def stack_slice(sl):
    """The stacked rows of a slice: y, g, t, X and each row's unit."""
    m = sl.n_units
    y = np.concatenate([sl.y_pre, sl.y_post])
    g = np.concatenate([sl.g_flag, sl.g_flag]).astype(np.int8)
    t = np.concatenate([np.zeros(m, np.int8), np.ones(m, np.int8)])
    X = np.vstack([sl.X, sl.X])
    units = np.concatenate([np.arange(m), np.arange(m)])
    return y, g, t, X, units


def stacked_decomposition(y, g, t, g_hat, m_hat, nu_hat, zeta_hat):
    """A, B, C and H = y - (m + A nu + B zeta) of stacked rows."""
    A = t - 0.5
    B = g - g_hat
    return A, B, B * A, y - (m_hat + A * nu_hat + B * zeta_hat)


def stacked_tau(X, B, H_pre, H_post, l1, l2):
    """Coefficients [a, b] of tau(x) = a + x'b fit on the units' stacked rows.

    Unit i's rows have C = -B_i/2 with H = H_pre_i and C = +B_i/2 with
    H = H_post_i.
    """
    p = X.shape[1]
    C = np.concatenate([-B / 2, B / 2])
    X2 = np.vstack([X, X])
    design = np.concatenate([C[:, None], C[:, None] * X2], axis=1)
    model = fit_penalized_ls(design, np.concatenate([H_pre, H_post]), l1, l2,
                             penalty_factor=np.concatenate([[0.0], np.ones(p)]),
                             fit_intercept=False)
    return model.coef
