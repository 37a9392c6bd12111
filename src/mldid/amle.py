"""Balancing weights from the bias-variance quadratic program.

The function class is the unit ball of a finite feature map over
(x, g, t), so the worst-case bias term has a closed form and the program
reduces to a small ridge-type linear system: with basis matrix Psi and
representer vector ``target``,

    minimize ||Psi' gamma / n - target||^2 + (sigma^2 / n^2) ||gamma||^2

has solution gamma = n * Psi (Psi'Psi + sigma^2 I)^{-1} target.

A cell's rows are its units' pre and post rows, so Psi'Psi is a sum of
unit moments: :func:`balancing_columns` solves every bootstrap count
column of a cell from them, as one batch, without forming the basis.
:func:`build_function_class` and :func:`solve_amle` are the row form of
one program.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import IllConditionedWarning, MldidError
from .learners import weighted_gram
from .nuisance import NuisanceBundle

COND_LIMIT = 1e12
SOLVE_TOL = 1e-9
SIGMA2_INFLATION = 1.5
SIGMA2_FLOOR = 1e-8


@dataclass(frozen=True)
class AmleProblem:
    """Feature evaluations, contrast targets and the noise bound."""

    basis: np.ndarray          # (n, q) features at the observed (x, g, t)
    target: np.ndarray         # (q,) averaged four-point contrast per feature
    sigma2: float
    ridge: float = 0.0
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.basis.ndim != 2 or self.basis.shape[1] < 1:
            raise MldidError("basis must be (n, q) with q >= 1")
        if not np.all(np.isfinite(self.target)):
            raise MldidError("target contains non-finite entries")
        if self.sigma2 <= 0:
            raise MldidError("sigma2 must be positive")

    @property
    def n(self) -> int:
        return int(self.basis.shape[0])


def _feature_map(Xs: np.ndarray, g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Features {1, x, g, t, g*t, x*g, x*t, x*g*t} on standardized x."""
    n = Xs.shape[0]
    one = np.ones((n, 1))
    g = g.reshape(-1, 1).astype(float)
    t = t.reshape(-1, 1).astype(float)
    return np.concatenate(
        [one, Xs, g, t, g * t, Xs * g, Xs * t, Xs * g * t], axis=1
    )


def _feature_names(cov_names) -> tuple[str, ...]:
    xs = list(cov_names)
    return tuple(
        ["1", *xs, "G", "T", "G*T",
         *[f"{c}*G" for c in xs], *[f"{c}*T" for c in xs],
         *[f"{c}*G*T" for c in xs]]
    )


def build_function_class(bundle: NuisanceBundle, sigma2: float) -> AmleProblem:
    """Assemble the basis and its four-point contrast targets.

    Covariates are standardized over the stacked rows. Each feature's
    target is the sample mean of psi(x,1,1) - psi(x,0,1) - psi(x,1,0)
    + psi(x,0,0), the difference-in-differences contrast. Only the
    features with a g*t factor survive it: the target is 1 on G*T, the
    mean of the standardized x on x*G*T, and 0 everywhere else.
    """
    X = bundle.X
    g = bundle.g.astype(float)
    t = bundle.t.astype(float)
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xs = (X - mean) / sd

    basis = _feature_map(Xs, g, t)
    # Columns as _feature_map lays them out: 1, x (p), G, T, G*T, x*G,
    # x*T, x*G*T (p each).
    p = Xs.shape[1]
    target = np.zeros(basis.shape[1])
    target[p + 3] = 1.0
    target[3 * p + 4:] = Xs.mean(axis=0)
    return AmleProblem(
        basis=basis,
        target=target,
        sigma2=sigma2,
        feature_names=_feature_names(bundle.covariate_names),
    )


def solve_amle(problem: AmleProblem) -> np.ndarray:
    """Solve the quadratic program for the per-row weights.

    Uses the q-dimensional normal equations; if their condition number
    exceeds COND_LIMIT the ridge is grown until the system is tractable
    and an IllConditionedWarning is emitted.
    """
    psi = problem.basis
    u = _solve_normal((psi.T @ psi)[None], problem.target[None], problem.sigma2,
                      problem.ridge)[0]
    return problem.n * (psi @ u)


def _solve_normal(gram, target, sigma2, ridge):
    """Solve (gram + (sigma2 + ridge) I) u = target for a batch of systems.

    Each system grows its own ridge, with an IllConditionedWarning per
    increase, until its condition number is at most COND_LIMIT, takes one
    refinement step, and warns if its residual stays above tolerance, so
    its solution does not depend on the rest of the batch.
    """
    k, q = target.shape
    eye = np.eye(q)
    sigma2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (k,))
    ridge = np.broadcast_to(np.asarray(ridge, dtype=float), (k,)).copy()
    M = gram + (sigma2 + ridge)[:, None, None] * eye
    scale = np.trace(M, axis1=1, axis2=2) / q
    bad = np.flatnonzero(np.linalg.cond(M) > COND_LIMIT)
    while bad.size:
        for b in bad:
            ridge[b] = max(ridge[b], 1e-10 * scale[b]) * 10.0 if ridge[b] > 0 else 1e-10 * scale[b]
            warnings.warn(
                f"balancing-weight system ill conditioned; ridge increased to {ridge[b]:.3e}",
                IllConditionedWarning,
            )
            M[b] = gram[b] + (sigma2[b] + ridge[b]) * eye
        bad = bad[np.linalg.cond(M[bad]) > COND_LIMIT]

    u = np.linalg.solve(M, target[..., None])[..., 0]
    u += np.linalg.solve(M, (target - (M @ u[..., None])[..., 0])[..., None])[..., 0]
    resid = np.linalg.norm((M @ u[..., None])[..., 0] - target, axis=1)
    limit = SOLVE_TOL * np.maximum(1.0, np.linalg.norm(target, axis=1))
    for b in np.flatnonzero(resid > limit):
        warnings.warn(
            f"balancing-weight solve residual {resid[b]:.3e} above tolerance",
            IllConditionedWarning,
        )
    return u


def balancing_columns(X, g, counts, sigma2):
    """Balancing weights of every count column's stacked rows, from unit moments.

    Column r's rows are ``counts[i, r]`` copies of unit i's pre row
    psi(x, G, 0) and post row psi(x, G, 1), with x standardized over them
    as :func:`build_function_class` does. With z = [1, x, G, x*G], and the
    features ordered as [z, T*z], those rows are [z, 0] and [z, z], so
    Psi'Psi = [[2S, S], [S, S]] with S the count-weighted sum of z z', and
    the target is 1 on T*G and 0 elsewhere (standardized x has mean zero).
    S is the column's affine standardization applied to raw moments of z
    that one product per column gives, and the columns' systems are
    solved as one batch with noise bounds ``sigma2``. No row basis is
    formed. Returns the weights of each unit's pre and post rows,
    (units, columns) each.
    """
    c = np.asarray(counts, dtype=float)
    m, p = X.shape
    n_cols, dz = c.shape[1], 2 * p + 2
    total = c.sum(axis=0)
    Xc = X - X.mean(axis=0)
    center = c.T @ Xc / total[:, None]
    var = c.T @ Xc**2 / total[:, None] - center**2
    scale = np.sqrt(np.maximum(var, 0.0))
    # A column constant on the drawn rows standardizes to zeros.
    drawn = c > 0
    for j in range(p):
        lo = np.where(drawn, Xc[:, j, None], np.inf).min(axis=0)
        const = lo == np.where(drawn, Xc[:, j, None], -np.inf).max(axis=0)
        center[const, j], scale[const, j] = lo[const], 1.0
    scale[scale == 0.0] = 1.0
    Z = np.concatenate([np.ones((m, 1)), Xc, g[:, None], Xc * g[:, None]], axis=1)
    S = np.stack([weighted_gram(Z, c[:, r]) for r in range(n_cols)])
    # z standardized = A z: x -> (x - center) / scale, and the same for x*G.
    A = np.zeros((n_cols, dz, dz))
    A[:, 0, 0] = A[:, p + 1, p + 1] = 1.0
    for first, anchor in ((1, 0), (p + 2, p + 1)):
        idx = np.arange(first, first + p)
        A[:, idx, anchor] = -center / scale
        A[:, idx, idx] = 1.0 / scale
    S = A @ S @ A.transpose(0, 2, 1)
    gram = np.block([[2 * S, S], [S, S]])
    target = np.zeros((n_cols, 2 * dz))
    target[:, dz + p + 1] = 1.0
    u = _solve_normal(gram, target, sigma2, 0.0)
    # A row's weight is n psi'u = n z'(A'u_z) + T n z'(A'u_Tz).
    n = 2 * total
    v_pre = (A.transpose(0, 2, 1) @ u[:, :dz, None])[..., 0] * n[:, None]
    v_post = v_pre + (A.transpose(0, 2, 1) @ u[:, dz:, None])[..., 0] * n[:, None]
    return Z @ v_pre.T, Z @ v_post.T


def amle_objective(problem: AmleProblem, gamma: np.ndarray) -> float:
    """The bias-variance objective at a candidate weight vector."""
    n = problem.n
    bias = problem.basis.T @ gamma / n - problem.target
    return float(bias @ bias) + problem.sigma2 / n**2 * float(gamma @ gamma)


def estimate_sigma2(
    bundle: NuisanceBundle,
    tau_row: np.ndarray | None = None,
    inflation: float = SIGMA2_INFLATION,
    floor: float = SIGMA2_FLOOR,
) -> float:
    """Upper bound on the outcome noise variance from fit residuals.

    The residual is Y - yhat = H - C * tau(x) when an effect function is
    supplied, H alone otherwise; its sample variance is inflated by a
    fixed factor and floored away from zero.
    """
    resid = bundle.H
    if tau_row is not None:
        resid = resid - bundle.C * tau_row
    m = resid.shape[0] // 2
    return float(sigma2_columns(resid[:m, None], resid[m:, None], np.ones((m, 1)),
                                inflation, floor)[0])


def sigma2_columns(resid_pre, resid_post, counts, inflation=SIGMA2_INFLATION,
                   floor=SIGMA2_FLOOR):
    """:func:`estimate_sigma2` of every count column's stacked rows.

    ``resid_pre``/``resid_post`` are the residuals of each unit's two rows
    and ``counts`` the copies of the unit in each column, (units, columns)
    each.
    """
    c = np.asarray(counts, dtype=float)
    n = 2 * c.sum(axis=0)
    mean = (c * (resid_pre + resid_post)).sum(axis=0) / n
    sq = (c * ((resid_pre - mean) ** 2 + (resid_post - mean) ** 2)).sum(axis=0)
    var = np.where(n > 1, sq / np.maximum(n - 1, 1), 0.0)
    return np.maximum(inflation * var, floor)
