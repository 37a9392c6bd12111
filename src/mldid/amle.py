"""Balancing weights from the bias-variance quadratic program.

A cell's effect is a functional of the conditional mean of a unit's first
difference given (x, g): the mean over the units of its contrast between
g = 1 and g = 0. The function class is the unit ball of the feature map
phi(x, g) = [1, x, g, x*g] on standardized x, so the worst-case bias term
has a closed form and the program reduces to a small ridge-type linear
system: with basis matrix Phi and representer vector ``target`` (the mean
of phi(x, 1) - phi(x, 0), which is 1 on g and 0 elsewhere),

    minimize ||Phi' w / n - target||^2 + (sigma^2 / n^2) ||w||^2

has solution w = n * Phi (Phi'Phi + sigma^2 I)^{-1} target
(Hirshberg & Wager 2021). :func:`balancing_columns` forms the systems of
every bootstrap count column of a slice from count-weighted unit moments,
once for all its cells, and solves each cell's as one batch with its own
sigma^2, without forming the basis; :func:`build_function_class` and
:func:`solve_amle` are the same program on a basis matrix.
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

    basis: np.ndarray          # (n, q) features at the observed (x, g)
    target: np.ndarray         # (q,) averaged treatment contrast per feature
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


def _feature_map(Xs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Features {1, x, g, x*g} on standardized x."""
    g = g.reshape(-1, 1).astype(float)
    return np.concatenate([np.ones((Xs.shape[0], 1)), Xs, g, Xs * g], axis=1)


def _feature_names(cov_names) -> tuple[str, ...]:
    xs = list(cov_names)
    return tuple(["1", *xs, "G", *[f"{c}*G" for c in xs]])


def build_function_class(bundle: NuisanceBundle, sigma2: float) -> AmleProblem:
    """Assemble the basis of the bundle's units and its contrast targets.

    Covariates are standardized over the units. Each feature's target is
    the sample mean of phi(x, 1) - phi(x, 0), the treatment contrast of the
    first difference. Only the features with a g factor survive it: the
    target is 1 on G, the mean of the standardized x on x*G, and 0
    everywhere else.
    """
    X = bundle.X
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xs = (X - mean) / sd

    basis = _feature_map(Xs, bundle.g)
    # Columns as _feature_map lays them out: 1, x (p), G, x*G (p).
    p = Xs.shape[1]
    target = np.zeros(basis.shape[1])
    target[p + 1] = 1.0
    target[p + 2:] = Xs.mean(axis=0)
    return AmleProblem(
        basis=basis,
        target=target,
        sigma2=sigma2,
        feature_names=_feature_names(bundle.covariate_names),
    )


def solve_amle(problem: AmleProblem) -> np.ndarray:
    """Solve the quadratic program for the per-unit weights.

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


def balancing_columns(X, g, counts):
    """Balancing weights of every count column's units, from unit moments.

    Column r's units are ``counts[i, r]`` copies of unit i, with x
    standardized over them as :func:`build_function_class` does. With
    z = phi(x, g) = [1, x, G, x*G] on unstandardized x, the column's
    Phi'Phi is its count-weighted sum of z z' mapped through the column's
    affine standardization, and the target is 1 on G and 0 elsewhere
    (standardized x has mean zero). These systems do not involve the
    outcome, so they are formed once for the cells of a slice. Returns a
    function of the noise bounds ``sigma2`` and the columns ``idx`` (all
    by default) that solves those columns' systems as one batch and
    returns their (units, columns) weights; no basis is formed.
    """
    c = np.asarray(counts, dtype=float)
    m, p = X.shape
    n_cols, dz = c.shape[1], 2 * p + 2
    total = c.sum(axis=0)
    Xc = X - X.mean(axis=0)
    center = c.T @ Xc / total[:, None]
    var = c.T @ Xc**2 / total[:, None] - center**2
    scale = np.sqrt(np.maximum(var, 0.0))
    # A column constant on the drawn units standardizes to zeros.
    drawn = c > 0
    for j in range(p):
        lo = np.where(drawn, Xc[:, j, None], np.inf).min(axis=0)
        const = lo == np.where(drawn, Xc[:, j, None], -np.inf).max(axis=0)
        center[const, j], scale[const, j] = lo[const], 1.0
    scale[scale == 0.0] = 1.0
    Z = _feature_map(Xc, g)
    S = np.stack([weighted_gram(Z, c[:, r]) for r in range(n_cols)])
    # z standardized = A z: x -> (x - center) / scale, and the same for x*G.
    A = np.zeros((n_cols, dz, dz))
    A[:, 0, 0] = A[:, p + 1, p + 1] = 1.0
    for first, anchor in ((1, 0), (p + 2, p + 1)):
        idx = np.arange(first, first + p)
        A[:, idx, anchor] = -center / scale
        A[:, idx, idx] = 1.0 / scale
    gram = A @ S @ A.transpose(0, 2, 1)
    target = np.zeros(dz)
    target[p + 1] = 1.0

    def weights(sigma2, idx=None):
        idx = np.arange(n_cols) if idx is None else idx
        u = _solve_normal(gram[idx], np.tile(target, (idx.size, 1)), sigma2, 0.0)
        # A unit's weight is n phi'u = n z'(A'u).
        v = (A[idx].transpose(0, 2, 1) @ u[..., None])[..., 0] * total[idx, None]
        return Z @ v.T

    return weights


def amle_objective(problem: AmleProblem, gamma: np.ndarray) -> float:
    """The bias-variance objective at a candidate weight vector."""
    n = problem.n
    bias = problem.basis.T @ gamma / n - problem.target
    return float(bias @ bias) + problem.sigma2 / n**2 * float(gamma @ gamma)


def estimate_sigma2(
    bundle: NuisanceBundle,
    tau: np.ndarray | None = None,
    inflation: float = SIGMA2_INFLATION,
    floor: float = SIGMA2_FLOOR,
) -> float:
    """Upper bound on the noise variance of the units' first differences.

    The residual is dH, or dH - B * tau(x) when an effect function is
    supplied; its sample variance is inflated by a fixed factor and
    floored away from zero. A cell uses dH alone: the bound then does not
    depend on the effect fit, and it is no smaller than the variance of
    the residual the balancing weights correct, dH - B * tau(x), when tau
    explains part of dH.
    """
    resid = bundle.dH
    if tau is not None:
        resid = resid - bundle.B * tau
    return float(sigma2_columns(resid[:, None], np.ones((resid.shape[0], 1)),
                                inflation, floor)[0])


def sigma2_columns(resid, counts, inflation=SIGMA2_INFLATION, floor=SIGMA2_FLOOR):
    """:func:`estimate_sigma2` of every count column's units.

    ``resid`` holds the units' residuals and ``counts`` the copies of each
    unit in each column, (units, columns) each; the variance is the
    count-weighted one with one degree of freedom removed.
    """
    c = np.asarray(counts, dtype=float)
    n = c.sum(axis=0)
    mean = (c * resid).sum(axis=0) / n
    sq = (c * (resid - mean) ** 2).sum(axis=0)
    var = np.where(n > 1, sq / np.maximum(n - 1, 1), 0.0)
    return np.maximum(inflation * var, floor)
