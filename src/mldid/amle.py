"""Balancing weights from the bias-variance quadratic program.

The function class is the unit ball of a finite feature map over
(x, g, t), so the worst-case bias term has a closed form and the program
reduces to a small ridge-type linear system: with basis matrix Psi and
representer vector ``target``,

    minimize ||Psi' gamma / n - target||^2 + (sigma^2 / n^2) ||gamma||^2

has solution gamma = n * Psi (Psi'Psi + sigma^2 I)^{-1} target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import IllConditionedWarning, MldidError
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
    n = problem.n
    M = psi.T @ psi + (problem.sigma2 + problem.ridge) * np.eye(psi.shape[1])
    ridge = problem.ridge
    scale = float(np.trace(M)) / M.shape[0]
    while np.linalg.cond(M) > COND_LIMIT:
        bump = max(ridge, 1e-10 * scale) * 10.0 if ridge > 0 else 1e-10 * scale
        ridge = bump
        warnings.warn(
            f"balancing-weight system ill conditioned; ridge increased to {ridge:.3e}",
            IllConditionedWarning,
        )
        M = psi.T @ psi + (problem.sigma2 + ridge) * np.eye(psi.shape[1])

    u = np.linalg.solve(M, problem.target)
    u += np.linalg.solve(M, problem.target - M @ u)  # one refinement step
    resid = float(np.linalg.norm(M @ u - problem.target))
    if resid > SOLVE_TOL * max(1.0, float(np.linalg.norm(problem.target))):
        warnings.warn(
            f"balancing-weight solve residual {resid:.3e} above tolerance",
            IllConditionedWarning,
        )
    return n * (psi @ u)


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
    var = float(np.var(resid, ddof=1)) if resid.shape[0] > 1 else 0.0
    return max(inflation * var, floor)
