"""Panel generator for the benchmark, independent of the program under test.

Follows the paper's Monte Carlo design. Units draw one of T+1 classes:
never treated (class 0), cohorts 2..T, and a class T+1 that starts after
the panel ends and so is observationally never treated. With
eta ~ N(class, 1) and tau(x) = x1 + x3,

    Y_t(0) = t + eta + u_t
    Y_t(g) = t + eta + (t - g + 1) * tau(x) + v_t   for t >= g,

with v a fresh noise draw. Both potential-outcome series are kept, so the
true ATT(g, t) and the per-unit conditional effects are read off them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

COVARIATES = ("x_1", "x_2", "x_3", "x_4", "x_5")
ASSIGNMENTS = ("random", "logit-x123")


@dataclass(frozen=True)
class Design:
    n_units: int
    n_periods: int
    assignment: str = "random"
    noise: float = 1.0

    def __post_init__(self):
        if self.assignment not in ASSIGNMENTS:
            raise ValueError(f"assignment must be one of {ASSIGNMENTS}")
        if self.n_periods < 3 or self.n_units < 10:
            raise ValueError("need at least 3 periods and 10 units")


@dataclass(frozen=True)
class Truth:
    """A drawn panel and the potential outcomes behind it.

    ``group`` is the observed first-treatment period (0 = never treated
    inside the panel); ``y`` is the observed (n, T) outcome matrix.
    """

    design: Design
    X: np.ndarray
    group: np.ndarray
    y0: np.ndarray
    yg: np.ndarray
    tau: np.ndarray

    @property
    def y(self) -> np.ndarray:
        periods = np.arange(1, self.design.n_periods + 1)
        treated = (self.group[:, None] >= 2) & (periods[None, :] >= self.group[:, None])
        return np.where(treated, self.yg, self.y0)

    @property
    def cohorts(self) -> list[int]:
        return sorted(int(g) for g in np.unique(self.group) if g != 0)

    def att(self, g: int, t: int) -> float:
        """True ATT(g, t): the cohort mean of Y_t(g) - Y_t(0)."""
        cohort = self.group == g
        return float(np.mean(self.yg[cohort, t - 1] - self.y0[cohort, t - 1]))


def draw(design: Design, seed: int, stream: int = 0) -> Truth:
    """One panel; (seed, stream) select independent draws of the same design."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [stream, seed, design.n_units, design.n_periods]))
    n, T = design.n_units, design.n_periods
    X = np.column_stack([
        rng.standard_normal(n),
        rng.standard_normal(n),
        rng.binomial(1, 0.5, n).astype(float),
        rng.binomial(1, 0.5, n).astype(float),
        rng.standard_normal(n),
    ])
    classes = np.array([0, *range(2, T + 2)])
    if design.assignment == "random":
        drawn = classes[rng.integers(0, classes.size, n)]
    else:
        score = X[:, 0] + X[:, 1] + X[:, 2]
        eta = score[:, None] * np.where(classes == 0, 0.0, 0.5 * classes / T)
        prob = np.exp(eta - eta.max(axis=1, keepdims=True))
        prob /= prob.sum(axis=1, keepdims=True)
        u = rng.random(n)
        drawn = classes[(u[:, None] > np.cumsum(prob, axis=1)).sum(axis=1)]
    eta = rng.normal(drawn.astype(float), 1.0)
    u = design.noise * rng.standard_normal((n, T))
    v = design.noise * rng.standard_normal((n, T))
    tau = X[:, 0] + X[:, 2]

    periods = np.arange(1, T + 1, dtype=float)
    base = periods[None, :] + eta[:, None]
    y0 = base + u
    exposure = periods[None, :] - drawn[:, None] + 1.0
    yg = np.where(exposure >= 1.0, base + exposure * tau[:, None] + v, y0)
    group = np.where(drawn <= T, drawn, 0).astype(np.int64)
    return Truth(design, X, group, y0, yg, tau)


def write_csv(truth: Truth, path) -> None:
    """Long-format panel: id,time,group,y,x_1..x_5 with one row per unit-period."""
    n, T = truth.y.shape
    y = truth.y
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "group", "y", *COVARIATES])
        xs = [[repr(float(v)) for v in row] for row in truth.X]
        for i in range(n):
            g = int(truth.group[i])
            for t in range(T):
                writer.writerow([i, t + 1, g, repr(float(y[i, t])), *xs[i]])
