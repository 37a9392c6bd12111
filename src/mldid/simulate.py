"""Monte Carlo panel generator with exact potential-outcome bookkeeping.

Every simulated panel stores both outcome series Y(0) and Y(g) for each
unit, so true group-time effects and per-unit conditional effects are read
off the stored series rather than recomputed from closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .exceptions import MldidError
from .panel import NEVER_TREATED, PanelDataset

TAU_SCENARIOS = ("x1", "x23sq", "const", "x1x3")
ASSIGNMENTS = ("random", "logit-x2", "logit-x123")
CONFOUNDINGS = ("none", "const", "trend")
CHI_CHOICES = ("x1", "x123")

COVARIATE_NAMES = ("x_1", "x_2", "x_3", "x_4", "x_5")


@dataclass(frozen=True)
class DgpConfig:
    """Configuration of the simulated staggered-adoption design.

    Group assignment draws one of T+1 classes: never treated, cohorts
    2..T, and a final class that starts treatment after the panel ends
    (observationally never treated). Under ``random`` each class has
    probability 1/(T+1); the logit rules use class scores 0.5*g/T with 0
    for the never-treated class.
    """

    n_units: int
    n_periods: int = 4
    assignment: str = "random"
    tau: str = "x1"
    confounding: str = "none"
    chi: str = "x1"
    seed: int = 0
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.n_units < 10:
            raise MldidError("need at least 10 units")
        if self.n_periods < 2:
            raise MldidError("need at least 2 periods")
        if self.noise_scale < 0:
            raise MldidError("noise_scale must be non-negative")
        if self.assignment not in ASSIGNMENTS:
            raise MldidError(f"assignment must be one of {ASSIGNMENTS}")
        if self.tau not in TAU_SCENARIOS:
            raise MldidError(f"tau must be one of {TAU_SCENARIOS}")
        if self.confounding not in CONFOUNDINGS:
            raise MldidError(f"confounding must be one of {CONFOUNDINGS}")
        if self.chi not in CHI_CHOICES:
            raise MldidError(f"chi must be one of {CHI_CHOICES}")


@dataclass(frozen=True)
class OraclePanel:
    """Simulated panel plus the ground truth behind it.

    ``y_untreated``/``y_treated`` are the full (n, T) potential-outcome
    series; ``y_treated`` equals ``y_untreated`` before a unit's start
    period (no anticipation), so placebo effects are exactly zero.
    """

    panel: PanelDataset
    config: DgpConfig
    y_untreated: np.ndarray
    y_treated: np.ndarray
    tau_unit: np.ndarray
    drawn_class: np.ndarray

    def oracle_att(self, g: int, t: int) -> float:
        """True ATT(g, t) from the stored potential outcomes."""
        cohort = self.panel.groups == g
        if not cohort.any():
            raise MldidError(f"no units in cohort {g}")
        if t < g:
            return 0.0
        diff = self.y_treated[cohort, t - 1] - self.y_untreated[cohort, t - 1]
        return float(diff.mean())

    def oracle_cells(self, include_placebo: bool = True) -> dict[tuple[int, int], float]:
        from .panel import enumerate_cells

        return {
            (g, t): self.oracle_att(g, t)
            for g, t in enumerate_cells(self.panel, include_placebo)
        }

    def oracle_catt(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Per-unit noise-free conditional effects keyed by event time.

        A cohort-g unit's conditional effect at event time e is
        ``effect_path(e, tau_i)``. Returns ``e -> (unit row indices,
        values)`` covering every (g, e) with a corresponding panel period.
        """
        T = self.panel.n_periods
        out: dict[int, list] = {}
        for g in self.panel.cohorts:
            rows = np.flatnonzero(self.panel.groups == g)
            for t in range(1, T + 1):
                e = t - g
                if e == -1:
                    continue
                out.setdefault(e, []).append((rows, effect_path(e, self.tau_unit[rows])))
        return {
            e: (np.concatenate([r for r, _ in parts]),
                np.concatenate([v for _, v in parts]))
            for e, parts in sorted(out.items())
        }


def effect_path(e, tau):
    """True conditional effect at event time ``e`` of a unit with effect ``tau``.

    It is (e + 1) * tau from the start period on (e >= 0) and zero before;
    ``e`` and ``tau`` broadcast.
    """
    e = np.asarray(e, float)
    return np.where(e >= 0, (e + 1.0) * tau, 0.0)


def _assignment_probs(config: DgpConfig, x: np.ndarray) -> np.ndarray:
    """Per-unit class probabilities over (never, 2..T, T+1)."""
    T = config.n_periods
    classes = np.array([0] + list(range(2, T + 2)))
    n = x.shape[0]
    if config.assignment == "random":
        return np.full((n, classes.shape[0]), 1.0 / (T + 1)), classes
    if config.assignment == "logit-x2":
        kappa = x[:, 1]
    else:
        kappa = x[:, 0] + x[:, 1] + x[:, 2]
    gamma = np.where(classes == 0, 0.0, 0.5 * classes / T)
    eta = kappa[:, None] * gamma[None, :]
    eta -= eta.max(axis=1, keepdims=True)
    expeta = np.exp(eta)
    return expeta / expeta.sum(axis=1, keepdims=True), classes


def simulate(config: DgpConfig) -> OraclePanel:
    """Draw one panel from the configured design.

    Untreated outcomes are delta_t + eta_i + beta_t*chi_i + u_it with
    delta_t = t and eta | class ~ N(class, 1); treated outcomes add the
    dynamic effect ``effect_path(t - g, tau_i)`` and swap the noise draw, so
    Y(g) = Y(0) + (e+1)*tau + (v - u) in post periods.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n, T = config.n_units, config.n_periods

    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    x3 = rng.binomial(1, 0.5, size=n).astype(float)
    x4 = rng.binomial(1, 0.5, size=n).astype(float)
    x5_base = rng.standard_normal(n)
    xbase = np.column_stack([x1, x2, x3, x4, x5_base])

    probs, classes = _assignment_probs(config, xbase)
    u01 = rng.random(n)
    idx = (u01[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    drawn = classes[idx]

    eta = rng.normal(drawn.astype(float), 1.0)
    u = config.noise_scale * rng.standard_normal((n, T))
    v = config.noise_scale * rng.standard_normal((n, T))

    periods = np.arange(1, T + 1, dtype=float)
    if config.confounding == "none":
        beta_t = np.zeros(T)
    elif config.confounding == "const":
        beta_t = np.ones(T)
    else:
        beta_t = periods.copy()
    chi = x1 if config.chi == "x1" else x1 + x2 + x3

    if config.tau == "x1":
        tau = x1.copy()
    elif config.tau == "x23sq":
        tau = (x2 + x3) ** 2
    elif config.tau == "const":
        tau = np.ones(n)
    else:
        tau = x1 + x3

    base = periods[None, :] + eta[:, None] + beta_t[None, :] * chi[:, None]
    y0 = base + u
    yg = y0.copy()
    in_sample = (drawn >= 2) & (drawn <= T)
    for g in range(2, T + 1):
        members = drawn == g
        if not members.any():
            continue
        post = periods >= g
        yg[np.ix_(members, post)] = (
            base[np.ix_(members, post)]
            + effect_path(periods[None, post] - g, tau[members, None])
            + v[np.ix_(members, post)]
        )

    groups = np.where(in_sample, drawn, NEVER_TREATED).astype(np.int64)
    observed = np.where((groups[:, None] >= 2) & (periods[None, :] >= groups[:, None]),
                        yg, y0)

    covariates = np.empty((n, T, 5))
    covariates[:, :, 0] = x1[:, None]
    covariates[:, :, 1] = x2[:, None]
    covariates[:, :, 2] = x3[:, None]
    covariates[:, :, 3] = x4[:, None]
    covariates[:, :, 4] = x5_base[:, None] * periods[None, :]

    panel = PanelDataset(
        unit_ids=np.arange(n, dtype=object),
        groups=groups,
        n_periods=T,
        outcomes=observed,
        covariates=covariates,
        covariate_names=COVARIATE_NAMES,
    )
    return OraclePanel(
        panel=panel,
        config=config,
        y_untreated=y0,
        y_treated=yg,
        tau_unit=tau,
        drawn_class=drawn,
    )


def oracle_dynamic(oracle: OraclePanel, include_placebo: bool = True) -> dict[int, float]:
    """True event-study aggregates: the estimator's thetas on the true cells."""
    from .estimator import _event_thetas

    thetas = _event_thetas(oracle.oracle_cells(include_placebo), oracle.panel.group_sizes,
                           oracle.panel.n_periods)
    return {e: theta for e, (theta, _, _) in thetas.items()}
