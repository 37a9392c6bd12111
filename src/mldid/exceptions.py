"""Exception types shared across the mldid package."""

from __future__ import annotations


class MldidError(Exception):
    """Base class for all errors raised by mldid."""


# ---------------------------------------------------------------------------
# Panel construction and slicing
# ---------------------------------------------------------------------------

class PanelValidationError(MldidError):
    """A panel violates one of the data-model invariants."""


class UnbalancedPanel(PanelValidationError):
    """A unit is missing one or more periods."""


class NonMonotoneTreatment(PanelValidationError):
    """A unit's group label is not constant across its rows."""


class MissingValue(PanelValidationError):
    """A required cell (outcome or covariate) is empty or non-finite."""


class GroupOne(PanelValidationError):
    """A unit reports first treatment in period 1, which the design forbids."""


class EmptyControlGroup(MldidError):
    """No not-yet-treated units remain for a (g, t) cell."""


class EmptyTreatedGroup(MldidError):
    """No units belong to cohort g."""


# ---------------------------------------------------------------------------
# Learners and cross-fitting
# ---------------------------------------------------------------------------

class NonFiniteData(MldidError):
    """A design matrix or response contains NaN or infinite entries."""


class NoConvergence(MldidError):
    """An iterative fit hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, final_delta: float | None = None):
        super().__init__(message)
        self.final_delta = final_delta


class SeparableWithoutPenalty(MldidError):
    """Unpenalized logistic likelihood diverges on separable data."""


class DegenerateFold(MldidError):
    """A cross-fitting fold's training complement cannot support a fit."""


# ---------------------------------------------------------------------------
# Nuisance decomposition
# ---------------------------------------------------------------------------

class MissingStratum(MldidError):
    """A slice, or a fold's training part, lacks treated or control units."""


# ---------------------------------------------------------------------------
# CATT fit and prediction
# ---------------------------------------------------------------------------

class AllWeightsZero(MldidError):
    """The CATT loss carries no information because sum(C^2) ~ 0."""


class SchemaMismatch(MldidError):
    """Covariate columns do not match the schema a model was fit on."""


# ---------------------------------------------------------------------------
# Estimator orchestration
# ---------------------------------------------------------------------------

class CellSkipped(MldidError):
    """A (g, t) cell could not be estimated; wraps the causing error."""

    def __init__(self, g: int, t: int, cause: Exception):
        super().__init__(f"cell (g={g}, t={t}) skipped: {cause}")
        self.g = g
        self.t = t
        self.cause = cause


class NoCellsForEventTime(MldidError):
    """Aggregation requested an event time with no contributing cells."""


class BootstrapFailed(MldidError):
    """Too many bootstrap replicates failed for the run to be valid."""


# ---------------------------------------------------------------------------
# DR baseline
# ---------------------------------------------------------------------------

class NoOverlap(MldidError):
    """All clipped propensity weights sit at the clip bounds."""


class KeyMismatch(MldidError):
    """Result tables passed for comparison do not share (g, t) keys."""


# ---------------------------------------------------------------------------
# Heterogeneity analysis
# ---------------------------------------------------------------------------

class RankDeficient(MldidError):
    """A regression design matrix is rank deficient."""

    def __init__(self, message: str, columns: list[str] | None = None):
        super().__init__(message)
        self.columns = columns or []


class TooFewUnits(MldidError):
    """Not enough units to form the requested number of bins."""


# ---------------------------------------------------------------------------
# Warnings
# ---------------------------------------------------------------------------

class IllConditionedWarning(UserWarning):
    """The balancing-weight system was ill conditioned; ridge was increased."""
