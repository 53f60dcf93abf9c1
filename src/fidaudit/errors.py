"""Exception taxonomy shared across the package.

Every exception derives from FidauditError so callers (in particular the
audit pipeline, which converts step errors into Fail findings instead of
aborting) can catch the whole family at once.
"""

from __future__ import annotations


class FidauditError(Exception):
    """Base class for all package errors."""


# --- influence models ---------------------------------------------------


class InvalidModel(FidauditError):
    """An influence model violates a structural invariant."""


class IncompleteProfile(FidauditError):
    """A policy profile is missing a rule for some decision node."""


class UnknownAgent(FidauditError):
    """Agent id not present in the model."""


class UnknownNode(FidauditError):
    """Node id not present in the model."""


class NodeKindMismatch(FidauditError):
    """Operation applied to a node of the wrong kind."""


class EdgeExists(FidauditError):
    """The requested edge is already present."""


class NoConvergence(FidauditError):
    """Best-response iteration cycled without reaching an equilibrium.

    ``cycle`` holds the repeating sequence of profiles, each rendered as a
    mapping from decision node id to its rule table.
    """

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = cycle or []


class InvalidDistribution(FidauditError):
    """A probability table is not a valid distribution."""


# --- MDPs and discounting -----------------------------------------------


class InvalidDiscount(FidauditError):
    """Discount parameter outside its valid range."""


class SingularSystem(FidauditError):
    """Linear fixed-point solve failed numerically."""


class InvalidDelays(FidauditError):
    """Reward-delay options do not satisfy late.delay > early.delay >= 0."""


# --- assessment -----------------------------------------------------------


class InfeasibleNumerics(FidauditError):
    """Constraint assembly for the feasible-reward set failed."""


class DivergenceDetected(FidauditError):
    """Gradient ascent diverged (gradient norm grew 10x over its start)."""


class DegenerateData(FidauditError):
    """Preference data carries no gradient signal (feature-identical pairs)."""


class EmptyGrid(FidauditError):
    """Discount grid is empty."""


class InvalidPrior(FidauditError):
    """Prior over the discount grid is not a distribution."""


class SingularCovariance(FidauditError):
    """Covariance matrix not invertible even after ridge regularization."""


# --- aggregation ----------------------------------------------------------


class UnknownOption(FidauditError):
    """Ballot approves an option outside the declared universe."""


class EmptyClass(FidauditError):
    """A priority class contains no principals."""


class SearchSpaceTooLarge(FidauditError):
    """Manipulation search requested beyond the exhaustive-search bounds."""


class NegativeWeight(FidauditError):
    """Aggregation weights must be non-negative."""


# --- loyalty --------------------------------------------------------------


class OutcomeSpaceMismatch(FidauditError):
    """Two utility tables are defined over different outcome spaces."""


# --- care -----------------------------------------------------------------


class ZeroLikelihood(FidauditError):
    """Likelihood terms must be strictly positive."""


class SupportMismatch(FidauditError):
    """Train/deploy distributions declared over different supports."""


class UnknownStandard(FidauditError):
    """Care standard id not declared for the scenario's context."""


# --- context --------------------------------------------------------------


class UnknownContextLabel(FidauditError):
    """Context label absent from the subsidiary-duty catalog.

    ``suggestion`` carries the nearest known label, when one exists.
    """

    def __init__(self, message: str, suggestion: str | None = None):
        super().__init__(message)
        self.suggestion = suggestion


class InvalidSpec(FidauditError):
    """Context or principal specification violates an invariant."""


# --- scenario / audit ------------------------------------------------------


class SchemaError(FidauditError):
    """Scenario document failed schema validation.

    ``path`` points at the offending location, e.g. ``world.macid.cpds.C``;
    the message does not repeat it.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
