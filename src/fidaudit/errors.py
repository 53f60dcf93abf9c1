"""The package's error contract.

A value that a library function rejects raises ``ValueError``, so
``except ValueError`` catches every deliberate error in the package (the
audit pipeline turns it into a Fail finding). An error keeps a class of its
own only when it carries data beyond its message; those derive from
``FidauditError``, itself a ``ValueError``.
"""

from __future__ import annotations


class FidauditError(ValueError):
    """Base class for the errors that carry data."""


class NoConvergence(FidauditError):
    """Best-response iteration found no equilibrium.

    ``cycle`` holds the repeating sequence of profiles, each a mapping
    from decision node id to its 0/1 rule array; it is empty when the
    round cap was hit before any profile came back.
    """

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = cycle or []


class UnknownContextLabel(FidauditError):
    """Context label absent from the subsidiary-duty catalog.

    ``suggestion`` carries the nearest known label, when one exists.
    """

    def __init__(self, message: str, suggestion: str | None = None):
        super().__init__(message)
        self.suggestion = suggestion


class SchemaError(FidauditError):
    """Scenario document failed schema validation.

    ``path`` points at the offending location, e.g. ``world.macid.cpds.C``;
    the message does not repeat it.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
