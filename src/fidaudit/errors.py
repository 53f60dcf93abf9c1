"""The package's error contract.

A value that a library function rejects raises ``ValueError``, so
``except ValueError`` catches every deliberate error in the package (the
audit pipeline turns it into a Fail finding). An error keeps a class of its
own only when a caller reads data it carries beyond its message; the two
that do are ``ValueError``s.
"""

from __future__ import annotations


class NoConvergence(ValueError):
    """Best-response iteration found no equilibrium.

    ``period`` is the length of the cycle of profiles the sweeps entered;
    it is None when the round cap was hit before any profile came back.
    """

    def __init__(self, message: str, period: int | None = None):
        super().__init__(message)
        self.period = period


class SchemaError(ValueError):
    """Scenario document failed schema validation.

    ``path`` points at the offending location, e.g. ``world.macid.cpds.C``;
    the message does not repeat it.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
