"""Exception hierarchy.

CLI exit codes: InputError maps to 1, HypothesisError to 2, and every
other LogChernError to 3, reported as error type ``"budget"`` for
NotFiniteLengthError and ResolutionLengthError (a degree cap or resolution
length was exceeded) and ``"engine"`` otherwise (a failed cross-check, or
an exponent beyond the Groebner engine's packed limit).
"""


class LogChernError(Exception):
    """Base class for all package errors."""


class InputError(LogChernError):
    """Malformed or invalid user input (bad file, zero normal, duplicates)."""


class ArityMismatchError(InputError):
    """Operands live over polynomial rings with different variable counts."""


class NonUnitError(InputError):
    """Inversion of a truncated polynomial whose constant term is not a unit."""


class HypothesisError(LogChernError):
    """A theorem hypothesis fails or cannot be certified for this input."""


class NotFiniteLengthError(LogChernError):
    """Length requested for a module that is not finite dimensional."""


class ResolutionLengthError(LogChernError):
    """Resolution construction exceeded the allowed number of steps."""


class EngineError(LogChernError):
    """Internal inconsistency detected by a cross-check (a bug), or an
    exponent beyond the engine's packed exponent limit."""
