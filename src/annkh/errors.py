"""Exception types and structured diagram violations."""

from dataclasses import dataclass


class AnnkhError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedRingError(AnnkhError):
    """Operation requires a Euclidean (or field) coefficient ring."""


class InvalidBasisError(AnnkhError):
    """Requested basis convention is not valid over the given ring."""


class VariantRingMismatchError(AnnkhError):
    """The theory or operation does not fit the coefficient ring or cube."""


class ShapeMismatchError(AnnkhError):
    """Linear maps or matrices are not composable."""


class NotACubeEdgeError(AnnkhError):
    """The two smoothings do not differ in exactly one crossing."""


class ArityMismatchError(AnnkhError):
    """Tangle endpoint counts do not match for composition."""


class ParityError(AnnkhError):
    """Tangle endpoint counts have different parities."""


class EmbeddingViolationError(AnnkhError):
    """A circle winds more than once around the puncture."""


class InvariantError(AnnkhError):
    """A structural invariant of the construction does not hold."""


# Violation kinds reported by diagram validation.
RAY_TANGENCY = "RAY_TANGENCY"
ENDPOINT_MISMATCH = "ENDPOINT_MISMATCH"
SELF_INTERSECTION = "SELF_INTERSECTION"
ORIGIN_ON_CURVE = "ORIGIN_ON_CURVE"


@dataclass(frozen=True)
class Violation:
    kind: str
    where: str
    detail: str = ""

    def __str__(self):
        msg = f"{self.kind} at {self.where}"
        return f"{msg}: {self.detail}" if self.detail else msg


class InvalidDiagramError(AnnkhError):
    """Raised when an operation requires a valid diagram."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))
