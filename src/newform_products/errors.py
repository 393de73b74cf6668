"""Exception hierarchy shared across the package."""


class NewformError(Exception):
    """Base class for all package-specific errors."""


class SingularCurve(NewformError):
    """Weierstrass data with vanishing discriminant, or a model that is not minimal."""


class NonUnitConstantTerm(NewformError):
    """Series inversion requires constant term +1 or -1."""


class NonMonicSeries(NewformError):
    """Operation requires a series of the shape q + O(q^2)."""


class InternalIntegralityFailure(NewformError):
    """Internal invariant failed; indicates a bug."""


class PrecisionExceeded(NewformError):
    """Requested data lies beyond the truncation order of the inputs."""


class BlockMismatch(NewformError):
    """Exponent sequence does not fit the claimed (r, t) block pattern."""


class ZeroSequence(NewformError):
    """Block inference needs at least one nonzero exponent."""


class TableMismatch(NewformError):
    """Recomputation contradicts an embedded table row; fatal fixture error."""


class UnknownLevel(NewformError):
    """No registry record exists for the requested conductor."""
