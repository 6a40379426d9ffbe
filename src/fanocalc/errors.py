"""Exception types shared across the toolkit."""


class DimensionError(ValueError):
    """Matrix or vector dimensions do not fit the operation."""


class DomainError(ValueError):
    """Input violates a precondition (wrong degree, point off the variety, ...)."""


class DegeneracyError(ValueError):
    """A construction required a nondegenerate input (pencil rank drop, dependent net, ...)."""


class ConstraintError(ValueError):
    """A group element violates one of its defining linear constraints."""


class ClosureError(RuntimeError):
    """A product left the parametrized family; firing this is a bug, not a user error."""


class NotAFlopError(ValueError):
    """A curve list handed to the flop has a curve with nonzero canonical degree."""


class SplitError(ValueError):
    """The requested linear factor does not divide (or divides more than once)."""


class WitnessError(ValueError):
    """No rational group element realizes the requested transport."""
