"""Exception types shared across the package.

A ``RunFailure`` is a run that failed on valid input; the command line
exits 1 for it (as for ``OSError`` and ``MemoryError``) and 2 for every
other ``RfuncdsError``, which is a usage error or malformed input.
"""


class RfuncdsError(Exception):
    """Base class for all package-specific errors."""


class RunFailure(RfuncdsError):
    """Base class for failures of a run on valid input."""


# --- expression evaluation / construction ---

class UnboundVariable(RfuncdsError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not bound in the evaluation point")


class NegativeSqrtArgument(RfuncdsError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"sqrt argument {value!r} is below the -1e-12 clamp band")


class AlphaOutOfRange(RfuncdsError):
    def __init__(self, alpha: float):
        self.alpha = alpha
        super().__init__(f"alpha must satisfy -1 < alpha <= 1, got {alpha!r}")


class MixedVariableLists(RfuncdsError):
    """Raised when combined regions do not share one variable list."""


class ParseError(RfuncdsError):
    def __init__(self, position, reason: str):
        self.position = position
        self.reason = reason
        at = f" at position {position}" if position is not None else ""
        super().__init__(f"parse error{at}: {reason}")


# --- geometry ---

class InvalidSpec(RfuncdsError):
    """Primitive parameters violate their invariants."""


class UnknownTestCase(RfuncdsError):
    def __init__(self, name: str, known):
        super().__init__(f"unknown test case {name!r}; known: {', '.join(known)}")


# --- fields / sampling / fitting ---

class DimensionMismatch(RfuncdsError):
    """Point or bounds dimension does not match the expected one."""


class DimensionUnsupported(RfuncdsError):
    def __init__(self, d: int, d_max: int):
        super().__init__(f"dimension {d} unsupported (must be 1..{d_max})")


class SampleCountTooLarge(RfuncdsError):
    """skip + n would exhaust the 32-bit index space of the generator."""


class BoundsMismatch(RfuncdsError):
    """Bounds do not match the sample dimension, have lo >= hi, or leave the
    model's domain."""


class NonFiniteValue(RunFailure):
    """A model output, design matrix or fit target holds inf or nan."""


class RankDeficient(RunFailure):
    """Design matrix is rank deficient after column scaling."""


class InsufficientPoints(RunFailure):
    """Fewer training points than basis monomials."""


# --- reactor ---

class NonpositiveTemperature(RfuncdsError):
    def __init__(self, value: float):
        super().__init__(f"temperature must be positive, got {value!r}")


class ToleranceNotMet(RunFailure):
    """An a-posteriori accuracy check failed, such as the closed form's C_B
    error estimate exceeding its tolerance."""


# --- design space ---

class EmptyConstraintList(RfuncdsError):
    """identify() needs at least one constraint."""


class ModelOutputShape(RfuncdsError):
    """A model returned an array whose shape is not (points, constraints)."""


class OutOfBox(RfuncdsError):
    """Queried point lies outside the report's parameter box."""


class DTooSmall(RfuncdsError):
    def __init__(self, d: int):
        super().__init__(f"plot count needs d >= 2, got {d}")
