"""Exception hierarchy for prodex."""


class ProdexError(Exception):
    """Base class for all prodex errors."""


class ValidationError(ProdexError):
    """A domain object was constructed with invalid data."""


class UndeterminedValueError(ValidationError):
    """A point's function value is not determined at the given horizon."""


class UnsupportedTailError(ProdexError):
    """No closed form or bound is registered for the requested tail rule."""


class NotTailEquivalentError(ProdexError):
    """Two points do not agree from any known coordinate onward."""


class NotStraddlingError(ProdexError):
    """The supplied pair of points does not straddle the target value."""


class StraddleNotFoundError(ProdexError):
    """No sampled point produced a hull straddling the target value."""

    def __init__(self, depth: int, samples_tried: int):
        super().__init__(
            f"no straddling hull found at depth {depth} "
            f"after {samples_tried} samples"
        )
        self.depth = depth
        self.samples_tried = samples_tried


class NotFinitisticError(ProdexError):
    """The profile has no declared Dirac tail."""


class PurificationFailedError(ProdexError):
    """No sampled point could be certified for all actions."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class ToleranceConfigError(ProdexError):
    """Engine tolerance too coarse for the requested certification."""


class ScenarioError(ProdexError):
    """A scenario file failed to parse or validate."""

    def __init__(self, message: str, location: str = ""):
        full = f"{location}: {message}" if location else message
        super().__init__(full)
        self.location = location
