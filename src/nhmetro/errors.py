"""Typed errors raised by the numerical core and the estimation pipeline."""


class NumericsError(Exception):
    """Base class for all numerical failures."""


class NonFinite(NumericsError):
    """A computation produced NaN or Inf."""


class NotHermitian(NumericsError):
    pass


class NotNormalized(NumericsError):
    pass


class NotProjector(NumericsError):
    pass


class ImaginaryResidue(NumericsError):
    """A quantity that is real in exact arithmetic kept an imaginary part
    above tolerance (or a non-finite one)."""


class Unconverged(NumericsError):
    """An iterative method reached its cap without meeting its tolerance."""


class IllConditioned(NumericsError):
    """The rounding error bound of a result exceeds its tolerance."""


class OutOfRange(NumericsError):
    """Parameter outside the model family's admissible range."""


class UnsupportedFamily(NumericsError):
    """Closed-form expression not available for this model family."""


class UnsupportedProbe(NumericsError):
    """Closed-form expression only valid for a specific probe state."""


class ZeroG(NumericsError):
    """The observable acts trivially on the output state."""


class NotBracketed(NumericsError):
    pass


class AllTrialsFailed(NumericsError):
    pass


class NoPositiveSolution(NumericsError):
    """No positive-definite metric exists: the spectrum is complex (broken
    regime) or H is defective (the exceptional point)."""


class ConfigError(Exception):
    """Invalid experiment config; the message starts with the offending field
    path, if the fault has one."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)
