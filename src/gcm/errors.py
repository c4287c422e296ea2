"""Exception types shared across the package, and the bounded excerpt of a refused
value that their messages quote."""

import reprlib

_EXCERPT_CHARS = 200
# reprlib stops at six items per container and three levels of nesting, so a huge or
# deeply nested value is never formatted whole; the cut bounds what those limits leave
_EXCERPT = reprlib.Repr()
_EXCERPT.maxlevel = 3
_EXCERPT.maxstring = _EXCERPT_CHARS


def excerpt(value) -> str:
    """``repr(value)``, cut short enough to quote in an error message."""
    text = _EXCERPT.repr(value)
    return text if len(text) <= _EXCERPT_CHARS else text[: _EXCERPT_CHARS - 3] + "..."


class GcmError(Exception):
    """Base class for all library errors."""


class ValidationError(GcmError):
    """Invalid input data, configuration or file contents."""


class InvalidValue(ValidationError, ValueError):
    """An argument outside its domain: a non-finite or mis-shaped matrix, a bad alpha."""


class RankDeficient(ValidationError):
    """A design or input matrix does not have full column rank."""


class ShapeViolation(ValidationError):
    """Matrix dimensions break a model shape constraint (e.g. n <= m or p <= q)."""


class DimensionMismatch(ValidationError):
    """Conformability failure between matrices that must share dimensions."""


class InvalidNoise(ValidationError):
    """Noise specification outside the supported families or parameter ranges."""


class DegenerateTimes(ValidationError):
    """Repeated time points; the polynomial time design would lose rank."""


class ConfigError(ValidationError):
    """Malformed configuration or report file."""


class MatrixParseError(ConfigError):
    """CSV matrix file that cannot be parsed; carries the offending line number."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if line is not None else (f"{path}: " if path else "")
        super().__init__(f"{where}{message}")


class TooFewSamples(GcmError):
    """Not enough observations for the first-stage covariance estimate (n - m < p)."""


class NotSpd(GcmError):
    """A matrix required to be symmetric positive definite is not."""
