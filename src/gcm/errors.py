"""Exception types shared across the package."""


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
