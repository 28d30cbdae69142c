"""Exception types shared across the package, plus the line number of a decode error."""


class InputDataError(ValueError):
    """Unusable input data (missing frames, misaligned ground truth, ...)."""


class FeatureFileError(InputDataError):
    """Malformed feature file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def decode_error_line(exc: UnicodeDecodeError) -> int:
    """1-based line of the byte a decode error stopped at, as ``str.splitlines`` numbers lines."""
    return len((exc.object[:exc.start].decode(exc.encoding) + "x").splitlines())


class ConfigError(ValueError):
    """Invalid configuration file or option value."""


class InsufficientDataError(ValueError):
    """Too few correspondences for the requested estimation."""


class SceneValidationError(ValueError):
    """Synthetic scene violates its own geometric constraints."""


class UndefinedMetricError(ValueError):
    """A metric was requested on an empty input set."""
