"""Exception types shared across the package."""


class OusignalError(Exception):
    """Base class for errors raised by this package."""


class AliasingError(OusignalError, ValueError):
    """Grid too coarse to resolve the requested number of modes."""


class GrowthOverflowError(OusignalError, FloatingPointError):
    """A solution map (forward, or inverse over negative t) would overflow the value cap."""

    def __init__(self, mode: int, exponent: float, t: float):
        self.mode = mode
        self.exponent = exponent
        self.t = t
        super().__init__(
            f"the solution map over t={t:g} overflows at mode {mode}: "
            f"coefficient magnitude would reach exp({exponent:.4g})"
        )


class ConfigError(OusignalError, ValueError):
    """Malformed scenario config or input file."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        where = ""
        if source is not None:
            where = f"{source}:"
        if line is not None:
            where += f"{line}: "
        elif source is not None:
            where += " "
        super().__init__(where + message)
