"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """A configuration value violates its contract (bad K, odd S, T < 2, ...)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where finite math was required."""


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""
