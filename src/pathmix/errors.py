"""Exception types shared across the package; a bad argument that is not a
configuration value, such as a timestep or a shape, raises a ValueError."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where finite math was required (exit 1)."""


class ScenarioError(ValueError):
    """A scenario key, CLI option or configuration argument is bad (exit 2)."""
