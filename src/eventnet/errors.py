"""Exception types shared across the package.

The command-line entry point maps these onto exit codes: configuration
problems exit 1, numeric failures exit 2, resource caps exit 3.
"""


class EventNetError(Exception):
    """Base class for package-specific failures."""


class ConfigError(EventNetError, ValueError):
    """A run configuration is malformed or inconsistent."""


class DimensionMismatchError(EventNetError, ValueError):
    """Operands live on different Hilbert spaces."""


class EigengapError(EventNetError, ArithmeticError):
    """An abelian algebra's joint eigenspaces at ``gap_min`` are not its minimal projections."""


class ResolutionError(EventNetError, ArithmeticError):
    """An event family cannot resolve the state at the requested precision."""


class NullBranchError(EventNetError, ArithmeticError):
    """Conditioning on an outcome of (numerically) zero probability."""


class CommutationError(EventNetError, ArithmeticError):
    """Spacelike event projections fail to commute beyond tolerance."""


class CapExceededError(EventNetError, RuntimeError):
    """A configured resource cap (dimension or branch count) was exceeded."""


class BranchOverflowError(CapExceededError):
    """Tree enumeration produced more branches than the configured cap."""
