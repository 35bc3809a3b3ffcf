"""Exception types shared across the package."""


class VibrolangError(Exception):
    """Base class for all numeric/physics errors raised by this package."""


class VariantError(VibrolangError, TypeError):
    """An operation received the wrong bath variant (discrete vs continuum)."""


class DomainError(VibrolangError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RegimeError(VibrolangError):
    """Requested approximation is invalid for the given parameters
    (e.g. pole expansion with the vibron above the phonon band)."""


class DivergenceError(VibrolangError):
    """An integral required by the operation diverges for these parameters."""


class TruncationError(VibrolangError):
    """Series truncation could not reach the requested tail bound."""


class InstabilityError(VibrolangError):
    """Trajectory integration blew up (energy growth beyond tolerance)."""


class ConfigError(VibrolangError, ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class ResolutionError(VibrolangError):
    """Requested output grid is too coarse to resolve the narrowest feature."""
