"""Exception hierarchy shared by all subsystems."""


class DuffingError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DuffingError):
    """A scenario file or option set failed validation."""


class StepFailure(DuffingError):
    """The adaptive integrator could not keep its step above 1e-14, or its
    error estimate became non-finite (the state overflowed)."""


class MaxStepsExceeded(DuffingError):
    """The integrator hit the configured step budget before t_max."""


class NoReturn(DuffingError):
    """A Poincare-section return was not observed before t_max."""


class OnSeparatrix(DuffingError):
    """A period or action was asked of a state within SEPARATRIX_TOL of
    the separatrix energy level, where no closed orbit exists."""


class CenterSingular(DuffingError):
    """An angle operation, or a period or action query, was evaluated
    within 1e-9 of (+-1, 0), whose shared covered image is the rotation
    center itself."""


class OriginSingular(DuffingError):
    """An operation needing a nonzero angular velocity was evaluated at
    the origin, the only point where the angular velocity vanishes."""


class UnwrapAmbiguous(DuffingError):
    """Consecutive angle samples differed by a half turn or more, so the
    continuous branch cannot be identified."""


class DegenerateCrossing(DuffingError):
    """A trajectory segment met the cut within tolerance of the branch
    point, where the sheet hand-off is undefined."""
