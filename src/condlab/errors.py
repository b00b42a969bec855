"""Exception types shared across the package."""

__all__ = [
    "ParameterError",
    "AliasingError",
    "SaturationError",
    "NonergodicError",
    "BackendError",
    "SolverError",
    "FitError",
    "ConfigError",
]


class ParameterError(ValueError):
    """A scalar argument is out of its documented range."""


class AliasingError(ValueError):
    """A stencil does not fit on the torus without wrapping onto itself."""


class SaturationError(RuntimeError):
    """A cluster grew to the full torus, so finite-volume diagnostics are meaningless."""


class NonergodicError(ValueError):
    """A spectral measure carries weight at zero, so time averages do not converge."""


class BackendError(RuntimeError):
    """The requested linear-algebra backend cannot handle the operator size."""


class SolverError(RuntimeError):
    """An iterative solve stopped without reaching the requested residual."""


class FitError(RuntimeError):
    """A curve fit had too few usable points or nonpositive data in its window."""


class ConfigError(ValueError):
    """One or more invalid entries in a run configuration.

    Carries every problem found, not just the first, as (location, message)
    pairs in ``errors``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{loc}: {msg}" for loc, msg in self.errors)
        super().__init__(lines)
