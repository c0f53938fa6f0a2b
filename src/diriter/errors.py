"""Exception hierarchy shared across the package."""


class DiriterError(Exception):
    """Base class for all package errors."""


class SpacingTooCoarse(DiriterError):
    """Grid spacing leaves fewer than 3 nodes on some axis."""


class GridTooCoarse(DiriterError):
    """Operation needs more nodes per axis than the grid has."""


class NotConforming(DiriterError):
    """Field violates the boundary values required by the operation."""


class NoConvergence(DiriterError):
    """Linear solve stopped before reaching the residual tolerance."""


class MissingNorm(DiriterError):
    """A data norm required by the selected nonlinearity is absent."""


class NonFiniteData(DiriterError):
    """A data field of the right-hand side holds NaN or inf."""


class FixedPointInconsistent(DiriterError):
    """The computed fixed point of the growth majorant fails its self-consistency check."""


class BracketNotFound(DiriterError):
    """Fixed-point search exhausted its interval while the gap was still shrinking."""


class IterationFailure(DiriterError):
    """Base for outer-iteration failures; carries the partial report and last iterate."""

    def __init__(self, message, report=None, last_iterate=None):
        super().__init__(message)
        self.report = report
        self.last_iterate = last_iterate


class IterationDiverged(IterationFailure):
    """Iterates blew up in sup norm or ratios stayed above 1."""


class IterationMaxIters(IterationFailure):
    """Iteration budget exhausted without meeting the stopping tolerance."""


class ConfigError(DiriterError):
    """Experiment configuration file is malformed or incomplete."""
