"""The package's exceptions: one type per ``except`` clause that names it.

Every rejected input and every failed check is a DiriterError, which the CLI
reports as one ``error:`` line; a subclass exists only where some caller
handles that case apart from the rest.
"""


class DiriterError(Exception):
    """Base class for all package errors."""


class IterationFailure(DiriterError):
    """The outer iteration stopped without converging. ``report.outcome``
    (``diverged`` or ``max_iters``) says how; ``last_iterate`` is its final iterate."""

    def __init__(self, message, report, last_iterate):
        super().__init__(message)
        self.report = report
        self.last_iterate = last_iterate
