"""Exception hierarchy."""


class ConeCbfError(Exception):
    """Base class for all package errors."""


class ValidationError(ConeCbfError):
    """Bad scenario data, malformed files, or out-of-contract arguments."""


class SimulationError(ConeCbfError):
    """A run diverged or got stuck; carries the offending step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
