"""Exception types shared across the package.

The CLI maps these onto exit codes: rejected inputs exit with 1,
numerical failures with 2.
"""


class InputError(ValueError):
    """A rejected input: violated precondition, malformed file, bad config."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or produced invalid output.

    step, when given, is the iteration at which a run was found diverged.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
