"""Shared exception types."""

__all__ = ["FormatError", "NothingToScoreError", "TrainingError"]


class FormatError(ValueError):
    """A structured input file failed to parse.

    Carries the offending path and 1-based line number so command-line
    callers can print a single file:line diagnostic.
    """

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = int(line)
        self.reason = message
        super().__init__(f"{self.path}:{self.line}: {message}")


class NothingToScoreError(ValueError):
    """Collar and overlap removal left an utterance no scorable time."""


class TrainingError(RuntimeError):
    """Raised when an optimization step cannot proceed."""
