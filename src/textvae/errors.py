"""Exception hierarchy shared across the toolkit.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class TextVaeError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(TextVaeError):
    """Invalid configuration value or malformed config file."""


class DataError(TextVaeError):
    """Bad input data: empty corpus, unreadable file, hash mismatch."""


class DimensionError(TextVaeError):
    """Tensor shape mismatch; message names the offending shapes."""


class NumericError(TextVaeError):
    """Numeric domain violation (exp overflow)."""


class ContractError(TextVaeError):
    """An internal contract was violated (non-scalar loss, non-determinism)."""


class TrainingError(TextVaeError):
    """Training diverged. Carries the last good parameters and the log."""

    def __init__(self, message, params=None, log=None):
        super().__init__(message)
        self.params = params
        self.log = log


class TrainingInterrupted(TrainingError):
    """Training was interrupted (Ctrl-C). Carries the last good parameters and the log."""
