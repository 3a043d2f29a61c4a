"""Exception hierarchy shared across the toolkit.

Each class declares its CLI exit code as ``exit_code``, and only there;
cli.EXIT_CODES is built from them.  The config dataclasses' base class
lives here too, with the one table of field types, because this is the one
module every module that defines a config already imports.
"""

import math
import numbers
import typing
from dataclasses import fields


class TextVaeError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 5  # internal, as is any exception that is not a TextVaeError


class ConfigError(TextVaeError):
    """Invalid configuration value or malformed config file."""
    exit_code = 2


class DataError(TextVaeError):
    """Bad input data: empty corpus, unreadable file, hash mismatch."""
    exit_code = 3


class DimensionError(TextVaeError):
    """Tensor shape mismatch; message names the offending shapes."""
    exit_code = 4


class NumericError(TextVaeError):
    """An evaluation metric that is not finite (see ``metrics.evaluate``)."""
    exit_code = 4


class ContractError(TextVaeError):
    """An internal contract was violated (non-scalar loss, non-determinism)."""
    exit_code = 5


class TrainingError(TextVaeError):
    """Training diverged. Carries the last good parameters and the log."""
    exit_code = 4

    def __init__(self, message, params=None, log=None):
        super().__init__(message)
        self.params = params
        self.log = log


class TrainingInterrupted(TrainingError):
    """Training was interrupted (Ctrl-C). Carries the last good parameters and the log."""
    exit_code = 130


# each annotation a config dataclass field may carry -> (what it must be, its test);
# bool is an int subclass, so the tests compare exact types or refuse it by name;
# JSON has no tuple, so a pair may arrive as a two-element list
FIELD_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    int | None: ("an integer or null", lambda v: v is None or type(v) is int),
    float: ("a finite number", lambda v: isinstance(v, numbers.Real)
            and not isinstance(v, bool) and math.isfinite(v)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    tuple[int, int]: ("two integers", lambda v: isinstance(v, (tuple, list)) and len(v) == 2
                      and all(type(x) is int for x in v)),
}


class Config:
    """Base of the config dataclasses: a config is checked when it is made, so one
    that exists is valid, also when made in code or by ``dataclasses.replace``.

    Each field's value must have its annotated type (see FIELD_TYPES) and be at
    least its entry in the subclass's ``LOWER``, if any (None passes a bound).
    A subclass adds any other check to its own ``__post_init__``.  The first
    field that fails raises ConfigError "<field> must be ...".
    """

    LOWER = {}  # field name -> smallest value allowed

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for f in fields(self):
            kind, ok = FIELD_TYPES[hints[f.name]]
            value, low = getattr(self, f.name), self.LOWER.get(f.name)
            if not ok(value):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if low is not None and value is not None and value < low:
                raise ConfigError(f"{f.name} must be >= {low}, got {value!r}")


def read_config(cls, section: dict, name: str, **overrides):
    """Build config dataclass ``cls`` from ``section``, config-file section ``name``
    with ``overrides`` (flag values) applied.  A section that is not an object, an
    unknown key, or a value that ``cls`` refuses raises ConfigError."""
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in config section {name!r}")
    return cls(**{**section, **overrides})
