"""Package exceptions, and the field-type check every config dataclass runs.

Two broad families matter to callers: `InputError` subclasses signal bad
user-supplied data or configuration (the CLI maps them to exit code 2),
everything else deriving from `RhetroleError` is a runtime failure
(exit code 1).
"""

from __future__ import annotations

import math
from dataclasses import fields


class RhetroleError(Exception):
    """Base class for all package errors."""


class InputError(RhetroleError):
    """Invalid user input: malformed files, bad labels, bad config."""


class CorpusParseError(InputError):
    """Malformed corpus line. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownLabelError(CorpusParseError):
    """Label string outside the closed seven-label set."""


class EmbeddingFormatError(InputError):
    """Embedding file violates the EMB v1 format."""


class CheckpointFormatError(InputError):
    """Checkpoint file violates the CKPT v1 format."""


class ConfigError(InputError):
    """Run configuration is internally inconsistent or incomplete."""


class DimensionMismatchError(InputError):
    """Provider, checkpoint, or vector dimensions disagree."""


class MissingEmbeddingError(RhetroleError):
    """A precomputed provider was asked for a sentence it does not carry."""


def _is_int(value: object) -> bool:
    """isinstance(value, int) without booleans, which Python counts as integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """An int or float that converts to a finite float. JSON files and flags
    can carry nan, inf and integers beyond float range."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_TYPE_RULES = {
    "int": (_is_int, "an integer"),
    "float": (_is_real, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
}


def check_field_types(instance: object) -> None:
    """Raise ConfigError naming the first field of a dataclass instance whose
    value breaks its ``int``, ``float`` or ``str`` annotation, optionally with
    ``| None``. Other annotations are left to the class's own rules. The
    annotations are read as text, so the dataclass's module must postpone
    their evaluation (``from __future__ import annotations``)."""
    for f in fields(instance):
        kind = f.type.removesuffix(" | None")
        value = getattr(instance, f.name)
        if kind not in _TYPE_RULES or (value is None and kind != f.type):
            continue
        accepts, expected = _TYPE_RULES[kind]
        if not accepts(value):
            raise ConfigError(f"{f.name} must be {expected}")
