"""Package exceptions.

Two broad families matter to callers: `InputError` subclasses signal bad
user-supplied data or configuration (the CLI maps them to exit code 2),
everything else deriving from `RhetroleError` is a runtime failure
(exit code 1).
"""

from __future__ import annotations


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
