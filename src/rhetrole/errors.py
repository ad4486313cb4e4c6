"""Package exceptions: one class per exit code of the CLI.

`InputError` is bad user-supplied data or configuration (exit code 2). One
raised while a file is read begins ``<path>: ``, the path as given
(``fileio.naming``). Every other `RhetroleError` is a runtime failure (exit
code 1), such as diverged training or a sentence a precomputed provider
does not carry.
"""


class RhetroleError(Exception):
    """A runtime failure (exit code 1), and the base of `InputError`."""


class InputError(RhetroleError):
    """Invalid user input (exit code 2): a malformed file, a bad label, a bad config."""
