"""Reading and writing the package's text files.

Every file is UTF-8. A file that is not fails as an ``InputError`` (exit 2)
that names the file and the line of the first bad byte. Lines may end in
``\\r\\n``. Counts are ASCII digits and reals ASCII decimals, stricter than
``int()`` and ``float()``, in files and command-line flags alike. Reals are
written in their shortest round-trip form, so they read back bit for bit.
Every output is written to a temporary file beside its target, which
replaces the target with ``os.replace`` only once it is complete: a write
that fails part-way leaves the previous file, or none, and no temporary
file. Only a device or pipe, which cannot be replaced, is written in place.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError


def _not_utf8(path: str | Path, line_no: int) -> InputError:
    return InputError(f"{path}: line {line_no} is not valid UTF-8")


def read_text(path: str | Path) -> str:
    """The whole file, decoded strictly as UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data.count(b"\n", 0, exc.start) + 1) from None


def decode_lines(f: Iterable[bytes], path: str | Path) -> Iterator[str]:
    """The raw lines of a binary stream less their ``\\n`` or ``\\r\\n``, decoded
    one at a time: byte 0x0A never occurs inside a UTF-8 multibyte sequence."""
    for line_no, raw in enumerate(f, start=1):
        try:
            yield raw.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError:
            raise _not_utf8(path, line_no) from None


def read_count(text: str) -> int:
    """A non-negative integer written in ASCII digits only; ValueError otherwise."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(text)


def read_reals(lines: Sequence[str]) -> np.ndarray:
    """numpy's C parse of whitespace-separated reals, one row per string;
    ValueError on a value it does not take, on ragged rows or on a string
    that holds no value, which the parser would skip."""
    if not all(line and not line.isspace() for line in lines):
        raise ValueError("a blank line holds no values")
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def read_real(text: str) -> float:
    """The one real that ``read_reals([text])`` reads; ValueError otherwise."""
    values = read_reals([text])
    if values.shape != (1, 1):
        raise ValueError(f"not one real: {text!r}")
    return float(values[0, 0])


def format_reals(values) -> str:
    """Space-separated float64 values, each in its shortest round-trip form."""
    return " ".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def check_output_path(path: str | None, directory: bool = False) -> Path | None:
    """``path`` as a ``Path`` (None stays None), refused with an ``InputError`` if no
    file, or with ``directory`` no directory made with its parents, can go there."""
    if path is None:
        return None
    if not path:
        raise InputError("output path is empty")
    p = Path(path)
    if directory:  # mkdir(parents=True) needs the first ancestor that exists to be a directory
        if not (existing := next((a for a in (p, *p.parents) if os.path.lexists(a)), p)).is_dir():
            raise InputError(f"output directory {p}: {existing} is not a directory")
    elif p.is_dir():
        raise InputError(f"output file {path} is a directory")
    elif not (parent := Path(os.path.realpath(path)).parent).is_dir():  # write_atomic's tmp file
        raise InputError(f"output file {path}: {parent} is not a directory")
    return p


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the UTF-8 encoding of ``chunks`` to ``path`` atomically.

    A symlink is followed, so the file it names is replaced. A target that
    exists but is no regular file, such as ``/dev/null`` or a pipe, cannot be
    replaced, and is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as f:
            _write(f, chunks)
        return
    target = Path(os.path.realpath(path))
    tmp = target.parent / f".{target.name}.{os.urandom(4).hex()}.tmp"
    try:
        f = open(tmp, "xb")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            _write(f, chunks)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write(f: BinaryIO, chunks: Iterable[str]) -> None:
    for chunk in chunks:
        f.write(chunk.encode("utf-8"))
