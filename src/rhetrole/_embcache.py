"""The binary cache of a parsed EMB v1 file.

``embedding.load_precomputed`` keeps the result of parsing a regular EMB
file ``<dir>/<name>`` (a symlink's target) in ``<dir>/.<name>.cache`` and
reads it instead of the text while it holds the 256-bit BLAKE2b digest of
the EMB bytes. It imports this module only for such a file, so a command
that loads no EMB file neither compiles nor holds it.

Cache file format
-----------------
- the line ``EMB-cache-v1 <hex digest> <n>``;
- ``n`` bytes of the keys in row order, as one ASCII JSON array;
- the ``(count, dim)`` float64 matrix in ``.npy`` format.

A cache is read only if it is a regular file of this user (no symlink is
followed), its digest matches, it holds nothing more, and its keys and
matrix pass the EMB parse's own rules: distinct string keys, one per row,
and a C-ordered, finite, native float64 matrix with ``dim`` >= 1. Any other
cache is parsed past and rewritten. It is written to a fresh temporary file
that then replaces the cache path itself, and a failed write is only a
missed cache.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from pathlib import Path
from typing import BinaryIO

import numpy as np

MAGIC = b"EMB-cache-v1"
# Bytes the digest pass over an EMB file reads at a time; the buffer is part
# of a load's peak memory, which tests/test_embedding.py bounds.
_DIGEST_BUFFER = 1 << 16


def new_digest():
    """A fresh BLAKE2b-256 hash, or None if Python was built without it.

    ``hashlib`` would give the same hash, but importing it loads OpenSSL's
    libcrypto: 3.6 MB of peak RSS in ``evaluate`` and ``predict`` (Linux x86-64,
    Python 3.11), none in ``train`` or ``reproduce-run``, whose ``numpy.random``
    loads it anyway through ``secrets`` and ``hmac``."""
    try:
        from _blake2 import blake2b
    except ImportError:
        return None
    return blake2b(digest_size=32)


def read(cache: Path, f: BinaryIO, digest) -> tuple[np.ndarray, dict[str, int]] | None:
    """The matrix and key -> row dict in ``cache``, if it is a regular file
    of this user, its digest is that of the bytes ``f`` reads (hashed into
    ``digest``), and it passes every check; None otherwise."""
    try:
        # No symlink is followed, and a pipe planted there does not block.
        fd = os.open(cache, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return None
    with open(fd, "rb") as c:
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid():
                return None
            magic, hexdigest, size = c.readline(256).split()
            size = int(size)
            if magic != MAGIC or not 0 <= size <= st.st_size:
                return None
            if hexdigest.decode("ascii") != _hex_digest(f, digest):
                return None
            keys = json.loads(c.read(size).decode("utf-8"))
            matrix = np.lib.format.read_array(c, allow_pickle=False)
            trailing = c.read(1)
        # What an unreadable, truncated or foreign file raises, down to keys
        # nested too deep and a matrix too large to allocate.
        except (OSError, ValueError, RecursionError, MemoryError):
            return None
    if type(keys) is not list or not all(type(key) is str for key in keys):
        return None
    rows = dict(zip(keys, range(len(keys))))
    valid = (
        not trailing and len(rows) == len(keys) and matrix.dtype == np.float64
        and matrix.ndim == 2 and matrix.shape[0] == len(keys) and matrix.shape[1] >= 1
        and matrix.flags.c_contiguous and np.isfinite(matrix).all())
    return (matrix, rows) if valid else None


def _hex_digest(f: BinaryIO, digest) -> str:
    """``digest`` of the rest of ``f``, in hex. Its buffer is freed on
    return, before the cache's matrix is read."""
    buf = memoryview(bytearray(_DIGEST_BUFFER))
    while n := f.readinto(buf):
        digest.update(buf[:n])
    return digest.hexdigest()


def write(cache: Path, hexdigest: str, rows: dict[str, int], matrix: np.ndarray) -> None:
    """Replace ``cache`` with the keys of ``rows`` (in row order) and
    ``matrix`` under ``hexdigest``.

    The temporary file is created fresh (``O_EXCL``) and renamed onto the
    cache's own name, so a symlink there is replaced, not written through.
    A write that fails, say on a full disk, leaves no temporary file and
    only costs the next load a parse."""
    keys = json.dumps(list(rows)).encode("ascii")
    tmp = cache.with_name(f"{cache.name}.{os.urandom(4).hex()}.tmp")
    try:
        c = open(tmp, "xb")
    except OSError:
        return
    try:
        with c:
            c.write(b"%s %s %d\n" % (MAGIC, hexdigest.encode("ascii"), len(keys)))
            c.write(keys)
            np.lib.format.write_array(c, matrix, allow_pickle=False)
        os.replace(tmp, cache)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if not isinstance(exc, OSError):
            raise
