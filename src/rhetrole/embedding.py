"""Sentence-to-vector providers.

Two interchangeable providers sit behind the same duck-typed surface
(``provider_id``, ``dimension``, ``embed(texts)`` -> ``(n, dim)`` float64):
a deterministic hashed bag-of-words encoder, and a table of precomputed
vectors from any external encoder (loaded from an EMB v1 file).

EMB v1 file format
------------------
Line 1: ``EMB v1 <count> <dim>``, both in ASCII digits. Each following line
holds one record: the sentence key as a JSON-quoted string, a space, then
``dim`` whitespace-separated ASCII decimal reals (integer and scientific
notation both accepted). Floats are written with shortest round-trip
precision, so write -> load -> write is byte-identical.

A parse reads the file once, a pipe included: each record's key is checked,
and its values are converted by numpy's C text parser
(``fileio.read_reals``) and checked finite, into one ``(count, dim)`` matrix
with a key -> row dict, so a parse holds that matrix plus one line. After
the first bad record the rest is only counted, so a count mismatch is named
before it. Saving holds one line and replaces the file atomically.

Every load of a regular EMB file goes through a binary cache beside it,
whose format and trust rules ``_embcache`` holds. It reads the cache when
that holds the digest of the file's bytes, and otherwise parses the file,
hashing each raw line as the parse reads it, and rewrites the cache under
that digest, so a cache never stands for bytes other than those parsed. A
pipe is parsed once, with no cache, as is any file on a host without POSIX
file owners or a Python without ``_blake2``.

The hashed provider embeds its texts in chunks of ``_EMBED_CHUNK_ROWS``.
Each chunk's texts are tokenised once, and its distinct tokens are hashed
together by a vectorised FNV-1a (``hash_vocabulary``), so no memo is kept
between chunks. Each row is then one ``bincount`` over its tokens' buckets
and signs, with the same bytes as hashing token by token. ``tokenize``
strips edge punctuation with ``str.strip`` over the constant table
``_PUNCTUATION``, then looks up the category of an edge left non-alphanumeric.

Training reads its vectors through ``table_rows``. A hashed row of dim 256
has about 30 nonzero cells, so its training rows are kept as the cells whose
bytes are not all zero, in a private CSR row store. Its ``take`` writes
dense rows into the caller's buffer, as ``ndarray.take`` does: each kept
cell bit for bit and +0.0 elsewhere, so a row has the dense matrix's bytes.
"""

from __future__ import annotations

import json
import math
import os
import stat
import unicodedata
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Container, Iterable, Iterator, Sequence

from ._lazynp import np
from .errors import InputError, RhetroleError
from .fileio import decode_lines, format_reals, naming, read_count, read_reals, write_atomic

CASINGS = ("cased", "uncased")

# FNV-1a 64-bit constants (public-domain reference parameters).
_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
# Rows HashedBowProvider.embed tokenises and hashes together. Chunks of 128
# to 1,024 rows ran equally fast on a 5k-sentence corpus; each chunk's
# token lists and vocabulary add about 1 MB per 1,000 rows to the peak.
_EMBED_CHUNK_ROWS = 256
# Dense bytes of the training rows table_rows embeds at a time before it keeps
# their nonzeros: 256 rows at dim 256, one chunk of embed.
_TABLE_BLOCK_BYTES = 1 << 19

_KEY_DECODER = json.JSONDecoder()
# Every P* character of U+0000-U+00FF and U+2000-U+206F; a test checks it against unicodedata.
_PUNCTUATION = ("!\"#%&'()*,-./:;?@[\\]_{}¡§«¶·»¿"
                "‐‑‒–—―‖‗‘’‚‛“”„‟†‡•‣․‥…‧‰‱′″‴‵‶‷‸‹›※‼‽‾‿⁀⁁⁂⁃⁅⁆⁇⁈⁉⁊⁋⁌⁍⁎⁏⁐⁑⁓⁔⁕⁖⁗⁘⁙⁚⁛⁜⁝⁞")


def tokenize(text: str, casing: str) -> list[str]:
    """Whitespace tokenizer with edge punctuation stripping.

    Uncased mode lowercases the text up front. Tokens are split on Unicode
    whitespace, stripped of leading/trailing punctuation only (internal
    periods and hyphens in citations like "s.302" survive), and dropped when
    nothing remains. No alphanumeric character is punctuation (category
    P*), so a token that ``str.isalnum`` passes whole is kept as it is.
    """
    if casing == "uncased":
        text = text.lower()
    return [tok for raw in text.split()
            if (tok := raw if raw.isalnum() else _strip_edge_punctuation(raw))]


def _strip_edge_punctuation(token: str) -> str:
    """``token`` without its edge punctuation: ``str.strip``, then the category loop."""
    token = token.strip(_PUNCTUATION)
    if token and not (token[0].isalnum() and token[-1].isalnum()):
        start, end = 0, len(token)
        while start < end and unicodedata.category(token[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(token[end - 1]).startswith("P"):
            end -= 1
        token = token[start:end]
    return token


def _fnv1a_64_many(tokens: Sequence[str]) -> np.ndarray:
    """FNV-1a 64-bit hash of each token's UTF-8 bytes, as a uint64 array.

    The tokens are sorted longest first, so the ones that still have a byte
    at position p are a prefix; each step hashes that byte of all of them at
    once. uint64 multiplication wraps modulo 2**64, as FNV-1a's does.
    """
    data = list(map(str.encode, tokens))  # UTF-8
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    order = np.argsort(-lengths, kind="stable")
    buf = np.frombuffer(b"".join(data), dtype=np.uint8)
    # pos: the next byte's offset in buf of each token, longest first;
    # active[p]: how many tokens are longer than p bytes, ending in 0.
    pos = (np.cumsum(lengths) - lengths).take(order)
    active = (len(data) - np.cumsum(np.bincount(lengths))).tolist() + [0]
    hashes = np.full(len(data), _FNV64_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV64_PRIME)
    p = 0
    while active[p]:
        h, at = hashes[: active[p]], pos[: active[p]]
        np.bitwise_xor(h, buf.take(at), out=h)
        np.multiply(h, prime, out=h)
        np.add(at, 1, out=at)
        p += 1
    out = np.empty_like(hashes)
    out[order] = hashes
    return out


def hash_vocabulary(
    tokens: Sequence[str], dim: int
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """``(ids, buckets, signs)`` of distinct ``tokens``: ``ids`` maps each
    token to its position, ``buckets[i]`` is the FNV-1a 64-bit hash of
    ``tokens[i]``'s UTF-8 bytes mod ``dim``, and ``signs[i]`` is -1.0 where
    that hash's second-lowest bit is set, else +1.0."""
    hashes = _fnv1a_64_many(tokens)
    buckets = (hashes % np.uint64(dim)).astype(np.intp)
    signs = np.where(hashes & np.uint64(2), -1.0, 1.0)
    return dict(zip(tokens, range(len(tokens)))), buckets, signs


def encode_hashed_bow(
    tokens: Sequence[str], dim: int, vocab: tuple[dict[str, int], np.ndarray, np.ndarray]
) -> np.ndarray:
    """Signed hashed bag-of-words vector, L2-normalized unless all-zero.

    Each token adds +-1 at its ``hash_vocabulary`` bucket; the sign comes
    from the hash's second-lowest bit (+1 when that bit is 0) to dampen
    collision bias. ``vocab``, from ``hash_vocabulary`` over ``dim``, must
    hold every token.
    """
    ids, buckets, signs = vocab
    r = np.fromiter(map(ids.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    # Sums of +-1.0 are exact, so the bucket totals do not depend on order.
    # bincount returns int64 when there are no tokens, whatever the weights.
    vec = np.bincount(buckets.take(r), weights=signs.take(r), minlength=dim).astype(
        np.float64, copy=False)
    # The squared norm is an exact integer, so this is np.linalg.norm's value.
    norm = math.sqrt(vec @ vec)
    if norm > 0.0:
        vec /= norm
    return vec


def parse_provider_spec(spec: str) -> tuple[str, int | str, str | None, int | None]:
    """Parse a provider spec into ``(kind, dim or path, casing, max_len)``.

    Accepts ``hashed:<dim>``, a full hashed provider id
    ``hashed:<dim>:<casing>:<max_len>``, and ``precomputed:<path>``. Casing
    and max_len are None unless the spec carries them. Raises InputError
    (exit 2) on anything else, quoting the spec.
    """
    kind, _, rest = spec.partition(":")
    if kind == "precomputed" and rest:
        return "precomputed", rest, None, None
    if kind != "hashed":
        raise InputError(f"provider must be 'hashed:<dim>' or 'precomputed:<path>', got {spec!r}")
    parts = rest.split(":")
    try:
        if len(parts) == 1:
            dim, casing, max_len = read_count(parts[0]), None, None
        elif len(parts) == 3:
            dim, casing, max_len = read_count(parts[0]), parts[1], read_count(parts[2])
        else:
            raise ValueError(spec)
    except ValueError:
        raise InputError(f"bad hashed provider spec {spec!r}") from None
    if dim < 1:
        raise InputError("hashed provider dimension must be >= 1")
    return "hashed", dim, casing, max_len


class HashedBowProvider:
    """Self-contained deterministic encoder: the hashed BOW of each text's
    first ``max_len`` tokens, over a ``dim`` of at least 1 (``parse_provider_spec``)."""

    def __init__(self, dim: int, casing: str, max_len: int):
        if casing not in CASINGS:
            raise InputError(f"casing must be one of {CASINGS}, got {casing!r}")
        # bool is an int subclass, and True is no length.
        if type(max_len) is not int or max_len < 1:
            raise InputError(f"max_len must be an integer >= 1, got {max_len!r}")
        self.dimension, self.casing, self.max_len = dim, casing, max_len
        self.provider_id = f"hashed:{dim}:{casing}:{max_len}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """The (n, dim) hashed bag-of-words rows of ``texts``, a chunk of
        ``_EMBED_CHUNK_ROWS`` at a time (see the module docstring)."""
        casing, max_len, dim = self.casing, self.max_len, self.dimension

        def rows() -> Iterator[np.ndarray]:
            for start in range(0, len(texts), _EMBED_CHUNK_ROWS):
                # Each distinct token is held once, as the key of ``seen``.
                seen: dict[str, str] = {}
                chunk = [[seen.setdefault(tok, tok) for tok in tokenize(text, casing)[:max_len]]
                         for text in texts[start:start + _EMBED_CHUNK_ROWS]]
                vocab = hash_vocabulary(list(seen), dim)
                for tokens in chunk:
                    yield encode_hashed_bow(tokens, dim, vocab)

        return np.fromiter(rows(), dtype=np.dtype((np.float64, dim)), count=len(texts))


class PrecomputedProvider:
    """Exact-key table of externally computed sentence vectors: one
    ``(n, dim)`` matrix and a key -> row dict."""

    def __init__(self, matrix: np.ndarray, rows: dict[str, int], provider_id: str):
        self.dimension, self.provider_id = matrix.shape[1], provider_id
        # A read-only view: the matrix is lent out by table_rows, and the
        # caller's own array stays writeable.
        self._matrix = matrix.view()
        self._matrix.flags.writeable = False
        self._rows = rows

    def _row_ids(self, texts: Sequence[str]) -> np.ndarray:
        """The matrix row of each text, as ``np.intp``; a RhetroleError (exit 1)
        names the first absent one."""
        try:
            return np.fromiter(map(self._rows.__getitem__, texts), dtype=np.intp, count=len(texts))
        except KeyError as exc:
            raise RhetroleError(f"no precomputed embedding for sentence {exc.args[0]!r}") from None

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """A copy of the rows of ``texts``; a RhetroleError names the first absent one."""
        return self._matrix.take(self._row_ids(texts), axis=0)


def load_precomputed(path: str | Path) -> PrecomputedProvider:
    """The provider ``precomputed:<path>``: a regular file is read from the
    cache beside it that holds its digest, or parsed while hashed to rewrite
    that cache; other input is parsed once (see the module docstring)."""
    with naming(path), open(path, "rb") as f:
        digest = None
        # A pipe cannot be read twice, and the cache's trust rules need POSIX
        # file owners and O_NOFOLLOW.
        if os.name == "posix" and stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            # Imported here, so a command that loads no EMB file never compiles it.
            from . import _embcache
            digest = _embcache.new_digest()
        if digest is None:
            matrix, rows = _read_emb(f)
        else:
            real = Path(os.path.realpath(path))
            cache = real.with_name(f".{real.name}.cache")
            cached = _embcache.read(cache, f, digest.copy())
            if cached is None:
                f.seek(0)
                matrix, rows = _read_emb(_hashed(f, digest))
                _embcache.write(cache, digest.hexdigest(), rows, matrix)
            else:
                matrix, rows = cached
    return PrecomputedProvider(matrix, rows, f"precomputed:{Path(path)}")


def _hashed(f: BinaryIO, digest) -> Iterator[bytes]:
    """The raw lines of ``f``, each added to ``digest`` as it is read."""
    for raw in f:
        digest.update(raw)
        yield raw


def _read_emb(raw: Iterable[bytes]) -> tuple[np.ndarray, dict[str, int]]:
    """The ``(count, dim)`` matrix and key -> row dict of an EMB v1 file,
    parsed in one pass over its raw lines (see the module docstring)."""
    lines = decode_lines(raw)
    header_line = next(lines, None)
    if header_line is None:
        raise InputError("empty embedding file")
    header = header_line.split(" ")
    if len(header) != 4 or header[0] != "EMB" or header[1] != "v1":
        raise InputError(f"bad header {header_line!r}; expected 'EMB v1 <count> <dim>'")
    try:
        count, dim = read_count(header[2]), read_count(header[3])
    except ValueError:
        raise InputError(f"non-integer count/dim in header {header_line!r}") from None
    if dim < 1:
        raise InputError("dim must be >= 1")
    rows: dict[str, int] = {}
    # Doubled in place (no view of it exists yet) up to the declared count,
    # so nothing is allocated from the header and a valid file's is count rows.
    matrix = np.empty((0, dim))
    error: InputError | None = None
    seen = 0
    for seen, record in enumerate(lines, start=1):
        if error is not None or seen > count:
            continue
        try:
            key, row = _read_record(record, seen + 1, dim, rows)
        except InputError as exc:
            error = exc
            continue
        if len(rows) == len(matrix):
            matrix.resize((min(2 * len(rows) or 1, count), dim), refcheck=False)
        matrix[len(rows)] = row
        rows[key] = len(rows)
    if seen != count:
        raise InputError(f"header declares {count} records but file contains {seen}")
    if error is not None:
        raise error
    return matrix, rows


def _read_record(
    record: str, line_no: int, dim: int, keys: Container[str]
) -> tuple[str, np.ndarray]:
    """A record's key, a JSON string not in ``keys``, and its finite ``(1, dim)`` values."""
    try:
        key, end = _KEY_DECODER.raw_decode(record)
    except json.JSONDecodeError:
        key = None
    if not isinstance(key, str):
        raise InputError(f"line {line_no}: key is not a JSON string")
    if key in keys:
        raise InputError(f"line {line_no}: duplicate key {key!r}")
    body = record[end:]
    try:
        row = read_reals([body])
    except ValueError:
        row = None
    if row is not None and row.shape == (1, dim):
        if not np.isfinite(row).all():
            raise InputError(f"line {line_no}: non-finite value (nan or inf)")
        return key, row
    # Counted only now, for the message: a wrong count is named before a bad value.
    got = len(body.split())
    if got != dim:
        raise InputError(f"line {line_no}: expected {dim} values, got {got}")
    raise InputError(f"line {line_no}: non-numeric value")


def save_embeddings(entries: Iterable[tuple[str, np.ndarray]], dim: int, path: str | Path) -> None:
    """Write an EMB v1 file of (key, vector) pairs in the given order, one
    record at a time, replacing ``path`` atomically. Before the first line is
    written, every vector's length is checked, and what the reader refuses
    (dim 0, a key that is no string, a duplicate key, a non-finite value) is
    refused too: each raises an InputError, whose message names no file."""
    if dim < 1:
        raise InputError("dim must be >= 1")
    items = list(entries)
    keys: set[str] = set()
    for key, vec in items:
        if len(vec) != dim:
            raise InputError(f"vector for {key!r} has length {len(vec)}, expected {dim}")
        if not isinstance(key, str):
            raise InputError(f"key {key!r} is not a string")
        if key in keys:
            raise InputError(f"duplicate key {key!r}")
        keys.add(key)
        if not np.isfinite(np.asarray(vec, dtype=np.float64)).all():
            raise InputError(f"non-finite value (nan or inf) for key {key!r}")
    records = (f"{json.dumps(key)} {format_reals(vec)}\n" for key, vec in items)
    write_atomic(path, chain([f"EMB v1 {len(items)} {dim}\n"], records))


def embed_batch(sentences: Sequence, provider) -> np.ndarray:
    """The provider's (n, dim) float64 embeddings of LabeledSentence objects
    or raw strings, in input order. Missing-embedding errors propagate."""
    return provider.embed([getattr(s, "text", s) for s in sentences])


class _RowStore:
    """The cells of an ``(n, dim)`` float64 table whose bytes are not all
    zero, in CSR form: ``offsets[i]:offsets[i + 1]`` index row i's int32
    ``cols`` and float64 ``values``."""

    def __init__(self, offsets: np.ndarray, cols: np.ndarray, values: np.ndarray, dim: int):
        self.offsets, self.cols, self.values, self.dim = offsets, cols, values, dim
        self._lengths, self._ends = np.diff(offsets), offsets[1:]
        # The flat buffer the last take zeroed whole or in part: all of it
        # +0.0 but the cells of _written, which that take wrote.
        self._clean = self._written = None

    def take(self, rows: np.ndarray, axis: int = 0, *, out: np.ndarray,
             mode: str = "raise") -> np.ndarray:
        """``ndarray.take``'s answer for the table: the dense ``rows`` written
        into ``out``, a C-contiguous ``(len(rows), dim)`` float64 buffer. An
        ``out`` that starts at the last call's first cell and is no larger,
        unwritten since, has only the cells that call wrote zeroed again; any
        other is zeroed whole. ``axis`` is 0, and ``mode`` is ignored: every
        row id is in range."""
        # Few numpy calls and no address lookup: these arrays are small, each
        # call costs as much as its work, and out.ctypes.data took about a
        # quarter of a toy block's gather inside the training loop.
        flat_out, last = out.reshape(-1), self._clean
        if last is not None and out.size <= last.size and np.shares_memory(flat_out[:1], last[:1]):
            last[self._written] = 0.0
        else:
            flat_out.fill(0.0)
            self._clean = flat_out
        # Each gathered nonzero's position in cols and values: a row's run
        # ends where the row ends in the store. Then its cell in flat_out.
        counts = self._lengths.take(rows)
        src = (self._ends.take(rows) - counts.cumsum()).repeat(counts)
        src += np.arange(len(src))
        flat = np.arange(0, out.size, self.dim).repeat(counts)
        flat += self.cols.take(src)
        flat_out[flat] = self.values.take(src)
        self._written = flat
        return out


def table_rows(sentences: Sequence, provider) -> tuple[np.ndarray | _RowStore, np.ndarray]:
    """``(table, rows)`` with ``table[rows[i]]`` the vector of ``sentences[i]``
    and ``rows`` in ``np.intp``; ``table.take(ids, axis=0, out=buf,
    mode="clip")`` writes the vectors of row ids ``ids`` into ``buf``.

    A precomputed provider lends its matrix through a read-only view, so a
    reader holds no copy of the vectors and cannot write into the provider,
    and gives each sentence's row id (a repeated sentence repeats it). Any
    other provider gives ``0 .. n-1`` and a ``_RowStore`` of ``embed_batch``'s
    rows, embedded ``_TABLE_BLOCK_BYTES`` of rows at a time, so the dense
    matrix is never built. Missing-embedding errors propagate."""
    if isinstance(provider, PrecomputedProvider):
        return provider._matrix, provider._row_ids([getattr(s, "text", s) for s in sentences])
    n, dim = len(sentences), provider.dimension
    block = max(1, _TABLE_BLOCK_BYTES // (8 * dim))
    counts, cols, values = [np.zeros(1, np.intp)], [np.empty(0, np.int32)], [np.empty(0)]
    for start in range(0, n, block):
        chunk = sentences[start:start + block]
        X = embed_batch(chunk, provider).reshape(-1)
        # A cell is left out only when all its bytes are zero, so a -0.0 is
        # kept. A flat bool scan is several times faster than a 2-D one.
        (flat,) = (X.view(np.int64) != 0).nonzero()
        row, col = np.divmod(flat, dim)
        counts.append(np.bincount(row, minlength=len(chunk)))
        cols.append(col.astype(np.int32))
        values.append(X.take(flat))
    store = _RowStore(np.cumsum(np.concatenate(counts)), np.concatenate(cols),
                      np.concatenate(values), dim)
    return store, np.arange(n, dtype=np.intp)
