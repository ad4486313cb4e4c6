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

Loading reads every file once, a pipe included: each record's key is
checked and its values converted by numpy's C text parser
(``fileio.read_reals``) into one ``(count, dim)`` matrix with a key -> row
dict, so a load holds that matrix plus one line. After the first bad record
the rest is only counted, so a count mismatch is named before it. Saving
holds one line and replaces the file atomically.

Each parse of a regular EMB file also writes a binary cache of its result
beside it, and a later load of the same bytes reads that cache instead of
the text; ``_embcache`` holds its format and trust rules. The cache is
keyed on a digest of the raw lines taken as the parse reads them, so it
never stands for bytes other than those that were parsed.

The hashed provider embeds its texts in chunks of ``_EMBED_CHUNK_ROWS``.
Each chunk's texts are tokenised once, and its distinct tokens are hashed
together by a vectorised FNV-1a (``hash_vocabulary``), so no memo is kept
between chunks. Each row is then one ``bincount`` over its tokens' buckets
and signs, with the same bytes as hashing token by token. ``tokenize``
strips edge punctuation with ``str.strip`` over the constant table
``_PUNCTUATION``, then looks up the category of an edge left non-alphanumeric.
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

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmbeddingFormatError,
    MissingEmbeddingError,
)
from .fileio import decode_lines, format_reals, read_count, read_reals, write_atomic

CASINGS = ("cased", "uncased")

# FNV-1a 64-bit constants (public-domain reference parameters).
_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = np.uint64(0x100000001B3)
# Rows HashedBowProvider.embed tokenises and hashes together. Chunks of 128
# to 1,024 rows ran equally fast on a 5k-sentence corpus; each chunk's
# token lists and vocabulary add about 1 MB per 1,000 rows to the peak.
_EMBED_CHUNK_ROWS = 256

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
    p = 0
    while active[p]:
        h, at = hashes[: active[p]], pos[: active[p]]
        np.bitwise_xor(h, buf.take(at), out=h)
        np.multiply(h, _FNV64_PRIME, out=h)
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
    and max_len are None unless the spec carries them. Raises ConfigError on
    anything else.
    """
    kind, _, rest = spec.partition(":")
    if kind == "precomputed" and rest:
        return "precomputed", rest, None, None
    if kind != "hashed":
        raise ConfigError(
            f"provider must be 'hashed:<dim>' or 'precomputed:<path>', got {spec!r}"
        )
    parts = rest.split(":")
    try:
        if len(parts) == 1:
            dim, casing, max_len = read_count(parts[0]), None, None
        elif len(parts) == 3:
            dim, casing, max_len = read_count(parts[0]), parts[1], read_count(parts[2])
        else:
            raise ValueError(spec)
    except ValueError:
        raise ConfigError(f"bad hashed provider spec {spec!r}") from None
    if dim < 1:
        raise ConfigError("hashed provider dimension must be >= 1")
    return "hashed", dim, casing, max_len


class HashedBowProvider:
    """Self-contained deterministic encoder: the hashed BOW of each text's
    first ``max_len`` tokens, over a ``dim`` of at least 1 (``parse_provider_spec``)."""

    def __init__(self, dim: int, casing: str, max_len: int):
        if casing not in CASINGS:
            raise ConfigError(f"casing must be one of {CASINGS}, got {casing!r}")
        # bool is an int subclass, and True is no length.
        if type(max_len) is not int or max_len < 1:
            raise ConfigError(f"max_len must be an integer >= 1, got {max_len!r}")
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
        """The matrix row of each text, as ``np.intp``; MissingEmbeddingError
        names the first absent one."""
        try:
            return np.fromiter(map(self._rows.__getitem__, texts), dtype=np.intp, count=len(texts))
        except KeyError as exc:
            raise MissingEmbeddingError(
                f"no precomputed embedding for sentence {exc.args[0]!r}"
            ) from None

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """A copy of the rows of ``texts``; MissingEmbeddingError names the first absent one."""
        return self._matrix.take(self._row_ids(texts), axis=0)


def load_precomputed(path: str | Path) -> PrecomputedProvider:
    """Read an EMB v1 file, or the cache beside it that holds the file's
    digest; a parse of a regular file rewrites its cache."""
    path = Path(path)
    with open(path, "rb") as f:
        # A pipe cannot be read twice, and the cache's trust rules need POSIX
        # file owners and O_NOFOLLOW: without them the text is parsed.
        if os.name != "posix" or not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            return _read_emb(f, path)
        # Imported here, so a command that loads no EMB file never compiles it.
        from . import _embcache

        digest = _embcache.new_digest()
        if digest is None:
            return _read_emb(f, path)
        real = Path(os.path.realpath(path))
        cache = real.with_name(f".{real.name}.cache")
        cached = _embcache.read(cache, f, digest.copy())
        if cached is not None:
            return PrecomputedProvider(*cached, f"precomputed:{path}")
        f.seek(0)
        if not os.access(cache.parent, os.W_OK):  # no cache can be written there
            return _read_emb(f, path)
        provider = _read_emb(f, path, digest)
        _embcache.write(cache, digest.hexdigest(), provider._rows, provider._matrix)
        return provider


def _hashed(f: BinaryIO, digest) -> Iterator[bytes]:
    """The raw lines of ``f``, each added to ``digest`` as it is read."""
    for raw in f:
        digest.update(raw)
        yield raw


def _read_emb(f: BinaryIO, path: Path, digest=None) -> PrecomputedProvider:
    """Read EMB v1 from the binary stream of the file ``path``, in one pass
    (see the module docstring). Every line read is added to ``digest``, if
    one is given, so a valid file's digest is that of the bytes parsed."""
    lines = decode_lines(f if digest is None else _hashed(f, digest), path)
    header_line = next(lines, None)
    if header_line is None:
        raise EmbeddingFormatError("empty embedding file")
    header = header_line.split(" ")
    if len(header) != 4 or header[0] != "EMB" or header[1] != "v1":
        raise EmbeddingFormatError(f"bad header {header_line!r}; expected 'EMB v1 <count> <dim>'")
    try:
        count, dim = read_count(header[2]), read_count(header[3])
    except ValueError:
        raise EmbeddingFormatError(f"non-integer count/dim in header {header_line!r}") from None
    if dim < 1:
        raise EmbeddingFormatError("count must be >= 0 and dim >= 1")
    rows: dict[str, int] = {}
    # Doubled in place (no view of it exists yet) up to the declared count,
    # so nothing is allocated from the header and a valid file's is count rows.
    matrix = np.empty((0, dim))
    error: EmbeddingFormatError | None = None
    seen = 0
    for seen, record in enumerate(lines, start=1):
        if error is not None or seen > count:
            continue
        try:
            key, row = _read_record(record, seen + 1, dim, rows)
        except EmbeddingFormatError as exc:
            error = exc
            continue
        if len(rows) == len(matrix):
            matrix.resize((min(2 * len(rows) or 1, count), dim), refcheck=False)
        matrix[len(rows)] = row
        rows[key] = len(rows)
    if seen != count:
        raise EmbeddingFormatError(f"header declares {count} records but file contains {seen}")
    # Every row stored comes before the first bad record.
    finite = np.isfinite(matrix[:len(rows)]).all(axis=1)
    if not finite.all():
        raise EmbeddingFormatError(f"line {finite.argmin() + 2}: non-finite value (nan or inf)")
    if error is not None:
        raise error
    return PrecomputedProvider(matrix, rows, f"precomputed:{path}")


def _read_record(
    record: str, line_no: int, dim: int, keys: Container[str]
) -> tuple[str, np.ndarray]:
    """A record's key, a JSON string not in ``keys``, and its ``(1, dim)`` values."""
    try:
        key, end = _KEY_DECODER.raw_decode(record)
    except json.JSONDecodeError:
        key = None
    if not isinstance(key, str):
        raise EmbeddingFormatError(f"line {line_no}: key is not a JSON string")
    if key in keys:
        raise EmbeddingFormatError(f"line {line_no}: duplicate key {key!r}")
    body = record[end:]
    try:
        row = read_reals([body])
        if row.shape == (1, dim):
            return key, row
    except ValueError:
        pass
    # Counted only now, for the message: a wrong count is named before a bad value.
    got = len(body.split())
    if got != dim:
        raise EmbeddingFormatError(f"line {line_no}: expected {dim} values, got {got}")
    raise EmbeddingFormatError(f"line {line_no}: non-numeric value")


def save_embeddings(entries: Iterable[tuple[str, np.ndarray]], dim: int, path: str | Path) -> None:
    """Write an EMB v1 file of (key, vector) pairs in the given order, one
    record at a time, replacing ``path`` atomically. Before the first line is
    written, every vector's length is checked, and what the reader refuses
    (dim 0, a key that is no string, a duplicate key, a non-finite value)
    raises EmbeddingFormatError."""
    if dim < 1:
        raise EmbeddingFormatError("dim must be >= 1")
    items = list(entries)
    keys: set[str] = set()
    for key, vec in items:
        if len(vec) != dim:
            raise DimensionMismatchError(
                f"vector for {key!r} has length {len(vec)}, expected {dim}"
            )
        if not isinstance(key, str):
            raise EmbeddingFormatError(f"key {key!r} is not a string")
        if key in keys:
            raise EmbeddingFormatError(f"duplicate key {key!r}")
        keys.add(key)
        if not np.isfinite(np.asarray(vec, dtype=np.float64)).all():
            raise EmbeddingFormatError(f"non-finite value (nan or inf) for key {key!r}")
    records = (f"{json.dumps(key)} {format_reals(vec)}\n" for key, vec in items)
    write_atomic(path, chain([f"EMB v1 {len(items)} {dim}\n"], records))


def embed_batch(sentences: Sequence, provider) -> np.ndarray:
    """The provider's (n, dim) float64 embeddings of LabeledSentence objects
    or raw strings, in input order. Missing-embedding errors propagate."""
    return provider.embed([getattr(s, "text", s) for s in sentences])


def table_rows(sentences: Sequence, provider) -> tuple[np.ndarray, np.ndarray]:
    """``(table, rows)`` with ``table[rows[i]]`` the vector of ``sentences[i]``
    and ``rows`` in ``np.intp``.

    A precomputed provider lends its matrix through a read-only view, so a
    reader holds no copy of the vectors and cannot write into the provider,
    and gives each sentence's row id (a repeated sentence repeats it); any
    other provider gives ``embed_batch``'s rows and ``0 .. n-1``.
    Missing-embedding errors propagate."""
    if isinstance(provider, PrecomputedProvider):
        return provider._matrix, provider._row_ids([getattr(s, "text", s) for s in sentences])
    return embed_batch(sentences, provider), np.arange(len(sentences), dtype=np.intp)
