from __future__ import annotations

import io
import json
import math
import os
import random
import re
import sys
import threading
import tracemalloc
import unicodedata
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhetrole import _embcache, embedding
from rhetrole.cli import main
from rhetrole.config import RunConfig
from rhetrole.embedding import (
    CASINGS,
    HashedBowProvider,
    PrecomputedProvider,
    embed_batch,
    encode_hashed_bow,
    load_precomputed,
    save_embeddings,
    tokenize,
)
from rhetrole.errors import (
    ConfigError,
    DimensionMismatchError,
    EmbeddingFormatError,
    InputError,
    MissingEmbeddingError,
)
from rhetrole.linear_model import train

from .conftest import FINITE_DOUBLES

# Published FNV-1a 64-bit reference vectors.
FNV_VECTORS = {
    "": 0xCBF29CE484222325,
    "a": 0xAF63DC4C8601EC8C,
    "foobar": 0x85944171F73967E8,
}

# Letters, digits and other numbers, punctuation, symbols, combining marks
# and whitespace: every class of character the tokenizer treats differently.
TOKENIZER_TEXT = st.text(
    alphabet=st.characters(categories=("L", "N", "P", "S", "M", "Zs"))
    | st.sampled_from(" \t\n"),
    max_size=60,
)


# Keys with every character the EMB writer must escape or pass through.
EMB_KEYS = st.text(
    alphabet=st.characters(exclude_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\r", "\n", "\t", "\u2028", "\u0085", "\u00e9", " "]),
    max_size=12,
)
# EMB value tokens from a numeric alphabet, and the whitespace str.split and
# numpy's reader both split on, for the float() agreement property.
NUMERIC_TOKENS = st.text(alphabet="0123456789.eE+-_infatyINFATY", min_size=1, max_size=6) | (
    FINITE_DOUBLES.map(repr))
VALUE_SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1f", "\xa0", "\u2028", "\u3000"])


def load_emb(directory, text: str) -> PrecomputedProvider:
    """Write the UTF-8 bytes of ``text`` to an EMB file in ``directory`` and load it."""
    path = directory / "vecs.emb"
    path.write_bytes(text.encode("utf-8"))
    return load_precomputed(path)


def npy_header(shape) -> bytes:
    """A float64 ``.npy`` header declaring ``shape``, with no data after it."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return out.getvalue()


def cache_of(path):
    """The cache file that load_precomputed keeps beside the EMB file ``path``."""
    return path.with_name(f".{path.name}.cache")


def reference_tokenize(text: str, casing: str) -> list[str]:
    """Per-character tokenizer: every token's edges go through unicodedata."""
    if casing == "uncased":
        text = text.lower()
    tokens: list[str] = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and unicodedata.category(raw[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            tokens.append(raw[start:end])
    return tokens


def reference_fnv1a_64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def encode_row(tokens: list[str], dim: int) -> np.ndarray:
    """``encode_hashed_bow`` over the row's own vocabulary."""
    vocab = embedding.hash_vocabulary(list(dict.fromkeys(tokens)), dim)
    return encode_hashed_bow(tokens, dim, vocab)


def reference_hashed_bow(tokens: list[str], dim: int) -> np.ndarray:
    """One bucket update per token, then L2 normalisation."""
    vec = np.zeros(dim, dtype=np.float64)
    for tok in tokens:
        h = reference_fnv1a_64(tok)
        vec[h % dim] += 1.0 if (h >> 1) & 1 == 0 else -1.0
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


class TestTokenize:
    def test_uncased_strips_edge_punctuation(self):
        assert tokenize("The Court HELD.", "uncased") == ["the", "court", "held"]

    def test_truncation(self):
        assert tokenize("a b c d", "cased") == ["a", "b", "c", "d"]
        row = HashedBowProvider(16, "cased", 2).embed(["a b c d"])[0]
        assert row.tobytes() == encode_row(["a", "b"], 16).tobytes()
        assert row.tobytes() != encode_row(["a", "b", "c", "d"], 16).tobytes()

    @pytest.mark.parametrize("max_len", [2.5, True])
    def test_non_integer_max_len_rejected(self, max_len):
        with pytest.raises(ConfigError, match="max_len"):
            HashedBowProvider(8, "cased", max_len)

    def test_punctuation_only(self):
        assert tokenize("...", "cased") == []

    def test_internal_citation_punctuation_survives(self):
        assert tokenize("under s.302 IPC,", "cased") == ["under", "s.302", "IPC"]

    def test_cased_preserves_case(self):
        assert tokenize("The Court", "cased") == ["The", "Court"]

    @given(st.text(max_size=40), st.integers(1, 6))
    @settings(max_examples=80)
    def test_truncation_bound_always_holds(self, text, max_len):
        row = HashedBowProvider(16, "cased", max_len).embed([text])[0]
        expected = reference_hashed_bow(reference_tokenize(text, "cased")[:max_len], 16)
        assert row.tobytes() == expected.tobytes()

    @given(st.text(alphabet="aAbB xX.z", min_size=1, max_size=30))
    @settings(max_examples=80)
    def test_uncased_is_case_insensitive(self, text):
        assert tokenize(text, "uncased") == tokenize(text.lower(), "uncased")

    def test_no_alphanumeric_code_point_is_punctuation(self):
        # The tokenizer keeps tokens with alphanumeric edges without looking
        # up their categories; that is exact only while this holds.
        offenders = [
            f"U+{cp:04X}"
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert offenders == []

    @given(TOKENIZER_TEXT, st.sampled_from(CASINGS))
    @settings(max_examples=300)
    @example("\u00ab\u00a7302\u00bb \u201cs.302,\u201d \u2014 \u00e9t\u00e9. ...", "cased")
    @example("\u300c\u00a7302\u300d\u3001 \u201c\u0130\u201d, x\u0301. \u2014\u3001 \U00010100(a)", "uncased")
    def test_matches_per_character_reference(self, text, casing):
        assert tokenize(text, casing) == reference_tokenize(text, casing)

    def test_table_is_the_punctuation_of_its_blocks(self):
        blocks = [chr(cp) for cp in (*range(0x100), *range(0x2000, 0x2070))]
        expected = [c for c in blocks if unicodedata.category(c).startswith("P")]
        # In code-point order, so no character is in it twice.
        assert sorted(embedding._PUNCTUATION) == expected
        assert len(expected) >= 99  # 30 in Latin-1 and 69 in General Punctuation at Unicode 14

    # Punctuation outside the table's blocks, symbols inside them that the
    # strip leaves, a combining mark, and the code points on both sides of
    # each block boundary, next to table punctuation.
    @pytest.mark.parametrize("char", [
        "\u3001", "\u300c", "\u300d", "\uff0c", "\u037e", "\u0589", "\U00010100", "\u0301",
        "$", "+", "\u00b0", "\u2044",
        "\u00ff", "\u0100", "\u1fff", "\u2000", "\u206f", "\u2070",
    ])
    @pytest.mark.parametrize("casing", CASINGS)
    def test_edges_outside_the_table_match_the_reference(self, char, casing):
        forms = ("{}", "({}x{},)", "\u201c{}Word{}\u201d", "{}.{}", ",{}.", "x{}.", ".{}x",
                 "\u00ab{}\u00bb{}", "{}\u2014\u3001", "\u2014\u3001", "{}x", "x{}", "{}\u2026{}")
        text = " ".join(form.format(char, char) for form in forms)
        assert tokenize(text, casing) == reference_tokenize(text, casing)


class TestFnv1a:
    @pytest.mark.parametrize("text,expected", sorted(FNV_VECTORS.items()))
    def test_reference_vectors(self, text, expected):
        assert embedding._fnv1a_64_many([text]).tolist() == [expected]
        assert embedding._fnv1a_64_many(list(FNV_VECTORS)).tolist() == list(FNV_VECTORS.values())

    @given(
        st.text(
            alphabet=st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
            min_size=1,
            max_size=12,
        )
    )
    @example("\u00a7302")
    @example("caf\u00e9")
    @example("\U0001F600")
    def test_non_ascii_memoised_result_matches_uncached(self, token):
        # Alone, and among copies of itself that are hashed side by side.
        expected = reference_fnv1a_64(token)
        assert embedding._fnv1a_64_many([token]).tolist() == [expected]
        assert embedding._fnv1a_64_many([token] * 25).tolist() == [expected] * 25

    @given(
        st.lists(st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=40),
                 max_size=30),
        st.lists(st.text(alphabet="abz\u00e9", min_size=5, max_size=5), max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150)
    @example([], [], random.Random(0))
    @example(["", "a", ""], [], random.Random(0))
    @example(["\U0001F600" * 30, "s.302" * 20, ""], ["abcde"] * 40, random.Random(1))
    # One token runs far past the others, or only a few long ones are hashed.
    @example(["s.302" * 200], [f"w{i}" for i in range(30)], random.Random(2))
    @example(["\u00a7" * 300, "\u5224\u6c7a" * 100, "\U0001F600" * 50], [], random.Random(3))
    def test_vectorised_hash_equals_scalar(self, mixed, equal, rnd):
        tokens = mixed + equal
        rnd.shuffle(tokens)
        hashes = embedding._fnv1a_64_many(tokens)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [reference_fnv1a_64(tok) for tok in tokens]


class TestHashedBow:
    def test_empty_tokens_zero_vector(self):
        vec = encode_row([], 16)
        assert vec.shape == (16,)
        assert not vec.any()

    def test_repeated_token_single_unit_bucket(self):
        dim = 16
        vec = encode_row(["a", "a"], dim)
        idx = reference_fnv1a_64("a") % dim
        assert abs(vec[idx]) == 1.0
        assert np.count_nonzero(vec) == 1

    def test_two_distinct_buckets_inv_sqrt2(self):
        dim = 16
        assert reference_fnv1a_64("a") % dim != reference_fnv1a_64("b") % dim
        vec = encode_row(["a", "b"], dim)
        nonzero = np.abs(vec[vec != 0])
        assert nonzero == pytest.approx([1 / math.sqrt(2)] * 2)

    @given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), max_size=12))
    @settings(max_examples=100)
    def test_norm_is_one_or_zero(self, tokens):
        vec = encode_row(tokens, 32)
        norm = np.linalg.norm(vec)
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    @given(
        st.lists(
            st.sampled_from(["a", "b", "s.302", "\u00e9t\u00e9", "Court"]) | st.text(max_size=6),
            max_size=40,
        ),
        st.integers(1, 64),
    )
    @settings(max_examples=200)
    @example([], 1)
    @example([], 16)
    @example(["a", "a", "a"], 1)
    def test_matches_per_token_reference_bytes(self, tokens, dim):
        vec = encode_row(tokens, dim)
        ref = reference_hashed_bow(tokens, dim)
        assert vec.dtype == ref.dtype == np.float64
        assert vec.tobytes() == ref.tobytes()

    @given(st.lists(st.text(max_size=8), max_size=20), st.integers(1, 64))
    @settings(max_examples=100)
    def test_shared_vocabulary_gives_the_same_bytes(self, tokens, dim):
        vocabulary = list(dict.fromkeys(tokens + ["extra", "\u00e9t\u00e9"]))
        shared = encode_hashed_bow(tokens, dim, embedding.hash_vocabulary(vocabulary, dim))
        assert shared.tobytes() == encode_row(tokens, dim).tobytes()

    @pytest.mark.parametrize("casing", CASINGS)
    @pytest.mark.parametrize("n", [0, 1, embedding._EMBED_CHUNK_ROWS + 1])
    def test_embed_equals_encoding_each_row(self, n, casing):
        rng = np.random.default_rng(n)
        words = ["The", "court", "s.302", "\u00e9t\u00e9,", "IPC.", "\u201cheld\u201d", "..."]
        texts = [" ".join(rng.choice(words, size=rng.integers(0, 12))) for _ in range(n)]
        if texts:
            texts[-1] = "... -- ,"  # no tokens
        provider = HashedBowProvider(32, casing, 6)
        expected = np.zeros((n, 32))
        for i, text in enumerate(texts):
            expected[i] = encode_row(tokenize(text, casing)[:6], 32)
        got = provider.embed(texts)
        assert got.shape == (n, 32)
        assert got.tobytes() == expected.tobytes()
        if texts:
            assert not got[-1].any()

    def test_provider_is_deterministic(self):
        provider = HashedBowProvider(64, "uncased", 10)
        a = provider.embed(["The appeal is allowed."])[0]
        b = provider.embed(["The appeal is allowed."])[0]
        assert np.array_equal(a, b)
        assert provider.provider_id == "hashed:64:uncased:10"


class TestEmbeddingFile:
    def entries(self):
        return [
            ("The appeal is allowed.", np.array([0.25, -1.0, 3e-4, 2.0])),
            ("Counsel argued.", np.array([1.0, 0.1, -0.0078125, 1e-20])),
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "vecs.emb"
        save_embeddings(self.entries(), 4, path)
        provider = load_precomputed(path)
        assert provider.dimension == 4
        for key, vec in self.entries():
            assert np.array_equal(provider.embed([key])[0], vec)
        keys = [key for key, _ in self.entries()]
        save_embeddings(zip(keys, provider.embed(keys)), 4, tmp_path / "again.emb")
        assert (tmp_path / "again.emb").read_bytes() == path.read_bytes()

    def test_header_count_mismatch(self, tmp_path):
        text = 'EMB v1 3 2\n"a" 1 2\n"b" 3 4\n'
        with pytest.raises(EmbeddingFormatError):
            load_emb(tmp_path, text)

    def test_duplicate_key(self, tmp_path):
        text = 'EMB v1 2 1\n"a" 1\n"a" 2\n'
        with pytest.raises(EmbeddingFormatError):
            load_emb(tmp_path, text)

    def test_bad_header(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_emb(tmp_path, "EMB v2 1 4\n")

    def test_wrong_value_count(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_emb(tmp_path, 'EMB v1 1 3\n"a" 1 2\n')

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_emb(tmp_path, f'EMB v1 2 2\n"a" 1 2\n"b" 3 {value}\n')

    def test_scientific_and_integer_reals_accepted(self, tmp_path):
        provider = load_emb(tmp_path, 'EMB v1 1 3\n"a" 1 -2.5e-3 4E2\n')
        assert np.array_equal(provider.embed(["a"])[0], [1.0, -0.0025, 400.0])

    @given(
        st.integers(1, 5).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                st.lists(st.tuples(EMB_KEYS, st.lists(FINITE_DOUBLES, min_size=dim, max_size=dim)),
                         max_size=6, unique_by=lambda entry: entry[0]),
            )
        )
    )
    @settings(max_examples=100)
    def test_round_trip_property(self, tmp_path_factory, dim_entries):
        dim, raw = dim_entries
        entries = [(key, np.array(values, dtype=np.float64)) for key, values in raw]
        path = tmp_path_factory.mktemp("emb") / "vecs.emb"
        save_embeddings(entries, dim, path)
        written = path.read_bytes()
        loaded = load_precomputed(path)
        assert loaded.dimension == dim
        for key, vec in entries:
            assert loaded.embed([key])[0].tobytes() == vec.tobytes()
        keys = [key for key, _ in raw]
        save_embeddings(zip(keys, loaded.embed(keys)), dim, path)
        assert path.read_bytes() == written

    def test_crlf_file_accepted(self, tmp_path):
        text = 'EMB v1 2 2\r\n"a" 1 2\r\n"b" 3 -4e1\r\n'
        path = tmp_path / "crlf.emb"
        path.write_bytes(text.encode("utf-8"))
        provider = load_precomputed(path)
        assert np.array_equal(provider.embed(["a"])[0], [1.0, 2.0])
        assert np.array_equal(provider.embed(["b"])[0], [3.0, -40.0])

    @pytest.mark.parametrize("text,message", [
        ('EMB v1 3 2\n"a" 1 x\n"b" 3 4\n', "header declares 3 records but file contains 2"),
        ('EMB v1 1 2\n"a" 1\n"b" 3 4\n', "header declares 1 records but file contains 2"),
        ('EMB v1 2 2\n"a" 1\n"b" 3 4\n', "line 2: expected 2 values, got 1"),
    ])
    def test_count_mismatch_reported_before_a_bad_record(self, tmp_path, text, message):
        path = tmp_path / "bad.emb"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(EmbeddingFormatError) as exc:
            load_precomputed(path)
        assert str(exc.value) == message

    def test_wrong_length_vector_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "vecs.emb"
        save_embeddings(self.entries(), 4, path)
        before = path.read_bytes()
        with pytest.raises(DimensionMismatchError):
            save_embeddings(self.entries() + [("short", np.zeros(3))], 4, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    @pytest.mark.parametrize("extra,dim,message", [
        ([("Counsel argued.", np.zeros(4))], 4, "duplicate key 'Counsel argued.'"),
        ([("c", np.array([0.0, np.nan, 1.0, 2.0]))], 4, "non-finite value (nan or inf) for key 'c'"),
        ([("c", np.array([0.0, 1.0, np.inf, 2.0]))], 4, "non-finite value (nan or inf) for key 'c'"),
        ([("c", [0.0, 1.0, 2.0, float("-inf")])], 4, "non-finite value (nan or inf) for key 'c'"),
        ([(5, np.zeros(4))], 4, "key 5 is not a string"),
        (None, 0, "dim must be >= 1"),
    ], ids=["duplicate", "nan", "inf", "minus_inf_list", "int_key", "dim_zero"])
    def test_entries_the_reader_refuses_are_not_written(self, tmp_path, extra, dim, message):
        path = tmp_path / "vecs.emb"
        save_embeddings(self.entries(), 4, path)
        before = path.read_bytes()
        entries = [] if extra is None else self.entries() + extra
        with pytest.raises(EmbeddingFormatError) as exc:
            save_embeddings(entries, dim, path)
        assert str(exc.value) == message
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "vecs.emb"
        save_embeddings(self.entries(), 4, path)
        before = path.read_bytes()
        # The right length, but the second record fails to convert while
        # the first is already written.
        with pytest.raises(ValueError):
            save_embeddings(self.entries()[:1] + [("bad", [1.0, 2.0, 3.0, "x"])], 4, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    def test_memory_tracks_the_vectors_not_the_file(self, tmp_path):
        # The load's matrix grows by doubling up to the record count, so
        # counts past 512 and 1,024 rows are checked as well as 250.
        for n in (250, 700, 1500):
            vectors = np.random.default_rng(0).normal(size=(n, 128))
            entries = [(f"sentence {i}", row) for i, row in enumerate(vectors)]
            path = tmp_path / f"vecs{n}.emb"
            tracemalloc.start()
            try:
                save_embeddings(entries, 128, path)
                _, save_peak = tracemalloc.get_traced_memory()
                load_peaks, providers = [], []
                for _ in ("cold", "warm"):
                    tracemalloc.reset_peak()
                    base, _ = tracemalloc.get_traced_memory()
                    providers.append(load_precomputed(path))
                    load_peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert cache_of(path).is_file()
            for provider in providers:
                assert np.array_equal(provider.embed([key for key, _ in entries]), vectors)
            assert save_peak < path.stat().st_size / 4
            assert max(load_peaks) < 1.5 * vectors.nbytes, n

    @pytest.mark.parametrize("text,message", [
        ('EMB v1 4 2\n"a" 1 2\n"b" 1 nan\n"c" 1 2\n"d" 1 x\n',
         "line 3: non-finite value (nan or inf)"),
        ('EMB v1 3 2\n"a" 1\n"b" 1 2\n"c" 1 x\n', "line 2: expected 2 values, got 1"),
        ('EMB v1 3 2\n"a" 1 2\n"a" 1 2\n"c" 1 x\n', "line 3: duplicate key 'a'"),
        ('EMB v1 2 2\n"a"\n"b" 1 2\n', "line 2: expected 2 values, got 0"),
        ('EMB v1 2 2\n"a" 1 2\n"b"   \n', "line 3: expected 2 values, got 0"),
        ('EMB v1 2 2\n"a" 1 2\nb 1 2\n', "line 3: key is not a JSON string"),
        ('EMB v1 2 2\n"a" 1 2\n7 1 2\n', "line 3: key is not a JSON string"),
        ('EMB v1 1 2\n"a" 1 2\n"b" 3 4\n', "header declares 1 records but file contains 2"),
        # Headers no file could hold: nothing is allocated from them.
        ("EMB v1 99999999999 768\n", "header declares 99999999999 records but file contains 0"),
        ('EMB v1 1 1000000000\n"a" 1\n', "line 2: expected 1000000000 values, got 1"),
    ])
    def test_first_error_in_the_file_named(self, tmp_path, text, message):
        path = tmp_path / "bad.emb"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(EmbeddingFormatError) as exc:
            load_precomputed(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    def test_underscore_or_non_ascii_digit_exit_2(
        self, value, toy_tsv, tmp_path, capsys
    ):
        path = tmp_path / "bad.emb"
        path.write_text(f'EMB v1 2 2\n"a" 1 2\n"b" 3 {value}\n', encoding="utf-8")
        rc = main(["train", "--corpus", str(toy_tsv), "--out", str(tmp_path / "run"),
                   "--provider", f"precomputed:{path}"])
        assert rc == 2
        assert "line 3: non-numeric value" in capsys.readouterr().err

    def test_records_beyond_the_declared_count_are_not_parsed(self, tmp_path, monkeypatch):
        calls = []
        read_reals = embedding.read_reals

        def spy(bodies):
            bodies = list(bodies)
            calls.append(len(bodies))
            return read_reals(bodies)

        monkeypatch.setattr(embedding, "read_reals", spy)
        with pytest.raises(EmbeddingFormatError, match="declares 1 records but file contains 3"):
            load_emb(tmp_path, 'EMB v1 1 2\n"a" 1 2\n"b" 3 4\n"c" 5 6\n')
        assert calls == [1]

    def test_bad_file_from_a_pipe_exits_2(self, tmp_path):
        # A pipe is read once, as a regular file is, and gets the same messages.
        for text, message in [('EMB v1 1 2\n"a" 1 x\n', "line 2: non-numeric value"),
                              ('EMB v1 3 2\n"a" 1 x\n"b" 3 4\n',
                               "header declares 3 records but file contains 2")]:
            fifo = tmp_path / "vecs.emb"
            os.mkfifo(fifo)
            writer = threading.Thread(
                target=lambda: fifo.write_text(text, encoding="utf-8"), daemon=True)
            writer.start()
            try:
                with pytest.raises(EmbeddingFormatError) as exc:
                    load_precomputed(fifo)
            finally:
                writer.join(timeout=10)
            assert not writer.is_alive()
            assert str(exc.value) == message
            fifo.unlink()

    def test_lone_surrogate_in_text_fails_as_a_bad_byte(self, tmp_path):
        # The bytes a lone surrogate (U+D800) would have in UTF-8.
        path = tmp_path / "vecs.emb"
        path.write_bytes(b'EMB v1 1 1\n"\xed\xa0\x80" 1\n')
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: line 2 is not valid UTF-8$"):
            load_precomputed(path)

    def test_zero_records_load_without_a_warning(self, tmp_path):
        # A dimension no record could hold still loads when there are no records.
        for dim in (4, 10**9):
            path = tmp_path / f"empty{dim}.emb"
            path.write_text(f"EMB v1 0 {dim}\n", encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                provider = load_precomputed(path)
            assert provider.dimension == dim
            assert provider.embed([]).shape == (0, dim)

    def test_every_file_is_read_once(self, tmp_path, monkeypatch):
        reads = []
        decode_lines = embedding.decode_lines

        def counted(*args):
            reads.append(args[1])
            return decode_lines(*args)

        monkeypatch.setattr(embedding, "decode_lines", counted)
        path = tmp_path / "vecs.emb"
        save_embeddings(self.entries(), 4, path)
        valid = [(path.read_text(encoding="utf-8"), [key for key, _ in self.entries()]),
                 ("EMB v1 0 3\n", []), ('EMB v1 2 2\r\n"a" 1 2\r\n"b" 3 -4e1\r\n', ["a", "b"]),
                 ('EMB v1 1 3\n"a" 1 -2.5e-3 4E2', ["a"])]
        for text, keys in valid:
            path.write_text(text, encoding="utf-8")
            reads.clear()
            provider = load_precomputed(path)
            assert reads == [path]
            assert provider.embed(keys).shape == (len(keys), int(text.split()[3]))
        # A bad record, and a bad count after a bad record.
        for text in ['EMB v1 2 2\n"a" 1 2\n"b" 3 x\n', 'EMB v1 3 2\n"a" 1 x\n"b" 3 4\n']:
            path.write_text(text, encoding="utf-8")
            reads.clear()
            with pytest.raises(EmbeddingFormatError):
                load_precomputed(path)
            assert reads == [path]

    @given(st.lists(st.tuples(VALUE_SEPARATORS, NUMERIC_TOKENS), min_size=1, max_size=4))
    @settings(max_examples=300)
    @example([(" ", "1_0")])
    @example([(" ", "1e400")])
    @example([("\xa0", "-0"), ("\u3000", ".5"), ("\x1f", "5.")])
    def test_accepted_values_equal_float_of_each_token(self, tmp_path_factory, pairs):
        tokens = [token for _, token in pairs]
        text = f'EMB v1 1 {len(tokens)}\n"k"' + "".join(sep + token for sep, token in pairs)
        try:
            expected = [float(token) for token in tokens]
        except ValueError:
            expected = None
        try:
            values = load_emb(tmp_path_factory.getbasetemp(), text).embed(["k"])[0]
        except EmbeddingFormatError:
            # Refused: what float() refuses or finds not finite, and the
            # underscores float() takes.
            assert (expected is None or not all(map(math.isfinite, expected))
                    or any("_" in token for token in tokens))
            return
        assert expected is not None
        assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_lookup_rows_are_read_only(self, tmp_path):
        provider = load_emb(tmp_path, 'EMB v1 2 2\n"a" 1 2\n"b" 3 4\n')
        X = provider.embed(["a", "b", "a"])
        X[:] = 9.0
        assert np.array_equal(provider.embed(["a", "b"]), [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_key_at_use_time(self, tmp_path):
        provider = load_emb(tmp_path, 'EMB v1 1 2\n"a" 1 2\n')
        with pytest.raises(MissingEmbeddingError, match="sentence 'unseen'$"):
            provider.embed(["a", "unseen", "also unseen"])


class TestEmbCache:
    """load_precomputed keeps a cache of each regular EMB file beside it."""

    def write_emb(self, tmp_path, rows=6, dim=5):
        path = tmp_path / "vecs.emb"
        vectors = np.random.default_rng(3).normal(size=(rows, dim))
        save_embeddings([(f"sentence {i}", row) for i, row in enumerate(vectors)], dim, path)
        return path

    def no_parse(self, monkeypatch):
        def parse(*args):
            raise AssertionError("the EMB file was parsed")

        monkeypatch.setattr(embedding, "_read_emb", parse)

    def count_parses(self, monkeypatch):
        calls = []
        read_emb = embedding._read_emb

        def parse(*args):
            calls.append(args[1])
            return read_emb(*args)

        monkeypatch.setattr(embedding, "_read_emb", parse)
        return calls

    def assert_same(self, a, b):
        assert a._matrix.tobytes() == b._matrix.tobytes()
        assert a._rows == b._rows and list(a._rows) == list(b._rows)
        assert a.provider_id == b.provider_id and a.dimension == b.dimension

    def test_warm_load_equals_cold_load_without_a_parse(self, tmp_path, monkeypatch):
        path = self.write_emb(tmp_path)
        cold = load_precomputed(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [".vecs.emb.cache", "vecs.emb"]
        self.no_parse(monkeypatch)
        warm = load_precomputed(path)
        self.assert_same(warm, cold)
        assert not warm._matrix.flags.writeable

    def test_keys_with_escapes_and_zero_records_round_trip(self, tmp_path, monkeypatch):
        keys = ['"quoted"', "back\\slash", "tab\tnew\nline", "\u00e9\u2028", "\ud800", ""]
        path = tmp_path / "vecs.emb"
        save_embeddings([(key, np.full(3, float(i))) for i, key in enumerate(keys)], 3, path)
        empty = tmp_path / "empty.emb"
        empty.write_text("EMB v1 0 4\n", encoding="utf-8")
        cold = [load_precomputed(path), load_precomputed(empty)]
        self.no_parse(monkeypatch)
        for a, b in zip(cold, [load_precomputed(path), load_precomputed(empty)]):
            self.assert_same(a, b)
        assert list(cold[0]._rows) == keys

    def test_train_on_a_warm_load_gives_the_cold_params(self, toy, tmp_path, monkeypatch):
        texts = list(dict.fromkeys(s.text for s in toy.sentences))
        encoder = HashedBowProvider(32, "cased", 50)
        path = tmp_path / "toy.emb"
        save_embeddings(zip(texts, encoder.embed(texts)), 32, path)
        cfg = RunConfig(epochs=2, learning_rate=1e-2)
        train_set, val_set = toy.sentences[:500], toy.sentences[500:]
        cold = train(train_set, val_set, load_precomputed(path), np.ones(7), cfg)
        self.no_parse(monkeypatch)
        warm = train(train_set, val_set, load_precomputed(path), np.ones(7), cfg)
        assert warm.params.tobytes() == cold.params.tobytes()
        assert warm.provider_id == cold.provider_id == f"precomputed:{path}"

    def test_file_rewritten_in_place_reads_the_new_values(self, tmp_path, monkeypatch):
        path = tmp_path / "vecs.emb"
        path.write_text('EMB v1 2 2\n"a" 1.5 2\n"b" 3 4\n', encoding="utf-8")
        stamp = path.stat()
        assert load_precomputed(path).embed(["a"]).tolist() == [[1.5, 2.0]]
        # One digit changed, the same size and modification time.
        path.write_text('EMB v1 2 2\n"a" 1.7 2\n"b" 3 4\n', encoding="utf-8")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert load_precomputed(path).embed(["a"]).tolist() == [[1.7, 2.0]]
        self.no_parse(monkeypatch)  # the cache now holds the new file
        assert load_precomputed(path).embed(["a"]).tolist() == [[1.7, 2.0]]

    def test_cache_holds_the_digest_of_the_bytes_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "vecs.emb"
        path.write_text('EMB v1 1 2\n"a" 1 2\n', encoding="utf-8")
        load_precomputed(path)
        path.write_text('EMB v1 1 2\n"a" 3 4\n', encoding="utf-8")
        read_cache = _embcache.read

        def changed_after_the_digest_pass(*args):
            missed = read_cache(*args)
            path.write_text('EMB v1 1 2\n"a" 5 6\n', encoding="utf-8")
            return missed

        monkeypatch.setattr(_embcache, "read", changed_after_the_digest_pass)
        assert load_precomputed(path).embed(["a"]).tolist() == [[5.0, 6.0]]
        monkeypatch.setattr(_embcache, "read", read_cache)
        parses = self.count_parses(monkeypatch)
        assert load_precomputed(path).embed(["a"]).tolist() == [[5.0, 6.0]]
        assert parses == []
        # Back to the bytes the digest pass saw: their values, not the parsed ones.
        path.write_text('EMB v1 1 2\n"a" 3 4\n', encoding="utf-8")
        assert load_precomputed(path).embed(["a"]).tolist() == [[3.0, 4.0]]
        parses.clear()
        # A change after the parse, before the cache is written, is no hit.
        path.write_text('EMB v1 1 2\n"a" 1 2\n', encoding="utf-8")
        write_cache = _embcache.write

        def changed_after_the_parse(*args):
            path.write_text('EMB v1 1 2\n"a" 7 8\n', encoding="utf-8")
            write_cache(*args)

        monkeypatch.setattr(_embcache, "write", changed_after_the_parse)
        assert load_precomputed(path).embed(["a"]).tolist() == [[1.0, 2.0]]
        monkeypatch.setattr(_embcache, "write", write_cache)
        assert load_precomputed(path).embed(["a"]).tolist() == [[7.0, 8.0]]
        assert parses == [path, path]

    @staticmethod
    def forge(cache, keys=None, matrix=None):
        """Rewrite ``cache`` under its own digest with other keys (a list, or
        the bytes of its JSON) or another matrix (an array, or raw bytes)."""
        with open(cache, "rb") as c:
            header = c.readline()
            old_keys = json.loads(c.read(int(header.split()[2])))
            old_matrix = np.lib.format.read_array(c)
        keys = old_keys if keys is None else keys(old_keys)
        keys = keys if isinstance(keys, bytes) else json.dumps(keys).encode()
        with open(cache, "wb") as c:
            c.write(b" ".join(header.split()[:2] + [str(len(keys)).encode()]) + b"\n" + keys)
            matrix = old_matrix if matrix is None else matrix(old_matrix)
            if isinstance(matrix, bytes):
                c.write(matrix)
            else:
                np.lib.format.write_array(c, matrix)

    @pytest.mark.parametrize("damage", [
        lambda cache: cache.write_bytes(cache.read_bytes()[:-8]),
        lambda cache: cache.write_bytes(cache.read_bytes()[:40]),
        lambda cache: cache.write_bytes(cache.read_bytes() + b"\0"),
        lambda cache: cache.write_bytes(b"garbage"),
        lambda cache: cache.write_bytes(b""),
        lambda cache: cache.write_bytes(np.random.default_rng(1).bytes(4096)),
        lambda cache: TestEmbCache.forge(cache),  # the control: a valid forged cache
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: np.where(m == m[1, 2], np.nan, m)),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: np.where(m == m[0, 0], np.inf, m)),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: m[:-1]),
        lambda cache: TestEmbCache.forge(cache, keys=lambda k: k[:-1]),
        lambda cache: TestEmbCache.forge(cache, keys=lambda k: [k[1]] + k[1:]),
        lambda cache: TestEmbCache.forge(cache, keys=lambda k: [7] + k[1:]),
        lambda cache: TestEmbCache.forge(cache, keys=lambda k: dict.fromkeys(k)),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: m.astype(np.float32)),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: m.astype(">f8")),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: m.ravel()),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: np.asfortranarray(m)),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: m[:, :0]),
        lambda cache: cache.write_bytes(re.sub(
            rb" \d+\n", b" 99999999999999999999\n", cache.read_bytes(), count=1)),
        lambda cache: TestEmbCache.forge(cache, keys=lambda k: b"[" * 10**5 + b"]" * 10**5),
        lambda cache: TestEmbCache.forge(cache, matrix=lambda m: npy_header((10**6, 10**6))),
    ], ids=["truncated", "header_only", "trailing_byte", "garbage", "empty", "random",
            "valid", "nan", "inf", "fewer_rows", "fewer_keys", "duplicate_key", "int_key",
            "object_keys", "float32", "big_endian", "one_dim", "fortran", "zero_dim",
            "huge_key_length", "deep_keys", "huge_shape"])
    def test_bad_cache_is_ignored_and_rewritten(self, tmp_path, monkeypatch, damage):
        path = self.write_emb(tmp_path)
        cold = load_precomputed(path)
        good = cache_of(path).read_bytes()
        damage(cache_of(path))
        valid = cache_of(path).read_bytes() == good
        parses = self.count_parses(monkeypatch)
        self.assert_same(load_precomputed(path), cold)
        assert parses == ([] if valid else [path])
        assert cache_of(path).read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == [".vecs.emb.cache", "vecs.emb"]

    @pytest.mark.parametrize("failing", [(np.lib.format, "write_array"), (os, "replace")],
                             ids=["write_array", "replace"])
    def test_failed_cache_write_still_loads(self, tmp_path, monkeypatch, failing):
        # Monkeypatched, because chmod does not stop root from writing.
        path = self.write_emb(tmp_path)
        expected = load_precomputed(path)
        cache_of(path).unlink()

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(*failing, full_disk)
        self.assert_same(load_precomputed(path), expected)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    def test_interrupted_cache_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = self.write_emb(tmp_path)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(np.lib.format, "write_array", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_precomputed(path)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    def test_file_at_the_temporary_name_is_left_alone(self, tmp_path, monkeypatch):
        path = self.write_emb(tmp_path)
        expected = load_precomputed(path)
        cache_of(path).unlink()
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        other = tmp_path / ".vecs.emb.cache.00000000.tmp"
        other.write_bytes(b"not ours")
        self.assert_same(load_precomputed(path), expected)
        assert sorted(p.name for p in tmp_path.iterdir()) == [other.name, "vecs.emb"]
        assert other.read_bytes() == b"not ours"

    def test_unwritable_directory_parses_without_hashing(self, tmp_path, monkeypatch):
        # Monkeypatched, because access(2) grants root every write.
        path = self.write_emb(tmp_path)
        expected = load_precomputed(path)
        cache_of(path).unlink()
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        monkeypatch.setattr(embedding, "_hashed", None)
        self.assert_same(load_precomputed(path), expected)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    def test_symlink_at_the_cache_path_is_replaced_not_followed(self, tmp_path, monkeypatch):
        path = self.write_emb(tmp_path)
        cold = load_precomputed(path)
        # A valid cache behind the link is not read, and the link is not written through.
        elsewhere = tmp_path / "elsewhere"
        cache_of(path).rename(elsewhere)
        before = elsewhere.read_bytes()
        cache_of(path).symlink_to(elsewhere)
        parses = self.count_parses(monkeypatch)
        self.assert_same(load_precomputed(path), cold)
        assert parses == [path]
        assert not cache_of(path).is_symlink() and cache_of(path).read_bytes() == before
        assert elsewhere.read_bytes() == before

    def test_cache_of_another_user_is_not_read(self, tmp_path, monkeypatch):
        path = self.write_emb(tmp_path)
        cold = load_precomputed(path)
        if os.geteuid() == 0:
            os.chown(cache_of(path), 4321, -1)
        else:
            monkeypatch.setattr(os, "geteuid", lambda uid=os.geteuid(): uid + 1)
        parses = self.count_parses(monkeypatch)
        self.assert_same(load_precomputed(path), cold)
        assert parses == [path]

    def test_fifo_at_the_cache_path_does_not_block(self, tmp_path):
        path = self.write_emb(tmp_path)
        cold = load_precomputed(path)
        cache_of(path).unlink()
        os.mkfifo(cache_of(path))
        unblocked = []

        def unblock():
            # Opening the write end lets a reader blocked in open go on.
            unblocked.append(True)
            with open(cache_of(path), "wb"):
                pass

        watchdog = threading.Timer(10, unblock)
        watchdog.start()
        try:
            self.assert_same(load_precomputed(path), cold)
        finally:
            watchdog.cancel()
        assert not unblocked
        assert cache_of(path).is_file()

    @pytest.mark.parametrize("text", [
        'EMB v1 2 2\n"a" 1 2\n"b" 3 nan\n', 'EMB v1 2 2\n"a" 1 2\n', "EMB v2 0 1\n"])
    def test_invalid_file_leaves_no_cache(self, tmp_path, text):
        with pytest.raises(EmbeddingFormatError):
            load_emb(tmp_path, text)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    def test_valid_file_from_a_pipe_has_no_cache(self, tmp_path):
        fifo = tmp_path / "vecs.emb"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=lambda: fifo.write_text('EMB v1 1 2\n"a" 1 2\n', encoding="utf-8"),
            daemon=True)
        writer.start()
        try:
            assert load_precomputed(fifo).embed(["a"]).tolist() == [[1.0, 2.0]]
        finally:
            writer.join(timeout=10)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]

    def test_cache_sits_beside_the_file_a_symlink_names(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        path = self.write_emb(tmp_path / "data")
        link = tmp_path / "link.emb"
        link.symlink_to(path)
        cold = load_precomputed(link)
        assert cache_of(path).is_file() and not cache_of(link).exists()
        self.no_parse(monkeypatch)
        assert load_precomputed(path)._matrix.tobytes() == cold._matrix.tobytes()
        assert load_precomputed(link).provider_id == f"precomputed:{link}"

    def test_without_blake2_every_load_parses(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_embcache, "new_digest", lambda: None)
        path = self.write_emb(tmp_path)
        parses = self.count_parses(monkeypatch)
        load_precomputed(path)
        load_precomputed(path)
        assert parses == [path, path]
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.emb"]


class TestEmbedBatch:
    def test_shape_and_order(self):
        provider = HashedBowProvider(8, "cased", 5)
        X = embed_batch(["one sentence", "another one", "third"], provider)
        assert X.shape == (3, 8)
        assert np.array_equal(X[0], provider.embed(["one sentence"])[0])

    def test_duplicate_texts_identical_rows(self):
        provider = HashedBowProvider(8, "cased", 5)
        X = embed_batch(["same text", "same text"], provider)
        assert np.array_equal(X[0], X[1])

    def test_empty_list(self, tmp_path):
        for provider in (HashedBowProvider(8, "cased", 5), load_emb(tmp_path, 'EMB v1 1 8\n"a"' + " 1" * 8)):
            X = embed_batch([], provider)
            assert X.shape == (0, 8)
            assert X.dtype == np.float64
