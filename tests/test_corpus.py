from __future__ import annotations

import gc
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhetrole.config import RunConfig
from rhetrole.corpus import (
    LABELS,
    Corpus,
    label_counts,
    length_percentile,
    load_corpus,
    parse_corpus,
    save_corpus,
    serialize_corpus,
    split,
)
from rhetrole.errors import InputError

from .conftest import TWO_DOC_TSV


def make_corpus(n, labels=LABELS, docs=1):
    """Sentences 0 .. n-1 dealt round-robin into ``docs`` documents, labelled
    round-robin from ``labels``; each document keeps the order they were made."""
    dealt = [range(j, n, docs) for j in range(docs)]
    made = [i for doc in dealt for i in doc]
    starts = [0]
    for doc in dealt:
        starts.append(starts[-1] + len(doc))
    return Corpus([f"sentence number {i}" for i in made],
                  [LABELS.index(labels[i % len(labels)]) for i in made],
                  [f"d{j}" for j in range(docs)], starts)


def document_of(corpus):
    """Each sentence's document id."""
    return [doc_id for d, doc_id in enumerate(corpus.documents)
            for _ in range(corpus.starts[d], corpus.starts[d + 1])]


class TestParse:
    def test_two_docs_three_lines_each(self):
        corpus = parse_corpus(TWO_DOC_TSV)
        assert len(corpus.texts) == len(corpus.labels) == 6
        assert corpus.documents == ["case-001", "case-002"]
        assert corpus.starts == [0, 3, 6]

    def test_label_indices_follow_canonical_order(self):
        corpus = parse_corpus("#doc\tD\nThe appeal is allowed.\tRuling by Present Court\n")
        assert corpus.labels == [6]
        assert LABELS.index("Facts") == 0

    def test_labels_are_shared_and_the_loaded_corpus_stays_small(self, toy, tmp_path):
        # 6,144 toy sentences (383 KB): columns of texts and LABELS indices
        # retain 0.70 MB, where one object per sentence retained 0.99 MB.
        picked = [i % len(toy.texts) for i in range(6144)]
        path = tmp_path / "corpus.tsv"
        path.write_text("#doc\tD\n" + "".join(f"{toy.texts[i]}\t{LABELS[toy.labels[i]]}\n"
                                               for i in picked), encoding="utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus.texts) == 6144
        assert corpus.labels == [toy.labels[i] for i in picked]
        assert all(type(y) is int and 0 <= y < len(LABELS) for y in corpus.labels)
        assert retained < 0.85e6, retained

    def test_unknown_label_names_line(self):
        with pytest.raises(InputError, match=r"^line 2: unknown label 'Verdict'$"):
            parse_corpus("#doc\tD\nSome text\tVerdict\n")

    def test_wrong_field_count(self):
        with pytest.raises(InputError, match=r"^line 2: expected 2 tab-separated fields, got 3$"):
            parse_corpus("#doc\tD\na\tb\tc\n")

    def test_empty_sentence_text(self):
        with pytest.raises(InputError, match="^line 2: empty sentence text$"):
            parse_corpus("#doc\tD\n\tFacts\n")

    def test_sentence_before_header(self):
        with pytest.raises(InputError, match="^line 1: sentence line before any #doc header$"):
            parse_corpus("Some text\tFacts\n")

    def test_duplicate_doc_id(self):
        with pytest.raises(InputError, match="^line 3: duplicate document id 'D'$"):
            parse_corpus("#doc\tD\nx\tFacts\n#doc\tD\ny\tFacts\n")

    def test_blank_lines_ignored_and_positions_sequential(self):
        corpus = parse_corpus("#doc\tD\n\nx\tFacts\n\n\ny\tArgument\n")
        assert (corpus.texts, corpus.labels) == (["x", "y"], [0, 2])

    def test_round_trip_is_identity(self):
        corpus = parse_corpus(TWO_DOC_TSV)
        text = serialize_corpus(corpus)
        assert parse_corpus(text) == corpus
        assert serialize_corpus(parse_corpus(text)) == text


class TestSerialize:
    @pytest.mark.parametrize(
        "text, label, message",
        [
            ("", "Facts", "line 2: empty sentence text"),
            ("a\tb", "Facts", "line 2: expected 2 tab-separated fields, got 3"),
            ("a\nb", "Facts", "line 2: expected 2 tab-separated fields, got 1"),
            ("#doc", "Facts", "document 1 would read back as 'Facts', not None"),
            ("text", "Verdict", "line 2: unknown label 'Verdict'"),
        ],
    )
    def test_what_the_parser_refuses_is_not_written(self, tmp_path, text, label, message):
        # Written as it stands, the sentence would not parse back.
        try:
            parsed = parse_corpus(f"#doc\tD\n{text}\t{label}\n")
        except InputError as exc:
            parsed = str(exc)
        if label not in LABELS:  # the label column holds LABELS indices only
            assert parsed == message
            return
        corpus = Corpus([text], [LABELS.index(label)], ["D"], [0, 1])
        assert parsed != corpus
        with pytest.raises(InputError) as exc:
            serialize_corpus(corpus)
        assert str(exc.value) == message
        with pytest.raises(InputError):
            save_corpus(corpus, tmp_path / "corpus.tsv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "documents, message",
        [
            ([""], "line 1: document header with empty doc_id"),
            (["a\nb"], "line 2: expected 2 tab-separated fields, got 1"),
            (["a\r"], "document 0 would read back as 'a', not 'a\\r'"),
            (["a", "a"], "line 3: duplicate document id 'a'"),
        ],
        ids=["empty", "newline", "final_cr", "repeated"],
    )
    def test_document_ids_the_parser_refuses_are_not_written(
        self, tmp_path, documents, message
    ):
        corpus = Corpus(["x"], [0], documents, [0] + [1] * len(documents))
        # Written as it stands, each header followed by the document's sentences.
        try:
            parsed = parse_corpus(f"#doc\t{documents[0]}\nx\tFacts\n"
                                  + "".join(f"#doc\t{d}\n" for d in documents[1:]))
        except InputError:
            parsed = None
        assert parsed != corpus
        with pytest.raises(InputError) as exc:
            serialize_corpus(corpus)
        assert str(exc.value) == message
        with pytest.raises(InputError):
            save_corpus(corpus, tmp_path / "corpus.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_document_ranges_that_read_back_changed_are_not_written(self):
        # Document "a" would start at sentence 1, but its range 1:0 is empty:
        # written with no sentence, it reads back starting at 0.
        corpus = Corpus(["x", "y"], [0, 0], ["a", "b"], [1, 0, 2])
        with pytest.raises(InputError) as exc:
            serialize_corpus(corpus)
        assert str(exc.value) == "document start 0 would read back as 0, not 1"

    @pytest.mark.parametrize("label", [7, -1])
    def test_label_indices_outside_labels_are_not_written(self, tmp_path, label):
        corpus = Corpus(["x"], [label], ["D"], [0, 1])
        with pytest.raises(InputError, match=r"^line 2: unknown label ''$"):
            save_corpus(corpus, tmp_path / "corpus.tsv")
        assert list(tmp_path.iterdir()) == []


# Values the TSV can hold, and values it may not: texts and document ids
# built from a tab, a CR, an LF, a "#doc" that could start a header, or
# nothing.
PLAIN = st.text(alphabet="abcdefgh XYZ.,;'()0-9§302¶", min_size=1, max_size=20)
EDGY = st.lists(st.sampled_from(["a", " ", "\t", "\r", "\n", "#doc", "#doc\t"]),
                max_size=3).map("".join)


@st.composite
def corpora(draw):
    """Corpora of 0 to 6 sentences a document whose texts and document ids
    are each, one draw in ten, edgy; labels are ``LABELS`` indices."""
    def value(plain):
        return draw(EDGY if draw(st.integers(0, 9)) == 0 else plain)

    documents = [value(st.just(f"doc{j}")) for j in range(draw(st.integers(1, 4)))]
    texts, labels, starts = [], [], [0]
    for _ in documents:
        for _ in range(draw(st.integers(0, 6))):
            texts.append(value(PLAIN))
            labels.append(draw(st.integers(0, len(LABELS) - 1)))
        starts.append(len(texts))
    return Corpus(texts, labels, documents, starts)


def naive_tsv(corpus):
    """The corpus written as it stands, each document's sentences after its header."""
    return "".join(
        f"#doc\t{d}\n" + "".join(f"{corpus.texts[i]}\t{LABELS[corpus.labels[i]]}\n"
                                for i in range(corpus.starts[j], corpus.starts[j + 1]))
        for j, d in enumerate(corpus.documents)
    )


@given(corpora())
@example(Corpus(["x"], [0], ["doc0", "doc1"], [0, 0, 1]))
@example(Corpus(["x", "y"], [0, 3], ["doc0", "doc1", "doc2"], [0, 1, 1, 2]))
@example(Corpus(["x"], [6], ["doc0", "doc1"], [0, 1, 1]))
@example(Corpus(["\nx"], [0], ["doc0"], [0, 1]))
@example(Corpus([" "], [0], ["#doc"], [0, 1]))
@example(Corpus(["x"], [0], ["d\t"], [0, 1]))
@settings(max_examples=200)
def test_serialize_parse_round_trip(tmp_path_factory, corpus):
    """A corpus is saved and reads back equal, or the save refuses it and
    leaves no file: exactly when its naive TSV would not read back as it."""
    try:
        reads_back = parse_corpus(naive_tsv(corpus)) == corpus
    except InputError:
        reads_back = False
    path = tmp_path_factory.mktemp("corpus") / "corpus.tsv"
    if reads_back:
        save_corpus(corpus, path)
        text = path.read_bytes().decode("utf-8")
        assert text == naive_tsv(corpus)
        assert parse_corpus(text) == corpus
    else:
        with pytest.raises(InputError):
            save_corpus(corpus, path)
        assert list(path.parent.iterdir()) == []


class TestDistribution:
    def test_counts_sum_to_corpus_size(self):
        counts = label_counts(make_corpus(25).labels)
        assert counts == [4, 4, 4, 4, 3, 3, 3]

    def test_empty_corpus_all_zero(self):
        assert label_counts([]) == [0] * len(LABELS)

    def test_single_label(self):
        counts = label_counts(make_corpus(3, labels=["Statute"]).labels)
        assert counts[LABELS.index("Statute")] == 3
        assert sum(counts) == 3


class TestSplit:
    def test_sizes_n10(self):
        train, val = split(make_corpus(10), RunConfig(train_fraction=0.8, seed=42))
        assert (len(train), len(val)) == (8, 2)

    def test_sizes_full_scale(self):
        corpus = make_corpus(11285, docs=60)
        train, val = split(corpus, RunConfig(train_fraction=0.8, seed=42))
        assert (len(train), len(val)) == (9028, 2257)

    def test_deterministic(self):
        corpus = make_corpus(40, docs=3)
        cfg = RunConfig(train_fraction=0.8, seed=7)
        assert split(corpus, cfg) == split(corpus, cfg)
        other = split(corpus, RunConfig(train_fraction=0.8, seed=8))
        assert other != split(corpus, cfg)

    def test_partition_no_loss_no_duplicates(self):
        corpus = make_corpus(37, docs=4)
        train, val = split(corpus, RunConfig(train_fraction=0.6, seed=1))
        assert sorted(train + val) == list(range(37))

    def test_document_level_keeps_documents_whole(self):
        corpus = make_corpus(50, docs=7)
        cfg = RunConfig(train_fraction=0.8, seed=3, split_mode="document_level")
        train, val = split(corpus, cfg)
        doc_of = document_of(corpus)
        train_docs = {doc_of[i] for i in train}
        val_docs = {doc_of[i] for i in val}
        assert not train_docs & val_docs
        assert len(train) >= math.floor(0.8 * 50)

    def test_too_small(self):
        with pytest.raises(InputError):
            split(make_corpus(1), RunConfig(train_fraction=0.8, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(InputError, match="^train_fraction must lie strictly between 0 and 1$"):
            RunConfig(train_fraction=1.0, seed=0)

    @pytest.mark.parametrize(
        "name,kwargs",
        [("seed", {"train_fraction": 0.5, "seed": True}),
         ("train_fraction", {"train_fraction": "0.5", "seed": 0})],
        ids=["seed", "train_fraction"],
    )
    def test_wrong_typed_field_rejected(self, name, kwargs):
        with pytest.raises(InputError, match=name):
            RunConfig(**kwargs)


def whitespace_tokens(text):
    return text.split()


class TestLengthPercentile:
    def corpus_with_token_counts(self, counts):
        texts = [" ".join(["tok"] * c) for c in counts]
        return Corpus(texts, [0] * len(texts), ["d"], [0, len(texts)])

    def test_nearest_rank_1_to_100(self):
        corpus = self.corpus_with_token_counts(range(1, 101))
        assert length_percentile(corpus, whitespace_tokens, 0.98) == 98

    def test_single_sentence(self):
        corpus = self.corpus_with_token_counts([7])
        for q in (0.01, 0.5, 0.98, 1.0):
            assert length_percentile(corpus, whitespace_tokens, q) == 7

    def test_constant_counts(self):
        corpus = self.corpus_with_token_counts([5, 5, 5, 5])
        assert length_percentile(corpus, whitespace_tokens, 0.5) == 5

    @given(n=st.integers(1, 120), q=st.floats(0.0, 1.0, exclude_min=True))
    @example(n=100, q=0.98)
    @example(n=3, q=1 / 3)
    @example(n=10, q=0.7)
    @example(n=120, q=5e-324)
    @settings(max_examples=200)
    def test_rank_is_exact_rational_ceiling(self, n, q):
        """Counts 1..n make the percentile equal its 1-based rank, which must
        be ceil(q * n) in exact rational arithmetic, and at least 1."""
        corpus = self.corpus_with_token_counts(range(1, n + 1))
        expected = max(math.ceil(Fraction(q) * n), 1)
        assert length_percentile(corpus, whitespace_tokens, q) == expected

    @given(
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=30),
        q1=st.floats(0.01, 1.0),
        q2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60)
    def test_monotone_in_q_and_bounded(self, counts, q1, q2):
        corpus = self.corpus_with_token_counts(counts)
        lo, hi = sorted((q1, q2))
        v_lo = length_percentile(corpus, whitespace_tokens, lo)
        v_hi = length_percentile(corpus, whitespace_tokens, hi)
        assert v_lo <= v_hi <= max(counts)
