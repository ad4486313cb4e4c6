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
    LabeledSentence,
    load_corpus,
    class_distribution,
    length_percentile,
    parse_corpus,
    save_corpus,
    serialize_corpus,
    split,
)
from rhetrole.errors import ConfigError, CorpusParseError, InputError, UnknownLabelError

from .conftest import TWO_DOC_TSV


def make_corpus(n, labels=None, docs=1):
    sentences = []
    doc_ids = [f"d{j}" for j in range(docs)]
    for i in range(n):
        sentences.append(
            LabeledSentence(
                text=f"sentence number {i}",
                label=labels[i % len(labels)] if labels else LABELS[i % len(LABELS)],
                doc_id=doc_ids[i % docs],
            )
        )
    # Stable: each document's sentences stay in the order they were made.
    sentences.sort(key=lambda s: doc_ids.index(s.doc_id))
    return Corpus(sentences=sentences, documents=doc_ids)


class TestParse:
    def test_two_docs_three_lines_each(self):
        corpus = parse_corpus(TWO_DOC_TSV)
        assert len(corpus.sentences) == 6
        assert corpus.documents == ["case-001", "case-002"]

    def test_label_indices_follow_canonical_order(self):
        corpus = parse_corpus("#doc\tD\nThe appeal is allowed.\tRuling by Present Court\n")
        assert LABELS.index(corpus.sentences[0].label) == 6
        assert LABELS.index("Facts") == 0

    def test_labels_are_shared_and_the_loaded_corpus_stays_small(self, toy, tmp_path):
        # 6,144 toy sentences (383 KB): with a label string per sentence the
        # corpus retained 1.85 MB; sharing the LABELS strings leaves 1.22 MB.
        sentences = [toy.sentences[i % len(toy.sentences)] for i in range(6144)]
        path = tmp_path / "corpus.tsv"
        path.write_text("#doc\tD\n" + "".join(f"{s.text}\t{s.label}\n" for s in sentences),
                        encoding="utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus.sentences) == 6144
        assert all(any(s.label is label for label in LABELS) for s in corpus.sentences)
        assert retained < 1.5e6, retained

    def test_unknown_label_names_line(self):
        with pytest.raises(UnknownLabelError) as exc:
            parse_corpus("#doc\tD\nSome text\tVerdict\n")
        assert exc.value.line_no == 2
        assert "Verdict" in str(exc.value)

    def test_wrong_field_count(self):
        with pytest.raises(CorpusParseError) as exc:
            parse_corpus("#doc\tD\na\tb\tc\n")
        assert exc.value.line_no == 2

    def test_empty_sentence_text(self):
        with pytest.raises(CorpusParseError):
            parse_corpus("#doc\tD\n\tFacts\n")

    def test_sentence_before_header(self):
        with pytest.raises(CorpusParseError):
            parse_corpus("Some text\tFacts\n")

    def test_duplicate_doc_id(self):
        with pytest.raises(CorpusParseError):
            parse_corpus("#doc\tD\nx\tFacts\n#doc\tD\ny\tFacts\n")

    def test_blank_lines_ignored_and_positions_sequential(self):
        corpus = parse_corpus("#doc\tD\n\nx\tFacts\n\n\ny\tArgument\n")
        assert [s.text for s in corpus.sentences] == ["x", "y"]

    def test_round_trip_is_identity(self):
        corpus = parse_corpus(TWO_DOC_TSV)
        text = serialize_corpus(corpus)
        assert parse_corpus(text) == corpus
        assert serialize_corpus(parse_corpus(text)) == text


class TestSerialize:
    @pytest.mark.parametrize(
        "text, label, message",
        [
            ("", "Facts", "sentence text must be non-empty"),
            ("a\tb", "Facts", "sentence text must not contain tabs or newlines"),
            ("a\nb", "Facts", "sentence text must not contain tabs or newlines"),
            ("#doc", "Facts", "sentence text '#doc' is not representable in the TSV format"),
            ("text", "Verdict", "unknown label 'Verdict'"),
        ],
    )
    def test_what_the_parser_refuses_is_not_written(self, tmp_path, text, label, message):
        corpus = Corpus([LabeledSentence(text, label, "D")], ["D"])
        # Written as it stands, the sentence would not parse back.
        try:
            parsed = parse_corpus(f"#doc\tD\n{text}\t{label}\n")
        except InputError:
            parsed = None
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
            ([""], "document id '' is not representable in the TSV format"),
            (["a\nb"], "document id 'a\\nb' is not representable in the TSV format"),
            (["a\r"], "document id 'a\\r' is not representable in the TSV format"),
            (["a", "a"], "duplicate document id 'a'"),
        ],
        ids=["empty", "newline", "final_cr", "repeated"],
    )
    def test_document_ids_the_parser_refuses_are_not_written(
        self, tmp_path, documents, message
    ):
        corpus = Corpus([LabeledSentence("x", "Facts", documents[0])], documents)
        # Written as it stands, each header followed by the document's sentences.
        try:
            parsed = parse_corpus("".join(f"#doc\t{d}\nx\tFacts\n" for d in documents))
        except InputError:
            parsed = None
        assert parsed != corpus
        with pytest.raises(InputError) as exc:
            serialize_corpus(corpus)
        assert str(exc.value) == message
        with pytest.raises(InputError):
            save_corpus(corpus, tmp_path / "corpus.tsv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "sentences, message",
        [
            ([("x", "a"), ("y", "b"), ("z", "a")],
             "sentence 2 of document 'a' is out of order: a document's sentences must be "
             "contiguous, in corpus.documents order"),
            ([("x", "b"), ("y", "a")],
             "sentence 1 of document 'a' is out of order: a document's sentences must be "
             "contiguous, in corpus.documents order"),
            ([("x", "a"), ("y", "ghost")],
             "sentence doc_id 'ghost' missing from corpus.documents"),
        ],
        ids=["interleaved", "documents_reversed", "unknown_document"],
    )
    def test_sentences_out_of_document_order_are_not_written(self, tmp_path, sentences, message):
        documents = ["a", "b"]
        corpus = Corpus([LabeledSentence(t, "Facts", d) for t, d in sentences], documents)
        # Written grouped by document, the sentences would read back reordered or lost.
        grouped = "".join(
            f"#doc\t{d}\n" + "".join(f"{t}\tFacts\n" for t, sd in sentences if sd == d)
            for d in documents
        )
        assert parse_corpus(grouped) != corpus
        with pytest.raises(InputError) as exc:
            serialize_corpus(corpus)
        assert str(exc.value) == message
        with pytest.raises(InputError):
            save_corpus(corpus, tmp_path / "corpus.tsv")
        assert list(tmp_path.iterdir()) == []


@st.composite
def corpora(draw):
    """Corpora in file order; some draws then interleave the documents'
    sentences, or move one sentence to a document not in ``documents``."""
    num_docs = draw(st.integers(1, 4))
    sentences = []
    documents = []
    for j in range(num_docs):
        doc = f"doc{j}"
        documents.append(doc)
        for _ in range(draw(st.integers(1, 6))):
            text = draw(
                st.text(
                    alphabet="abcdefgh XYZ.,;'()0-9§302¶",
                    min_size=1,
                    max_size=20,
                ).filter(lambda t: t.strip() and t != "#doc")
            )
            label = draw(st.sampled_from(LABELS))
            sentences.append(LabeledSentence(text=text, label=label, doc_id=doc))
    if draw(st.booleans()):
        sentences = draw(st.permutations(sentences))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(sentences) - 1))
        sentences[i] = LabeledSentence(sentences[i].text, sentences[i].label, "ghost")
    return Corpus(sentences=sentences, documents=documents)


def in_file_order(corpus):
    """Every sentence names a known document, and each document's sentences
    are contiguous and in ``documents`` order."""
    ranks = [corpus.documents.index(s.doc_id) if s.doc_id in corpus.documents else -1
             for s in corpus.sentences]
    return -1 not in ranks and ranks == sorted(ranks)


@given(corpora())
@example(Corpus([LabeledSentence("x", "Facts", "doc0"), LabeledSentence("y", "Facts", "doc1"),
                 LabeledSentence("z", "Facts", "doc0")], ["doc0", "doc1"]))
@example(Corpus([LabeledSentence("x", "Facts", "ghost")], ["doc0"]))
@settings(max_examples=100)
def test_serialize_parse_round_trip(corpus):
    """A corpus reads back equal, or serialize_corpus refuses it: exactly
    when the TSV cannot hold its order or its documents."""
    if in_file_order(corpus):
        assert parse_corpus(serialize_corpus(corpus)) == corpus
    else:
        with pytest.raises(InputError):
            serialize_corpus(corpus)


class TestDistribution:
    def test_counts_sum_to_corpus_size(self):
        corpus = make_corpus(25)
        counts = class_distribution(corpus.sentences)
        assert sum(counts.values()) == 25
        assert set(counts) == set(LABELS)

    def test_empty_corpus_all_zero(self):
        counts = class_distribution([])
        assert all(v == 0 for v in counts.values())

    def test_single_label(self):
        corpus = make_corpus(3, labels=["Statute"])
        counts = class_distribution(corpus.sentences)
        assert counts["Statute"] == 3
        assert sum(counts.values()) == 3


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
        # split hands back the corpus's own sentence objects.
        keys = [id(s) for s in train + val]
        assert len(keys) == len(set(keys)) == 37
        assert set(keys) == {id(s) for s in corpus.sentences}

    def test_document_level_keeps_documents_whole(self):
        corpus = make_corpus(50, docs=7)
        cfg = RunConfig(train_fraction=0.8, seed=3, split_mode="document_level")
        train, val = split(corpus, cfg)
        train_docs = {s.doc_id for s in train}
        val_docs = {s.doc_id for s in val}
        assert not train_docs & val_docs
        assert len(train) >= math.floor(0.8 * 50)

    def test_too_small(self):
        with pytest.raises(InputError):
            split(make_corpus(1), RunConfig(train_fraction=0.8, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(ConfigError, match="^train_fraction must lie strictly between 0 and 1$"):
            RunConfig(train_fraction=1.0, seed=0)

    @pytest.mark.parametrize(
        "name,kwargs",
        [("seed", {"train_fraction": 0.5, "seed": True}),
         ("train_fraction", {"train_fraction": "0.5", "seed": 0})],
        ids=["seed", "train_fraction"],
    )
    def test_wrong_typed_field_rejected(self, name, kwargs):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**kwargs)


def whitespace_tokens(text):
    return text.split()


class TestLengthPercentile:
    def corpus_with_token_counts(self, counts):
        sentences = [
            LabeledSentence(text=" ".join(["tok"] * c), label="Facts", doc_id="d")
            for c in counts
        ]
        return Corpus(sentences=sentences, documents=["d"])

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
