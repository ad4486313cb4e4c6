"""Checkpoint bytes depend on the exact order in which ``split``,
``undersample`` and ``oversample`` draw and return sentences. These tests
hold each to a reference copy of the code that first wrote them, kept here
as it was, rather than to a digest: numpy does not promise the same
``Generator`` streams across its versions, but it does promise that the
same calls draw the same numbers within one. The references read records of
a sentence's text, label and document, built here from the corpus columns."""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhetrole.config import RunConfig
from rhetrole.corpus import LABELS, SPLIT_MODES, Corpus, split
from rhetrole.errors import InputError
from rhetrole.imbalance import oversample, undersample


def reference_split(corpus, cfg):
    n = len(corpus.sentences)
    if n < 2:
        raise InputError("cannot split a corpus with fewer than 2 sentences")
    quota = math.floor(cfg.train_fraction * n)
    rng = np.random.default_rng(cfg.seed)

    if cfg.split_mode == "sentence_shuffled":
        perm = rng.permutation(n)
        train = [corpus.sentences[i] for i in perm[:quota]]
        val = [corpus.sentences[i] for i in perm[quota:]]
        return train, val

    by_doc = {d: [] for d in corpus.documents}
    for s in corpus.sentences:
        by_doc[s.doc_id].append(s)
    train, val = [], []
    for di in rng.permutation(len(corpus.documents)):
        doc_sentences = by_doc[corpus.documents[di]]
        if len(train) < quota:
            train.extend(doc_sentences)
        else:
            val.extend(doc_sentences)
    return train, val


def _indices_by_label(dataset):
    by_label = {}
    for i, s in enumerate(dataset):
        by_label.setdefault(s.label, []).append(i)
    return by_label


def _present_in_canonical_order(by_label):
    return [label for label in LABELS if label in by_label]


def reference_undersample(dataset, seed):
    if not dataset:
        raise InputError("cannot undersample an empty dataset")
    by_label = _indices_by_label(dataset)
    m = min(len(v) for v in by_label.values())
    rng = np.random.default_rng(seed)
    keep = []
    for label in _present_in_canonical_order(by_label):
        idxs = by_label[label]
        chosen = rng.choice(len(idxs), size=m, replace=False)
        keep.extend(idxs[c] for c in chosen)
    keep.sort()
    return [dataset[i] for i in keep]


def reference_oversample(dataset, seed):
    if not dataset:
        raise InputError("cannot oversample an empty dataset")
    by_label = _indices_by_label(dataset)
    target = max(len(v) for v in by_label.values())
    rng = np.random.default_rng(seed)
    out = list(dataset)
    for label in _present_in_canonical_order(by_label):
        idxs = by_label[label]
        need = target - len(idxs)
        if need > 0:
            draws = rng.integers(0, len(idxs), size=need)
            out.extend(dataset[idxs[d]] for d in draws)
    return out


class Record(NamedTuple):
    """A sentence as the reference copies read it."""

    text: str
    label: str
    doc_id: str


def records(corpus):
    """The corpus's sentences as records, and the corpus as the reference split reads it."""
    doc_of = [d for d, doc_id in enumerate(corpus.documents)
              for _ in range(corpus.starts[d], corpus.starts[d + 1])]
    sentences = [Record(text, LABELS[y], corpus.documents[d])
                 for text, y, d in zip(corpus.texts, corpus.labels, doc_of)]
    return sentences, SimpleNamespace(sentences=sentences, documents=corpus.documents)


def columns(documents):
    """A corpus of documents given as lists of label names, sentence texts s0, s1, ..."""
    labels = [LABELS.index(label) for doc in documents for label in doc]
    starts = [0]
    for doc in documents:
        starts.append(starts[-1] + len(doc))
    return Corpus([f"s{i}" for i in range(len(labels))], labels,
                  [f"doc{j}" for j in range(len(documents))], starts)


@st.composite
def corpora(draw):
    """Corpora in file order over a drawn subset of the labels, so some
    labels are absent; one document, and documents of one sentence, are
    common draws."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=len(LABELS),
                           unique=True))
    return columns([draw(st.lists(st.sampled_from(labels), min_size=1, max_size=6))
                    for _ in range(draw(st.integers(1, 5)))])


def ids(sentences):
    """Identity, not equality: which of the corpus's records, in which order."""
    return [id(s) for s in sentences]


def single_document(*labels):
    return columns([labels])


def one_sentence_documents(*labels):
    return columns([[label] for label in labels])


@given(
    corpus=corpora(),
    mode=st.sampled_from(SPLIT_MODES),
    train_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(corpus=single_document("Facts", "Statute", "Facts"), mode="document_level",
         train_fraction=0.8, seed=0)
@example(corpus=single_document("Facts"), mode="sentence_shuffled", train_fraction=0.8, seed=0)
@example(corpus=one_sentence_documents("Facts", "Argument", "Facts", "Precedent", "Facts"),
         mode="document_level", train_fraction=0.5, seed=3)
@example(corpus=columns([["Facts", "Statute"], [], ["Argument", "Facts"], ["Facts"]]),
         mode="document_level", train_fraction=0.5, seed=1)
@settings(max_examples=150, deadline=None)
def test_split_and_resampling_draw_as_the_reference(corpus, mode, train_fraction, seed):
    """``split`` returns the indices of the reference's sides whenever both are
    non-empty and refuses the split otherwise; ``undersample`` and
    ``oversample`` return the positions of the reference's sentences, in its
    order, on the corpus and on each side."""
    sentences, reference_corpus = records(corpus)
    cfg = RunConfig(train_fraction=train_fraction, seed=seed, split_mode=mode)
    try:
        expected = reference_split(reference_corpus, cfg)
    except InputError:
        expected = ([], [])
    if not all(expected):
        with pytest.raises(InputError, match="set empty"):
            split(corpus, cfg)
        sides = []
    else:
        sides = split(corpus, cfg)
        assert [ids(sentences[i] for i in side) for side in sides] == [
            ids(side) for side in expected]
    for idx in (range(len(sentences)), *sides):
        dataset = [sentences[i] for i in idx]
        labels = [corpus.labels[i] for i in idx]
        assert ids(dataset[p] for p in undersample(labels, seed)) == ids(
            reference_undersample(dataset, seed))
        assert ids(dataset[p] for p in oversample(labels, seed)) == ids(
            reference_oversample(dataset, seed))
