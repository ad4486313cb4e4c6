"""Checkpoint bytes depend on the exact order in which ``split``,
``undersample`` and ``oversample`` draw and return sentences. These tests
hold each to a reference copy of the code that first wrote them, kept here
as it was, rather than to a digest: numpy does not promise the same
``Generator`` streams across its versions, but it does promise that the
same calls draw the same numbers within one."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhetrole.config import RunConfig
from rhetrole.corpus import LABELS, SPLIT_MODES, Corpus, LabeledSentence, split
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


@st.composite
def corpora(draw):
    """Corpora in file order over a drawn subset of the labels, so some
    labels are absent; one document, and documents of one sentence, are
    common draws."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=len(LABELS),
                           unique=True))
    sentences, documents = [], []
    for j in range(draw(st.integers(1, 5))):
        documents.append(f"doc{j}")
        for _ in range(draw(st.integers(1, 6))):
            label = draw(st.sampled_from(labels))
            sentences.append(LabeledSentence(f"s{len(sentences)}", label, f"doc{j}"))
    return Corpus(sentences=sentences, documents=documents)


def ids(sentences):
    """Identity, not equality: which of the corpus's objects, in which order."""
    return [id(s) for s in sentences]


def single_document(*labels):
    return Corpus([LabeledSentence(f"s{i}", label, "doc0") for i, label in enumerate(labels)],
                  ["doc0"])


def one_sentence_documents(*labels):
    return Corpus([LabeledSentence(f"s{i}", label, f"doc{i}") for i, label in enumerate(labels)],
                  [f"doc{i}" for i in range(len(labels))])


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
@settings(max_examples=150, deadline=None)
def test_split_and_resampling_draw_as_the_reference(corpus, mode, train_fraction, seed):
    """``split`` returns the reference's sides whenever both are non-empty and
    refuses the split otherwise; ``undersample`` and ``oversample`` return the
    reference's sentences, in its order, on the corpus and on each side."""
    cfg = RunConfig(train_fraction=train_fraction, seed=seed, split_mode=mode)
    try:
        expected = reference_split(corpus, cfg)
    except InputError:
        expected = ([], [])
    if not all(expected):
        with pytest.raises(InputError, match="set empty"):
            split(corpus, cfg)
        sides = []
    else:
        sides = split(corpus, cfg)
        assert [ids(side) for side in sides] == [ids(side) for side in expected]
    for dataset in (corpus.sentences, *sides):
        assert ids(undersample(dataset, seed)) == ids(reference_undersample(dataset, seed))
        assert ids(oversample(dataset, seed)) == ids(reference_oversample(dataset, seed))
