"""Deterministic linearly separable demonstration corpus.

``toy_corpus()`` takes no arguments and always builds the same 700
sentences. Each rhetorical role gets its own vocabulary, chosen so that
every word occupies a distinct hashed-BOW bucket at the default dimension
(``hashed:256``). Class supports are therefore disjoint in feature space and
a linear head can reach perfect accuracy. Used by the test suite and handy
for smoke-testing the CLI end to end.
"""

from __future__ import annotations

from ._lazynp import np
from .corpus import LABELS, Corpus, LabeledSentence
from .embedding import hash_vocabulary

_CLASS_STEMS = ("fact", "lower", "argue", "statute", "preced", "ratio", "present")
_WORDS_PER_CLASS = 12


def _collision_free_vocab() -> dict[str, list[str]]:
    """One vocabulary per label, each word in its own ``hash_vocabulary`` bucket at ``hashed:256``.

    FNV-1a propagates low-bit agreement, so fixed-prefix word families can
    collide wholesale at power-of-two dims; filtering candidates by bucket
    keeps the class subspaces disjoint.
    """
    used: set[int] = set()
    vocab: dict[str, list[str]] = {}
    for label, stem in zip(LABELS, _CLASS_STEMS):
        words: list[str] = []
        k = 0
        while len(words) < _WORDS_PER_CLASS:
            candidate = f"{stem}{k:02d}"
            k += 1
            _, (bucket,), _ = hash_vocabulary([candidate], 256)
            if bucket in used:
                continue
            used.add(bucket)
            words.append(candidate)
        vocab[label] = words
    return vocab


def toy_corpus() -> Corpus:
    """Balanced corpus of nonsense legal-ish sentences, one vocab per label:
    100 sentences per label dealt round-robin into 10 documents, 3 to 8
    words each, drawn with seed 7."""
    vocab = _collision_free_vocab()
    rng = np.random.default_rng(7)
    documents = [f"toy{j:02d}" for j in range(10)]
    sentences: list[LabeledSentence] = []
    for i in range(100 * len(LABELS)):
        label = LABELS[i % len(LABELS)]
        words = vocab[label]
        k = int(rng.integers(3, 8 + 1))
        text = " ".join(words[w] for w in rng.integers(0, len(words), size=k))
        doc_id = documents[i % len(documents)]
        sentences.append(LabeledSentence(text=text, label=label, doc_id=doc_id))
    sentences.sort(key=lambda s: documents.index(s.doc_id))  # stable: keeps dealing order
    return Corpus(sentences=sentences, documents=documents)
