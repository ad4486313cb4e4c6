"""Seeded workload generators for the benchmark.

Everything here depends only on numpy and the seed, never on the program
under test, so both sides of a comparison receive byte-identical inputs.
The same ``(seed, size)`` always yields the same files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from labels import LABELS, TASK_COUNTS

_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")  # 70
_VOCAB = 20_000
_TOPIC_WORDS = 300  # per label
_TOPIC_SHARE = 0.4  # share of a sentence's tokens drawn from its label's topic
_MEAN_TOKENS = 34.0
_ALL_PUNCT_SHARE = 0.005
_ALL_PUNCT = ("—", "§", "…", "“—”", "‘…’", "-", "(…)", "—;", "§§")
_CITATION_FORMS = ("s.{n}", "Art.{n}", "({y})", "§{n}", "r.{n}(2)", "S.{n}-A")


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream); streams never overlap."""
    return np.random.default_rng([seed, stream])


def _vocabulary(rng: np.random.Generator) -> list[str]:
    """20k distinct lowercase pseudo-words; rank order shuffled by the seed."""
    base = len(_SYLLABLES)
    words = []
    for i in range(base, base + _VOCAB):  # every word has 2-3 syllables
        parts = []
        while i:
            i, d = divmod(i, base)
            parts.append(_SYLLABLES[d])
        words.append("".join(parts))
    return [words[i] for i in rng.permutation(_VOCAB)]


def _zipf_probs(n: int, s: float = 1.07, q: float = 2.7) -> np.ndarray:
    p = 1.0 / (np.arange(n) + q) ** s
    return p / p.sum()


def task_sentences(
    n: int, seed: int, stream: int, distinct: bool = False
) -> tuple[list[str], np.ndarray]:
    """``n`` legal-register sentences and their label indices.

    Tokens follow a Zipfian vocabulary, with two fifths drawn from a
    label-specific topic list so the labels are learnable. Edge punctuation
    (curly quotes, em-dash, commas), citation tokens such as ``s.302``,
    capitalisation, a long length tail (so the 0.98 length percentile
    truncates) and a small share of all-punctuation sentences (which embed
    to all-zero vectors) are mixed in. With ``distinct`` every sentence is
    unique and none is all-punctuation.
    """
    rng = rng_for(seed, stream)
    vocab = _vocabulary(rng_for(seed, 0))
    labels = rng.choice(len(LABELS), size=n, p=np.array(TASK_COUNTS) / sum(TASK_COUNTS))
    lengths = np.minimum(5 + rng.gamma(4.0, (_MEAN_TOKENS - 5) / 4.0, size=n).astype(np.int64), 300)
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    starts = ends - lengths
    token_label = np.repeat(labels, lengths)

    ids = rng.choice(_VOCAB, size=total, p=_zipf_probs(_VOCAB))
    topic = rng.random(total) < _TOPIC_SHARE
    topic_rank = rng.choice(_TOPIC_WORDS, size=int(topic.sum()), p=_zipf_probs(_TOPIC_WORDS))
    # Topic lists occupy disjoint mid-frequency rank ranges, one per label.
    ids[topic] = 200 + token_label[topic] * _TOPIC_WORDS + topic_rank
    tokens = [vocab[i] for i in ids.tolist()]

    def decorate(share: float, fn) -> None:
        for i in np.flatnonzero(rng.random(total) < share).tolist():
            tokens[i] = fn(tokens[i], i)

    years = rng.integers(1950, 2021, size=total)
    numbers = rng.integers(1, 500, size=total)
    forms = rng.integers(0, len(_CITATION_FORMS), size=total)
    decorate(0.02, lambda t, i: _CITATION_FORMS[forms[i]].format(n=numbers[i], y=years[i]))
    decorate(0.03, lambda t, i: t.capitalize())
    decorate(0.005, lambda t, i: t.upper())
    decorate(0.06, lambda t, i: t + ",")
    decorate(0.01, lambda t, i: t + ";")
    decorate(0.02, lambda t, i: "“" + t + "”")
    decorate(0.01, lambda t, i: "‘" + t + "’")
    decorate(0.01, lambda t, i: t + " —")
    for i in starts.tolist():
        tokens[i] = tokens[i][:1].upper() + tokens[i][1:]

    sentences = [" ".join(tokens[a:b]) + "." for a, b in zip(starts.tolist(), ends.tolist())]
    if distinct:
        return _make_distinct(sentences), labels
    punct = np.flatnonzero(rng.random(n) < _ALL_PUNCT_SHARE).tolist()
    choice = rng.integers(0, len(_ALL_PUNCT), size=len(punct)).tolist()
    for i, c in zip(punct, choice):
        sentences[i] = _ALL_PUNCT[c]
    return sentences, labels


def _make_distinct(sentences: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for i, s in enumerate(sentences):
        if s in seen:
            s = f"{s[:-1]} para {i}."
        seen.add(s)
        out.append(s)
    return out


def corpus_tsv(sentences: list[str], labels, seed: int, stream: int) -> str:
    """Corpus TSV with documents of 20-80 consecutive sentences."""
    rng = rng_for(seed, stream)
    lines: list[str] = []
    i, doc = 0, 0
    labels = np.asarray(labels).tolist()
    while i < len(sentences):
        size = int(rng.integers(20, 81))
        lines.append(f"#doc\tcase-{doc:05d}")
        for j in range(i, min(i + size, len(sentences))):
            lines.append(f"{sentences[j]}\t{LABELS[labels[j]]}")
        i += size
        doc += 1
    return "".join(line + "\n" for line in lines)


def lines_text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def emb_vectors(labels, dim: int, seed: int, stream: int) -> np.ndarray:
    """Encoder-like float64 vectors: a per-label centroid plus unit noise."""
    rng = rng_for(seed, stream)
    centroids = rng.normal(0.0, 0.5, size=(len(LABELS), dim))
    return centroids[np.asarray(labels)] + rng.normal(0.0, 1.0, size=(len(labels), dim))


# --- toy corpus ----------------------------------------------------------
# The recipe of the package's linearly separable demo corpus: one
# vocabulary of 12 words per label, every word in its own FNV-1a bucket at
# dim 256, sentences of 3-8 words, spread round-robin over 10 documents.

_TOY_STEMS = ("fact", "lower", "argue", "statute", "preced", "ratio", "present")


def _fnv1a_64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _toy_vocab(dim: int = 256, per_label: int = 12) -> list[list[str]]:
    used: set[int] = set()
    vocab = []
    for stem in _TOY_STEMS:
        words, k = [], 0
        while len(words) < per_label:
            word = f"{stem}{k:02d}"
            k += 1
            bucket = _fnv1a_64(word) % dim
            if bucket not in used:
                used.add(bucket)
                words.append(word)
        vocab.append(words)
    return vocab


def toy_corpus_tsv(seed, per_label: int = 100, num_docs: int = 10) -> tuple[str, list[str]]:
    """Toy corpus TSV and its sentences in file order."""
    vocab = _toy_vocab()
    rng = np.random.default_rng(seed)
    docs: list[list[str]] = [[] for _ in range(num_docs)]
    for i in range(per_label * len(LABELS)):
        label = i % len(LABELS)
        k = int(rng.integers(3, 9))
        text = " ".join(vocab[label][w] for w in rng.integers(0, 12, size=k))
        docs[i % num_docs].append(f"{text}\t{LABELS[label]}")
    lines: list[str] = []
    for j, rows in enumerate(docs):
        lines.append(f"#doc\ttoy{j:02d}")
        lines.extend(rows)
    text = "".join(line + "\n" for line in lines)
    sentences = [row.split("\t")[0] for rows in docs for row in rows]
    return text, sentences


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


# Sizes at scale 1. They keep one measurement cycle of each workload near
# five seconds on a 2-core host, so a run repeats it several times.
TASK_SENTENCES = 5_000
TASK_PREDICT_LINES = 2_000
HASHED_DIM = 256
EMB_SENTENCES = 1_000
EMB_DIM = 768  # the BERT-base width the paper's encoders produce
TASK_EXPORT_ROWS = 1_000


def build(workload: str, seed: int, scale: float, out: Path) -> dict:
    """Write one workload's input files into ``out``; return their counts.

    Files: ``corpus.tsv`` (the training corpus), ``evaluate.tsv`` (the
    labelled corpus evaluate scores), ``predict.txt`` (one raw sentence per
    line), ``keys.txt`` and ``vectors.npy`` (the sentences and vectors the
    export step writes as an EMB file).
    """
    def n(base: int) -> int:
        return max(4, math.ceil(base * scale))

    if workload == "task-hashed":
        sentences, labels = task_sentences(n(TASK_SENTENCES), seed, 1)
        predict, _ = task_sentences(n(TASK_PREDICT_LINES), seed, 2)
        keys, key_labels = task_sentences(n(TASK_EXPORT_ROWS), seed, 3, distinct=True)
        tsv, dim = corpus_tsv(sentences, labels, seed, 4), HASHED_DIM
        evaluate_set = (tsv, sentences)
    elif workload == "emb-precomputed":
        keys, key_labels = task_sentences(n(EMB_SENTENCES), seed, 1, distinct=True)
        sentences, dim = keys, EMB_DIM
        tsv = corpus_tsv(keys, key_labels, seed, 4)
        evaluate_set = (tsv, sentences)
        # Predict inputs are drawn from the EMB keys so every line resolves.
        picks = rng_for(seed, 2).integers(0, len(keys), size=len(keys)).tolist()
        predict = [keys[i] for i in picks]
    elif workload == "toy-loop":
        tsv, sentences = toy_corpus_tsv(seed)
        # Evaluate and predict run on a larger held-out set of the same
        # recipe, so that they time more than interpreter start-up.
        evaluate_set = toy_corpus_tsv([seed, 1], per_label=n(1000))
        predict, dim = evaluate_set[1], HASHED_DIM
        keys = _make_distinct(sentences)
        key_labels = [i % len(LABELS) for i in range(len(keys))]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    out.mkdir(parents=True, exist_ok=True)
    _write(out / "corpus.tsv", tsv)
    _write(out / "evaluate.tsv", evaluate_set[0])
    _write(out / "predict.txt", lines_text(predict))
    _write(out / "keys.txt", lines_text(keys))
    np.save(out / "vectors.npy", emb_vectors(key_labels, dim, seed, 5))
    return {
        "corpus_sentences": len(sentences),
        "evaluate_sentences": len(evaluate_set[1]),
        "predict_lines": len(predict),
        "export_rows": len(keys),
        "dim": dim,
    }


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    import json
    import sys

    # Generation runs in its own process so that the benchmark's parent
    # stays small: a child's ru_maxrss includes the image of the process
    # that spawned it.
    workload, seed, scale, out = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), Path(sys.argv[4])
    counts = build(workload, seed, scale, out)
    counts.update(numpy=np.__version__, blas=_blas())
    print(json.dumps(counts))
