"""Labeled legal-judgment sentences as columns: TSV ingestion, class counts,
deterministic train/validation splits, and token-length percentiles.

Corpus TSV format
-----------------
UTF-8 text. A line ``#doc<TAB><doc_id>`` opens a document; every following
non-blank line is ``<sentence text><TAB><canonical label>``. Blank lines are
ignored, and file order is the only sentence order. `serialize_corpus` emits
this shape with ``\\n`` endings, so round-trips are byte-identical, and refuses
what `parse_corpus` would not read back unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ._lazynp import np
from .errors import InputError
from .fileio import check_unchanged, naming, read_text, write_atomic

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

# Canonical label order. Index 0..6 is fixed and shared by every module:
# weight vectors, classifier rows, and confusion matrices all follow it.
LABELS: tuple[str, ...] = (
    "Facts",
    "Ruling by Lower Court",
    "Argument",
    "Statute",
    "Precedent",
    "Ratio of the decision",
    "Ruling by Present Court",
)
# Each canonical label's index in LABELS: the one place a label string becomes an index.
_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}

SPLIT_MODES = ("sentence_shuffled", "document_level")


@dataclass
class Corpus:
    """Sentences as columns, in file order: ``texts[i]`` and ``labels[i]``, the
    index of its label in ``LABELS``. Document ``documents[d]`` holds sentences
    ``starts[d]:starts[d + 1]``; ``starts`` ends with the sentence count."""

    texts: list[str]
    labels: list[int]
    documents: list[str]
    starts: list[int]


def parse_corpus(text: str) -> Corpus:
    """Parse corpus TSV text into a Corpus.

    Raises InputError, beginning ``line N: `` with the offending 1-based line
    number, on malformed lines, unknown labels, empty sentence text, sentences
    before any ``#doc`` header, or duplicate document ids. It names no file:
    ``load_corpus`` prefixes the path.
    """
    texts: list[str] = []
    labels: list[int] = []
    documents: list[str] = []
    starts: list[int] = []
    seen_docs: set[str] = set()

    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#doc\t"):
            doc_id = line[len("#doc\t"):]
            if not doc_id:
                raise InputError(f"line {line_no}: document header with empty doc_id")
            if doc_id in seen_docs:
                raise InputError(f"line {line_no}: duplicate document id {doc_id!r}")
            seen_docs.add(doc_id)
            documents.append(doc_id)
            starts.append(len(texts))
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise InputError(
                f"line {line_no}: expected 2 tab-separated fields, got {len(fields)}")
        sent_text, raw_label = fields
        if not sent_text:
            raise InputError(f"line {line_no}: empty sentence text")
        label = _LABEL_INDEX.get(raw_label)
        if label is None:
            raise InputError(f"line {line_no}: unknown label {raw_label!r}")
        if not documents:
            raise InputError(f"line {line_no}: sentence line before any #doc header")
        texts.append(sent_text)
        labels.append(label)

    starts.append(len(texts))
    return Corpus(texts, labels, documents, starts)


def serialize_corpus(corpus: Corpus) -> str:
    """Emit the canonical TSV form (inverse of parse_corpus), each document's
    range after its header, and read it back: what ``parse_corpus`` refuses
    raises its InputError, whose line numbers count in this text, and a corpus
    that reads back changed is refused."""
    texts, labels, starts = corpus.texts, corpus.labels, corpus.starts
    # An index outside LABELS is written as no label, which the parser refuses.
    name = dict(enumerate(LABELS)).get
    lines: list[str] = []
    for d, doc_id in enumerate(corpus.documents):
        lines.append(f"#doc\t{doc_id}")
        lines += (f"{texts[i]}\t{name(labels[i], '')}" for i in range(starts[d], starts[d + 1]))
    text = "".join(line + "\n" for line in lines)
    back = parse_corpus(text)
    check_unchanged("document", corpus.documents, back.documents)
    check_unchanged("sentence", zip(texts, labels), zip(back.texts, back.labels))
    check_unchanged("document start", starts, back.starts)
    return text


def load_corpus(path: str | Path) -> Corpus:
    """Parse the corpus file at ``path``, refusing one with no sentence."""
    with naming(path):
        corpus = parse_corpus(read_text(path))
        if not corpus.texts:
            raise InputError("contains no sentences")
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    write_atomic(path, [serialize_corpus(corpus)])


def label_counts(labels: list[int]) -> list[int]:
    """Sentences per label, in ``LABELS`` order, possibly 0, of a label column."""
    return [labels.count(i) for i in range(len(LABELS))]


def split(corpus: Corpus, cfg: RunConfig) -> tuple[list[int], list[int]]:
    """Deterministic train/validation partition by ``cfg.split_mode``, drawn
    from ``cfg.seed``, as two lists of sentence indices.

    ``sentence_shuffled`` permutes sentences and takes the first
    floor(cfg.train_fraction * N) for train. ``document_level`` permutes
    documents and assigns whole documents to train until that quota is met
    or exceeded; the remaining documents go to validation, so one document
    never straddles the split. Raises InputError when either side is empty.
    """
    n = len(corpus.texts)
    quota = math.floor(cfg.train_fraction * n)
    rng = np.random.default_rng(cfg.seed)

    if cfg.split_mode == "sentence_shuffled":
        perm = rng.permutation(n).tolist()
        train, val = perm[:quota], perm[quota:]
    else:
        starts = corpus.starts
        train, val = [], []
        for d in rng.permutation(len(corpus.documents)).tolist():
            (train if len(train) < quota else val).extend(range(starts[d], starts[d + 1]))
    if not train or not val:
        side = "validation" if train else "training"
        raise InputError(
            f"the {cfg.split_mode} split leaves the {side} set empty "
            f"(sentences: {n}, train_fraction: {cfg.train_fraction})"
        )
    return train, val


def length_percentile(
    corpus: Corpus, tokenizer: Callable[[str], list[str]], q: float
) -> int:
    """Nearest-rank q-th percentile, q in (0, 1], of a non-empty corpus's token counts.

    Returns the value at 1-based index ceil(q * N) of the sorted count list;
    no interpolation. The rank is computed in exact integer arithmetic on
    q's binary ratio, so q values like 0.98 never overshoot from float
    rounding.
    """
    counts = sorted(len(tokenizer(text)) for text in corpus.texts)
    num, den = q.as_integer_ratio()
    rank = -(-num * len(counts) // den)  # >= 1, because q > 0
    return counts[rank - 1]
