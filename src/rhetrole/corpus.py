"""Labeled legal-judgment sentences: TSV ingestion, class statistics,
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
from typing import TYPE_CHECKING, Callable, Iterable

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
# Each label maps to its LABELS string, so parsed sentences share seven label
# objects instead of each holding its own copy.
_CANONICAL_LABELS = {label: label for label in LABELS}

SPLIT_MODES = ("sentence_shuffled", "document_level")


@dataclass(frozen=True, slots=True)
class LabeledSentence:
    """A legal-document sentence and its rhetorical-role label. It checks nothing itself:
    ``parse_corpus`` refuses what TSV cannot hold, ``serialize_corpus`` what would not read back."""

    text: str
    label: str
    doc_id: str


@dataclass
class Corpus:
    """Documents in ``documents`` order, each one's sentences contiguous, in file order."""

    sentences: list[LabeledSentence]
    documents: list[str]


def parse_corpus(text: str) -> Corpus:
    """Parse corpus TSV text into a Corpus.

    Raises InputError, beginning ``line N: `` with the offending 1-based line
    number, on malformed lines, unknown labels, empty sentence text, sentences
    before any ``#doc`` header, or duplicate document ids. It names no file:
    ``load_corpus`` prefixes the path.
    """
    sentences: list[LabeledSentence] = []
    documents: list[str] = []
    seen_docs: set[str] = set()
    current_doc: str | None = None

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
            current_doc = doc_id
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise InputError(
                f"line {line_no}: expected 2 tab-separated fields, got {len(fields)}")
        sent_text, raw_label = fields
        if not sent_text:
            raise InputError(f"line {line_no}: empty sentence text")
        label = _CANONICAL_LABELS.get(raw_label)
        if label is None:
            raise InputError(f"line {line_no}: unknown label {raw_label!r}")
        if current_doc is None:
            raise InputError(f"line {line_no}: sentence line before any #doc header")
        sentences.append(LabeledSentence(text=sent_text, label=label, doc_id=current_doc))

    return Corpus(sentences=sentences, documents=documents)


def serialize_corpus(corpus: Corpus) -> str:
    """Emit the canonical TSV form (inverse of parse_corpus) in one ordered pass and
    read it back: what ``parse_corpus`` refuses raises its InputError, whose line
    numbers count in this text, and a corpus that reads back changed is refused."""
    sentences = corpus.sentences
    lines: list[str] = []
    i = 0
    for doc_id in corpus.documents:
        lines.append(f"#doc\t{doc_id}")
        while i < len(sentences) and sentences[i].doc_id == doc_id:
            lines.append(f"{sentences[i].text}\t{sentences[i].label}")
            i += 1
    text = "".join(line + "\n" for line in lines)
    back = parse_corpus(text)
    check_unchanged("document", corpus.documents, back.documents)
    check_unchanged("sentence", sentences, back.sentences)
    return text


def load_corpus(path: str | Path) -> Corpus:
    """Parse the corpus file at ``path``, refusing one with no sentence."""
    with naming(path):
        corpus = parse_corpus(read_text(path))
        if not corpus.sentences:
            raise InputError("contains no sentences")
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    write_atomic(path, [serialize_corpus(corpus)])


def class_distribution(sentences: Iterable[LabeledSentence]) -> dict[str, int]:
    """Per-label sentence counts. Every canonical label is present, possibly 0."""
    counts = dict.fromkeys(LABELS, 0)
    for s in sentences:
        counts[s.label] += 1
    return counts


def split(corpus: Corpus, cfg: RunConfig) -> tuple[list[LabeledSentence], list[LabeledSentence]]:
    """Deterministic train/validation partition by ``cfg.split_mode``, drawn
    from ``cfg.seed``.

    ``sentence_shuffled`` permutes sentences and takes the first
    floor(cfg.train_fraction * N) for train. ``document_level`` permutes
    documents and assigns whole documents to train until that quota is met
    or exceeded; the remaining documents go to validation, so one document
    never straddles the split. Raises InputError when either side is empty.
    """
    n = len(corpus.sentences)
    quota = math.floor(cfg.train_fraction * n)
    rng = np.random.default_rng(cfg.seed)

    if cfg.split_mode == "sentence_shuffled":
        perm = rng.permutation(n)
        train = [corpus.sentences[i] for i in perm[:quota]]
        val = [corpus.sentences[i] for i in perm[quota:]]
    else:
        by_doc: dict[str, list[LabeledSentence]] = {d: [] for d in corpus.documents}
        for s in corpus.sentences:
            by_doc[s.doc_id].append(s)
        train, val = [], []
        for di in rng.permutation(len(corpus.documents)):
            (train if len(train) < quota else val).extend(by_doc[corpus.documents[di]])
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
    counts = sorted(len(tokenizer(s.text)) for s in corpus.sentences)
    num, den = q.as_integer_ratio()
    rank = -(-num * len(counts) // den)  # >= 1, because q > 0
    return counts[rank - 1]
