"""Labeled legal-judgment sentences: TSV ingestion, class statistics,
deterministic train/validation splits, and token-length percentiles.

Corpus TSV format
-----------------
UTF-8 text. A line ``#doc<TAB><doc_id>`` opens a document; every following
non-blank line is ``<sentence text><TAB><canonical label>``. Blank lines are
ignored, and file order is the only sentence order. `serialize_corpus` emits
this shape with ``\\n`` endings: parse/serialize round-trips are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .errors import CorpusParseError, InputError, UnknownLabelError
from .fileio import read_text, write_atomic

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
    """One sentence of a legal document plus its rhetorical-role label. It checks
    nothing itself: ``parse_corpus`` and ``serialize_corpus`` refuse what TSV cannot hold."""

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

    Raises CorpusParseError / UnknownLabelError with the offending 1-based
    line number on malformed lines, unknown labels, empty sentence text,
    sentences before any ``#doc`` header, or duplicate document ids.
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
                raise CorpusParseError("document header with empty doc_id", line_no)
            if doc_id in seen_docs:
                raise CorpusParseError(f"duplicate document id {doc_id!r}", line_no)
            seen_docs.add(doc_id)
            documents.append(doc_id)
            current_doc = doc_id
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise CorpusParseError(
                f"expected 2 tab-separated fields, got {len(fields)}", line_no
            )
        sent_text, raw_label = fields
        if not sent_text:
            raise CorpusParseError("empty sentence text", line_no)
        label = _CANONICAL_LABELS.get(raw_label)
        if label is None:
            raise UnknownLabelError(f"unknown label {raw_label!r}", line_no)
        if current_doc is None:
            raise CorpusParseError("sentence line before any #doc header", line_no)
        sentences.append(LabeledSentence(text=sent_text, label=label, doc_id=current_doc))

    return Corpus(sentences=sentences, documents=documents)


def serialize_corpus(corpus: Corpus) -> str:
    """Emit the canonical TSV form (inverse of parse_corpus) in one ordered pass,
    refusing what it refuses or would read back changed."""
    sentences = corpus.sentences
    seen: set[str] = set()
    lines: list[str] = []
    i = 0
    for doc_id in corpus.documents:
        if not doc_id or "\n" in doc_id or doc_id.endswith("\r"):
            raise InputError(f"document id {doc_id!r} is not representable in the TSV format")
        if doc_id in seen:
            raise InputError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        lines.append(f"#doc\t{doc_id}")
        while i < len(sentences) and sentences[i].doc_id == doc_id:
            s = sentences[i]
            if not s.text:
                raise InputError("sentence text must be non-empty")
            if "\t" in s.text or "\n" in s.text:
                raise InputError("sentence text must not contain tabs or newlines")
            if s.text == "#doc":
                raise InputError("sentence text '#doc' is not representable in the TSV format")
            if s.label not in LABELS:
                raise InputError(f"unknown label {s.label!r}")
            lines.append(f"{s.text}\t{s.label}")
            i += 1
    if i < len(sentences):
        doc_id = sentences[i].doc_id
        raise InputError(
            f"sentence {i} of document {doc_id!r} is out of order: a document's sentences "
            "must be contiguous, in corpus.documents order" if doc_id in seen
            else f"sentence doc_id {doc_id!r} missing from corpus.documents"
        )
    return "".join(line + "\n" for line in lines)


def load_corpus(path: str | Path) -> Corpus:
    """Parse the corpus file at ``path``, refusing one with no sentence."""
    corpus = parse_corpus(read_text(path))
    if not corpus.sentences:
        raise InputError(f"corpus {path} contains no sentences")
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
