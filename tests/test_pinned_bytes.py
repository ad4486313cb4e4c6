"""Byte pins for the outputs that touch no BLAS: the hashed featuriser's
matrix, the EMB v1 and corpus TSV writers, the length percentile, the class
weights and the metrics JSON.

Each value is exact integer, correctly rounded or text arithmetic, so it is
the same on every host; a rewrite of the featuriser or the writers must keep
these digests. Pins are taken on the bundled toy corpus and on two small
Zipfian corpora built here from integer arithmetic alone.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from bisect import bisect_right

import pytest

from rhetrole.corpus import LABELS, Corpus, length_percentile, save_corpus
from rhetrole.embedding import HashedBowProvider, save_embeddings, tokenize
from rhetrole.imbalance import weights_for_scheme
from rhetrole.metrics import evaluate_predictions, report_to_json

from .conftest import TASK_COUNTS

# Word stems mix ASCII with long-assigned non-ASCII letters; the forms add
# capitals and edge punctuation, which casing and the tokenizer treat apart.
_SYLLABLES = ("ka", "ri", "mo", "té", "sun", "ßa", "ol", "Ωm", "ni", "dü")
_FORMS = ("{}", "{}", "{}", "{}", "{}", "{}", "({})", "{},", "{}.", "«{}»")
# General Punctuation, which the tokenizer strips from its table, and
# punctuation of other blocks and a combining mark, which need the category
# of an edge; some forms mix the two.
_PUNCT_FORMS = ("{}", "{}", "{}", "\u201c{}\u201d", "\u2018{}\u2019", "{}\u2014", "{}\u2026",
                "\u300c{}\u300d", "{}\u3001", "{}\uff0c", "{}\u037e", "{}\u0589",
                "\U00010100{}", "{}\u0301", "({}\u3001)", "\u201c{}\u201d\u3001", "\u2014\u3001")


def zipf_corpus(num_sentences: int = 400, vocab: int = 600, seed: int = 2022,
                forms: tuple[str, ...] = _FORMS) -> Corpus:
    """Sentences of 1 to 48 words, word rank r drawn with weight
    floor(10**6 / r), labels drawn with the paper's skew (TASK_COUNTS), and
    a new document every 25 sentences. A 64-bit LCG drives every draw."""
    state = seed

    def draw(bound: int) -> int:
        nonlocal state
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        return (state >> 33) % bound

    rank_cum = list(itertools.accumulate(10**6 // r for r in range(1, vocab + 1)))
    label_cum = list(itertools.accumulate(TASK_COUNTS[label] for label in LABELS))
    words = [_SYLLABLES[r % 10] + _SYLLABLES[r // 10 % 10] + ("" if r < 100 else str(r))
             for r in range(vocab)]
    texts, labels, documents = [], [], []
    for i in range(num_sentences):
        if i % 25 == 0:
            documents.append(f"zipf{len(documents):03d}")
        tokens = []
        for _ in range(1 + draw(48)):
            word = words[bisect_right(rank_cum, draw(rank_cum[-1]))]
            if draw(8) == 0:
                word = word.capitalize()
            tokens.append(forms[draw(len(forms))].format(word))
        texts.append(" ".join(tokens))
        labels.append(bisect_right(label_cum, draw(label_cum[-1])))
    return Corpus(texts, labels, documents, [*range(0, num_sentences, 25), num_sentences])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module", params=["toy", "zipf", "zipf-punct"])
def named(request, toy):
    """(name, corpus) for each pinned corpus."""
    corpora = {"toy": lambda: toy, "zipf": zipf_corpus,
               "zipf-punct": lambda: zipf_corpus(forms=_PUNCT_FORMS)}
    return request.param, corpora[request.param]()


EMBED_SHA256 = {
    # The toy corpus is all lower case, so its two casings embed alike.
    ("toy", "cased"): "60c1a97f79bd8f5d6faaa9c337f1e498bf029391f20f40c78a0a35f1de7b5189",
    ("toy", "uncased"): "60c1a97f79bd8f5d6faaa9c337f1e498bf029391f20f40c78a0a35f1de7b5189",
    ("zipf", "cased"): "7deb15e4a5b430c22485c4186c13378f85a33d58c323f29cdd8e34203d7bf07c",
    ("zipf", "uncased"): "f1601a8e0b7c325542f9f8af7cfd03c72b99676335adbc38ba097cb270c65c17",
    ("zipf-punct", "cased"): "0bd75bb80349274aa1c84f275eec2451b8471ddecd36d2536ca058673dfc2ffb",
    ("zipf-punct", "uncased"): "c9895fd2427b6f8953712f3324b8edda4743a85c522f1777f7dfa7e27d4061a7",
}
EMB_FILE_SHA256 = {
    "toy": "a33ec2e6280ba02aea7a21efb5dc99827c423c012f6161bec54c2cbac81a1ee2",
    "zipf": "4842cecb17b129eafe84b4a92d58d53f83350430ee438817d02e68f6a1a03afa",
    "zipf-punct": "12f292362843c2eb3dab4eeea560769216f6e463f8c491131befd0e0f60467e3",
}
CORPUS_FILE_SHA256 = {
    "toy": "0e31cb50633cedd72e2fa522d18cc0f2783a830d3eea4f2eb35a3f93869d7f86",
    "zipf": "a3fe00faa27efc9ad263cb869a4993b9a758d01e4203e73fb6d77cac87720b55",
    "zipf-punct": "d5a0c477453fc03b0da49603be6bc33ef7779b9b1a9a154ee54e7068e9ed89c4",
}
WEIGHTS_SHA256 = {
    "inverse_frequency": "d2d0234e4777309278cc5bcc4998df56f8643d56448c4b5612c8c52923f3bf60",
    "direct_frequency": "cb8fce671d7d48a5ced5ccde505ecdcf596ef6c71deddd336e28ea4630e10e0c",
}
METRICS_JSON_SHA256 = "c70a73b147cb572c6e6d62572f0b81869785c9880dd7d38d04b8a78c514f7ba0"
# Nearest-rank token counts at q = 0.5, 0.98 and 1.0, cased then uncased.
LENGTH_PERCENTILES = {"toy": (6, 8, 8, 6, 8, 8), "zipf": (25, 48, 48, 25, 48, 48),
                      "zipf-punct": (23, 46, 47, 23, 46, 47)}


@pytest.mark.parametrize("casing", ["cased", "uncased"])
def test_hashed_embed_matrix(named, casing):
    name, corpus = named
    texts = corpus.texts
    matrix = HashedBowProvider(256, casing, 40).embed(texts)
    assert sha256(matrix.tobytes()) == EMBED_SHA256[name, casing]


def test_save_embeddings_bytes(named, tmp_path):
    name, corpus = named
    texts = list(dict.fromkeys(corpus.texts))
    path = tmp_path / "vectors.emb"
    save_embeddings(zip(texts, HashedBowProvider(32, "cased", 40).embed(texts)), 32, path)
    assert sha256(path.read_bytes()) == EMB_FILE_SHA256[name]


def test_save_corpus_bytes(named, tmp_path):
    name, corpus = named
    save_corpus(corpus, tmp_path / "corpus.tsv")
    assert sha256((tmp_path / "corpus.tsv").read_bytes()) == CORPUS_FILE_SHA256[name]


def test_length_percentile(named):
    name, corpus = named
    values = tuple(
        length_percentile(corpus, lambda text: tokenize(text, casing), q)
        for casing in ("cased", "uncased") for q in (0.5, 0.98, 1.0)
    )
    assert values == LENGTH_PERCENTILES[name]


@pytest.mark.parametrize("scheme", sorted(WEIGHTS_SHA256))
def test_class_weights(scheme):
    weights = weights_for_scheme(scheme, [TASK_COUNTS[label] for label in LABELS])
    assert sha256(weights.tobytes()) == WEIGHTS_SHA256[scheme]


def test_metrics_json():
    """10^4 gold labels drawn with the paper's skew, each predicted right
    with probability 0.7, else uniformly."""
    rng = random.Random(2022)
    gold = rng.choices(range(7), weights=[TASK_COUNTS[label] for label in LABELS], k=10**4)
    pred = [g if rng.random() < 0.7 else rng.randrange(7) for g in gold]
    doc = report_to_json(evaluate_predictions(gold, pred, 7), LABELS)
    assert sha256(doc.encode()) == METRICS_JSON_SHA256
