from __future__ import annotations

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import strategies as st

from rhetrole.corpus import Corpus, save_corpus
from rhetrole.linear_model import _logit_grads, _row_losses, loss_and_grads
from rhetrole.toydata import toy_corpus

TWO_DOC_TSV = (
    "#doc\tcase-001\n"
    "The facts are not in dispute.\tFacts\n"
    "The High Court dismissed the petition.\tRuling by Lower Court\n"
    "Counsel argued for acquittal.\tArgument\n"
    "\n"
    "#doc\tcase-002\n"
    "Section 302 applies here.\tStatute\n"
    "We rely on the earlier judgment.\tPrecedent\n"
    "The appeal is allowed.\tRuling by Present Court\n"
)

# Finite doubles, with signed zero, subnormals and the extremes drawn often.
FINITE_DOUBLES = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e-20, 0.1]
) | st.floats(allow_nan=False, allow_infinity=False)

# Table of per-label sentence counts for the original 11285-sentence task
# data, in canonical label order. Used as a weight-computation fixture.
TASK_COUNTS = {
    "Facts": 2622,
    "Ruling by Lower Court": 483,
    "Argument": 939,
    "Statute": 902,
    "Precedent": 1787,
    "Ratio of the decision": 4211,
    "Ruling by Present Court": 341,
}


@pytest.fixture(scope="session")
def toy():
    return toy_corpus()


@pytest.fixture(scope="session")
def toy_tsv(toy, tmp_path_factory):
    path = tmp_path_factory.mktemp("toy") / "toy_corpus.tsv"
    save_corpus(toy, path)
    return path


@pytest.fixture
def two_doc_tsv(tmp_path):
    path = tmp_path / "two_doc.tsv"
    path.write_text(TWO_DOC_TSV, encoding="utf-8")
    return path


def select(corpus: Corpus, keep: list[int]) -> Corpus:
    """The corpus's sentences at the ascending indices ``keep``, every document kept."""
    return Corpus([corpus.texts[i] for i in keep], [corpus.labels[i] for i in keep],
                  corpus.documents, [bisect_left(keep, start) for start in corpus.starts])


def multiclass_perceptron_separates(X: np.ndarray, y: np.ndarray, max_passes: int = 200) -> bool:
    """Independent separability oracle: a mistake-driven perceptron reaches
    zero training errors iff a zero-error linear classifier exists (within
    the pass budget)."""
    num_classes = int(y.max()) + 1
    W = np.zeros((num_classes, X.shape[1]))
    rng = np.random.default_rng(0)
    for _ in range(max_passes):
        errors = 0
        for i in rng.permutation(len(X)):
            p = int(np.argmax(W @ X[i]))
            if p != y[i]:
                W[y[i]] += X[i]
                W[p] -= X[i]
                errors += 1
        if errors == 0:
            return True
    return False


def fused(W, b):
    """The classifier's one parameter array: W's columns, then b."""
    return np.column_stack([W, b])


def row_losses_and_grads(Z, y, weights):
    """The per-row core that ``loss_and_grads`` and validation run, with its
    arguments built from plain expressions: each row's class-weighted
    cross-entropy of the (n, k) logits Z, and its gradient dLoss/dZ."""
    Z, y = np.asarray(Z, dtype=np.float64), np.asarray(y)
    k = Z.shape[1]
    sample_w = np.asarray(weights, dtype=np.float64)[y]
    losses, lse = _row_losses(Z, sample_w, np.arange(len(y)) * k + y)
    return losses, _logit_grads(Z, lse, sample_w, np.eye(k)[y])


def batch_loss_and_grads(params, X, y, weights):
    """``loss_and_grads`` on one batch, with its arguments built from plain
    expressions: the summed loss and a fresh gradient array laid out like
    ``params``."""
    y, k = np.asarray(y), len(params)
    grads = np.empty_like(params)
    views = (params[:, :-1].T, params[:, -1], grads[:, :-1], grads[:, -1])
    sample_w = np.asarray(weights, dtype=np.float64)[y]
    total = loss_and_grads(X, sample_w, np.arange(len(y)) * k + y, np.eye(k)[y], views)
    return total, grads
