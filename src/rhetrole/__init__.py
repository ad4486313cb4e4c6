"""Rhetorical-role sentence classification for legal judgments.

Sentences are embedded by an interchangeable provider (hashed bag-of-words
or precomputed vectors), classified by a linear head trained with
class-weighted cross-entropy, and scored with macro precision/recall/F1.
"""

__version__ = "0.1.0"

from .corpus import (
    LABELS,
    NUM_LABELS,
    Corpus,
    LabeledSentence,
    SplitSpec,
    class_distribution,
    label_index,
    length_percentile,
    load_corpus,
    parse_corpus,
    save_corpus,
    serialize_corpus,
    split,
)
from .embedding import (
    HashedBowProvider,
    PrecomputedProvider,
    TokenizerConfig,
    embed_batch,
    encode_hashed_bow,
    fnv1a_64,
    load_precomputed,
    save_embeddings,
    tokenize,
)
from .imbalance import (
    direct_frequency_weights,
    inverse_frequency_weights,
    oversample,
    undersample,
    uniform_weights,
    weights_for_scheme,
)
from .linear_model import (
    LinearCheckpoint,
    OptimizerState,
    TrainConfig,
    load_checkpoint,
    logits,
    loss_and_grads,
    optimizer_step,
    save_checkpoint,
    softmax,
    train,
)
from .metrics import (
    MetricsReport,
    confusion_matrix,
    evaluate_predictions,
    macro_metrics,
    per_class_prf,
    report_to_json,
)
