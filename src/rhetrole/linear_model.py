"""The trainable core: linear classifier head, stable softmax, class-weighted
cross-entropy with exact analytic gradients, decoupled-weight-decay adaptive
optimizer, and the epoch/batch training loop with best-on-validation
checkpointing.

The classifier's parameters are one float64 array of shape
(num_labels, dim + 1): columns ``[:, :-1]`` hold the weight matrix W and
column ``[:, -1]`` the bias b. Only this module knows that layout.

One batched core serves training, validation, evaluation and prediction.
``logits`` maps an (n, dim) embedding matrix to (n, num_labels) logits.
``_row_losses`` gives each row's class-weighted cross-entropy, and
``_logit_grads`` its gradient with respect to the logits.
``loss_and_grads``, the per-batch core of each training step, chains both
through the linear layer and writes the gradient into one array laid out
like the parameters; validation by loss calls ``_row_losses`` alone.
``optimizer_step`` updates the parameters and both moment arrays in place
with one element-wise update over the whole array.

A training step is a few dozen numpy calls on small arrays, so call overhead
dominates it. The core therefore calls ufuncs and their ``reduce`` directly
and writes each intermediate in place, into a fresh temporary or an ``out=``
buffer, but still makes each IEEE operation of the plain expressions, in
their order; only the operands of ``+`` and ``*`` are swapped, which rounds
the same. The tests keep those expressions as a reference and compare bytes.
``train`` builds what a step does not change once: per call the views of
W^T and b and of one gradient array (params only ever change in place); per
epoch each row's sample weight, one-hot row and flat label-logit index, in
shuffled order, written into the same buffers every epoch; per block of
whole batches their vectors, taken from the training table into one buffer.
Each step slices them. A batch's slice holds the C-contiguous rows, and
values, that a ``take`` of that batch alone gives, so no byte depends on
the block size.

All math runs in float64. Training is deterministic given (data, config,
seed): parameter init draws from the config seed, each epoch's shuffle from
a generator seeded by (seed, epoch), and batch reductions keep a fixed
summation order.

Checkpoint file format (CKPT v1)
--------------------------------
Line 1: ``CKPT v1 <num_labels> <dim> <provider_id>``, counts in ASCII digits,
dim at least 1, the id with no LF and no final CR. Line 2: the distinct,
non-empty labels in order, tab-separated. Then one line per weight-matrix
row (space-separated decimals, read like EMB v1 values), final line the bias
vector. Lines may end in ``\\r\\n``. Floats use shortest round-trip
precision, so values survive write -> load -> write byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from ._lazynp import np
from .corpus import LABELS, LabeledSentence
from .embedding import embed_batch, table_rows
from .errors import InputError, RhetroleError
from .fileio import check_unchanged, format_reals, naming, read_count, read_reals, read_text
from .fileio import write_atomic
from .metrics import MetricsReport, evaluate_predictions

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

SELECTION_METRICS = ("macro_f1", "val_loss")
# Bytes of training vectors train gathers at a time, rounded to whole batches
# (at least one): 128 rows at dim 256.
_GATHER_BYTES = 1 << 18


@dataclass
class OptimizerState:
    """First/second moment accumulators, each shaped like the parameters,
    plus the completed-step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class EpochStats:
    """One epoch's mean training loss, selection score and validation report."""

    epoch: int
    train_loss: float
    val_score: float
    val_report: MetricsReport


@dataclass
class LinearCheckpoint:
    """Trained parameters plus the metadata needed to reuse them.

    ``selected`` is the winning epoch of ``train``; it is not part of the
    file format, so checkpoints loaded from disk carry None.
    """

    params: np.ndarray
    labels: tuple[str, ...]
    provider_id: str
    selected: EpochStats | None = None


def input_dim(params: np.ndarray) -> int:
    """Embedding width the classifier expects: every column but the bias."""
    return params.shape[1] - 1


def logits(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Logits Z = X W^T + b for an (n, dim) float64 matrix of embeddings."""
    # The bias is added after the product, not folded into X as a column of
    # ones, so the reduction order (and the checkpoint bytes) stay fixed.
    Z = X @ params[:, :-1].T
    Z += params[:, -1]
    return Z


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis: sums to 1, strictly positive."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _row_losses(Z, sample_w, label_idx):
    """Per-row weighted CE of (n, k) logits, and their (n, 1) log-sum-exp."""
    m = np.maximum.reduce(Z, axis=-1, keepdims=True)
    e = Z - m
    np.exp(e, out=e)
    lse = np.add.reduce(e, axis=-1, keepdims=True)
    np.log(lse, out=lse)
    lse += m
    losses = lse[:, 0] - Z.ravel().take(label_idx)
    losses *= sample_w
    return losses, lse


def _logit_grads(Z, lse, sample_w, onehot):
    # Subtracting identity rows is the one-hot subtraction: G - 0.0 is G.
    G = Z - lse
    np.exp(G, out=G)
    np.subtract(G, onehot, out=G)
    G *= sample_w[:, None]
    return G


def loss_and_grads(X, sample_w, label_idx, onehot, views) -> float:
    """Summed weighted CE over one batch X, given its rows' sample weights, flat
    label-logit indices and one-hot rows. ``views`` is ``(W^T, b, dW, db)``, of the
    parameters and of a gradient array, into which the batch-mean loss's gradient is written."""
    W_T, b, dW, db = views
    Z = X @ W_T
    Z += b
    losses, lse = _row_losses(Z, sample_w, label_idx)
    G = _logit_grads(Z, lse, sample_w, onehot)
    G /= X.shape[0]
    np.matmul(G.T, X, out=dW)
    np.add.reduce(G, axis=0, out=db)
    return float(np.add.reduce(losses))


def optimizer_step(
    params: np.ndarray, grads: np.ndarray, state: OptimizerState, cfg: RunConfig
) -> None:
    """One bias-corrected adaptive-moment update with decoupled weight decay,
    applied in place to ``params`` and ``state``; the bias column gets the
    same element-wise update and decay as every weight column. ``cfg`` gives
    ``learning_rate``, ``beta1``, ``beta2``, ``epsilon`` and ``weight_decay``.

    The decay is applied directly to the freshly updated parameters
    (p <- p * (1 - lr * weight_decay)), never through the gradient.
    """
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    m, v = state.m, state.v
    lr = cfg.learning_rate
    # The first product and the first quotient are fresh arrays that hold
    # every later intermediate, computed in the order of
    # lr * (m / bc1) / (sqrt(v / bc2) + eps).
    a = (1.0 - b1) * grads
    m *= b1
    m += a
    v *= b2
    np.multiply(1.0 - b2, grads, out=a)
    a *= grads
    v += a
    b = v / bc2
    np.sqrt(b, out=b)
    b += cfg.epsilon
    np.divide(m, bc1, out=a)
    a *= lr
    a /= b
    params -= a
    if cfg.weight_decay > 0.0:
        np.multiply(lr * cfg.weight_decay, params, out=a)
        params -= a


def initial_params(dim: int, num_labels: int, seed: int) -> np.ndarray:
    """W uniform in +-1/sqrt(dim) drawn from the seed, b zero."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(dim)
    W = rng.uniform(-bound, bound, size=(num_labels, dim))
    return np.column_stack([W, np.zeros(num_labels, dtype=np.float64)])


def train(
    train_set: Sequence[LabeledSentence],
    val_set: Sequence[LabeledSentence],
    provider,
    class_weights: Sequence[float],
    cfg: RunConfig,
    on_epoch: Callable[[EpochStats], None] | None = None,
) -> LinearCheckpoint:
    """Mini-batch training over the labels of ``LABELS`` with
    best-on-validation epoch selection. Of the run's ``cfg`` it reads
    ``batch_size``, ``epochs``, ``seed``, ``selection_metric`` and the
    optimiser fields of ``optimizer_step``. Both sets are non-empty
    (``split``), their labels are in ``LABELS`` (``parse_corpus``), and
    ``class_weights`` holds one weight per label; InputError refuses
    weights below 0 or all 0.

    Each epoch shuffles train indices with a generator seeded by
    (cfg.seed, epoch); the last batch may be smaller. The training vectors
    are not copied: ``table_rows`` lends a precomputed provider's matrix or
    keeps a hashed provider's nonzero cells, and each block of batches is
    gathered from that table by row id into one reused buffer. Each epoch
    scores the validation set once, into its ``EpochStats``; the checkpoint
    holds the best epoch's parameters and, as ``selected``, its stats (ties
    keep the earlier epoch). A non-finite batch loss or validation logit
    stops training with a RhetroleError.
    """
    _check_provider_id(provider.provider_id)
    w_vec = np.asarray(class_weights, dtype=np.float64)
    if np.any(w_vec < 0) or not np.any(w_vec > 0):
        raise InputError("class weights must be >= 0 with at least one > 0")
    label_to_idx = {name: i for i, name in enumerate(LABELS)}
    y_train = np.array([label_to_idx[s.label] for s in train_set], dtype=np.int64)
    y_val = [label_to_idx[s.label] for s in val_set]
    table, rows = table_rows(train_set, provider)
    X_val = embed_batch(val_set, provider)
    n, k, batch_size = len(train_set), len(LABELS), cfg.batch_size
    val_w, val_idx = w_vec.take(y_val), np.arange(len(y_val)) * k + y_val

    params = initial_params(provider.dimension, k, cfg.seed)
    state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
    grads = np.empty_like(params)
    views = (params[:, :-1].T, params[:, -1], grads[:, :-1], grads[:, -1])
    sign = 1.0 if cfg.selection_metric == "macro_f1" else -1.0  # the winner maximises sign * score
    selected = best_params = None

    # Each epoch's rows in shuffled order: their row ids, labels, sample
    # weights, flat label-logit indices and one-hot rows. Every epoch writes
    # over the last one's; take's mode="clip" does not buffer out=, and
    # every index is in range.
    rows_epoch, y_epoch = np.empty_like(rows), np.empty_like(y_train)
    sample_w, label_idx, onehot = np.empty(n), np.empty(n, np.int64), np.empty((n, k))
    slots = np.arange(n) % batch_size * k
    block = max(1, _GATHER_BYTES // (8 * provider.dimension) // batch_size) * batch_size
    gathered = np.empty((min(block, n), provider.dimension))
    # The finiteness checks below report divergence; numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
            rows.take(order, out=rows_epoch, mode="clip")
            y_train.take(order, out=y_epoch, mode="clip")
            del order  # so the next epoch's order is not made beside it
            w_vec.take(y_epoch, out=sample_w, mode="clip")
            np.add(slots, y_epoch, out=label_idx)
            np.eye(k).take(y_epoch, axis=0, out=onehot, mode="clip")
            loss_total = 0.0
            for start in range(0, n, batch_size):
                at = start % block  # the batch's first row in the gathered block
                if at == 0:
                    ids = rows_epoch[start:start + block]
                    X = table.take(ids, axis=0, out=gathered[:len(ids)], mode="clip")
                stop = start + batch_size
                batch_sum = loss_and_grads(
                    X[at:at + batch_size], sample_w[start:stop],
                    label_idx[start:stop], onehot[start:stop], views)
                if not math.isfinite(batch_sum):
                    raise RhetroleError(
                        f"training diverged: non-finite loss in epoch {epoch}, "
                        f"batch {start // batch_size + 1}"
                    )
                loss_total += batch_sum
                optimizer_step(params, grads, state, cfg)

            Z_val = logits(params, X_val)
            if not np.isfinite(Z_val).all():
                raise RhetroleError(
                    f"training diverged: non-finite validation logits in epoch {epoch}")
            report = evaluate_predictions(y_val, Z_val.argmax(1).tolist(), k)
            if sign > 0:
                score = report.macro_f1
            else:  # only the per-row losses, not their gradient
                score = float(_row_losses(Z_val, val_w, val_idx)[0].sum()) / len(y_val)
            stats = EpochStats(epoch, loss_total / n, score, report)
            if selected is None or sign * score > sign * selected.val_score:
                selected, best_params = stats, params.copy()
            if on_epoch is not None:
                on_epoch(stats)

    return LinearCheckpoint(best_params, LABELS, provider.provider_id, selected)


def _check_provider_id(provider_id: str) -> None:
    """The CKPT v1 provider-id rule: ``train`` applies it before any epoch, the writer first."""
    if "\n" in provider_id or provider_id.endswith("\r"):
        raise InputError(
            f"provider id {provider_id!r}: header line 1 cannot hold an LF or a final CR")


def serialize_checkpoint(ckpt: LinearCheckpoint) -> str:
    """CKPT v1 text, read back: what ``parse_checkpoint`` refuses raises its
    InputError, and a checkpoint that reads back changed is refused."""
    k, d = len(ckpt.params), input_dim(ckpt.params)
    _check_provider_id(ckpt.provider_id)
    lines = [f"CKPT v1 {k} {d} {ckpt.provider_id}", "\t".join(ckpt.labels)]
    # The weight rows, then the bias as one row.
    lines += map(format_reals, [*ckpt.params[:, :-1], ckpt.params[:, -1]])
    text = "".join(line + "\n" for line in lines)
    back = parse_checkpoint(text)  # line 1 holds the checked provider id as it is
    check_unchanged("label", ckpt.labels, back.labels)
    check_unchanged("parameter row", ckpt.params.tolist(), back.params.tolist())
    return text


def parse_checkpoint(text: str) -> LinearCheckpoint:
    lines = [line.rstrip("\r") for line in text.split("\n")]
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 3:
        raise InputError("checkpoint file too short")
    header = lines[0].split(" ", 4)
    if len(header) != 5 or header[0] != "CKPT" or header[1] != "v1":
        raise InputError(
            f"bad header {lines[0]!r}; expected 'CKPT v1 <num_labels> <dim> <provider_id>'"
        )
    try:
        k, d = read_count(header[2]), read_count(header[3])
    except ValueError:
        raise InputError("non-integer num_labels/dim in header") from None
    if d < 1:
        raise InputError("dim must be >= 1")
    provider_id = header[4]
    labels = tuple(lines[1].split("\t"))
    if len(labels) != k:
        raise InputError(f"header declares {k} labels, line 2 has {len(labels)}")
    # Split from one line at its tabs, a label holds no tab or LF.
    if "" in labels or len(set(labels)) != k or "\r" in lines[1]:
        raise InputError(
            f"labels on line 2 must be non-empty and distinct, without tab, CR or LF: {labels!r}"
        )
    if len(lines) != 2 + k + 1:
        raise InputError(
            f"expected {2 + k + 1} lines ({k} weight rows plus bias), got {len(lines)}"
        )
    try:
        *rows, bias = [read_reals([line])[0] for line in lines[2:]]
    except ValueError:
        raise InputError("non-numeric parameter value") from None
    if any(len(row) != d for row in rows):
        raise InputError(f"weight row length does not match dim {d}")
    if len(bias) != k:
        raise InputError(f"bias length {len(bias)} does not match {k} labels")
    params = np.column_stack([np.array(rows), bias])
    if not np.isfinite(params).all():
        raise InputError("non-finite parameter value (nan or inf)")
    return LinearCheckpoint(params=params, labels=labels, provider_id=provider_id)


def save_checkpoint(ckpt: LinearCheckpoint, path: str | Path) -> None:
    write_atomic(path, [serialize_checkpoint(ckpt)])


def load_checkpoint(path: str | Path) -> LinearCheckpoint:
    with naming(path):
        return parse_checkpoint(read_text(path))
