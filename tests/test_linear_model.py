from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetrole.cli import main
from rhetrole.embedding import (
    HashedBowProvider,
    PrecomputedProvider,
    embed_batch,
    load_precomputed,
    save_embeddings,
    table_rows,
)
from rhetrole.errors import InputError, RhetroleError
from rhetrole.config import RunConfig
from rhetrole.corpus import LABELS, LabeledSentence
from rhetrole.linear_model import (
    SELECTION_METRICS,
    EpochStats,
    LinearCheckpoint,
    OptimizerState,
    initial_params,
    load_checkpoint,
    logits,
    optimizer_step,
    parse_checkpoint,
    save_checkpoint,
    serialize_checkpoint,
    softmax,
    train,
)
from rhetrole.metrics import evaluate_predictions

from .conftest import (
    FINITE_DOUBLES, batch_loss_and_grads, fused, multiclass_perceptron_separates,
    row_losses_and_grads,
)

ONES7 = np.ones(7)


def reference_unweighted_ce(z, class_index):
    """Independent route: explicit max-shifted log-sum-exp in plain Python."""
    m = max(z)
    lse = m + math.log(sum(math.exp(v - m) for v in z))
    return lse - z[class_index]


def row_losses(Z, y, weights):
    return row_losses_and_grads(Z, y, weights)[0]


def row_grads(Z, y, weights):
    return row_losses_and_grads(Z, y, weights)[1]


class TestForward:
    def test_zero_params(self):
        params = fused(np.zeros((7, 4)), np.zeros(7))
        assert np.array_equal(logits(params, np.ones((3, 4))), np.zeros((3, 7)))

    def test_identity_weight_matrix(self):
        params = fused(np.eye(7), np.zeros(7))
        assert np.array_equal(logits(params, np.eye(7)), np.eye(7))

    def test_row_dot_product(self):
        W = np.zeros((7, 2))
        W[0] = [1.0, 1.0]
        b = np.zeros(7)
        b[0] = 0.5
        Z = logits(fused(W, b), np.array([[2.0, 3.0], [0.0, 0.0]]))
        assert Z[0, 0] == 5.5
        assert Z[1, 0] == 0.5


class TestSoftmax:
    def test_uniform(self):
        p = softmax(np.zeros(7))
        assert p == pytest.approx([1 / 7] * 7, abs=1e-12)

    def test_frozen_three_class_values(self):
        p = softmax(np.array([2.0, 1.0, 0.0]))
        assert p == pytest.approx([0.66524, 0.24473, 0.09003], abs=1e-5)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=7), st.floats(-100, 100))
    @settings(max_examples=100)
    def test_shift_invariance_and_normalization(self, z, c):
        z = np.array(z)
        p = softmax(z)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p > 0)
        assert softmax(z + c) == pytest.approx(p, abs=1e-9)

    def test_extreme_logits_stay_finite(self):
        p = softmax(np.array([1000.0, -1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)


class TestWeightedCeLoss:
    def test_uniform_logits_ln7(self):
        losses = row_losses(np.zeros((7, 7)), np.arange(7), ONES7)
        assert losses == pytest.approx([math.log(7)] * 7, abs=1e-6)

    def test_zero_weight_gives_exact_zero(self):
        Z = np.array([[3.0, -2.0, 9.0, 0.0, 1.0, 1.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]])
        weights = np.ones(7)
        weights[2] = 0.0
        losses = row_losses(Z, [2, 0], weights)
        assert losses[0] == 0.0
        assert losses[1] > 0.0

    def test_frozen_weighted_value(self):
        assert row_losses([[2.0, 1.0, 0.0]], [0], [2.0, 1.0, 1.0])[0] == pytest.approx(
            0.81522, abs=1e-5
        )

    def test_all_ones_equals_unweighted(self):
        rng = np.random.default_rng(11)
        Z = rng.normal(scale=5.0, size=(200, 7))
        y = rng.integers(0, 7, size=200)
        ours = row_losses(Z, y, ONES7)
        for i in range(200):
            reference = reference_unweighted_ce(Z[i].tolist(), y[i])
            assert ours[i] == pytest.approx(reference, rel=1e-12)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            Z = rng.normal(scale=3.0, size=(5, 7))
            w = rng.uniform(0.1, 5.0, size=7)
            assert np.all(row_losses(Z, rng.integers(0, 7, size=5), w) >= 0.0)


class TestLossGradient:
    def test_uniform_case(self):
        G = row_grads(np.zeros((1, 7)), [0], ONES7)
        expected = np.full(7, 1 / 7)
        expected[0] -= 1.0
        assert G[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_weight(self):
        weights = np.zeros(7)
        weights[1] = 3.0
        G = row_grads(np.ones((2, 7)), [0, 1], weights)
        assert not G[0].any()
        assert G[1].any()

    def test_matches_central_differences(self):
        """Rows are independent, so d(sum of row losses)/dZ[i, j] is G[i, j]."""
        rng = np.random.default_rng(42)
        h = 1e-4
        worst = 0.0
        for _ in range(20):
            Z = rng.normal(scale=4.0, size=(5, 7))
            y = rng.integers(0, 7, size=5)
            w = rng.uniform(0.05, 4.0, size=7)
            analytic = row_grads(Z, y, w)
            numeric = np.zeros_like(Z)
            for i in range(5):
                for j in range(7):
                    Zp, Zm = Z.copy(), Z.copy()
                    Zp[i, j] += h
                    Zm[i, j] -= h
                    diff = row_losses(Zp, y, w).sum() - row_losses(Zm, y, w).sum()
                    numeric[i, j] = diff / (2 * h)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
            worst = max(worst, np.abs(analytic - numeric).max() / scale)
        assert worst < 1e-5

    @given(st.floats(0.1, 20.0))
    @settings(max_examples=30)
    def test_weight_scaling_scales_loss_and_gradient(self, lam):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(4, 7))
        w = rng.uniform(0.5, 2.0, size=7)
        y = [4, 0, 6, 4]
        assert row_losses(Z, y, lam * w) == pytest.approx(lam * row_losses(Z, y, w), rel=1e-12)
        assert row_grads(Z, y, lam * w) == pytest.approx(
            lam * row_grads(Z, y, w), rel=1e-12, abs=1e-15
        )


class TestBackward:
    def test_zero_gradient(self):
        params = fused(np.ones((7, 4)), np.ones(7))
        total, g = batch_loss_and_grads(params, np.ones((3, 4)), [0, 1, 2], np.zeros(7))
        assert total == 0.0
        assert g.shape == params.shape and not g.any()

    def test_outer_product_structure(self):
        params = fused(np.zeros((7, 4)), np.zeros(7))
        x = np.zeros((1, 4))
        x[0, 2] = 1.0
        total, g = batch_loss_and_grads(params, x, [1], ONES7)
        dW, db = g[:, :-1], g[:, -1]
        assert np.count_nonzero(dW[:, [0, 1, 3]]) == 0
        assert np.array_equal(dW[:, 2], db)
        # The gradients are of the batch mean: repeating the batch leaves
        # them unchanged and doubles the summed loss.
        total2, g2 = batch_loss_and_grads(params, np.vstack([x, x]), [1, 1], ONES7)
        assert total2 == 2 * total
        assert np.array_equal(g2, g)

    def test_matches_finite_differences_through_linear_layer(self):
        """Gradients of the batch-mean loss for batch sizes 1, 3 and 8, with
        non-uniform class weights that include a zero."""
        rng = np.random.default_rng(9)
        h = 1e-4
        for nb in (1, 3, 8):
            W = rng.normal(size=(3, 5))
            b = rng.normal(size=3)
            X = rng.normal(size=(nb, 5))
            y = np.resize([0, 2, 1], nb)  # class 2 carries zero weight
            w_cls = rng.uniform(0.2, 3.0, size=3)
            w_cls[2] = 0.0

            def loss_at(Wm, bm):
                return batch_loss_and_grads(fused(Wm, bm), X, y, w_cls)[0] / nb

            _, g = batch_loss_and_grads(fused(W, b), X, y, w_cls)
            dW, db = g[:, :-1], g[:, -1]
            for i in range(3):
                for j in range(5):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    num = (loss_at(Wp, b) - loss_at(Wm, b)) / (2 * h)
                    assert dW[i, j] == pytest.approx(num, rel=1e-5, abs=1e-8)
                bp, bm = b.copy(), b.copy()
                bp[i] += h
                bm[i] -= h
                num = (loss_at(W, bp) - loss_at(W, bm)) / (2 * h)
                assert db[i] == pytest.approx(num, rel=1e-5, abs=1e-8)


def scalar_setup(lr=2e-5, weight_decay=0.0):
    params = fused(np.zeros((1, 1)), np.zeros(1))
    state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
    cfg = RunConfig(learning_rate=lr, weight_decay=weight_decay, epochs=1)
    return params, state, cfg


class TestOptimizerStep:
    def test_first_step_closed_form(self):
        params, state, cfg = scalar_setup()
        grads = fused(np.array([[1.0]]), np.zeros(1))
        optimizer_step(params, grads, state, cfg)
        # bias-corrected first step: -lr * g / (|g| + eps)
        assert params[0, 0] == pytest.approx(-2e-5, rel=1e-6)
        assert state.t == 1

    def test_zero_grad_no_decay_leaves_params(self):
        params, state, cfg = scalar_setup()
        params[0, 0] = 0.75
        optimizer_step(params, np.zeros((1, 2)), state, cfg)
        assert params[0, 0] == 0.75

    def test_zero_grad_with_decay_shrinks_multiplicatively(self):
        params, state, cfg = scalar_setup(weight_decay=0.01)
        params[0, 0] = 0.75
        optimizer_step(params, np.zeros((1, 2)), state, cfg)
        assert params[0, 0] == pytest.approx(0.75 * (1 - 2e-5 * 0.01), rel=1e-15)

    def test_step_counter_accumulates(self):
        params, state, cfg = scalar_setup()
        grads = fused(np.array([[0.5]]), np.array([0.1]))
        for expected_t in (1, 2, 3):
            optimizer_step(params, grads, state, cfg)
            assert state.t == expected_t

    def test_updates_in_place(self):
        params, state, cfg = scalar_setup(weight_decay=0.01)

        def arrays():
            return (params, state.m, state.v)

        before = arrays()
        grads = fused(np.array([[0.5]]), np.array([-0.25]))
        assert optimizer_step(params, grads, state, cfg) is None
        assert all(a is b for a, b in zip(before, arrays()))
        assert state.m[0, 0] == pytest.approx(0.05) and state.m[0, -1] == pytest.approx(-0.025)
        assert state.v[0, 0] == pytest.approx(0.00025) and params[0, -1] > 0.0

    def test_bias_column_updated_like_a_weight_column(self):
        """Equal parameters and gradients in a weight column and in the bias
        column give equal moments and equal parameters after several steps,
        decay included."""
        params = fused(np.array([[0.5, -0.25], [0.0, 1.0]]), np.array([-0.25, 1.0]))
        state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
        cfg = RunConfig(learning_rate=1e-2, weight_decay=0.1, epochs=1)
        rng = np.random.default_rng(4)
        for _ in range(5):
            grads = rng.normal(size=params.shape)
            grads[:, -1] = grads[:, 1]
            optimizer_step(params, grads, state, cfg)
        for arr in (params, state.m, state.v):
            assert np.array_equal(arr[:, -1], arr[:, 1])
        assert not np.array_equal(params[:, -1], [-0.25, 1.0])


# The batched core as plain expressions, each float operation once, in the
# order the in-place core must keep: the core's results must match these bit
# for bit.
def reference_logits(params, X):
    return X @ params[:, :-1].T + params[:, -1]


def reference_weighted_ce(Z, y, weights):
    rows = np.arange(Z.shape[0])
    m = Z.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(Z - m).sum(axis=-1, keepdims=True))).squeeze(-1)
    sample_w = np.asarray(weights, dtype=np.float64)[y]
    losses = sample_w * (lse - Z[rows, y])
    G = np.exp(Z - lse[:, None])
    G[rows, y] -= 1.0
    G *= sample_w[:, None]
    return losses, G


def reference_loss_and_grads(params, X, y, weights):
    losses, G = reference_weighted_ce(reference_logits(params, X), y, weights)
    G /= X.shape[0]
    return float(losses.sum()), np.column_stack([G.T @ X, G.sum(axis=0)])


def reference_optimizer_step(params, grads, state, cfg):
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
    if cfg.weight_decay > 0.0:
        params -= cfg.learning_rate * cfg.weight_decay * params


class TestCoreMatchesReferenceBits:
    """Fifty training steps through the core and through the reference
    expressions give the same bytes for the loss, the gradients, the
    parameters and both moments after every step."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dim", [1, 4, 256, 768])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("weights", [ONES7, np.array([2.0, 0.5, 0.0, 1.0, 3.0, 1.0, 0.25])],
                             ids=["ones", "one_zero"])
    def test_fifty_steps(self, batch, dim, weight_decay, weights):
        rng = np.random.default_rng([batch, dim])
        cfg = RunConfig(learning_rate=1e-2, weight_decay=weight_decay, epochs=1)
        params = initial_params(dim, 7, seed=dim)
        ref_params = params.copy()
        state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
        ref_state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
        for _ in range(50):
            X = rng.normal(size=(batch, dim))
            y = rng.integers(0, 7, size=batch)
            y[0] = 2  # a class whose weight is zero in one case
            assert logits(params, X).tobytes() == reference_logits(params, X).tobytes()
            loss, grads = batch_loss_and_grads(params, X, y, weights)
            ref_loss, ref_grads = reference_loss_and_grads(ref_params, X, y, weights)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grads.tobytes() == ref_grads.tobytes()
            optimizer_step(params, grads, state, cfg)
            reference_optimizer_step(ref_params, ref_grads, ref_state, cfg)
            assert params.tobytes() == ref_params.tobytes()
            assert state.m.tobytes() == ref_state.m.tobytes()
            assert state.v.tobytes() == ref_state.v.tobytes()
        assert state.t == ref_state.t == 50


def reference_train(train_set, val_set, provider, weights, cfg):
    """train's loop written from the reference expressions: the same initial
    parameters and (seed, epoch) shuffle, batches of ``embed_batch`` rows,
    and the best validation epoch kept, ties going to the earlier one.
    Returns the selected epoch's (score, params)."""
    index = {label: i for i, label in enumerate(LABELS)}
    X, X_val = embed_batch(train_set, provider), embed_batch(val_set, provider)
    y = np.array([index[s.label] for s in train_set])
    y_val = np.array([index[s.label] for s in val_set])
    params = initial_params(provider.dimension, len(LABELS), cfg.seed)
    state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
    best = None
    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, grads = reference_loss_and_grads(params, X[batch], y[batch], weights)
            reference_optimizer_step(params, grads, state, cfg)
        Z = reference_logits(params, X_val)
        if cfg.selection_metric == "macro_f1":
            preds = Z.argmax(axis=1).tolist()
            score = evaluate_predictions(y_val.tolist(), preds, len(LABELS)).macro_f1
            better = best is None or score > best[0]
        else:
            score = float(reference_weighted_ce(Z, y_val, weights)[0].sum()) / len(y_val)
            better = best is None or score < best[0]
        if better:
            best = (score, params.copy())
    return best


class TestTrainIsTheReferenceLoop:
    """The checkpoint train selects has the bytes of the reference loop's, so
    the step the CLI runs is the step TestCoreMatchesReferenceBits checks."""

    @pytest.mark.parametrize("table", ["hashed", "lent"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("metric", SELECTION_METRICS)
    def test_selected_checkpoint_bytes(self, toy, tmp_path, table, weight_decay, metric):
        provider = HashedBowProvider(32, "cased", 50)
        if table == "lent":
            # Records in reverse order, so the lent table's row ids are not 0 .. n-1.
            texts = list(dict.fromkeys(s.text for s in toy.sentences))[::-1]
            save_embeddings(zip(texts, provider.embed(texts)), 32, tmp_path / "toy.emb")
            provider = load_precomputed(tmp_path / "toy.emb")
        # 203 training rows: batches of 8 and a short last batch of 3.
        train_set, val_set = toy.sentences[:203], toy.sentences[600:]
        weights = np.array([2.0, 0.5, 0.0, 1.0, 3.0, 1.0, 0.25])
        cfg = RunConfig(batch_size=8, epochs=6, learning_rate=1e-2, seed=7,
                          weight_decay=weight_decay, selection_metric=metric)
        epochs = []
        ckpt = train(train_set, val_set, provider, weights, cfg, on_epoch=epochs.append)
        ref_score, ref_params = reference_train(train_set, val_set, provider, weights, cfg)
        assert ckpt.params.tobytes() == ref_params.tobytes()
        assert ckpt.selected.val_score == ref_score
        assert ckpt.selected is epochs[ckpt.selected.epoch - 1]
        assert len({e.val_score for e in epochs}) > 1  # the selection had a choice


def two_class_toy(n=200, d=8, seed=123):
    """Separable point cloud around two antipodal centers."""
    rng = np.random.default_rng(seed)
    center = rng.normal(size=d)
    center /= np.linalg.norm(center)
    X, labels = [], []
    for i in range(n):
        sign = 1.0 if i % 2 == 0 else -1.0
        X.append(sign * center + 0.25 * rng.normal(size=d))
        labels.append("Facts" if sign > 0 else "Argument")
    X = np.array(X)
    keys = [f"point {i}" for i in range(n)]
    provider = PrecomputedProvider(X, {k: i for i, k in enumerate(keys)}, "precomputed:test")
    sentences = [
        LabeledSentence(text=k, label=lab, doc_id="t")
        for k, lab in zip(keys, labels)
    ]
    return sentences, provider, X, labels


class TestTrain:
    def test_learns_separable_two_class_toy(self):
        sentences, provider, X, labels = two_class_toy()
        y = np.array([LABELS.index(l) for l in labels])
        assert multiclass_perceptron_separates(X, y)

        train_set, val_set = sentences[:160], sentences[160:]
        cfg = RunConfig(batch_size=8, epochs=20, learning_rate=1e-2, seed=42)
        ckpt = train(train_set, val_set, provider, np.ones(7), cfg)
        preds = logits(ckpt.params, embed_batch(val_set, provider)).argmax(axis=1)
        correct = sum(ckpt.labels[i] == s.label for i, s in zip(preds, val_set))
        assert correct / len(val_set) >= 0.95

    def test_single_epoch_checkpoint_is_that_epoch(self):
        sentences, provider, _, _ = two_class_toy(n=40)
        cfg = RunConfig(batch_size=8, epochs=1, learning_rate=1e-2, seed=0)
        stats = []
        ckpt = train(sentences[:32], sentences[32:], provider, np.ones(7), cfg, on_epoch=stats.append)
        assert len(stats) == 1
        assert ckpt.selected is stats[0]

    def test_deterministic_bit_identical(self):
        sentences, provider, _, _ = two_class_toy(n=60)
        cfg = RunConfig(batch_size=8, epochs=3, learning_rate=1e-2, seed=42)
        run = lambda: train(sentences[:48], sentences[48:], provider, np.ones(7), cfg)
        a, b = run(), run()
        assert serialize_checkpoint(a) == serialize_checkpoint(b)

    def test_val_loss_selection_picks_minimum(self):
        sentences, provider, _, _ = two_class_toy(n=60)
        cfg = RunConfig(
            batch_size=8, epochs=5, learning_rate=1e-2, seed=1, selection_metric="val_loss"
        )
        stats = []
        ckpt = train(sentences[:48], sentences[48:], provider, np.ones(7), cfg, on_epoch=stats.append)
        # min returns the first of equal scores, as ties keep the earlier epoch.
        assert ckpt.selected is min(stats, key=lambda s: s.val_score)

    def test_macro_f1_selection_keeps_the_earliest_best_epoch(self):
        sentences, provider, _, _ = two_class_toy(n=60)
        cfg = RunConfig(batch_size=8, epochs=6, learning_rate=1e-2, seed=1)
        stats = []
        ckpt = train(sentences[:48], sentences[48:], provider, ONES7, cfg, on_epoch=stats.append)
        best = max(stats, key=lambda s: s.val_score)  # the first of equal scores
        assert sum(s.val_score == best.val_score for s in stats) > 1  # a tie was broken
        assert [s.epoch for s in stats] == list(range(1, 7))
        assert ckpt.selected is best
        assert best.val_report.macro_f1 == best.val_score
        assert ckpt.params.tobytes() == train(
            sentences[:48], sentences[48:], provider, ONES7,
            dataclasses.replace(cfg, epochs=best.epoch)).params.tobytes()

    def test_val_loss_run_reports_the_selected_epochs_predictions(self):
        sentences, provider, _, _ = two_class_toy(n=60)
        val_set = sentences[48:]
        cfg = RunConfig(batch_size=8, epochs=3, learning_rate=1e-2, seed=1,
                        selection_metric="val_loss")
        ckpt = train(sentences[:48], val_set, provider, ONES7, cfg)
        gold = [LABELS.index(s.label) for s in val_set]
        preds = logits(ckpt.params, embed_batch(val_set, provider)).argmax(axis=1).tolist()
        assert ckpt.selected.val_report == evaluate_predictions(gold, preds, len(LABELS))

    def test_shuffled_emb_trains_as_its_source_provider(self, toy, tmp_path):
        """Batches are gathered by row id, so an EMB whose records are in
        another order than the corpus trains to the same bytes."""
        hashed = HashedBowProvider(32, "cased", 50)
        texts = list(dict.fromkeys(s.text for s in toy.sentences))
        shuffled = [texts[i] for i in np.random.default_rng(5).permutation(len(texts))]
        assert shuffled != texts
        path = tmp_path / "shuffled.emb"
        save_embeddings(zip(shuffled, hashed.embed(shuffled)), 32, path)
        cfg = RunConfig(batch_size=8, epochs=2, learning_rate=1e-2, seed=3)
        train_set, val_set = toy.sentences[:560], toy.sentences[560:]
        from_emb = train(train_set, val_set, load_precomputed(path), np.ones(7), cfg)
        from_hashed = train(train_set, val_set, hashed, np.ones(7), cfg)
        assert from_emb.params.tobytes() == from_hashed.params.tobytes()

    @pytest.mark.parametrize("dim,batch_size,n_train", [
        (32, 8, 560),  # the whole training set is less than one block
        (256, 1, 557),  # blocks of 128 rows, the last one short
        (256, 7, 557),  # blocks of 126 rows; batches do not divide 557
        (256, 8, 557),
        (8192, 8, 60),  # one batch fills a block
    ])
    def test_block_gathers_train_as_one_take_per_batch(
        self, toy, dim, batch_size, n_train, monkeypatch
    ):
        """As in the test above, the hashed provider's row store and a
        precomputed matrix of the same rows in another order train to the same
        bytes, and so does a gather of one batch at a time."""
        from rhetrole import linear_model

        hashed = HashedBowProvider(dim, "cased", 50)
        train_set, val_set = toy.sentences[:n_train], toy.sentences[n_train:n_train + 40]
        texts = list(dict.fromkeys(s.text for s in [*train_set, *val_set]))
        shuffled = [texts[i] for i in np.random.default_rng(5).permutation(len(texts))]
        emb = PrecomputedProvider(hashed.embed(shuffled), dict(zip(shuffled, range(len(texts)))),
                                  "precomputed:shuffled")
        cfg = RunConfig(batch_size=batch_size, epochs=2, learning_rate=1e-2, seed=3)
        run = lambda provider: train(train_set, val_set, provider, np.ones(7), cfg).params
        params = run(hashed)
        assert run(emb).tobytes() == params.tobytes()
        monkeypatch.setattr(linear_model, "_GATHER_BYTES", 1)  # one batch a block
        assert run(hashed).tobytes() == params.tobytes()
        assert run(emb).tobytes() == params.tobytes()

    def test_hashed_training_holds_no_dense_table(self, toy_tsv, tmp_path, capsys):
        # The dense training table of the toy corpus at dim 4096 is 18.4 MB;
        # the validation matrix, 4.6 MB of it, is still dense.
        tracemalloc.start()
        try:
            rc = main(["train", "--corpus", str(toy_tsv), "--out", str(tmp_path / "run"),
                       "--provider", "hashed:4096", "--epochs", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        whole_table = 560 * 4096 * 8
        assert peak < whole_table / 2, (peak, whole_table)

    def test_lent_table_is_the_providers_read_only_matrix(self):
        sentences, provider, X, _ = two_class_toy(n=20)
        table, rows = table_rows(sentences[::-1] + sentences[:2], provider)
        assert np.shares_memory(table, X)
        assert not table.flags.writeable
        assert X.flags.writeable  # the caller's array is left as it was
        assert rows.dtype == np.intp
        assert rows.tolist() == list(range(19, -1, -1)) + [0, 1]
        assert table_rows([], provider)[1].shape == (0,)

    def test_training_sentence_absent_from_emb_raises(self):
        sentences, provider, _, _ = two_class_toy(n=20)
        absent = LabeledSentence(text="not in the table", label="Facts", doc_id="t")
        cfg = RunConfig(epochs=1)
        with pytest.raises(RhetroleError, match="sentence 'not in the table'$") as exc:
            train(sentences[:10] + [absent], sentences[10:], provider, np.ones(7), cfg)
        assert type(exc.value) is RhetroleError  # exit 1, not InputError's 2

    @pytest.mark.parametrize(
        "name,value",
        [("learning_rate", float("nan")), ("epsilon", float("inf")), ("batch_size", True),
         ("seed", 1.5), ("batch_size", "8")],
    )
    def test_wrong_typed_field_rejected_at_construction(self, name, value):
        with pytest.raises(InputError, match=name):
            RunConfig(**{name: value})


class TestPredict:
    """Prediction is the argmax of the logits (ties to the lowest index) and
    its softmax probability, as evaluate and predict compute it."""

    def test_forced_argmax(self):
        W = np.zeros((7, 3))
        b = np.array([5.0, 0, 0, 0, 0, 0, 0])
        Z = logits(fused(W, b), np.zeros((2, 3)))
        assert Z.argmax(axis=1).tolist() == [0, 0]

    def test_all_zero_params_tie_breaks_to_lowest_index(self):
        Z = logits(fused(np.zeros((7, 3)), np.zeros(7)), np.ones((1, 3)))
        idx = int(Z.argmax(axis=1)[0])
        assert idx == 0
        assert softmax(Z)[0, idx] == pytest.approx(1 / 7)

    def test_matches_exhaustive_logit_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            W = rng.normal(size=(7, 5))
            b = rng.normal(size=7)
            X = rng.normal(size=(4, 5))
            preds = logits(fused(W, b), X).argmax(axis=1)
            for x, pred in zip(X, preds):
                oracle = [sum(W[i, j] * x[j] for j in range(5)) + b[i] for i in range(7)]
                assert pred == max(range(7), key=lambda i: oracle[i])

    @given(st.integers(0, 6), st.integers(1, 6))
    @settings(max_examples=40)
    def test_duplicate_maxima_take_smallest_index(self, first, extra):
        z_max_positions = sorted({first, min(first + extra, 6)})
        W = np.zeros((7, 1))
        b = np.zeros(7)
        for pos in z_max_positions:
            b[pos] = 1.0
        Z = logits(fused(W, b), np.zeros((1, 1)))
        assert Z.argmax(axis=1)[0] == z_max_positions[0]


class TestCheckpointIO:
    def make(self):
        rng = np.random.default_rng(2)
        params = fused(rng.normal(size=(7, 5)), rng.normal(size=7))
        from rhetrole.corpus import LABELS

        report = evaluate_predictions([0, 1], [0, 0], len(LABELS))
        return LinearCheckpoint(
            params=params, labels=LABELS, provider_id="hashed:5:cased:120",
            selected=EpochStats(epoch=2, train_loss=1.5, val_score=0.5, val_report=report),
        )

    def test_round_trip_value_exact(self):
        ckpt = self.make()
        loaded = parse_checkpoint(serialize_checkpoint(ckpt))
        assert np.array_equal(loaded.params, ckpt.params)
        assert loaded.labels == ckpt.labels
        assert loaded.provider_id == ckpt.provider_id
        assert loaded.selected is None  # the winning epoch is not part of the file format

    def test_write_read_write_byte_identical(self):
        text = serialize_checkpoint(self.make())
        assert serialize_checkpoint(parse_checkpoint(text)) == text

    @given(
        labels=st.lists(
            st.text(alphabet=st.characters(exclude_categories=("Cs",),
                                           exclude_characters="\t\n\r"), min_size=1, max_size=8),
            max_size=5, unique=True),
        dim=st.integers(0, 4),
        provider_id=st.text(alphabet=st.characters(exclude_categories=("Cs",))
                            | st.sampled_from("\n\r"), max_size=12),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_round_trip_property(self, tmp_path_factory, labels, dim, provider_id, data):
        # The checkpoint reads back as written, or the save refuses it and
        # writes nothing: for the LF or final CR that header line 1 cannot
        # hold, or for no label or no dimension, which no file can hold.
        values = data.draw(st.lists(FINITE_DOUBLES, min_size=len(labels) * (dim + 1),
                                    max_size=len(labels) * (dim + 1)))
        params = np.array(values, dtype=np.float64).reshape(len(labels), dim + 1)
        path = tmp_path_factory.mktemp("ckpt") / "checkpoint.txt"
        try:
            save_checkpoint(LinearCheckpoint(params, tuple(labels), provider_id), path)
        except InputError as exc:
            if "\n" in provider_id or provider_id.endswith("\r"):
                assert str(exc).endswith(": header line 1 cannot hold an LF or a final CR")
            elif dim == 0:
                assert str(exc) == "dim must be >= 1"
            else:
                assert (labels, str(exc)) == ([], "header declares 0 labels, line 2 has 1")
            assert list(path.parent.iterdir()) == []
            return
        assert labels and dim
        written = path.read_bytes()
        crlf = parse_checkpoint(written.decode("utf-8").replace("\n", "\r\n"))
        for loaded in (load_checkpoint(path), crlf):
            assert loaded.params.tobytes() == params.tobytes()
            assert loaded.labels == tuple(labels)
            assert loaded.provider_id == provider_id
        save_checkpoint(load_checkpoint(path), path)
        assert path.read_bytes() == written

    LABEL_RULE = "labels on line 2 must be non-empty and distinct, without tab, CR or LF: "

    @pytest.mark.parametrize("labels,message", [
        (("Facts", "Facts"), LABEL_RULE + "('Facts', 'Facts')"),
        (("", "Argument"), LABEL_RULE + "('', 'Argument')"),
        (("Fa\tcts", "Argument"), "header declares 2 labels, line 2 has 3"),
        (("Fa\ncts", "Argument"), "header declares 2 labels, line 2 has 1"),
        (("Fa\rcts", "Argument"), LABEL_RULE + "('Fa\\rcts', 'Argument')"),
        (("Facts", "Argument\r"), "label 1 would read back as 'Argument', not 'Argument\\r'"),
        (("Facts",), "header declares 2 labels, line 2 has 1"),
    ], ids=["duplicate", "empty", "tab", "lf", "cr", "final_cr", "count"])
    def test_labels_the_reader_refuses_are_not_written(self, labels, message, tmp_path):
        path = tmp_path / "checkpoint.txt"
        with pytest.raises(InputError) as exc:
            save_checkpoint(LinearCheckpoint(np.zeros((2, 3)), labels, "hashed:2"), path)
        assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("params,labels,message", [
        (np.zeros((0, 4)), (), "header declares 0 labels, line 2 has 1"),
        (np.zeros((2, 1)), ("Facts", "Argument"), "dim must be >= 1"),
        (np.array([[2**53 + 1, 0]]), ("Facts",),
         "parameter row 0 would read back as [9007199254740992.0, 0.0], "
         "not [9007199254740993, 0]"),
    ], ids=["no_label", "dim_0", "int_beyond_float"])
    def test_parameters_the_reader_cannot_hold_are_not_written(
        self, params, labels, message, tmp_path
    ):
        path = tmp_path / "checkpoint.txt"
        with pytest.raises(InputError) as exc:
            save_checkpoint(LinearCheckpoint(params, labels, "hashed:2"), path)
        assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row,col,value", [
        (0, 0, np.nan), (6, 2, np.inf), (3, -1, -np.inf),
    ], ids=["weight_nan", "weight_inf", "bias_minus_inf"])
    def test_non_finite_params_are_not_written(self, row, col, value, tmp_path):
        path = tmp_path / "checkpoint.txt"
        save_checkpoint(self.make(), path)
        before = path.read_bytes()
        ckpt = self.make()
        ckpt.params[row, col] = value
        with pytest.raises(InputError) as exc:
            save_checkpoint(ckpt, path)
        assert str(exc.value) == "non-finite parameter value (nan or inf)"
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.txt"]

    def test_provider_id_may_contain_spaces(self):
        ckpt = self.make()
        ckpt.provider_id = "precomputed:/tmp/with space/v.emb"
        loaded = parse_checkpoint(serialize_checkpoint(ckpt))
        assert loaded.provider_id == ckpt.provider_id

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "checkpoint file too short"),
            ("CKPT v2 7 5 x\n", "checkpoint file too short"),
            ("CKPT v1 2 2 x\nFacts\tArgument\n1 2\n",  # missing rows
             "expected 5 lines (2 weight rows plus bias), got 3"),
            ('CKPT v1 2 2 x\nFacts\n1 2\n3 4\n5 6\n',  # label count mismatch
             "header declares 2 labels, line 2 has 1"),
            ("CKPT v1 2 2 x\nFacts\tArgument\n1 2\n3 4\n5\n",  # short bias
             "bias length 1 does not match 2 labels"),
            ("CKPT v1 2 2 x\nFacts\tArgument\n1 oops\n3 4\n5 6\n", "non-numeric parameter value"),
            ("CKPT v1 2 2 x\nFacts\tArgument\n1 nan\n3 4\n5 6\n",
             "non-finite parameter value (nan or inf)"),
            ("CKPT v1 2 2 x\nFacts\tArgument\n1 2\n3 4\n5 -inf\n",
             "non-finite parameter value (nan or inf)"),
            ("CKPT v1 2 2 x\nFacts\tArgument\n\n3 4\n5 6\n",  # blank weight row
             "non-numeric parameter value"),
            ("CKPT v1 1 0 x\nFacts\n\n0\n", "dim must be >= 1"),
        ],
    )
    def test_malformed_rejected(self, text, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_checkpoint(text)


class TestInit:
    def test_bounded_fan_in(self):
        params = initial_params(dim=64, num_labels=7, seed=42)
        bound = 1 / math.sqrt(64)
        assert params.shape == (7, 65)
        assert np.all(np.abs(params[:, :-1]) <= bound)
        assert not params[:, -1].any()

    def test_seeded(self):
        a = initial_params(16, 7, 5)
        b = initial_params(16, 7, 5)
        c = initial_params(16, 7, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
