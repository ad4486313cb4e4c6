"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rhetrole.cli import main
from rhetrole.corpus import LABELS, Corpus, parse_corpus, serialize_corpus
from rhetrole.embedding import load_precomputed, save_embeddings
from rhetrole.imbalance import oversample, undersample
from rhetrole.linear_model import parse_checkpoint, serialize_checkpoint
from rhetrole.metrics import evaluate_predictions

from .conftest import TASK_COUNTS, batch_loss_and_grads, fused, row_losses_and_grads, select
from .test_corpus import make_corpus
from .test_imbalance import (
    dataset_with_counts,
    direct_frequency_weights,
    inverse_frequency_weights,
    picked_counts,
)
from .test_metrics import brute_force_macro

ONES7 = np.ones(7)


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


def test_criterion_1_loss_correctness():
    start = time.perf_counter()

    losses, _ = row_losses_and_grads(np.zeros((1, 7)), [0], ONES7)
    assert losses[0] == pytest.approx(math.log(7), abs=1e-6)

    zero_w = np.ones(7)
    zero_w[3] = 0.0
    Z = np.array([[9.0, -4.0, 0.0, 2.0, 1.0, 1.0, 5.0], [0.5, 1.0, -2.0, 3.0, 0.0, 0.0, 1.0]])
    losses, G = row_losses_and_grads(Z, [3, 0], zero_w)
    assert losses[0] == 0.0 and not G[0].any()
    assert losses[1] > 0.0

    rng = np.random.default_rng(101)
    Z = rng.normal(scale=6.0, size=(1000, 7))
    y = rng.integers(0, 7, size=1000)
    ours, _ = row_losses_and_grads(Z, y, ONES7)
    worst = 0.0
    for z, c, loss in zip(Z.tolist(), y.tolist(), ours.tolist()):
        m = max(z)
        reference = m + math.log(sum(math.exp(v - m) for v in z)) - z[c]
        worst = max(worst, abs(loss - reference) / max(abs(reference), 1e-300))
    assert worst <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 (weighted cross-entropy)", f"max rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_suite():
    """The per-row core's dLoss/dZ, and loss_and_grads' gradients of the
    batch-mean loss with respect to W and b, against central differences for
    batch sizes 1, 3 and 8 with non-uniform class weights that include a
    zero."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    h = 1e-4
    d = 5
    worst = 0.0
    for trial in range(99):
        nb = (1, 3, 8)[trial % 3]
        w = rng.uniform(0.05, 4.0, size=7)
        w[int(rng.integers(0, 7))] = 0.0
        y = rng.integers(0, 7, size=nb)

        Z = rng.normal(scale=4.0, size=(nb, 7))
        _, analytic = row_losses_and_grads(Z, y, w)
        numeric = np.zeros_like(Z)
        for i in range(nb):
            for j in range(7):
                Zp, Zm = Z.copy(), Z.copy()
                Zp[i, j] += h
                Zm[i, j] -= h
                loss_p, loss_m = (row_losses_and_grads(Zs, y, w)[0].sum() for Zs in (Zp, Zm))
                numeric[i, j] = (loss_p - loss_m) / (2 * h)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
        worst = max(worst, np.abs(analytic - numeric).max() / scale)

        X = rng.normal(size=(nb, d))
        W = rng.normal(size=(7, d))
        b = rng.normal(size=7)

        def mean_loss(Wm, bm):
            return batch_loss_and_grads(fused(Wm, bm), X, y, w)[0] / nb

        _, g = batch_loss_and_grads(fused(W, b), X, y, w)
        dW, db = g[:, :-1], g[:, -1]
        num_dW = np.zeros_like(W)
        for i in range(7):
            for j in range(d):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                num_dW[i, j] = (mean_loss(Wp, b) - mean_loss(Wm, b)) / (2 * h)
        num_db = np.zeros_like(b)
        for i in range(7):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            num_db[i] = (mean_loss(W, bp) - mean_loss(W, bm)) / (2 * h)
        scale_w = max(np.abs(dW).max(), np.abs(num_dW).max(), 1e-12)
        scale_b = max(np.abs(db).max(), np.abs(num_db).max(), 1e-12)
        worst = max(
            worst,
            np.abs(dW - num_dW).max() / scale_w,
            np.abs(db - num_db).max() / scale_b,
        )
    assert worst < 1e-5

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("2 (analytic gradients vs finite differences)", f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_weight_schemes():
    counts = [TASK_COUNTS[label] for label in LABELS]
    inverse = inverse_frequency_weights(counts)
    direct = direct_frequency_weights(counts)
    by_label = dict(zip(LABELS, inverse))

    assert by_label["Ratio of the decision"] == pytest.approx(0.38284, abs=1e-5)
    assert by_label["Ruling by Present Court"] == pytest.approx(4.72769, abs=1e-5)
    # independent arithmetic on the fixture counts
    for label, c in TASK_COUNTS.items():
        assert dict(zip(LABELS, inverse))[label] == pytest.approx(
            float(Fraction(11285, 7 * c)), rel=1e-12
        )

    assert inverse * direct == pytest.approx(np.ones(7), rel=1e-12)
    assert sum(w * c for w, c in zip(inverse, counts)) == 11285.0
    _report("3 (weight schemes on the task class counts)")


def test_criterion_4_resampling_laws():
    rng = np.random.default_rng(404)
    for case in range(200):
        num_labels = int(rng.integers(1, 8))
        chosen = list(rng.choice(len(LABELS), size=num_labels, replace=False))
        counts = {LABELS[i]: int(rng.integers(1, 15)) for i in chosen}
        data = dataset_with_counts(counts)
        seed = int(rng.integers(0, 2**31))
        mn, mx = min(counts.values()), max(counts.values())

        under = undersample(data, seed)
        assert set(picked_counts(data, under).values()) == {mn}
        assert len(set(under)) == len(under)
        assert set(under) <= set(range(len(data)))
        assert undersample(data, seed) == under

        over = oversample(data, seed)
        assert set(picked_counts(data, over).values()) == {mx}
        assert set(over) == set(range(len(data)))
        assert oversample(data, seed) == over
    _report("4 (undersample/oversample laws, 200 random datasets)")


def test_criterion_5_metrics_oracle():
    checked = 0
    for k, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        for gold in itertools.product(range(k), repeat=n):
            for pred in itertools.product(range(k), repeat=n):
                report = evaluate_predictions(list(gold), list(pred), k)
                p, r, f, mp, mr, mf = brute_force_macro(gold, pred, k)
                assert report.precision == p
                assert report.recall == r
                assert report.f1 == f
                assert (report.macro_precision, report.macro_recall, report.macro_f1) == (
                    mp, mr, mf,
                )
                checked += 1

    rng = np.random.default_rng(505)
    for _ in range(10_000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 9))
        gold = rng.integers(0, k, size=n).tolist()
        pred = rng.integers(0, k, size=n).tolist()
        report = evaluate_predictions(gold, pred, k)
        _, _, _, mp, mr, mf = brute_force_macro(gold, pred, k)
        assert (report.macro_precision, report.macro_recall, report.macro_f1) == (mp, mr, mf)
        checked += 1

    # absent class: label 2 never occurs in gold or pred -> 0/0 -> 0
    report = evaluate_predictions([0, 1, 0], [0, 1, 1], 3)
    assert report.precision[2] == 0.0
    assert report.recall[2] == 0.0
    assert report.f1[2] == 0.0
    _report("5 (macro metrics vs brute force)", f"{checked} cases exact")


def test_criterion_6_end_to_end_learning(toy_tsv, tmp_path):
    start = time.perf_counter()
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    argv = ["train", "--corpus", str(toy_tsv), "--lr", "1e-2"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0

    log = (out_a / "train_log.tsv").read_text().strip().split("\n")
    assert len(log) == 4  # preset epoch count, within the allowed 4..20
    best_f1 = max(float(line.split("\t")[2]) for line in log)
    assert best_f1 >= 0.95

    resolved = json.loads((out_a / "config.json").read_text())
    assert resolved["batch_size"] == 8
    assert resolved["seed"] == 42
    assert resolved["provider"] == "hashed:256"

    bytes_a = (out_a / "checkpoint.txt").read_bytes()
    bytes_b = (out_b / "checkpoint.txt").read_bytes()
    assert bytes_a == bytes_b

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("6 (end-to-end toy training)", f"best macro F1 {best_f1:.3f}, {elapsed:.2f}s")


def _imbalanced_toy(toy) -> Corpus:
    keep_per_label = [90, 30, 60, 45, 75, 100, 20]
    kept, seen = [], [0] * len(LABELS)
    for i, y in enumerate(toy.labels):
        if seen[y] < keep_per_label[y]:
            kept.append(i)
            seen[y] += 1
    return select(toy, kept)


def test_criterion_7_run_reproduction_shape(toy, tmp_path):
    corpus_path = tmp_path / "imbalanced_toy.tsv"
    corpus_path.write_text(serialize_corpus(_imbalanced_toy(toy)), encoding="utf-8")

    configs = {}
    for run in ("1", "2", "3"):
        out = tmp_path / f"run{run}"
        assert main(["reproduce-run", run, "--corpus", str(corpus_path), "--out", str(out)]) == 0
        assert (out / "checkpoint.txt").exists()
        assert (out / "metrics.json").exists()
        configs[run] = json.loads((out / "config.json").read_text())

    informational = {"run_id", "preset", "resolved_class_weights", "resolved_provider_id"}

    def diff_fields(a, b):
        keys = (set(a) | set(b)) - informational
        return {k for k in keys if a.get(k) != b.get(k)}

    assert diff_fields(configs["1"], configs["2"]) == {"casing"}
    assert configs["2"]["casing"] == "uncased"
    assert diff_fields(configs["1"], configs["3"]) == {"weight_scheme"}
    assert configs["3"]["weight_scheme"] == "direct_frequency"

    w1 = configs["1"]["resolved_class_weights"]
    w3 = configs["3"]["resolved_class_weights"]
    for label in LABELS:
        assert w1[label] * w3[label] == pytest.approx(1.0, rel=1e-12)
    _report("7 (reproduce-run presets)")


def test_criterion_8_format_round_trips(toy, tmp_path):
    corpus_text = serialize_corpus(make_corpus(23, docs=3))
    assert serialize_corpus(parse_corpus(corpus_text)) == corpus_text
    toy_text = serialize_corpus(toy)
    assert serialize_corpus(parse_corpus(toy_text)) == toy_text

    rng = np.random.default_rng(808)
    entries = [
        (f"sentence with \"quotes\" and tabs-free text {i}", rng.normal(size=6) * 10.0 ** rng.integers(-12, 12))
        for i in range(9)
    ]
    save_embeddings(entries, 6, tmp_path / "a.emb")
    keys = [key for key, _ in entries]
    save_embeddings(zip(keys, load_precomputed(tmp_path / "a.emb").embed(keys)), 6, tmp_path / "b.emb")
    assert (tmp_path / "b.emb").read_bytes() == (tmp_path / "a.emb").read_bytes()

    out = tmp_path / "ck"
    toy_path = tmp_path / "toy.tsv"
    toy_path.write_text(toy_text, encoding="utf-8")
    assert main(["train", "--corpus", str(toy_path), "--out", str(out),
                 "--epochs", "1", "--lr", "1e-2"]) == 0
    ckpt_text = (out / "checkpoint.txt").read_text(encoding="utf-8")
    assert serialize_checkpoint(parse_checkpoint(ckpt_text)) == ckpt_text
    _report("8 (TSV / embedding / checkpoint round-trips)")
