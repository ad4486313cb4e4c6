"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Run from the repository root. The smoke runs use tiny inputs (``--scale``)
and one cycle, so they check shape and correctness, not speed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("task-hashed", "emb-precomputed", "toy-loop")
SMOKE_SCALE = "0.1"


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


def bench_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_benchmark_tables():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == list(table)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = bench_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--scale", SMOKE_SCALE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    table = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {n: u for n, u, _ in table}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["metrics"]["ok_share"]["value"] == 1.0
        if workload == "toy-loop":
            assert result["metrics"]["macro_f1"]["value"] == 1.0


def test_traced_counts_match_the_code(tmp_path):
    """A traced task-hashed train tokenises every sentence twice and takes
    epochs * ceil(train sentences / batch size) optimiser steps."""
    counts = gen.build("task-hashed", 4, 0.02, tmp_path)
    n = counts["corpus_sentences"]
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--spans", str(spans), "cli", "--",
         "train", "--preset", "run1", "--corpus", str(tmp_path / "corpus.tsv"),
         "--out", str(tmp_path / "out")],
        env=run.child_env(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(spans.read_text())
    calls = {name: agg[0] for name, agg in summary["spans"].items()}
    train_sentences = math.floor(0.8 * n)
    assert calls["embedding.tokenize"] == 2 * n
    assert calls["embedding.hash"] == n
    assert calls["linear_model.optimizer"] == 4 * math.ceil(train_sentences / 8)
    assert calls["metrics.evaluate"] == 4
    assert calls["linear_model.ckpt_save"] == 1
    assert summary["counters"]["embed_rows"] == n
    assert summary["counters"]["ckpt_bytes"] == (tmp_path / "out" / "checkpoint.txt").stat().st_size
    spans_by_name = summary["spans"]
    for name, (_, total, self_ns) in spans_by_name.items():
        assert 0 <= self_ns <= total, name


def test_a_corrupted_checkpoint_counts_as_failed(tmp_path, monkeypatch):
    counts = run.generate("task-hashed", 5, float(SMOKE_SCALE), tmp_path)
    steps = run.plan_workload("task-hashed", tmp_path, counts)
    bench = run.Bench(steps, tmp_path)
    bench.cycle(traced=False)
    assert bench.failures == []

    real_run_child = run.run_child
    checkpoint = tmp_path / "out" / "checkpoint.txt"

    def flip_after_train(argv, log):
        result = real_run_child(argv, log)
        if log.name == "train":
            data = bytearray(checkpoint.read_bytes())
            i = data.index(b"\n", data.index(b"\n") + 1) + 3  # inside weight row 1
            data[i] = ord("7") if data[i] != ord("7") else ord("3")
            checkpoint.write_bytes(bytes(data))
        return result

    monkeypatch.setattr(run, "run_child", flip_after_train)
    bench.cycle(traced=False)
    assert any("checkpoint.txt differs" in f for f in bench.failures), bench.failures
    ok_share = run.end_to_end(bench, steps, [1.0])["ok_share"]
    assert ok_share <= 1.0 - 1 / bench.attempted


@pytest.mark.parametrize("trace", [False, True])
def test_failed_operations_leave_no_timings_and_no_crash(tmp_path, monkeypatch, trace):
    """A command that fails in every cycle is left out of the medians; the
    run still reports its failed share instead of crashing."""
    counts = run.generate("task-hashed", 5, float(SMOKE_SCALE), tmp_path)
    steps = run.plan_workload("task-hashed", tmp_path, counts)
    real_run_child = run.run_child

    def fail_export(argv, log):
        result = real_run_child(argv, log)
        if log.name == "export":
            result.code = 1
        return result

    monkeypatch.setattr(run, "run_child", fail_export)
    bench = run.Bench(steps, tmp_path)
    bench.cycle(traced=False)
    bench.cycle(traced=trace)
    assert all(c.failed and "export" not in c.times for c in bench.cycles)
    if trace:
        metrics = run.per_layer(bench)
        assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    else:
        metrics = run.end_to_end(bench, steps, [1.0])
        assert metrics["emb_write_rows_per_s"] == 0.0
        assert metrics["ok_share"] == 1.0 - 2 / bench.attempted
        assert metrics["train_sent_per_s"] > 0


def test_a_child_on_two_cores_worth_of_threads_counts_as_failed(tmp_path):
    """Calibrated timing holds only for one runnable thread: a child that
    spins a second process on the shared core must be flagged, and one
    that spins alone must not."""
    spin = ("import os, time\n"
            "pid = os.fork() if {forks} else 0\n"
            "t = time.perf_counter()\n"
            "while time.perf_counter() - t < 0.6: pass\n"
            "if pid: os.waitpid(pid, 0)\n"
            "if {forks} and not pid: os._exit(0)\n")
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    calibrator = run.Calibrator(tmp_path)
    try:
        _, alone = calibrator.run([sys.executable, "-c", spin.format(forks=False)], tmp_path / "a")
        _, two = calibrator.run([sys.executable, "-c", spin.format(forks=True)], tmp_path / "b")
    finally:
        calibrator.close()
        os.sched_setaffinity(0, affinity)
    assert alone == []
    assert two and "calibration worker" in two[0]


def test_missing_bindings_are_listed_as_unbound():
    code = ("import rhetrole.cli, child\n"
            "del rhetrole.cli.tokenize\n"
            "tracer = child.Tracer()\n"
            "tracer.install()\n"
            "print(tracer.summary()['unbound'])\n")
    env = {**run.child_env(), "PYTHONPATH": f"src{os.pathsep}{BENCH}"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['rhetrole.cli.tokenize']"


def test_predict_check_rejects_malformed_output(tmp_path):
    inputs, output = tmp_path / "in.txt", tmp_path / "out.tsv"
    inputs.write_text("a b\nc d\n", encoding="utf-8")
    output.write_text("a b\tFacts\t0.5\nc d\tFacts\t0.25\n", encoding="utf-8")
    assert run.check_predict(str(inputs), str(output)) == []
    for bad in ("a b\tFacts\t0.5\n",
                "a b\tFacts\t0.5\nc d\tNonsense\t0.25\n",
                "a b\tFacts\t0.5\nc d\tFacts\t0\n",
                "a b\tFacts\t0.5\nc x\tFacts\t0.25\n"):
        output.write_text(bad, encoding="utf-8")
        assert run.check_predict(str(inputs), str(output)) != []


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench_cli("--workload", "toy-loop", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    for workload in WORKLOADS:
        a, b, c = (tmp_path / workload / x for x in "abc")
        gen.build(workload, 9, 0.02, a)
        gen.build(workload, 9, 0.02, b)
        gen.build(workload, 10, 0.02, c)
        for name in ("corpus.tsv", "predict.txt", "keys.txt", "vectors.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (workload, name)
        assert (a / "corpus.tsv").read_bytes() != (c / "corpus.tsv").read_bytes()


def test_toy_recipe_matches_the_packaged_toy_corpus():
    sys.path.insert(0, str(REPO / "src"))
    try:
        from rhetrole.corpus import serialize_corpus
        from rhetrole.toydata import toy_corpus
    finally:
        sys.path.remove(str(REPO / "src"))
    assert gen.toy_corpus_tsv(7)[0] == serialize_corpus(toy_corpus())


def test_task_corpus_has_the_edge_cases():
    sentences, labels = gen.task_sentences(4000, 1, 1)
    text = "\n".join(sentences)
    for needle in ("§", "“", "”", "‘", "—", "s."):
        assert needle in text, needle
    assert any(s and not any(ch.isalnum() for ch in s) for s in sentences)
    assert any(tok[:1].isupper() for s in sentences for tok in s.split()[1:])
    shares = [list(labels).count(i) / len(labels) for i in range(len(gen.LABELS))]
    expected = [c / sum(gen.TASK_COUNTS) for c in gen.TASK_COUNTS]
    assert all(abs(a - b) < 0.03 for a, b in zip(shares, expected))
    distinct, _ = gen.task_sentences(4000, 1, 1, distinct=True)
    assert len(set(distinct)) == len(distinct)


def test_span_summary_subtracts_child_time():
    tracer = child.Tracer()
    inner = tracer.span("inner", lambda: sum(range(1000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.summary()["spans"]
    assert spans["inner"][0] == 3 and spans["outer"][0] == 1
    assert spans["outer"][2] == spans["outer"][1] - spans["inner"][1]
    assert tracer.parents == [-1, 0, 0, 0]
