"""Benchmark of the rhetrole CLI on seeded, generated workloads.

    python3 perfbench/run.py --workload task-hashed --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Run it from the repository root. It builds the workload's inputs from the
seed, times ``rhetrole --version`` (set-up), then repeats the workload's
command cycle (export, train, evaluate, predict) as child processes, one at
a time, until ``--seconds`` have passed, and reports medians over cycles.
Every output is checked and counted as failed when it is wrong. With
``--trace 0`` it reports the end-to-end metrics, timed in calibrated
reference seconds (see ``REF_UNITS_PER_S``); with ``--trace 1`` it
alternates plain and traced cycles and reports per-layer metrics from the
traced ones in plain wall time. The last line of stdout is one JSON object
per workload; a human summary, the output digests and the host context go to
stderr and to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from child import RING_SLOTS
from labels import LABELS

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
# Passed to every child, on every commit alike. One BLAS thread keeps the
# float reductions, and so the output digests, independent of scheduling.
CHILD_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 5

# Calibrated timing. The speed of a shared virtual CPU swings by up to 2x
# over tens of seconds, and wall-clock medians of whole runs spread almost
# as much. So end-to-end runs pin themselves, their children and a
# calibration worker (``child.py calibrate``) to one CPU. The scheduler
# time-slices the worker with each child at millisecond granularity, so both
# run at the same core speed, and the units of reference work the worker
# completes while the child lives, divided by REF_UNITS_PER_S, give the
# child's time in reference seconds: close to the wall time the child takes
# alone on a core where the worker runs REF_UNITS_PER_S units a second. Both
# commits are measured against the same worker, so a ratio of these times is
# a ratio of CPU work. Traced runs are not calibrated.
REF_UNITS_PER_S = 8_000.0
# The calibration holds only for a child that runs one thread at a time: a
# child with k runnable threads or processes on the shared core leaves the
# worker about 1/(k+1) of it and would read about k times faster. So every
# calibrated child's CPU time, scaled by the worker's units per CPU second
# over the same interval, must not exceed its reference time by more than
# this share, or the operation counts as failed.
CPU_SHARE_TOLERANCE = 0.15
TOY_EPOCHS = "300"

# (name, unit, better) -- the same tables BENCHMARK.json declares.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_sent_per_s", "sent/s", "higher"),
    ("evaluate_sent_per_s", "sent/s", "higher"),
    ("predict_sent_per_s", "lines/s", "higher"),
    ("emb_write_rows_per_s", "rows/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("macro_f1", "f1", "higher"),
    ("ok_share", "share", "higher"),
)
PER_LAYER = (
    ("corpus.load_s", "s", "lower"),
    ("corpus.length_percentile_s", "s", "lower"),
    ("corpus.length_percentile_self_s", "s", "lower"),
    ("corpus.split_s", "s", "lower"),
    ("embedding.tokenize_calls", "count", "lower"),
    ("embedding.tokenize_s", "s", "lower"),
    ("embedding.tokens", "count", "lower"),
    ("embedding.unique_tokens", "count", "lower"),
    ("embedding.unique_token_ratio", "ratio", "higher"),
    ("embedding.hash_calls", "count", "lower"),
    ("embedding.hash_s", "s", "lower"),
    ("embedding.embed_rows", "count", "lower"),
    ("embedding.embed_batch_s", "s", "lower"),
    ("embedding.embed_batch_self_s", "s", "lower"),
    ("embedding.zero_rows", "count", "lower"),
    ("embedding.emb_save_s", "s", "lower"),
    ("embedding.emb_bytes", "B", "lower"),
    ("embedding.emb_load_calls", "count", "lower"),
    ("embedding.emb_load_s", "s", "lower"),
    ("linear_model.train_s", "s", "lower"),
    ("linear_model.train_self_s", "s", "lower"),
    ("linear_model.steps", "count", "lower"),
    ("linear_model.optimizer_s", "s", "lower"),
    ("linear_model.step_us", "us", "lower"),
    ("linear_model.ckpt_save_s", "s", "lower"),
    ("linear_model.ckpt_load_s", "s", "lower"),
    ("linear_model.ckpt_bytes", "B", "lower"),
    ("metrics.evaluate_calls", "count", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.report_json_s", "s", "lower"),
    ("imbalance.weights_s", "s", "lower"),
    ("config.resolve_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.predict_lines", "count", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
)
EXACT_UNITS = ("count", "B", "ratio")
WORKLOADS = ("task-hashed", "emb-precomputed", "toy-loop")


class BenchError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Step:
    """One operation of a cycle: a CLI command or the EMB export."""

    name: str
    argv: list[str]
    units: int  # sentences, lines or rows the throughput counts
    outputs: tuple[str, ...]  # files whose digests must repeat
    check: Callable[["Cycle"], list[str]] | None = None  # returns the problems found


@dataclass
class Cycle:
    """Measurements of one cycle. Timings, RSS and spans are kept only for
    the operations that passed every check."""

    traced: bool
    failed: bool = False
    walls: dict[str, float] = field(default_factory=dict)
    times: dict[str, float] = field(default_factory=dict)  # reference s when calibrated
    cpu: dict[str, float] = field(default_factory=dict)
    rss_kb: int = 0
    export_s: float | None = None
    macro_f1: float | None = None
    spans: dict[str, dict] = field(default_factory=dict)  # step name -> span summary


# --- output checks --------------------------------------------------------


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_predict(inputs: str, output: str) -> list[str]:
    """One output line per input line: the sentence, a canonical label and
    a probability in (0, 1]."""
    expected = Path(inputs).read_text(encoding="utf-8").split("\n")[:-1]
    got = Path(output).read_text(encoding="utf-8").split("\n")[:-1]
    if len(got) != len(expected):
        return [f"predict wrote {len(got)} lines for {len(expected)} inputs"]
    for line_no, (sentence, line) in enumerate(zip(expected, got), start=1):
        parts = line.rsplit("\t", 2)
        try:
            ok = (len(parts) == 3 and parts[0] == sentence and parts[1] in LABELS
                  and 0.0 < float(parts[2]) <= 1.0)
        except ValueError:
            ok = False
        if not ok:
            return [f"predict line {line_no} is malformed: {line[-60:]!r}"]
    return []


def check_metrics(path: str, total: int | None, perfect: bool = False) -> tuple[float, list[str]]:
    """Metrics JSON: its macro-F1, which lies in [0, 1] (exactly 1 when
    ``perfect``), and ``total`` scored sentences unless that is None."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    f1 = doc["macro"]["f1"]
    problems = []
    if total is not None and doc["total"] != total:
        problems.append(f"{path}: total {doc['total']} != {total} sentences")
    if not 0.0 <= f1 <= 1.0 or (perfect and f1 != 1.0):
        problems.append(f"{path}: macro-F1 {f1!r} out of range")
    return f1, problems


# --- workloads ------------------------------------------------------------


def plan_workload(workload: str, d: Path, counts: dict) -> list[Step]:
    """The command cycle of a workload; ``d`` holds its generated inputs.

    Paths given to the CLI are relative to the repository root, so the
    provider ids inside checkpoints, and so the digests, do not depend on
    where the checkout lives.
    """
    corpus, lines, rows = counts["corpus_sentences"], counts["predict_lines"], counts["export_rows"]
    scored = counts["evaluate_sentences"]
    out, ckpt, emb = d / "out", str(d / "out" / "checkpoint.txt"), str(d / "vectors.emb")
    evaluated, predicted = str(d / "evaluated.json"), str(d / "predict.tsv")
    export = Step("export", [str(d / "keys.txt"), str(d / "vectors.npy"), emb], rows, (emb,))
    corpus_file, inputs = str(d / "corpus.tsv"), str(d / "predict.txt")
    provider: list[str] = []
    if workload == "emb-precomputed":
        provider = ["--provider", f"precomputed:{emb}"]
    toy = workload == "toy-loop"
    # toy-loop trains with reproduce-run, whose metrics.json scores the
    # validation split and gives the workload's macro-F1; the others take it
    # from evaluate on their whole training corpus.
    if toy:
        train_argv = ["reproduce-run", "1", "--lr", "1e-2", "--epochs", TOY_EPOCHS]
    else:
        train_argv = ["train", "--preset", "run1", "--lr", "1e-2"]

    def train_check(cycle: Cycle) -> list[str]:
        if not toy:
            return []
        cycle.macro_f1, problems = check_metrics(str(out / "metrics.json"), None, perfect=True)
        return problems

    def evaluate_check(cycle: Cycle) -> list[str]:
        f1, problems = check_metrics(evaluated, scored)
        if not toy:
            cycle.macro_f1 = f1
        return problems

    return [
        export,
        Step("train", train_argv + ["--corpus", corpus_file, "--out", str(out)] + provider,
             corpus, (ckpt, str(out / "metrics.json")) if toy else (ckpt,), train_check),
        Step("evaluate", ["evaluate", "--checkpoint", ckpt, "--corpus", str(d / "evaluate.tsv"),
                          "--out", evaluated] + provider,
             scored, (evaluated,), evaluate_check),
        Step("predict", ["predict", "--checkpoint", ckpt, "--sentences", inputs,
                         "--out", predicted] + provider,
             lines, (predicted,), lambda cycle: check_predict(inputs, predicted)),
    ]


# --- child processes ------------------------------------------------------


def child_env() -> dict[str, str]:
    return {**os.environ, **CHILD_ENV}


@dataclass
class Child:
    code: int
    wall: float
    usage: object  # resource.struct_rusage of the child
    start: float  # perf_counter at spawn and at reaping
    end: float


def run_child(argv: list[str], log: Path) -> Child:
    """Run one child to completion; stdout and stderr go to ``log``.out/.err."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, end - start, usage, start, end)


class Calibrator:
    """The calibration worker and its ring of unit end times, shared
    through a memory-mapped file in the run's directory."""

    def __init__(self, d: Path):
        ring = d / "calibration.ring"
        with open(ring, "wb") as f:
            f.truncate(8 * (RING_SLOTS + 1))
        with open(ring, "r+b") as f:
            self._map = mmap.mmap(f.fileno(), 8 * (RING_SLOTS + 1))
        self.stamps = memoryview(self._map).cast("d")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "calibrate", str(ring)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env(),
        )
        deadline = time.perf_counter() + 60
        while self.stamps[0] < 100:  # running, past its imports
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise BenchError("the calibration worker did not start")
            time.sleep(0.01)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds between two perf_counter readings."""
        n, units = int(self.stamps[0]), 0
        for k in range(n - 1, max(n - RING_SLOTS, 0) - 1, -1):
            t = self.stamps[1 + k % RING_SLOTS]
            if t < start:
                break
            units += t <= end
        return units / REF_UNITS_PER_S

    def time(self, child: Child) -> float:
        return self.ref_seconds(child.start, child.end)

    def worker_cpu(self) -> float:
        """The worker's CPU seconds so far (utime + stime, /proc, read only)."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def run(self, argv: list[str], log: Path) -> tuple[Child, list[str]]:
        """Run a child against the worker. The problem listed, if any, is a
        child that used more of the shared core than one thread can: its
        CPU time in reference seconds (CPU time x the worker's units per CPU
        second) against its reference time (the worker's units), which is
        the ratio of the two CPU times."""
        before = self.worker_cpu()
        child = run_child(argv, log)
        worker = max(self.worker_cpu() - before, 1.0 / os.sysconf("SC_CLK_TCK"))
        used = child.usage.ru_utime + child.usage.ru_stime
        if used > worker * (1.0 + CPU_SHARE_TOLERANCE):
            return child, [f"{log.name} used {used:.3f} CPU s against the calibration "
                           f"worker's {worker:.3f} s on their shared core (more than "
                           f"{CPU_SHARE_TOLERANCE:.0%} over): its calibrated time would "
                           "read too fast"]
        return child, []

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.stamps.release()
        self._map.close()


def measure_setup(d: Path, calibrator: Calibrator | None) -> tuple[list[float], list[str]]:
    """Times of ``rhetrole --version``: interpreter start plus the imports
    every command pays. One warm-up run fills the bytecode cache. Returns
    the times of the runs that passed and the problems of the others."""
    times, problems = [], []
    for i in range(SETUP_REPEATS + 1):
        argv = [sys.executable, "-m", "rhetrole.cli", "--version"]
        child, found = calibrator.run(argv, d / "version") if calibrator else (
            run_child(argv, d / "version"), [])
        text = (d / "version.out").read_text(encoding="utf-8", errors="replace")
        if child.code != 0 or not text.startswith("rhetrole "):
            raise BenchError(f"`rhetrole --version` failed (exit {child.code}): {text.strip()!r}")
        if not i:
            continue
        if found:
            problems += [f"setup {i}: {p}" for p in found]
        else:
            times.append(calibrator.time(child) if calibrator else child.wall)
    return times, problems


def generate(workload: str, seed: int, scale: float, d: Path) -> dict:
    child = run_child(
        [sys.executable, str(HERE / "gen.py"), workload, str(seed), repr(scale), str(d)], d / "gen"
    )
    if child.code != 0:
        raise BenchError("input generation failed: " + (d / "gen.err").read_text()[-500:])
    return json.loads((d / "gen.out").read_text().strip().splitlines()[-1])


# --- the measured loop ----------------------------------------------------


class Bench:
    """Runs cycles, checks every output and keeps the tallies."""

    def __init__(self, steps: list[Step], d: Path, calibrator: Calibrator | None = None):
        self.steps = steps
        self.d = d
        self.calibrator = calibrator
        self.cycles: list[Cycle] = []
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def argv(self, step: Step, spans: Path | None) -> list[str]:
        trace = ["--spans", str(spans)] if spans else []
        if step.name == "export":
            return [sys.executable, str(HERE / "child.py"), *trace, "export", *step.argv]
        if spans:
            return [sys.executable, str(HERE / "child.py"), *trace, "cli", "--", *step.argv]
        return [sys.executable, "-m", "rhetrole.cli", *step.argv]

    def operation(self, step: Step, cycle: Cycle) -> list[str]:
        for path in step.outputs:
            Path(path).unlink(missing_ok=True)
        spans = self.d / f"{step.name}.spans.json" if cycle.traced else None
        cal = self.calibrator
        argv, log = self.argv(step, spans), self.d / step.name
        child, problems = cal.run(argv, log) if cal else (run_child(argv, log), [])
        if child.code != 0:
            err = (self.d / f"{step.name}.err").read_text(errors="replace").strip()
            return [f"{step.name} exited {child.code}: {err[-300:]}"]
        for path in step.outputs:
            if not Path(path).is_file():
                problems.append(f"{step.name} did not write {path}")
                continue
            got = digest(path)
            if self.reference.setdefault(os.path.relpath(path, self.d), got) != got:
                problems.append(f"{step.name}: {path} differs from the first cycle")
        if step.check is not None and not problems:
            problems += step.check(cycle)
        if problems:
            return problems
        if step.name == "export":
            calls = json.loads((self.d / "export.out").read_text())["calls"]
            cycle.export_s = statistics.median(
                cal.ref_seconds(a, b) if cal else b - a for a, b in calls
            )
        if spans:
            cycle.spans[step.name] = json.loads(spans.read_text())
        cycle.walls[step.name] = child.wall
        cycle.times[step.name] = cal.time(child) if cal else child.wall
        cycle.cpu[step.name] = child.usage.ru_utime + child.usage.ru_stime
        cycle.rss_kb = max(cycle.rss_kb, child.usage.ru_maxrss)
        return []

    def cycle(self, traced: bool) -> None:
        cycle = Cycle(traced)
        for step in self.steps:
            self.attempted += 1
            try:
                problems = self.operation(step, cycle)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"{step.name}: unreadable output: {exc!r}"]
            if problems:
                cycle.failed = True
                self.failures.append(f"cycle {len(self.cycles) + 1}: " + "; ".join(problems))
        self.cycles.append(cycle)


def median_or_zero(values) -> float:
    """Median of the values, or 0.0 when every operation behind them failed
    (the run then reports ``correct: false``)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, steps: list[Step], setup: list[float]) -> dict[str, float]:
    plain = [c for c in bench.cycles if not c.traced]
    units = {s.name: s.units for s in steps}

    def per_s(name: str, times: list[float]) -> float:
        return units[name] / statistics.median(times) if times else 0.0

    return {
        "setup_s": median_or_zero(setup),
        "train_sent_per_s": per_s("train", [c.times["train"] for c in plain if "train" in c.times]),
        "evaluate_sent_per_s": per_s(
            "evaluate", [c.times["evaluate"] for c in plain if "evaluate" in c.times]),
        "predict_sent_per_s": per_s(
            "predict", [c.times["predict"] for c in plain if "predict" in c.times]),
        "emb_write_rows_per_s": per_s(
            "export", [c.export_s for c in plain if c.export_s is not None]),
        "peak_rss_mb": median_or_zero(c.rss_kb for c in plain if not c.failed) / 1024.0,
        "macro_f1": median_or_zero(c.macro_f1 for c in plain if c.macro_f1 is not None),
        "ok_share": 1.0 - len(bench.failures) / bench.attempted,
    }


def layer_metrics(summaries) -> dict[str, float]:
    """Per-layer metrics of one traced cycle from its commands' span summaries."""
    spans: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for summary in summaries:
        for name, agg in summary["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0, 0]), agg)]
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(name):
        return spans.get(name, [0, 0, 0])[0]

    def total(name):
        return spans.get(name, [0, 0, 0])[1] / 1e9

    def self_time(name):
        return spans.get(name, [0, 0, 0])[2] / 1e9

    steps = calls("linear_model.optimizer")
    tokens = counters["tokens"]
    return {
        "corpus.load_s": total("corpus.load"),
        "corpus.length_percentile_s": total("corpus.length_percentile"),
        "corpus.length_percentile_self_s": self_time("corpus.length_percentile"),
        "corpus.split_s": total("corpus.split"),
        "embedding.tokenize_calls": calls("embedding.tokenize"),
        "embedding.tokenize_s": total("embedding.tokenize"),
        "embedding.tokens": tokens,
        "embedding.unique_tokens": counters["unique_tokens"],
        "embedding.unique_token_ratio": counters["unique_tokens"] / tokens if tokens else 0.0,
        "embedding.hash_calls": calls("embedding.hash"),
        "embedding.hash_s": total("embedding.hash"),
        "embedding.embed_rows": counters["embed_rows"],
        "embedding.embed_batch_s": total("embedding.embed_batch"),
        "embedding.embed_batch_self_s": self_time("embedding.embed_batch"),
        "embedding.zero_rows": counters["zero_rows"],
        "embedding.emb_save_s": total("embedding.emb_save"),
        "embedding.emb_bytes": counters["emb_bytes"],
        "embedding.emb_load_calls": calls("embedding.emb_load"),
        "embedding.emb_load_s": total("embedding.emb_load"),
        "linear_model.train_s": total("linear_model.train"),
        "linear_model.train_self_s": self_time("linear_model.train"),
        "linear_model.steps": steps,
        "linear_model.optimizer_s": total("linear_model.optimizer"),
        "linear_model.step_us": (
            (self_time("linear_model.train") + total("linear_model.optimizer")) / steps * 1e6
            if steps else 0.0
        ),
        "linear_model.ckpt_save_s": total("linear_model.ckpt_save"),
        "linear_model.ckpt_load_s": total("linear_model.ckpt_load"),
        "linear_model.ckpt_bytes": counters["ckpt_bytes"],
        "metrics.evaluate_calls": calls("metrics.evaluate"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.report_json_s": total("metrics.report_json"),
        "imbalance.weights_s": total("imbalance.weights"),
        "config.resolve_s": total("config.resolve"),
        "cli.self_s": self_time("cli.main"),
        "cli.predict_lines": counters["predict_lines"],
    }


def per_layer(bench: Bench) -> dict[str, float]:
    """Per-layer metrics over the traced cycles in which every operation
    passed; all 0.0 when there is none (the run then reports a failure)."""
    traced = [layer_metrics(c.spans.values()) for c in bench.cycles if c.traced and not c.failed]
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for name in traced[0] if traced else ():
        values = [m[name] for m in traced]
        if units[name] in EXACT_UNITS:
            if len(set(values)) != 1:
                bench.failures.append(f"count {name} differs between traced cycles: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)

    # Over the CLI commands only: a traced export makes one call, not several.
    def cli_wall(traced: bool) -> float:
        return median_or_zero(sum(w for name, w in c.walls.items() if name != "export")
                              for c in bench.cycles if c.traced == traced and not c.failed)

    plain_wall = cli_wall(False)
    if plain_wall and traced:
        out["bench.trace_overhead_share"] = (cli_wall(True) - plain_wall) / plain_wall
    return out


def layer_shares(bench: Bench) -> dict[str, dict[str, float]]:
    """For each command, the median share of its wall time spent inside each
    span, over the passing traced cycles. Nested spans overlap, so shares of
    one command need not add up to 1."""
    shares: dict[str, dict[str, list[float]]] = {}
    for c in bench.cycles:
        if not c.traced or c.failed:
            continue
        for step, summary in c.spans.items():
            for name, (_, total_ns, _) in summary["spans"].items():
                shares.setdefault(step, {}).setdefault(name, []).append(
                    total_ns / 1e9 / c.walls[step])
    return {step: {name: round(statistics.median(v), 4) for name, v in sorted(by_name.items())}
            for step, by_name in shares.items()}


def untraced(bench: Bench) -> list[str]:
    """Spanned bindings the program lacks; their per-layer metrics read 0."""
    return sorted({name for c in bench.cycles for s in c.spans.values()
                   for name in s.get("unbound", ())})


# --- host context ---------------------------------------------------------


def steal_jiffies() -> int | None:
    """Aggregate CPU steal time from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def host_context(start: dict, gen_info: dict) -> dict:
    steal = steal_jiffies()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": start["loadavg"],
        "loadavg_end": list(os.getloadavg()),
        "steal_jiffies": None if steal is None or start["steal"] is None else steal - start["steal"],
        "python": platform.python_version(),
        "numpy": gen_info.get("numpy"),
        "blas": gen_info.get("blas"),
        "child_env": CHILD_ENV,
    }


# --- entry point ----------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object and writes the record."""
    if not Path("src/rhetrole/cli.py").is_file():
        raise BenchError("no program: src/rhetrole/cli.py is missing (run from the repo root)")
    start = {"loadavg": list(os.getloadavg()), "steal": steal_jiffies()}
    # Plain and traced runs of one seed share the directory name, so their
    # digests (checkpoint provider ids hold the EMB path) are comparable.
    d = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    calibrator = None
    try:
        if not trace:
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            calibrator = Calibrator(d)
        setup, setup_problems = measure_setup(d, calibrator)
        gen_info = generate(workload, seed, scale, d)
        steps = plan_workload(workload, d, gen_info)
        bench = Bench(steps, d, calibrator)
        bench.attempted += SETUP_REPEATS
        bench.failures += setup_problems
        t0 = time.perf_counter()
        while True:
            bench.cycle(traced=False)
            if trace:
                bench.cycle(traced=True)
            if time.perf_counter() - t0 >= seconds:
                break
        metrics = per_layer(bench) if trace else end_to_end(bench, steps, setup)
        record = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "scale": scale,
            "cycles": len(bench.cycles),
            "setup_s": setup,
            "times": [{"traced": c.traced, **c.times} for c in bench.cycles],
            "walls": [c.walls for c in bench.cycles],
            "cpu": [c.cpu for c in bench.cycles],
            "export_s": [c.export_s for c in bench.cycles],
            "digests": bench.reference,
            "failures": bench.failures,
            "metrics": metrics,
            "layer_shares": layer_shares(bench) if trace else None,
            "untraced": untraced(bench),
            "host": host_context(start, gen_info),
        }
    finally:
        if calibrator is not None:
            calibrator.close()
        shutil.rmtree(d, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{d.name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "record": record,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for smoke tests")
    args = parser.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace), args.scale)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        record = result.pop("record")
        print(f"== {workload} (seed {args.seed}, {record['cycles']} cycles)", file=sys.stderr)
        for failure in record["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(json.dumps({"host": record["host"], "digests": record["digests"]}), file=sys.stderr)
        for name in record["untraced"]:
            print(f"UNTRACED {name}: the program has no such binding; its spans read 0",
                  file=sys.stderr)
        if record["layer_shares"]:
            print(json.dumps({"layer_shares": record["layer_shares"]}), file=sys.stderr)
        for name, m in result["metrics"].items():
            print(f"{name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        print(f"failed_share {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} operations)", file=sys.stderr)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
