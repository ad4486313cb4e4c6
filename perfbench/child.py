"""Child-process entry points of the benchmark.

    python perfbench/child.py export KEYS VECTORS OUT [--spans PATH]
    python perfbench/child.py cli --spans PATH -- <rhetrole arguments>
    python perfbench/child.py calibrate RING

``export`` writes an EMB v1 file with the program's public
``save_embeddings`` and prints the perf_counter interval of each call as
JSON (the clock is system-wide, so the parent can place the calls in time). ``cli`` runs the
real CLI in this process with the module-level bindings it resolves wrapped
in spans, and writes a summary of the spans to PATH. Spans are recorded from
here, around the calls into each layer; the program itself is unchanged.
``calibrate`` runs a fixed reference loop until it is killed and stamps the
end of each unit into the RING file (see ``run.Calibrator``).

Run with ``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NoReturn

# (module, attribute, span name). A function bound under several names is
# wrapped once and every binding gets the same wrapper. Bindings a version
# of the program lacks are listed as "unbound" in the summary, and the
# benchmark reports them, so that a gap in tracing does not pass for a cut.
SPANNED = (
    ("cli", "load_corpus", "corpus.load"),
    ("cli", "split", "corpus.split"),
    ("cli", "length_percentile", "corpus.length_percentile"),
    ("embedding", "tokenize", "embedding.tokenize"),
    ("cli", "tokenize", "embedding.tokenize"),
    ("embedding", "encode_hashed_bow", "embedding.hash"),
    ("embedding", "embed_batch", "embedding.embed_batch"),
    ("linear_model", "embed_batch", "embedding.embed_batch"),
    ("cli", "embed_batch", "embedding.embed_batch"),
    ("embedding", "load_precomputed", "embedding.emb_load"),
    ("cli", "load_precomputed", "embedding.emb_load"),
    ("embedding", "save_embeddings", "embedding.emb_save"),
    ("cli", "train", "linear_model.train"),
    ("linear_model", "optimizer_step", "linear_model.optimizer"),
    ("cli", "save_checkpoint", "linear_model.ckpt_save"),
    ("cli", "load_checkpoint", "linear_model.ckpt_load"),
    ("linear_model", "evaluate_predictions", "metrics.evaluate"),
    ("cli", "evaluate_predictions", "metrics.evaluate"),
    ("cli", "report_to_json", "metrics.report_json"),
    ("cli", "weights_for_scheme", "imbalance.weights"),
    ("cli", "uniform_weights", "imbalance.weights"),
    ("cli", "resolve_config", "config.resolve"),
)
ROOT_SPAN = "cli.main"


class Tracer:
    """In-memory spans (name, start, end, parent) plus the raw material for
    the data counters, which are derived only after the traced call ends so
    that no counting runs inside a span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.token_lists: list[list[str]] = []
        self.matrices: list = []
        self.written: dict[str, list[str]] = defaultdict(list)
        self.softmax_calls = 0
        self.unbound: list[str] = []

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0)
            self._stack.append(i)
            self.starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        after = {
            "embedding.hash": lambda args, _: self.token_lists.append(args[0]),
            "embedding.embed_batch": lambda _, result: self.matrices.append(result),
            "embedding.emb_save": lambda args, _: self.written["emb"].append(args[2]),
            "linear_model.ckpt_save": lambda args, _: self.written["ckpt"].append(args[1]),
        }
        wrapped = {}
        for module_name, attr, name in SPANNED:
            module = importlib.import_module(f"rhetrole.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.unbound.append(f"rhetrole.{module_name}.{attr}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.span(name, fn, after.get(name))
            setattr(module, attr, wrapped[id(fn)])
        cli = importlib.import_module("rhetrole.cli")
        softmax = getattr(cli, "softmax", None)
        if softmax is None:
            self.unbound.append("rhetrole.cli.softmax")
        else:
            # Counted, not spanned: the per-line predict loop is CLI self time.
            def counted(*args, **kwargs):
                self.softmax_calls += 1
                return softmax(*args, **kwargs)

            cli.softmax = counted

    def summary(self) -> dict:
        """Per-name calls, total and self nanoseconds, plus data counters."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        spans: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = spans.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child_ns[i]
        unique: set[str] = set()
        for tokens in self.token_lists:
            unique.update(tokens)
        return {
            "spans": spans,
            "unbound": self.unbound,
            "counters": {
                "tokens": sum(len(t) for t in self.token_lists),
                "unique_tokens": len(unique),
                "embed_rows": sum(len(m) for m in self.matrices),
                "zero_rows": sum(int((~m.any(axis=1)).sum()) for m in self.matrices),
                "emb_bytes": sum(os.path.getsize(p) for p in self.written["emb"]),
                "ckpt_bytes": sum(os.path.getsize(p) for p in self.written["ckpt"]),
                "predict_lines": self.softmax_calls,
            },
        }


def _export(args, tracer: Tracer | None) -> int:
    """Call save_embeddings over the workload's vectors and print the
    perf_counter interval of each call. Small exports are repeated until
    1 s has been spent."""
    import numpy as np

    import rhetrole.embedding

    keys = Path(args.keys).read_text(encoding="utf-8").split("\n")[:-1]
    vectors = np.load(args.vectors)
    entries = list(zip(keys, vectors))
    calls: list[tuple[float, float]] = []
    while not calls or (sum(b - a for a, b in calls) < 1.0 and len(calls) < 25):
        t0 = time.perf_counter()
        rhetrole.embedding.save_embeddings(entries, vectors.shape[1], args.out)
        calls.append((t0, time.perf_counter()))
        if tracer is not None:
            break
    print(json.dumps({"calls": calls}))
    return 0


RING_SLOTS = 1 << 20


def _calibrate(ring: str) -> NoReturn:
    """Repeat a fixed unit of work shaped like the program's: small numpy
    products and a softmax, whitespace splitting and dict lookups over a
    50k-word table, and float formatting into a text buffer that is encoded
    every 64 units, as an EMB or checkpoint write does. Slot 0 of the ring
    counts units; slot 1 + k % RING_SLOTS holds the perf_counter at the end
    of unit k. Runs until killed, or until its parent is gone."""
    import mmap

    import numpy as np

    rng = np.random.default_rng(0)
    W, X = rng.normal(size=(7, 256)), rng.normal(size=(8, 256))
    words = [f"w{i:x}." for i in rng.permutation(50_000).tolist()]
    table = {w.strip("."): i for i, w in enumerate(words)}
    lines: list[str] = []
    parent = os.getppid()
    with open(ring, "r+b") as f:
        stamps = memoryview(mmap.mmap(f.fileno(), 8 * (RING_SLOTS + 1))).cast("d")
    k = 0
    while True:
        Z = X @ W.T
        P = np.exp(Z - Z.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        W -= 1e-12 * (P.T @ X)
        i = (k * 7919) % (len(words) - 64)
        h = 0
        for w in " ".join(words[i:i + 64]).split():
            h ^= table[w.strip(".")]
        lines.append(" ".join(repr(float(v)) for v in X[k % 8, :32]))
        if len(lines) == 64:
            "".join(line + "\n" for line in lines).encode("utf-8")
            lines.clear()
        stamps[1 + k % RING_SLOTS] = time.perf_counter()
        k += 1
        stamps[0] = k
        if k % 4096 == 0 and os.getppid() != parent:  # the benchmark died
            sys.exit(0)


def _cli(argv: list[str]) -> int:
    import rhetrole.cli

    try:
        return rhetrole.cli.main(argv)
    except SystemExit as exc:  # argparse errors and --help
        return exc.code if isinstance(exc.code, int) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", default=None, help="write the span summary JSON here")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("export")
    p.add_argument("keys")
    p.add_argument("vectors")
    p.add_argument("out")
    p = sub.add_parser("cli")
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p = sub.add_parser("calibrate")
    p.add_argument("ring")
    args = parser.parse_args(argv)
    if args.mode == "calibrate":
        return _calibrate(args.ring)

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    if args.mode == "export":
        code = _export(args, tracer)
    else:
        rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
        code = tracer.span(ROOT_SPAN, _cli)(rest) if tracer else _cli(rest)
    if tracer is not None:
        Path(args.spans).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
