"""Check that this working tree writes the same bytes as a base commit.

    python3 tools/samebytes.py BASE

Run it before committing, with the parent commit as BASE. It builds its
inputs once, then runs every row of ``ROWS`` through the CLI of each tree,
this working tree's ``src`` and ``git archive BASE``'s, each tree in a fresh
directory that holds a copy of the inputs. It compares every file the two
directories then hold, with each row's stdout, stderr and exit code, prints
each path that differs and exits 1 if there is one. Both trees run on the
same host with one BLAS thread and ``PYTHONHASHSEED=0``, the children's
settings of ``perfbench/run.py``, so a difference comes from the code;
checkpoint bytes depend on the BLAS kernel, so only two trees on one host
compare.

The rows train hashed and precomputed alike, with either split mode. The
toy corpus's words are alphanumeric, so the hashed runs also train on a
benchmark task corpus (``perfbench/gen.py task-hashed 7 0.1``), whose tokens
carry edge punctuation (commas, curly quotes, dashes, section signs) for the
tokenizer to strip, and on the toy corpus with tokens appended to every
sentence: edges the strip leaves ($ + ° from its table's blocks, ₹ from
outside them), a fraction slash inside a token, and punctuation outside
those blocks (「 」) that only the category loop strips. No benchmark corpus
has a token over 9 bytes, so one more toy copy appends tokens of 40, 300
(non-ASCII) and 1,000 bytes, which the hash runs to their last byte.
Undersampled and oversampled training on the task corpus checks the
resampling draw order. Three rows train across the boundaries of the
blocks of batches that ``train`` gathers at a time: the toy corpus with
batches of 7, which do not divide a block, and at ``hashed:33``, whose rows
are no multiple of 64 bytes, and the task corpus at ``hashed:4096``, where
one batch fills a block. One more toy row trains on a tenth of the corpus
and selects by val_loss, so its 630 validation rows span two of the
512-row blocks that ``train`` scores at a time, the second overlapping the
first. The three presets through ``reproduce-run``, one
selecting by val_loss and one split by document, check that the
metrics.json of the epoch training selected keeps its bytes. ``evaluate``
and ``predict`` score with a hashed and a precomputed checkpoint, which runs
the logits, softmax and metrics code, and ``stats`` runs the weight schemes.
One ``predict`` scores 1,025 toy lines, more than two 512-row blocks, so
its one-row tail joins the block before it.
One more ``evaluate`` points the precomputed checkpoint at a copy of its EMB
file with ``--provider``, so it parses that copy cold and writes its cache.
Two rows load no numpy: ``ingest`` writes the task corpus back, and an
``evaluate`` whose ``--out`` directory is missing exits 2 before it reads
any input. Eight rows exit 2 on a bad input file: ``train`` on an EMB file
with a non-numeric value, with a config file whose ``batch_size`` is 0 and
with one that is not JSON, ``evaluate`` with a checkpoint cut after its
label line, with one whose provider id ``hashed:32`` carries no casing or
max_len and with one of dimension 0, and ``stats`` on a corpus with an
unknown label and on one that holds only a ``#doc`` line. Both trees run
at one path, so each refusal's message, which names the file or directory,
compares too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Row name -> CLI arguments, run in the order given from the tree's directory.
ROWS = {
    "hashed": "train --corpus toy.tsv --out hashed --lr 1e-2 --selection-metric val_loss"
              " --weight-decay 0",
    "docs": "train --corpus toy.tsv --out docs --lr 1e-2 --split-mode document_level",
    "emb": "train --corpus toy.tsv --out emb --lr 1e-2 --provider precomputed:toy.emb",
    "emb-evaluate": "evaluate --checkpoint emb/checkpoint.txt --corpus toy.tsv",
    "emb-predict": "predict --checkpoint emb/checkpoint.txt --sentences toy_sentences.txt",
    "emb-evaluate-provider": "evaluate --checkpoint emb/checkpoint.txt --corpus toy.tsv"
                             " --provider precomputed:toy_copy.emb",
    "sym": "train --corpus toy_sym.tsv --out sym --lr 1e-2",
    "long": "train --corpus toy_long.tsv --out long --lr 1e-2",
    "task-cased": "train --corpus task/corpus.tsv --out task-cased --lr 1e-2 --casing cased",
    "task-uncased": "train --corpus task/corpus.tsv --out task-uncased --lr 1e-2"
                    " --casing uncased",
    "task-under": "train --corpus task/corpus.tsv --out task-under --lr 1e-2 --balance under"
                  " --weights uniform",
    "task-over": "train --corpus task/corpus.tsv --out task-over --lr 1e-2 --balance over"
                 " --weights uniform",
    "hashed-b7": "train --corpus toy.tsv --out hashed-b7 --lr 1e-2 --batch-size 7",
    "val-630": "train --corpus toy.tsv --out val-630 --lr 1e-2 --train-fraction 0.1"
               " --selection-metric val_loss",
    "hashed-33": "train --corpus toy.tsv --out hashed-33 --lr 1e-2 --provider hashed:33",
    "task-4096": "train --corpus task/corpus.tsv --out task-4096 --lr 1e-2"
                 " --provider hashed:4096",
    "run1": "reproduce-run 1 --corpus toy.tsv --out run1",
    "task-run1-val-loss": "reproduce-run 1 --corpus task/corpus.tsv --out task-run1-val-loss"
                          " --selection-metric val_loss",
    "task-run2": "reproduce-run 2 --corpus task/corpus.tsv --out task-run2",
    "task-run3-docs": "reproduce-run 3 --corpus task/corpus.tsv --out task-run3-docs"
                      " --split-mode document_level",
    "task-evaluate": "evaluate --checkpoint task-cased/checkpoint.txt --corpus task/corpus.tsv"
                     " --out task-metrics.json",
    "task-predict": "predict --checkpoint task-cased/checkpoint.txt"
                    " --sentences task_sentences.txt --out task-predict.tsv",
    "predict-1025": "predict --checkpoint hashed/checkpoint.txt --sentences toy_1025.txt"
                    " --out predict-1025.tsv",
    "task-stats": "stats --corpus task/corpus.tsv",
    "task-ingest": "ingest --corpus task/corpus.tsv --out task-ingest.tsv",
    "evaluate-out-refused": "evaluate --checkpoint task-cased/checkpoint.txt"
                            " --corpus task/corpus.tsv --out missing/m.json",
    "emb-refused": "train --corpus toy.tsv --out emb-refused --provider precomputed:bad.emb",
    "checkpoint-refused": "evaluate --checkpoint bad_checkpoint.txt --corpus toy.tsv",
    "config-refused": "train --corpus toy.tsv --config bad_config.json --out config-refused",
    "ckpt-id-refused": "evaluate --checkpoint hashed_id_checkpoint.txt --corpus toy.tsv",
    "corpus-refused": "stats --corpus bad.tsv",
    "config-json-refused": "train --corpus toy.tsv --config not_json_config.json"
                           " --out config-json-refused",
    "corpus-empty-refused": "stats --corpus empty.tsv",
    "ckpt-dim0-refused": "evaluate --checkpoint dim0_checkpoint.txt --corpus toy.tsv",
}
# Appended to every toy sentence for toy_sym.tsv and toy_long.tsv.
SYMBOLS = " $5 +91 °C x⁄y ₹9 「判決」"
LONG_TOKENS = " " + "s.302" * 8 + " " + "é" * 150 + " " + "ab" * 500


def build_inputs(out: Path) -> None:
    """Write the corpora, sentence files, EMB files and bad files that ``ROWS`` read."""
    from rhetrole.corpus import LABELS, Corpus, load_corpus, save_corpus
    from rhetrole.embedding import HashedBowProvider, save_embeddings
    from rhetrole.linear_model import LinearCheckpoint, save_checkpoint
    from rhetrole.toydata import toy_corpus

    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "task-hashed", "7",
                    "0.1", str(out / "task")], check=True, stdout=subprocess.DEVNULL)
    toy = toy_corpus()
    save_corpus(toy, out / "toy.tsv")
    for name, suffix in (("toy_sym.tsv", SYMBOLS), ("toy_long.tsv", LONG_TOKENS)):
        texts = [text + suffix for text in toy.texts]
        save_corpus(Corpus(texts, toy.labels, toy.documents, toy.starts), out / name)
    texts = list(dict.fromkeys(toy.texts))
    save_embeddings(zip(texts, HashedBowProvider(32, "cased", 50).embed(texts)), 32,
                    out / "toy.emb")
    shutil.copyfile(out / "toy.emb", out / "toy_copy.emb")
    (out / "toy_sentences.txt").write_text("".join(t + "\n" for t in texts), encoding="utf-8")
    (out / "toy_1025.txt").write_text(
        "".join(toy.texts[i % len(toy.texts)] + "\n" for i in range(1025)), encoding="utf-8")
    task = load_corpus(out / "task" / "corpus.tsv")
    (out / "task_sentences.txt").write_text(
        "".join(text + "\n" for text in task.texts), encoding="utf-8")
    (out / "bad.emb").write_text('EMB v1 2 2\n"a" 1 2\n"b" 3 x\n', encoding="utf-8")
    (out / "bad_checkpoint.txt").write_text(
        "CKPT v1 7 32 precomputed:toy.emb\n" + "\t".join(LABELS) + "\n", encoding="utf-8")
    (out / "bad_config.json").write_text('{"batch_size": 0}\n', encoding="utf-8")
    save_checkpoint(LinearCheckpoint(np.zeros((len(LABELS), 33)), LABELS, "hashed:32"),
                    out / "hashed_id_checkpoint.txt")
    (out / "bad.tsv").write_text("#doc\tD\nThe facts.\tFacts\nThe verdict.\tNope\n",
                                 encoding="utf-8")
    (out / "not_json_config.json").write_text('{"batch_size": 0\n', encoding="utf-8")
    (out / "empty.tsv").write_text("#doc\tD\n", encoding="utf-8")
    (out / "dim0_checkpoint.txt").write_text("CKPT v1 1 0 hashed:0\nFacts\n\n0\n",
                                             encoding="utf-8")


def run_rows(env: dict[str, str], inputs: Path, out: Path) -> None:
    """Run every row under ``env``, whose PYTHONPATH is the tree's ``src``,
    in a copy of ``inputs`` at ``out``, leaving each row's stdout, stderr and
    exit code beside it."""
    where = subprocess.run([sys.executable, "-c", "import rhetrole; print(rhetrole.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not where.startswith(env["PYTHONPATH"] + os.sep):
        raise SystemExit(f"samebytes: rhetrole imports from {where.strip()},"
                         f" not from {env['PYTHONPATH']}")
    shutil.copytree(inputs, out)
    for name, args in ROWS.items():
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from rhetrole.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *args.split()],
            cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(done.stdout)
        (out / f"{name}.stderr").write_bytes(done.stderr)
        (out / f"{name}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")


def differences(a: Path, b: Path) -> list[str]:
    """The paths, relative to the two directories, of the files that only one
    of them holds or that differ in their bytes."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    held_a, held_b = files(a), files(b)
    return sorted(path for path in held_a | held_b
                  if path not in held_a or path not in held_b
                  or (a / path).read_bytes() != (b / path).read_bytes())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/samebytes.py BASE", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import CHILD_ENV

    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 stdout=subprocess.PIPE)
        if archive.returncode != 0:
            return 2
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive.stdout, check=True)
        build_inputs(tmp / "inputs")
        for tree, src in (("head", ROOT / "src"), ("base", tmp / "base" / "src")):
            run_rows({**os.environ, **CHILD_ENV, "PYTHONPATH": str(src)}, tmp / "inputs",
                     tmp / "run")
            (tmp / "run").rename(tmp / f"{tree}-run")
        found = differences(tmp / "head-run", tmp / "base-run")
    for path in found:
        print(path)
    print(f"samebytes: {len(ROWS)} rows against {argv[0]}, {len(found)} differences",
          file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
