"""Command-line surface: ingest / stats / train / evaluate / predict /
reproduce-run.

Exit codes are a stable contract: 0 success, 1 runtime error, 2 bad input
or configuration. Every command is deterministic given its arguments and
the config seed.

``evaluate`` and ``predict`` score through ``_score``, which embeds
``_SCORE_BLOCK_ROWS`` inputs at a time, so their memory does not grow with
the number of inputs times the embedding dimension. Output is written only
once every block is scored. ``reproduce-run`` scores nothing itself: its
metrics are the validation report of the epoch that ``train`` selected.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .config import (
    FIELD_NAMES,
    PRESETS,
    RunConfig,
    config_to_json,
    load_config_file,
    resolve_config,
)
from .corpus import (
    LABELS,
    SPLIT_MODES,
    Corpus,
    class_distribution,
    length_percentile,
    load_corpus,
    save_corpus,
    split,
)
from .embedding import (
    CASINGS,
    HashedBowProvider,
    embed_batch,
    load_precomputed,
    parse_provider_spec,
    tokenize,
)
from .errors import ConfigError, DimensionMismatchError, InputError, RhetroleError
from .fileio import check_output_path, read_count, read_real, read_text, write_atomic
from .imbalance import oversample, undersample, uniform_weights, weights_for_scheme
from .linear_model import (
    SELECTION_METRICS,
    EpochStats,
    input_dim,
    load_checkpoint,
    logits,
    save_checkpoint,
    softmax,
    train,
)
from .metrics import evaluate_predictions, report_to_json

_WEIGHT_FLAG_TO_SCHEME = {
    "inverse": "inverse_frequency",
    "direct": "direct_frequency",
    "uniform": "uniform",
}
_BALANCE_FLAG_TO_METHOD = {
    "weighting": "loss_weighting",
    "under": "undersample",
    "over": "oversample",
    "none": "none",
}


def cmd_ingest(args) -> None:
    check_output_path(args.out)
    corpus = load_corpus(args.corpus)
    if args.out:
        save_corpus(corpus, args.out)
    print(f"{len(corpus.documents)} documents, {len(corpus.sentences)} sentences")


def cmd_stats(args) -> None:
    corpus = load_corpus(args.corpus)
    counts = class_distribution(corpus.sentences)
    total = len(corpus.sentences)

    # Weight columns are computed over the labels actually present, so the
    # table stays meaningful on partial fixtures; absent labels show "-".
    present = [label for label in LABELS if counts[label] > 0]
    present_counts = [counts[label] for label in present]
    inverse = dict(zip(present, weights_for_scheme("inverse_frequency", present_counts)))
    direct = dict(zip(present, weights_for_scheme("direct_frequency", present_counts)))

    print("label\tcount\tpercent\tinverse_weight\tdirect_weight")
    for label in LABELS:
        c = counts[label]
        pct = 100.0 * c / total
        inv = f"{inverse[label]:.5f}" if label in inverse else "-"
        dw = f"{direct[label]:.5f}" if label in direct else "-"
        print(f"{label}\t{c}\t{pct:.2f}%\t{inv}\t{dw}")
    print(f"total\t{total}")


def _provider_for_training(cfg: RunConfig, corpus: Corpus) -> tuple[object, RunConfig]:
    """The provider per config, and the config with a hashed provider's max_len filled in."""
    kind, arg, _, _ = parse_provider_spec(cfg.provider)
    if kind == "precomputed":
        return load_precomputed(arg), cfg
    max_len = cfg.max_len
    if max_len is None:
        max_len = length_percentile(
            corpus, lambda text: tokenize(text, cfg.casing), cfg.length_percentile_q
        )
        if max_len == 0:
            raise InputError(
                f"corpus {cfg.corpus}: its sentence length at length_percentile_q "
                f"{cfg.length_percentile_q} is 0 tokens, so every row would be empty; "
                "give the length with --max-len N (N >= 1)"
            )
    return HashedBowProvider(arg, cfg.casing, max_len), dataclasses.replace(cfg, max_len=max_len)


def _provider_for_inference(args, ckpt):
    """The featuriser the checkpoint was trained with. ``--provider`` may only
    point a precomputed checkpoint at another vectors file."""
    kind = None
    try:
        kind, arg, casing, max_len = parse_provider_spec(ckpt.provider_id)
        hashed = HashedBowProvider(arg, casing, max_len) if kind == "hashed" else None
    except ConfigError as exc:
        raise ConfigError(
            f"checkpoint {args.checkpoint}: provider id {ckpt.provider_id!r} is neither "
            "'hashed:<dim>:<casing>:<max_len>' nor 'precomputed:<path>'"
            + (f": {exc}" if kind == "hashed" else "")
        ) from None
    if args.provider is not None:
        new_kind, new_arg, _, _ = parse_provider_spec(args.provider)
        if kind != "precomputed" or new_kind != "precomputed":
            raise ConfigError(
                f"--provider {args.provider!r} cannot replace the checkpoint's provider "
                f"{ckpt.provider_id!r}; it may only name another vectors file "
                "(precomputed:<path>) for a precomputed checkpoint"
            )
        arg = new_arg
    provider = hashed if hashed is not None else load_precomputed(arg)
    if provider.dimension != input_dim(ckpt.params):
        raise DimensionMismatchError(
            f"provider dimension {provider.dimension} does not match "
            f"checkpoint dimension {input_dim(ckpt.params)}"
        )
    return provider


def _resolve_from_args(args, preset: str | None = None) -> RunConfig:
    """Every flag whose dest names a RunConfig field overrides that field;
    ``--weights`` and ``--balance`` take short names and are mapped."""
    overrides = {k: v for k, v in vars(args).items() if k in FIELD_NAMES}
    overrides["weight_scheme"] = _WEIGHT_FLAG_TO_SCHEME.get(args.weights)
    overrides["balance"] = _BALANCE_FLAG_TO_METHOD.get(args.balance)
    preset = preset or overrides.pop("preset", None)
    file_cfg = load_config_file(args.config) if args.config else None
    return resolve_config(preset=preset, file_config=file_cfg, overrides=overrides)


def _run_training(cfg: RunConfig, out_dir):
    """Shared train pipeline. Writes checkpoint.txt, config.json and
    train_log.tsv into out_dir; returns the checkpoint, with its selected epoch."""
    if not cfg.corpus:
        raise ConfigError("no corpus given (flag --corpus or config field 'corpus')")
    corpus = load_corpus(cfg.corpus)
    train_set, val_set = split(corpus, cfg)
    provider, cfg = _provider_for_training(cfg, corpus)

    if cfg.balance == "loss_weighting":
        counts = class_distribution(train_set)
        # weight_overrides apply after the scheme's weights are computed, so
        # they cannot rescue a class the inverse scheme has no count for.
        missing = [label for label in LABELS if counts[label] == 0]
        if cfg.weight_scheme == "inverse_frequency" and missing:
            corpus_counts = class_distribution(corpus.sentences)
            raise InputError(
                "inverse-frequency weights are undefined: the training split has no "
                "sentence labelled "
                + ", ".join(f"{label!r} ({corpus_counts[label]} in the whole corpus)"
                            for label in missing)
                + "; use another --seed, --weights direct, or --balance under, over "
                "or none with --weights uniform"
            )
        weights = weights_for_scheme(cfg.weight_scheme, [counts[label] for label in LABELS])
        if cfg.weight_overrides:
            for label, value in cfg.weight_overrides.items():
                weights[LABELS.index(label)] = value
    else:
        if cfg.balance == "undersample":
            train_set = undersample(train_set, cfg.seed)
        elif cfg.balance == "oversample":
            train_set = oversample(train_set, cfg.seed)
        weights = uniform_weights(len(LABELS))

    log_lines: list[str] = []

    def log_epoch(stats: EpochStats) -> None:
        line = f"{stats.epoch}\t{stats.train_loss:.6f}\t{stats.val_score:.6f}"
        log_lines.append(line)
        print(line)

    ckpt = train(train_set, val_set, provider, weights, cfg, on_epoch=log_epoch)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, out_dir / "checkpoint.txt")
    resolved_weights = {label: float(w) for label, w in zip(LABELS, weights)}
    write_atomic(out_dir / "config.json", [config_to_json(
        cfg, resolved_weights=resolved_weights, resolved_provider_id=ckpt.provider_id
    )])
    write_atomic(out_dir / "train_log.tsv", (l + "\n" for l in log_lines))
    print(f"checkpoint written to {out_dir / 'checkpoint.txt'} "
          f"(best {cfg.selection_metric} {ckpt.selected.val_score:.6f})")
    return ckpt


def cmd_train(args) -> None:
    out_dir = check_output_path(args.out, directory=True)
    _run_training(_resolve_from_args(args), out_dir)


# Rows that evaluate and predict embed and score at a time, so their float
# matrices are (_SCORE_BLOCK_ROWS, dim) however long the input is: 2 MB at
# dim 256, 6 MB at dim 768. Keep blocks large. OpenBLAS runs
# small products through another kernel, so against one product over all
# rows, blocks of 100 rows or fewer changed the last bits of the logits (by
# up to 3e-14; so did a 1-row tail), while blocks of 512 to 4096 rows gave
# the same bytes.
_SCORE_BLOCK_ROWS = 1024


def _score(ckpt, provider, items, with_prob=False):
    """Each item's best label index, or ``(index, softmax probability)`` with
    ``with_prob``, embedding and scoring ``_SCORE_BLOCK_ROWS`` items at a time."""
    for start in range(0, len(items), _SCORE_BLOCK_ROWS):
        Z = logits(ckpt.params, embed_batch(items[start:start + _SCORE_BLOCK_ROWS], provider))
        best = Z.argmax(axis=1)
        if with_prob:
            yield from zip(best.tolist(), softmax(Z)[range(len(Z)), best].tolist())
        else:
            yield from best.tolist()


def cmd_evaluate(args) -> None:
    check_output_path(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    provider = _provider_for_inference(args, ckpt)
    sentences = load_corpus(args.corpus).sentences
    label_to_idx = {name: i for i, name in enumerate(ckpt.labels)}
    try:
        gold = [label_to_idx[s.label] for s in sentences]
    except KeyError as exc:
        raise InputError(f"label {exc.args[0]!r} not in checkpoint label set") from None
    preds = list(_score(ckpt, provider, sentences))
    doc = report_to_json(evaluate_predictions(gold, preds, len(ckpt.labels)), ckpt.labels)
    if args.out:
        write_atomic(args.out, [doc])
        print(f"metrics written to {args.out}")
    else:
        print(doc, end="")


def cmd_predict(args) -> None:
    check_output_path(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    provider = _provider_for_inference(args, ckpt)
    lines = []
    for line_no, line in enumerate(read_text(args.sentences).split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        if "\t" in line:
            # The sentence is the first field of a TSV output row.
            raise InputError(f"{args.sentences}: line {line_no} contains a tab")
        lines.append(line)
    # Every row is built before the first is written, so an error in a later
    # block leaves no partial output, on stdout as in --out.
    rows = [
        f"{sentence}\t{ckpt.labels[idx]}\t{prob:.6f}\n"
        for sentence, (idx, prob) in zip(lines, _score(ckpt, provider, lines, with_prob=True))
    ]
    if args.out:
        write_atomic(args.out, rows)
        print(f"{len(rows)} predictions written to {args.out}")
    else:
        sys.stdout.writelines(rows)


def cmd_reproduce_run(args) -> None:
    run_key = args.run if args.run.startswith("run") else f"run{args.run}"
    if run_key not in PRESETS:
        raise ConfigError(f"unknown run id {args.run!r}; expected 1, 2 or 3")
    out_dir = check_output_path(f"{run_key}_out" if args.out is None else args.out, directory=True)
    ckpt = _run_training(_resolve_from_args(args, preset=run_key), out_dir)

    report = ckpt.selected.val_report  # the selected epoch's, as train scored it
    write_atomic(out_dir / "metrics.json", [report_to_json(report, ckpt.labels)])
    print("resolved config:")
    print((out_dir / "config.json").read_text(encoding="utf-8"), end="")
    print("scores on the local validation split (the original hidden test set "
          "is not distributable):")
    print(f"macro_precision\t{report.macro_precision:.6f}")
    print(f"macro_recall\t{report.macro_recall:.6f}")
    print(f"macro_f1\t{report.macro_f1:.6f}")


def _flag_type(read, form: str):
    """An argparse type that reads a value with ``read`` and, when it raises
    ValueError, names the expected form in the error."""
    def parse(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return parse


_COUNT = _flag_type(read_count, "a count in ASCII digits")
_REAL = _flag_type(read_real, "a decimal real")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_COUNT, default=None, help="RNG seed (default 42)")
    p.add_argument("--provider", default=None,
                   help="embedding provider: hashed:<dim> or precomputed:<path>")
    p.add_argument("--casing", choices=CASINGS, default=None)
    p.add_argument("--max-len", dest="max_len", type=_COUNT, default=None,
                   help="token truncation bound (default: 0.98 length percentile)")
    p.add_argument("--config", default=None, help="run-config JSON file")
    p.add_argument("--weights", choices=sorted(_WEIGHT_FLAG_TO_SCHEME), default=None,
                   help="class-weight scheme for the loss")
    p.add_argument("--balance", choices=sorted(_BALANCE_FLAG_TO_METHOD), default=None,
                   help="imbalance strategy")
    p.add_argument("--epochs", type=_COUNT, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=_COUNT, default=None)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=_REAL, default=None,
                   help="learning rate")
    p.add_argument("--weight-decay", dest="weight_decay", type=_REAL, default=None)
    p.add_argument("--train-fraction", dest="train_fraction", type=_REAL, default=None)
    p.add_argument("--split-mode", dest="split_mode", choices=SPLIT_MODES, default=None)
    p.add_argument("--selection-metric", dest="selection_metric", choices=SELECTION_METRICS,
                   default=None)


def _add_inference_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--provider", default=None,
                   help="precomputed:<path>: another vectors file for a precomputed checkpoint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhetrole",
        description="Rhetorical-role sentence classification for legal judgments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus TSV and print counts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None, help="write the normalized corpus here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="label distribution and weight-scheme table")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a classifier head")
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    _add_training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against a labeled corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None, help="metrics JSON path (default: stdout)")
    _add_inference_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label raw sentences (one per line)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentences", required=True, help="plain-text file, one sentence per line")
    p.add_argument("--out", default=None, help="TSV output path (default: stdout)")
    _add_inference_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("reproduce-run", help="run one of the three preset configurations")
    p.add_argument("run", help="run id: 1, 2 or 3")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None, help="output directory (default: run<k>_out)")
    _add_training_flags(p)
    p.set_defaults(func=cmd_reproduce_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return 0
    except BrokenPipeError as exc:  # what stdout still holds goes nowhere, not to an error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, error = 1, exc
    except (InputError, OSError) as exc:
        code, error = 2, exc
    except RhetroleError as exc:
        code, error = 1, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
