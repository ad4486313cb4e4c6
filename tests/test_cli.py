from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rhetrole import cli
from rhetrole.cli import main
from rhetrole.config import PRESETS, RunConfig, config_to_json, load_config_file, resolve_config
from rhetrole.corpus import LABELS, Corpus, load_corpus, save_corpus, split
from rhetrole.embedding import (
    HashedBowProvider,
    PrecomputedProvider,
    parse_provider_spec,
    save_embeddings,
)
from rhetrole.errors import InputError
from rhetrole.linear_model import (
    SCORE_BLOCK_ROWS,
    SELECTION_METRICS,
    LinearCheckpoint,
    input_dim,
    load_checkpoint,
    logits,
    save_checkpoint,
)
from rhetrole.metrics import evaluate_predictions, report_to_json

from .conftest import fused, select
from .test_pinned_bytes import _PUNCT_FORMS, zipf_corpus


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def toy_emb(toy, tmp_path_factory):
    """The toy sentences' hashed:32 vectors as an EMB file."""
    from rhetrole.embedding import HashedBowProvider

    enc = HashedBowProvider(32, "cased", 50)
    path = tmp_path_factory.mktemp("emb") / "toy.emb"
    save_embeddings({text: enc.embed([text])[0] for text in toy.texts}.items(), 32, path)
    return path


class TestIngest:
    def test_counts_and_normalized_output(self, two_doc_tsv, tmp_path, capsys):
        out = tmp_path / "normalized.tsv"
        rc, stdout, _ = run_cli(capsys, "ingest", "--corpus", str(two_doc_tsv), "--out", str(out))
        assert rc == 0
        assert "2 documents, 6 sentences" in stdout
        assert out.read_text().count("#doc\t") == 2

    @pytest.mark.parametrize("name", ["toy", "zipf", "zipf-punct"])
    def test_out_has_the_bytes_read(self, name, toy, tmp_path, capsys):
        corpus = {"toy": toy, "zipf": zipf_corpus(),
                  "zipf-punct": zipf_corpus(forms=_PUNCT_FORMS)}[name]
        path, out = tmp_path / "corpus.tsv", tmp_path / "out.tsv"
        save_corpus(corpus, path)
        assert run_cli(capsys, "ingest", "--corpus", str(path), "--out", str(out))[0] == 0
        assert out.read_bytes() == path.read_bytes()

    def test_bad_label_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#doc\tD\nSome text\tVerdict\n", encoding="utf-8")
        rc, _, stderr = run_cli(capsys, "ingest", "--corpus", str(bad))
        assert rc == 2
        assert "line 2" in stderr
        assert "Verdict" in stderr

    def test_empty_file_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        rc, _, stderr = run_cli(capsys, "ingest", "--corpus", str(empty))
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc, _, _ = run_cli(capsys, "ingest", "--corpus", str(tmp_path / "nope.tsv"))
        assert rc == 2


@pytest.mark.parametrize(
    "command", ["ingest", "stats", "train", "evaluate", "predict", "reproduce-run"])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: rhetrole {command} ")


def test_every_option_has_help_and_a_run_config_field_says_its_default():
    # --help is the flag reference; a default written out by hand would drift.
    # Only train and reproduce-run resolve a RunConfig from their flags.
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    resolving = ("rhetrole train", "rhetrole reproduce-run")

    def options(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from options(sub)
            else:
                yield parser.prog, action

    missing = [(prog, action.dest) for prog, action in options(cli.build_parser())
               if not action.help
               or prog in resolving and defaults.get(action.dest) is not None
               and str(defaults[action.dest]) not in action.help]
    assert missing == []


class TestStats:
    def test_balanced_fixture_all_weights_one(self, toy_tsv, capsys):
        rc, stdout, _ = run_cli(capsys, "stats", "--corpus", str(toy_tsv))
        assert rc == 0
        lines = [l for l in stdout.splitlines() if l and not l.startswith(("label", "total"))]
        assert len(lines) == 7
        for line in lines:
            fields = line.split("\t")
            assert fields[3] == "1.00000"
            assert fields[4] == "1.00000"
        assert stdout.splitlines()[-1] == "total\t700"

    def test_task_scale_distribution_weights(self, tmp_path, capsys):
        from .conftest import TASK_COUNTS

        lines = ["#doc\tD"]
        i = 0
        for label, n in TASK_COUNTS.items():
            for _ in range(n):
                lines.append(f"sentence {i}\t{label}")
                i += 1
        tsv = tmp_path / "task_scale.tsv"
        tsv.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        rc, stdout, _ = run_cli(capsys, "stats", "--corpus", str(tsv))
        assert rc == 0
        rows = {l.split("\t")[0]: l.split("\t") for l in stdout.splitlines()[1:-1]}
        assert rows["Ratio of the decision"][1] == "4211"
        assert float(rows["Ratio of the decision"][3]) == pytest.approx(0.38284, abs=1e-5)
        assert float(rows["Ruling by Present Court"][3]) == pytest.approx(4.72769, abs=1e-5)
        assert stdout.splitlines()[-1] == "total\t11285"

    def test_partial_fixture_weights_over_present_labels(self, tmp_path, capsys):
        tsv = tmp_path / "mini.tsv"
        tsv.write_text(
            "#doc\tD\n"
            "a\tFacts\n"
            "b\tArgument\nc\tArgument\nd\tArgument\n",
            encoding="utf-8",
        )
        rc, stdout, _ = run_cli(capsys, "stats", "--corpus", str(tsv))
        assert rc == 0
        rows = {l.split("\t")[0]: l.split("\t") for l in stdout.splitlines()[1:-1]}
        assert rows["Facts"][3] == "2.00000"
        assert float(rows["Argument"][3]) == pytest.approx(0.6667, abs=1e-4)
        assert rows["Statute"][3] == "-"


class TestTrain:
    def test_outputs_and_epoch_lines(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "run"
        rc, stdout, _ = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(out),
            "--preset", "run1", "--lr", "1e-2",
        )
        assert rc == 0
        assert (out / "checkpoint.txt").exists()
        assert (out / "config.json").exists()
        log_lines = (out / "train_log.tsv").read_text().strip().split("\n")
        assert len(log_lines) == 4
        for i, line in enumerate(log_lines, start=1):
            epoch, train_loss, val_metric = line.split("\t")
            assert int(epoch) == i
            float(train_loss), float(val_metric)

    def test_rerun_is_byte_identical(self, toy_tsv, tmp_path, capsys):
        args = ["--corpus", str(toy_tsv), "--lr", "1e-2", "--epochs", "2"]
        rc1, _, _ = run_cli(capsys, "train", *args, "--out", str(tmp_path / "a"))
        rc2, _, _ = run_cli(capsys, "train", *args, "--out", str(tmp_path / "b"))
        assert rc1 == rc2 == 0
        assert (tmp_path / "a/checkpoint.txt").read_bytes() == (
            tmp_path / "b/checkpoint.txt"
        ).read_bytes()

    def test_resolved_config_closure(self, toy_tsv, tmp_path, capsys):
        first = tmp_path / "first"
        rc, _, _ = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(first),
            "--preset", "run3", "--lr", "5e-3", "--epochs", "3",
        )
        assert rc == 0
        second = tmp_path / "second"
        rc, _, _ = run_cli(
            capsys, "train", "--config", str(first / "config.json"), "--out", str(second)
        )
        assert rc == 0
        for name in ("checkpoint.txt", "config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize(
        "field,doc",
        [("provider", {"provider": 5}), ("corpus", {"corpus": 5}),
         ("preset", {"preset": ["run1"]}), ("run_id", {"run_id": 5})],
        ids=["provider", "corpus", "preset", "run_id"],
    )
    def test_non_string_in_string_field_exit_2(self, field, doc, toy_tsv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        corpus_flag = [] if field == "corpus" else ["--corpus", str(toy_tsv)]
        rc, _, stderr = run_cli(
            capsys, "train", *corpus_flag, "--config", str(cfg_path), "--out", str(tmp_path / "o")
        )
        assert rc == 2
        assert field in stderr
        assert not (tmp_path / "o").exists()

    # Each rule on a config field: the field, a value it refuses, and the
    # message.
    RULES = [
        ("batch_size", 0, "batch_size must be >= 1"),
        ("epochs", 0, "epochs must be >= 1"),
        ("learning_rate", 0, "learning_rate must be > 0"),
        ("weight_decay", -0.5, "weight_decay must be >= 0"),
        ("beta1", 1.0, "beta1 and beta2 must lie in (0, 1)"),
        ("beta2", 0.0, "beta1 and beta2 must lie in (0, 1)"),
        ("epsilon", 0.0, "epsilon must be > 0"),
        ("seed", -1, "seed must be >= 0"),
        ("selection_metric", "accuracy", "selection_metric must be one of "
         "('macro_f1', 'val_loss')"),
        ("train_fraction", 1.0, "train_fraction must lie strictly between 0 and 1"),
        ("split_mode", "by_page", "split mode must be one of "
         "('sentence_shuffled', 'document_level'), got 'by_page'"),
        ("casing", "lower", "casing must be one of ('cased', 'uncased'), got 'lower'"),
        ("weight_scheme", "x", "weight_scheme must be one of "
         "('inverse_frequency', 'direct_frequency', 'uniform'), got 'x'"),
        ("balance", "x", "balance must be one of "
         "('loss_weighting', 'undersample', 'oversample', 'none'), got 'x'"),
        ("length_percentile_q", 0, "length_percentile_q must lie in (0, 1]"),
        ("length_percentile_q", 1.5, "length_percentile_q must lie in (0, 1]"),
        ("max_len", 0, "max_len must be >= 1 when given"),
        ("weight_overrides", {"Fact": 1.0}, "weight override for unknown label 'Fact'"),
    ]

    @pytest.mark.parametrize("field,value,message", RULES, ids=[f for f, _, _ in RULES])
    def test_training_and_split_rule_exit_2(self, field, value, message, toy_tsv, tmp_path,
                                            capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        rc, _, stderr = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--config", str(cfg_path),
            "--out", str(tmp_path / "o"),
        )
        assert (rc, stderr) == (2, f"error: {cfg_path}: {message}\n")
        assert not (tmp_path / "o").exists()

    # Where a refusal comes from, as config file text (None: no file) and
    # flags, and whether it names the file: only when the flags alone meet
    # no such refusal. The rules above cover a file alone.
    SOURCES = {
        "flag": (None, ["--batch-size", "0"], "batch_size must be >= 1", False),
        "flag_over_file": ({"batch_size": 0}, ["--batch-size", "0"],
                           "batch_size must be >= 1", False),
        "flag_beside_file": ({"epochs": 2}, ["--batch-size", "0"],
                             "batch_size must be >= 1", False),
        "file_before_flag": ({"batch_size": 0}, ["--epochs", "0"],
                             "batch_size must be >= 1", True),
        "file_and_flag": ({"balance": "undersample"}, [],
                          "balance=undersample must keep weight_scheme=uniform and no "
                          "weight_overrides (exactly one balancing method)", True),
        "unknown_field": ({"learning_rat": 1}, [], "unknown config fields: ['learning_rat']",
                          True),
        "unknown_preset": ({"preset": "run9"}, [],
                           "unknown preset 'run9'; expected one of ['run1', 'run2', 'run3']",
                           True),
    }

    @pytest.mark.parametrize("case", SOURCES)
    def test_a_config_file_refusal_names_the_file(self, case, toy_tsv, tmp_path, capsys):
        doc, flags, message, named = self.SOURCES[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_flag = []
        if doc is not None:
            cfg_path.write_text(json.dumps(doc))
            cfg_flag = ["--config", str(cfg_path)]
        rc, stdout, stderr = run_cli(capsys, "train", "--corpus", str(toy_tsv), *cfg_flag,
                                     *flags, "--out", str(tmp_path / "o"))
        prefix = f"{cfg_path}: " if named else ""
        assert (rc, stdout, stderr) == (2, "", f"error: {prefix}{message}\n")
        assert not (tmp_path / "o").exists()

    # A file train refuses before it trains: the flag that names it, its
    # text, and the message, in which {path} stands for the file's path.
    BAD_FILES = {
        "config_not_json": ("--config", "x", "{path}: not valid JSON: "
                            "Expecting value: line 1 column 1 (char 0)"),
        "config_json_list": ("--config", "[]", "{path}: must hold a JSON object"),
        "emb_empty": ("--provider", "", "{path}: empty embedding file"),
        "emb_dim_0": ("--provider", "EMB v1 3 0\n", "{path}: dim must be >= 1"),
    }

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_bad_file_exit_2(self, case, toy_tsv, tmp_path, capsys):
        flag, text, message = self.BAD_FILES[case]
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        value = str(path) if flag == "--config" else f"precomputed:{path}"
        rc, stdout, stderr = run_cli(capsys, "train", "--corpus", str(toy_tsv), flag, value,
                                     "--out", str(tmp_path / "o"))
        assert (rc, stdout, stderr) == (2, "", f"error: {message.format(path=path)}\n")
        assert not (tmp_path / "o").exists()

    def test_no_corpus_from_flag_or_config_exit_2(self, tmp_path, capsys):
        rc, stdout, stderr = run_cli(capsys, "train", "--out", str(tmp_path / "o"))
        assert (rc, stdout) == (2, "")
        assert stderr == "error: no corpus given (flag --corpus or config field 'corpus')\n"
        assert not (tmp_path / "o").exists()

    def test_flag_overrides_config_file(self, toy_tsv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 2, "corpus": str(toy_tsv)}))
        out = tmp_path / "o"
        rc, _, _ = run_cli(
            capsys, "train", "--config", str(cfg_path), "--out", str(out),
            "--epochs", "3", "--lr", "1e-2",
        )
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["epochs"] == 3
        assert len((out / "train_log.tsv").read_text().strip().split("\n")) == 3

    def test_invalid_balance_combination_rejected(self, toy_tsv, tmp_path, capsys):
        rc, _, stderr = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(tmp_path / "x"),
            "--balance", "under", "--weights", "inverse",
        )
        assert rc == 2
        assert "balance" in stderr

    def test_resampling_modes_run(self, toy_tsv, tmp_path, capsys):
        for mode in ("under", "over", "none"):
            rc, _, _ = run_cli(
                capsys, "train", "--corpus", str(toy_tsv), "--out", str(tmp_path / mode),
                "--balance", mode, "--weights", "uniform", "--epochs", "1", "--lr", "1e-2",
            )
            assert rc == 0

    def test_train_with_precomputed_provider(self, toy_emb, toy_tsv, tmp_path, capsys):
        out = tmp_path / "pre"
        rc, _, _ = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(out),
            "--provider", f"precomputed:{toy_emb}", "--lr", "1e-2", "--epochs", "2",
        )
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["resolved_provider_id"] == f"precomputed:{toy_emb}"
        rc, stdout, _ = run_cli(
            capsys, "evaluate", "--checkpoint", str(out / "checkpoint.txt"),
            "--corpus", str(toy_tsv),
        )
        assert rc == 0
        assert json.loads(stdout)["macro"]["f1"] > 0.5

    @pytest.mark.parametrize("name", ["a\nb.emb", "ab.emb\r"], ids=["lf", "final_cr"])
    def test_provider_id_header_line_1_cannot_hold_exit_2(
        self, name, toy_emb, toy_tsv, tmp_path, capsys
    ):
        emb = tmp_path / name
        emb.write_bytes(toy_emb.read_bytes())
        out = tmp_path / "out"
        rc, stdout, stderr = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(out),
            "--provider", f"precomputed:{emb}", "--lr", "1e-2", "--epochs", "2",
        )
        assert rc == 2
        assert stderr == (
            f"error: provider id {f'precomputed:{emb}'!r}: "
            "header line 1 cannot hold an LF or a final CR\n"
        )
        # Refused before the first epoch: no epoch line, no --out directory.
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags,message", [
        # One batch holds all 560 training rows, so no batch loss sees the
        # overflowed parameters; only the validation logits do.
        (["--batch-size", "700", "--lr", "1e300", "--epochs", "1"],
         "non-finite validation logits in epoch 1"),
        (["--batch-size", "700", "--lr", "1e300", "--epochs", "1",
          "--selection-metric", "val_loss"], "non-finite validation logits in epoch 1"),
        # The first step already overflows the parameters, so the second
        # batch is the first with a non-finite loss.
        (["--lr", "1e308", "--epochs", "2"], "non-finite loss in epoch 1, batch 2"),
    ], ids=["logits-macro_f1", "logits-val_loss", "batch-loss"])
    def test_diverged_training_prints_one_error_line_exit_1(
        self, flags, message, toy_tsv, tmp_path, capsys
    ):
        out = tmp_path / "diverged"
        rc, stdout, stderr = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(out), *flags)
        assert rc == 1
        assert stderr == f"error: training diverged: {message}\n"
        assert stdout == ""
        assert not out.exists()

    def test_zero_length_percentile_names_the_corpus_exit_2(self, tmp_path, capsys):
        # Every sentence is punctuation only, so each has 0 tokens.
        tsv = tmp_path / "punct.tsv"
        tsv.write_text(
            "#doc\tD\n—\tFacts\n…\tArgument\n§\tStatute\n(…)\tPrecedent\n",
            encoding="utf-8",
        )
        rc, _, stderr = run_cli(
            capsys, "train", "--corpus", str(tsv), "--out", str(tmp_path / "o"), "--epochs", "1"
        )
        assert rc == 2
        assert f"corpus {tsv}" in stderr
        assert "length_percentile_q 0.98 is 0 tokens" in stderr
        assert "--max-len" in stderr
        assert "max_len must be" not in stderr

    def test_malformed_config_values_exit_2(self, toy_tsv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"corpus": str(toy_tsv), "weight_overrides": {"Facts": "x"}})
        )
        rc, _, stderr = run_cli(
            capsys, "train", "--config", str(cfg_path), "--out", str(tmp_path / "a")
        )
        assert rc == 2
        assert "Facts" in stderr
        rc, _, stderr = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(tmp_path / "b"),
            "--lr", "nan",
        )
        assert rc == 2
        assert "learning_rate" in stderr

    def test_big_integer_in_real_field_exit_2(self, toy_tsv, tmp_path, capsys):
        # json.dumps writes 10**400 as a 401-digit integer literal.
        for field, value in [("weight_overrides", {"Facts": 10**400}),
                             ("learning_rate", 10**400)]:
            cfg_path = tmp_path / f"{field}.json"
            cfg_path.write_text(json.dumps({"corpus": str(toy_tsv), field: value}))
            rc, _, stderr = run_cli(
                capsys, "train", "--config", str(cfg_path), "--out", str(tmp_path / field)
            )
            assert rc == 2
            assert "finite number" in stderr
            assert not (tmp_path / field).exists()

    def test_missing_class_named_when_inverse_weights_undefined(
        self, toy, tmp_path, capsys
    ):
        # Only the first "Ruling by Lower Court" sentence is kept; the default
        # seed's split puts it into validation.
        rlc = LABELS.index("Ruling by Lower Court")
        first = toy.labels.index(rlc)
        kept = [i for i, y in enumerate(toy.labels) if y != rlc or i == first]
        corpus_path = tmp_path / "one_rlc.tsv"
        save_corpus(select(toy, kept), corpus_path)
        args = ["--corpus", str(corpus_path), "--epochs", "1"]
        rc, _, stderr = run_cli(capsys, "train", *args, "--out", str(tmp_path / "a"))
        assert rc == 2
        assert "'Ruling by Lower Court' (1 in the whole corpus)" in stderr
        for option in ("--seed", "--weights direct", "--balance"):
            assert option in stderr
        assert "weight_overrides" not in stderr
        # Each remedy the message names trains.
        for remedy in (["--seed", "1"], ["--weights", "direct"],
                       ["--balance", "over", "--weights", "uniform"]):
            rc, _, _ = run_cli(capsys, "train", *args, *remedy, "--out", str(tmp_path / "b"))
            assert rc == 0

    def test_every_training_flag_reaches_the_resolved_config(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "o"
        rc, _, _ = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(out),
            "--seed", "7", "--provider", "hashed:64", "--casing", "uncased",
            "--max-len", "5", "--weights", "uniform", "--balance", "over",
            "--epochs", "2", "--batch-size", "4", "--lr", "0.05",
            "--weight-decay", "0.02", "--train-fraction", "0.7",
            "--split-mode", "document_level", "--selection-metric", "val_loss",
        )
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        expected = {
            "corpus": str(toy_tsv), "seed": 7, "provider": "hashed:64",
            "casing": "uncased", "max_len": 5, "weight_scheme": "uniform",
            "balance": "oversample", "epochs": 2, "batch_size": 4,
            "learning_rate": 0.05, "weight_decay": 0.02, "train_fraction": 0.7,
            "split_mode": "document_level", "selection_metric": "val_loss",
        }
        defaults = RunConfig()
        for field, value in expected.items():
            assert getattr(defaults, field) != value, field
            assert resolved[field] == value, field
        assert resolved["resolved_provider_id"] == "hashed:64:uncased:5"

    @pytest.mark.parametrize("route", ["flags", "config_file", "reproduce_run_2"])
    def test_tokeniser_settings_rejected_for_precomputed_provider(
        self, route, toy_emb, toy_tsv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        provider = f"precomputed:{toy_emb}"
        if route == "flags":
            argv = ["train", "--corpus", str(toy_tsv), "--out", str(out),
                    "--provider", provider, "--casing", "uncased", "--max-len", "3"]
            named = ["casing 'uncased'", "max_len 3"]
        elif route == "config_file":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"provider": provider, "max_len": 3}), encoding="utf-8")
            argv = ["train", "--corpus", str(toy_tsv), "--out", str(out), "--config", str(cfg)]
            named = ["max_len 3"]
        else:  # the run2 preset is uncased
            argv = ["reproduce-run", "2", "--corpus", str(toy_tsv), "--out", str(out),
                    "--provider", provider]
            named = ["casing 'uncased'"]
        rc, _, stderr = run_cli(capsys, *argv)
        assert rc == 2
        for setting in named:
            assert setting in stderr
        assert "apply only to hashed:" in stderr
        assert not out.exists()

    def test_derived_max_len_recorded(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "o"
        rc, _, _ = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--out", str(out), "--epochs", "1"
        )
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        assert isinstance(resolved["max_len"], int)
        assert 3 <= resolved["max_len"] <= 8

    @pytest.mark.parametrize("command", ["train", "reproduce-run"])
    @pytest.mark.parametrize(
        "blocker_kind,below",
        [("file", False), ("file", True), ("dangling_link", False), ("dangling_link", True)],
        ids=["file", "below_file", "dangling_link", "below_dangling_link"],
    )
    def test_out_that_cannot_be_a_directory_exit_2_before_training(
        self, command, blocker_kind, below, toy_tsv, tmp_path, capsys
    ):
        blocker = tmp_path / "outfile"
        if blocker_kind == "file":
            blocker.write_text("keep\n", encoding="utf-8")
        else:
            blocker.symlink_to("nowhere/x")
        out = blocker / "sub" if below else blocker
        argv = ["train"] if command == "train" else ["reproduce-run", "1"]
        rc, stdout, stderr = run_cli(
            capsys, *argv, "--corpus", str(toy_tsv), "--out", str(out), "--epochs", "3"
        )
        assert rc == 2
        assert stderr == f"error: output directory {out}: {blocker} is not a directory\n"
        # Refused before the first epoch: no epoch line, nothing written.
        assert stdout == ""
        if blocker_kind == "file":
            assert blocker.read_text(encoding="utf-8") == "keep\n"
        else:
            assert str(blocker.readlink()) == "nowhere/x"
        assert [p.name for p in tmp_path.iterdir()] == ["outfile"]

    @pytest.mark.parametrize("command", ["train", "reproduce-run"])
    @pytest.mark.parametrize("case", [
        "file", "below_file", "dangling_link", "below_dangling_link", "empty", "missing_parent",
    ])
    def test_out_is_checked_before_the_config_or_corpus_is_read(
        self, command, case, tmp_path, capsys
    ):
        (tmp_path / "afile").write_text("keep\n", encoding="utf-8")
        (tmp_path / "dang").symlink_to("nowhere/x")
        out, blocker = {
            "file": (tmp_path / "afile", tmp_path / "afile"),
            "below_file": (tmp_path / "afile" / "sub", tmp_path / "afile"),
            "dangling_link": (tmp_path / "dang", tmp_path / "dang"),
            "below_dangling_link": (tmp_path / "dang" / "sub", tmp_path / "dang"),
            "empty": ("", None),
            # Made with its parents, so only the missing config below stops it.
            "missing_parent": (tmp_path / "nodir" / "sub", None),
        }[case]
        argv = ["train"] if command == "train" else ["reproduce-run", "1"]
        # The config file and the corpus are missing, so reading either first
        # would fail with another message.
        rc, stdout, stderr = run_cli(
            capsys, *argv, "--corpus", str(tmp_path / "missing.tsv"),
            "--config", str(tmp_path / "missing.json"), "--out", str(out),
        )
        assert (rc, stdout) == (2, "")
        if case == "empty":
            assert stderr == "error: output path is empty\n"
        elif case == "missing_parent":
            assert "missing.json" in stderr
        else:
            assert stderr == f"error: output directory {out}: {blocker} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dang"]
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "keep\n"

    def test_out_through_a_symlink_to_a_directory_trains(self, toy_tsv, tmp_path, capsys):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to("real")
        out = tmp_path / "link" / "run"
        rc, _, _ = run_cli(capsys, "train", "--corpus", str(toy_tsv), "--out", str(out),
                           "--epochs", "1")
        assert rc == 0
        assert (tmp_path / "real" / "run" / "checkpoint.txt").is_file()

    def test_all_class_weights_zero_exit_2(self, toy_tsv, tmp_path, capsys):
        """The one weight rule train checks itself: overrides may set every weight to 0."""
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"weight_overrides": dict.fromkeys(LABELS, 0)}),
                       encoding="utf-8")
        out = tmp_path / "o"
        rc, stdout, stderr = run_cli(
            capsys, "train", "--corpus", str(toy_tsv), "--config", str(cfg), "--out", str(out)
        )
        assert rc == 2
        assert stderr == "error: class weights must be >= 0 with at least one > 0\n"
        assert stdout == ""
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(toy_tsv, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--corpus", str(toy_tsv), "--out", str(out), "--lr", "1e-2"])
    assert rc == 0
    return out


class TestEvaluate:
    def test_metrics_json_on_converged_model(self, trained, toy_tsv, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc, _, _ = run_cli(
            capsys, "evaluate", "--checkpoint", str(trained / "checkpoint.txt"),
            "--corpus", str(toy_tsv), "--out", str(out),
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["macro"]["f1"] >= 0.95
        assert doc["total"] == 700
        assert len(doc["confusion_matrix"]) == 7

    def test_first_label_outside_the_checkpoint_exit_2(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.txt"
        save_checkpoint(LinearCheckpoint(params=fused(np.zeros((2, 8)), np.zeros(2)),
                                         labels=("Facts", "Argument"),
                                         provider_id="hashed:8:cased:120"), ckpt)
        tsv = tmp_path / "c.tsv"
        tsv.write_text("#doc\tA\nOne.\tFacts\nTwo.\tStatute\nThree.\tPrecedent\n",
                       encoding="utf-8")
        rc, stdout, stderr = run_cli(
            capsys, "evaluate", "--checkpoint", str(ckpt), "--corpus", str(tsv))
        assert (rc, stdout) == (2, "")
        assert stderr == (f"error: corpus {tsv}: label 'Statute' not in the label set "
                          f"of checkpoint {ckpt}\n")

    def test_perfect_predictions_give_macro_one(self, tmp_path, capsys):
        # one sentence per label, one-hot embeddings, identity head:
        # predictions equal gold by construction
        lines = ["#doc\tD"] + [f"sent {i}\t{label}" for i, label in enumerate(LABELS)]
        corpus = tmp_path / "seven.tsv"
        corpus.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        emb = tmp_path / "onehot.emb"
        save_embeddings(
            [(f"sent {i}", np.eye(7)[i]) for i in range(7)], 7, emb
        )
        ckpt_path = tmp_path / "identity.txt"
        ckpt = LinearCheckpoint(
            params=fused(np.eye(7), np.zeros(7)),
            labels=LABELS, provider_id=f"precomputed:{emb}",
        )
        save_checkpoint(ckpt, ckpt_path)
        rc, stdout, _ = run_cli(
            capsys, "evaluate", "--checkpoint", str(ckpt_path), "--corpus", str(corpus)
        )
        assert rc == 0
        doc = json.loads(stdout)
        assert doc["macro"]["f1"] == 1.0
        assert all(block["f1"] == 1.0 for block in doc["per_class"].values())

    def test_dimension_mismatch_exit_2(self, toy_tsv, tmp_path, capsys):
        """_provider_for_inference is the only dimension check: another
        vectors file for a precomputed checkpoint, and a hashed id, each over
        the wrong number of weight columns."""
        emb = tmp_path / "wrong.emb"
        save_embeddings([("x", np.zeros(3))], 3, emb)
        # The checkpoint's provider id, the flags, and the provider used with its dimension.
        cases = [(f"precomputed:{tmp_path / 'four.emb'}", ["--provider", f"precomputed:{emb}"],
                  f"precomputed:{emb}", 3),
                 ("hashed:8:cased:120", [], "hashed:8:cased:120", 8)]
        for provider_id, flags, used, dim in cases:
            ckpt_path = tmp_path / "ckpt.txt"
            save_checkpoint(LinearCheckpoint(
                params=fused(np.zeros((7, 4)), np.zeros(7)), labels=LABELS, provider_id=provider_id,
            ), ckpt_path)
            rc, stdout, stderr = run_cli(
                capsys, "evaluate", "--checkpoint", str(ckpt_path), "--corpus", str(toy_tsv), *flags
            )
            assert rc == 2
            assert stderr == (f"error: checkpoint {ckpt_path}: dimension 4 does not match "
                              f"dimension {dim} of provider {used!r}\n")
            assert stdout == ""

    def test_full_provider_id_accepted_as_flag(self, trained, toy_tsv, capsys):
        """A hashed checkpoint's featuriser cannot be replaced, not even by
        a full provider id."""
        rc, _, stderr = run_cli(
            capsys, "evaluate", "--checkpoint", str(trained / "checkpoint.txt"),
            "--corpus", str(toy_tsv), "--provider", "hashed:256:cased:8",
        )
        assert rc == 2
        assert load_checkpoint(trained / "checkpoint.txt").provider_id in stderr

    def test_uncased_checkpoint_featuriser_comes_from_checkpoint(
        self, toy_tsv, tmp_path, capsys
    ):
        out = tmp_path / "run2"
        assert main(["train", "--corpus", str(toy_tsv), "--out", str(out),
                     "--preset", "run2", "--lr", "1e-2"]) == 0
        ckpt = str(out / "checkpoint.txt")
        upper = tmp_path / "upper.tsv"
        upper.write_text("".join(
            line if line.startswith("#doc\t") or "\t" not in line
            else line.split("\t")[0].upper() + "\t" + line.split("\t")[1]
            for line in toy_tsv.read_text(encoding="utf-8").splitlines(keepends=True)
        ), encoding="utf-8")
        capsys.readouterr()
        rc, as_trained, _ = run_cli(capsys, "evaluate", "--checkpoint", ckpt,
                                    "--corpus", str(toy_tsv))
        assert rc == 0 and json.loads(as_trained)["macro"]["f1"] >= 0.95
        rc, shouted, _ = run_cli(capsys, "evaluate", "--checkpoint", ckpt,
                                 "--corpus", str(upper))
        assert rc == 0 and shouted == as_trained
        rc, _, stderr = run_cli(capsys, "evaluate", "--checkpoint", ckpt,
                                "--corpus", str(upper), "--provider", "hashed:256")
        assert rc == 2 and ":uncased:" in stderr
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--checkpoint", ckpt, "--corpus", str(upper),
                  "--casing", "cased"])
        assert exc.value.code == 2

    def test_garbage_provider_spec_exit_2(self, trained, toy_tsv, capsys):
        rc, _, stderr = run_cli(
            capsys, "evaluate", "--checkpoint", str(trained / "checkpoint.txt"),
            "--corpus", str(toy_tsv), "--provider", "hashed:abc",
        )
        assert rc == 2
        assert "provider" in stderr

    @pytest.mark.parametrize("provider_id,named", [
        ("hashed:8:weird:5", "casing"), ("hashed:8:cased:0", "max_len"), ("hashed:8", "casing"),
    ])
    def test_hashed_checkpoint_without_valid_tokeniser_settings_exit_2(
        self, provider_id, named, toy_tsv, tmp_path, capsys
    ):
        ckpt_path = tmp_path / "ckpt.txt"
        save_checkpoint(LinearCheckpoint(
            params=fused(np.zeros((7, 8)), np.zeros(7)), labels=LABELS, provider_id=provider_id,
        ), ckpt_path)
        rc, _, stderr = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt_path),
                                "--corpus", str(toy_tsv))
        assert rc == 2
        assert named in stderr

    # What the provider says of a full hashed id's casing or max_len follows the
    # message; a hashed id without them is no provider id.
    PROVIDER_SAYS = {
        "hashed:256": "",
        "magic": "",
        "hashed:256:cased:0": ": max_len must be an integer >= 1, got 0",
        "hashed:256:lower:8": ": casing must be one of ('cased', 'uncased'), got 'lower'",
    }

    @pytest.mark.parametrize("provider_id", list(PROVIDER_SAYS))
    def test_bad_checkpoint_provider_id_names_the_checkpoint(
        self, provider_id, toy_tsv, tmp_path, capsys
    ):
        ckpt_path = tmp_path / "ckpt.txt"
        save_checkpoint(LinearCheckpoint(
            params=fused(np.zeros((7, 256)), np.zeros(7)), labels=LABELS,
            provider_id=provider_id,
        ), ckpt_path)
        rc, _, stderr = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt_path),
                                "--corpus", str(toy_tsv))
        assert rc == 2
        assert stderr == (
            f"error: checkpoint {ckpt_path}: provider id {provider_id!r} is neither "
            "'hashed:<dim>:<casing>:<max_len>' nor 'precomputed:<path>'"
            f"{self.PROVIDER_SAYS[provider_id]}\n"
        )


class TestPredict:
    def zero_checkpoint(self, path, dim=8):
        ckpt = LinearCheckpoint(
            params=fused(np.zeros((7, dim)), np.zeros(7)),
            labels=LABELS,
            provider_id=f"hashed:{dim}:cased:120",
        )
        save_checkpoint(ckpt, path)
        return path

    def test_three_sentences_in_order(self, tmp_path, capsys):
        ckpt = self.zero_checkpoint(tmp_path / "ckpt.txt")
        sf = tmp_path / "sentences.txt"
        sf.write_text("first sentence\nsecond one\nthird line\n", encoding="utf-8")
        rc, stdout, _ = run_cli(capsys, "predict", "--checkpoint", str(ckpt), "--sentences", str(sf))
        assert rc == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 3
        assert [l.split("\t")[0] for l in lines] == ["first sentence", "second one", "third line"]

    def test_zero_checkpoint_ties_to_first_label_uniform_prob(self, tmp_path, capsys):
        ckpt = self.zero_checkpoint(tmp_path / "ckpt.txt")
        sf = tmp_path / "s.txt"
        sf.write_text("anything at all\n", encoding="utf-8")
        rc, stdout, _ = run_cli(capsys, "predict", "--checkpoint", str(ckpt), "--sentences", str(sf))
        assert rc == 0
        _, label, prob = stdout.strip().split("\t")
        assert label == LABELS[0]
        assert float(prob) == pytest.approx(1 / 7, abs=1e-6)

    def test_probabilities_in_unit_interval(self, trained, tmp_path, capsys):
        sf = tmp_path / "s.txt"
        sf.write_text("fact00 fact01\npreced02\n", encoding="utf-8")
        rc, stdout, _ = run_cli(
            capsys, "predict", "--checkpoint", str(trained / "checkpoint.txt"),
            "--sentences", str(sf),
        )
        assert rc == 0
        for line in stdout.strip().split("\n"):
            prob = float(line.split("\t")[2])
            assert 0.0 < prob <= 1.0

    def test_missing_embedding_is_runtime_error(self, tmp_path, capsys):
        emb = tmp_path / "few.emb"
        save_embeddings([("known sentence", np.ones(4))], 4, emb)
        ckpt_path = tmp_path / "ckpt.txt"
        ckpt = LinearCheckpoint(
            params=fused(np.zeros((7, 4)), np.zeros(7)),
            labels=LABELS, provider_id=f"precomputed:{emb}",
        )
        save_checkpoint(ckpt, ckpt_path)
        sf = tmp_path / "s.txt"
        sf.write_text("unknown sentence\n", encoding="utf-8")
        rc, _, stderr = run_cli(capsys, "predict", "--checkpoint", str(ckpt_path), "--sentences", str(sf))
        assert rc == 1
        assert "unknown sentence" in stderr


    def test_tab_in_sentence_exit_2_naming_the_line(self, tmp_path, capsys):
        ckpt = self.zero_checkpoint(tmp_path / "ckpt.txt")
        sf = tmp_path / "s.txt"
        sf.write_text("first sentence\n\nThe facts\tare these\n", encoding="utf-8")
        out = tmp_path / "predict.tsv"
        rc, _, stderr = run_cli(capsys, "predict", "--checkpoint", str(ckpt),
                                "--sentences", str(sf), "--out", str(out))
        assert rc == 2
        assert stderr == f"error: {sf}: line 3 contains a tab\n"
        assert not out.exists()


class TestClosedOutputPipe:
    """A reader that closes the output pipe early (``predict | head -1``) is
    a runtime failure: exit 1 and one error line, with nothing from Python
    about the buffered rest at exit."""

    @pytest.mark.parametrize("argv", [
        ["predict", "--sentences", "{lines}"],
        ["evaluate", "--corpus", "{corpus}"],
        ["evaluate", "--corpus", "{corpus}", "--out", "/dev/stdout"],
    ], ids=["predict", "evaluate", "evaluate-out"])
    def test_exit_1_with_one_error_line(self, argv, toy, toy_tsv, trained, tmp_path):
        lines = tmp_path / "lines.txt"
        lines.write_text("".join(text + "\n" for text in toy.texts), encoding="utf-8")
        argv = [a.format(lines=lines, corpus=toy_tsv) for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)  # so every write to stdout fails
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from rhetrole.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv,
                 "--checkpoint", str(trained / "checkpoint.txt")],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                # Block-buffered, as a pipe is by default: what the buffer
                # still holds at exit is what Python would report again.
                env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                     "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


class TestScoreBlocks:
    """evaluate and predict embed and score their inputs SCORE_BLOCK_ROWS
    rows at a time, a shorter tail joining the block before it; the block
    size must not show in any output. reproduce-run scores nothing in
    blocks: its metrics are training's, which
    TestReproduceRunMetricsAreTheSelectedEpochs holds to blocked scoring."""

    DEFAULT = SCORE_BLOCK_ROWS
    SIZES = sorted({n for b in (1, 3, DEFAULT, 2 * DEFAULT)
                    for n in (b - 1, b, b + 1, 2 * b + 1)} - {0})

    @staticmethod
    def write_inputs(toy, d, n):
        """A corpus of n toy sentences (repeated as needed) and the same n
        sentences as predict input, in directory d."""
        d.mkdir(exist_ok=True)
        picked = [i % len(toy.texts) for i in range(n)]
        corpus = d / "corpus.tsv"
        corpus.write_text("#doc\tD\n" + "".join(f"{toy.texts[i]}\t{LABELS[toy.labels[i]]}\n"
                                                for i in picked), encoding="utf-8")
        lines = d / "lines.txt"
        lines.write_text("".join(toy.texts[i] + "\n" for i in picked), encoding="utf-8")
        return corpus, lines

    @pytest.mark.parametrize("n", SIZES)
    def test_block_size_does_not_change_outputs(
        self, n, toy, trained, tmp_path, capsys, monkeypatch
    ):
        corpus, lines = self.write_inputs(toy, tmp_path, n)
        ckpt = str(trained / "checkpoint.txt")
        outputs = {}
        for rows in (self.DEFAULT, 1, 3):
            monkeypatch.setattr(cli, "SCORE_BLOCK_ROWS", rows)
            rc, metrics, _ = run_cli(capsys, "evaluate", "--checkpoint", ckpt,
                                     "--corpus", str(corpus))
            assert rc == 0
            rc, predicted, _ = run_cli(capsys, "predict", "--checkpoint", ckpt,
                                       "--sentences", str(lines))
            assert rc == 0
            outputs[rows] = (metrics, predicted)
        assert json.loads(outputs[self.DEFAULT][0])["total"] == n
        assert outputs[self.DEFAULT][1].count("\n") == n
        assert outputs[1] == outputs[self.DEFAULT]
        assert outputs[3] == outputs[self.DEFAULT]

    def test_error_in_a_later_block_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        emb = tmp_path / "few.emb"
        save_embeddings([(f"known {i}", np.full(4, float(i))) for i in range(5)], 4, emb)
        ckpt = tmp_path / "ckpt.txt"
        save_checkpoint(LinearCheckpoint(
            params=fused(np.zeros((7, 4)), np.zeros(7)),
            labels=LABELS, provider_id=f"precomputed:{emb}",
        ), ckpt)
        sf = tmp_path / "s.txt"
        sf.write_text("".join(f"known {i}\n" for i in range(5)) + "unknown sentence\n",
                      encoding="utf-8")
        out = tmp_path / "predict.tsv"
        out.write_text("previous\n", encoding="utf-8")
        monkeypatch.setattr(cli, "SCORE_BLOCK_ROWS", 2)
        for extra in ([], ["--out", str(out)]):
            rc, stdout, stderr = run_cli(capsys, "predict", "--checkpoint", str(ckpt),
                                         "--sentences", str(sf), *extra)
            assert rc == 1
            assert "unknown sentence" in stderr
            assert stdout == ""
        assert out.read_text(encoding="utf-8") == "previous\n"
        # The load keeps its cache beside the EMB file; nothing else is left.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".few.emb.cache", "ckpt.txt", "few.emb", "predict.tsv", "s.txt"]

    def test_blocks_have_the_bytes_of_one_whole_product(self, monkeypatch):
        """At 1,025 rows the last row joins the block before it: a block of
        one row would run OpenBLAS's small-product kernel, whose logits
        differ from the whole product's in their last bits."""
        n, dim = 1025, 256
        rng = np.random.default_rng(11)
        X = rng.normal(size=(n, dim))
        keys = [f"row {i}" for i in range(n)]
        provider = PrecomputedProvider(X, dict(zip(keys, range(n))), "precomputed:rows")
        ckpt = LinearCheckpoint(rng.normal(size=(len(LABELS), dim + 1)), LABELS,
                                provider.provider_id)
        blocks = []
        monkeypatch.setattr(cli, "logits", lambda params, rows: blocks.append(
            logits(params, rows)) or blocks[-1])
        preds = list(cli._score(ckpt, provider, keys))
        whole = logits(ckpt.params, X)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert preds == whole.argmax(axis=1).tolist()
        assert [len(Z) for Z in blocks] == [512, 513]

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_peak_memory_under_half_a_whole_matrix(
        self, command, toy, trained, tmp_path, capsys
    ):
        # The corpus objects and the output rows stay O(n), so six blocks
        # leave room for them (Python 3.11, numpy 2.4: evaluate peaked at
        # 4.4 MB and predict at 3.7 MB, against a 12.6 MB matrix).
        n = 6 * self.DEFAULT
        corpus, lines = self.write_inputs(toy, tmp_path, n)
        ckpt = trained / "checkpoint.txt"
        dim = input_dim(load_checkpoint(ckpt).params)
        assert dim == 256
        argv = ["--corpus", str(corpus)] if command == "evaluate" else [
            "--sentences", str(lines)]
        tracemalloc.start()
        try:
            rc = main([command, "--checkpoint", str(ckpt), *argv,
                       "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        whole_matrix = n * dim * 8
        assert peak < whole_matrix / 2, (peak, whole_matrix)


class TestEmbCacheCommands:
    def test_warm_commands_write_the_cold_bytes(self, toy, toy_tsv, tmp_path, capsys, monkeypatch):
        from rhetrole import embedding
        from rhetrole.embedding import HashedBowProvider

        texts = list(dict.fromkeys(toy.texts))
        emb = tmp_path / "toy.emb"
        save_embeddings(zip(texts, HashedBowProvider(32, "cased", 50).embed(texts)), 32, emb)
        sf = tmp_path / "s.txt"
        sf.write_text("".join(f"{text}\n" for text in texts[:50]), encoding="utf-8")
        outputs = {}
        for load in ("cold", "warm"):
            if load == "warm":
                def parse(*args):
                    raise AssertionError("the EMB file was parsed")

                monkeypatch.setattr(embedding, "_read_emb", parse)
            run = tmp_path / load
            for argv in (
                ["train", "--corpus", str(toy_tsv), "--out", str(run), "--lr", "1e-2",
                 "--epochs", "2", "--provider", f"precomputed:{emb}"],
                ["evaluate", "--checkpoint", str(run / "checkpoint.txt"), "--corpus",
                 str(toy_tsv), "--out", str(run / "metrics_eval.json")],
                ["predict", "--checkpoint", str(run / "checkpoint.txt"), "--sentences", str(sf),
                 "--out", str(run / "predict.tsv")],
            ):
                assert run_cli(capsys, *argv)[0] == 0
            outputs[load] = {name: (run / name).read_bytes() for name in (
                "checkpoint.txt", "train_log.tsv", "metrics_eval.json", "predict.tsv")}
            assert (tmp_path / ".toy.emb.cache").is_file()
        assert outputs["warm"] == outputs["cold"]


class TestNonUtf8Input:
    """A file that is not UTF-8 exits 2 with a message naming it and the
    line of the first bad byte, whichever reader meets it."""

    def check(self, capsys, argv, path, line_no):
        rc, _, stderr = run_cli(capsys, *argv)
        assert rc == 2
        assert stderr == f"error: {path}: line {line_no} is not valid UTF-8\n"

    def test_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(b"#doc\tD\nThe facts.\tFacts\nCaf\xe9 law.\tStatute\n")
        self.check(capsys, ["ingest", "--corpus", str(corpus)], corpus, 3)

    def test_emb_key(self, toy_tsv, tmp_path, capsys):
        emb = tmp_path / "vectors.emb"
        emb.write_bytes(b'EMB v1 2 2\n"a" 1 2\n"\xff" 3 4\n')
        self.check(capsys, ["train", "--corpus", str(toy_tsv), "--out", str(tmp_path / "o"),
                            "--provider", f"precomputed:{emb}"], emb, 3)

    def test_checkpoint(self, toy_tsv, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.txt"
        save_checkpoint(LinearCheckpoint(
            params=fused(np.zeros((7, 4)), np.zeros(7)),
            labels=LABELS, provider_id="hashed:4:cased:8",
        ), ckpt)
        ckpt.write_bytes(ckpt.read_bytes().replace(b"Facts", b"F\xffcts"))
        self.check(capsys, ["evaluate", "--checkpoint", str(ckpt), "--corpus", str(toy_tsv)],
                   ckpt, 2)

    def test_predict_sentences(self, trained, tmp_path, capsys):
        sf = tmp_path / "s.txt"
        sf.write_bytes(b"fine\n\xff\n")
        self.check(capsys, ["predict", "--checkpoint", str(trained / "checkpoint.txt"),
                            "--sentences", str(sf)], sf, 2)

    def test_config_file(self, toy_tsv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{\n  "casing": "\xff"\n}\n')
        self.check(capsys, ["train", "--corpus", str(toy_tsv), "--config", str(cfg),
                            "--out", str(tmp_path / "o")], cfg, 2)


class TestBadFileIsNamed:
    """A refusal of a file's content begins with that file's path as given,
    once, whichever command reads it and whichever other files it reads."""

    BAD_EMB = 'EMB v1 2 2\n"a" 1 x\n"b" 3 4\n'
    BAD_CORPUS = "#doc\tD\nThe facts.\tFacts\nThe verdict.\tNope\n"
    # The command, with {bad} for the bad file; the bad file's text; the
    # message after "error: {bad}: ".
    CASES = {
        "emb-train": ("train --corpus {corpus} --out {out} --provider precomputed:{bad}",
                      BAD_EMB, "line 2: non-numeric value"),
        "emb-evaluate": ("evaluate --checkpoint {emb_ckpt} --corpus {corpus}"
                         " --provider precomputed:{bad}", BAD_EMB, "line 2: non-numeric value"),
        "ckpt-evaluate": ("evaluate --checkpoint {bad} --corpus {corpus}", None,
                          "checkpoint file too short"),
        "ckpt-predict": ("predict --checkpoint {bad} --sentences {sentences}", None,
                         "checkpoint file too short"),
        "corpus-stats": ("stats --corpus {bad}", BAD_CORPUS, "line 3: unknown label 'Nope'"),
        "corpus-train": ("train --corpus {bad} --out {out}", BAD_CORPUS,
                         "line 3: unknown label 'Nope'"),
        "corpus-evaluate": ("evaluate --checkpoint {ckpt} --corpus {bad}", BAD_CORPUS,
                            "line 3: unknown label 'Nope'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_2_naming_the_file(self, case, trained, toy_emb, toy_tsv, tmp_path, capsys):
        command, text, message = self.CASES[case]
        ckpt = trained / "checkpoint.txt"
        if text is None:  # the checkpoint cut after its label line
            text = "".join(ckpt.read_text(encoding="utf-8").splitlines(keepends=True)[:2])
        bad = tmp_path / "bad_input"
        bad.write_text(text, encoding="utf-8")
        emb_ckpt = tmp_path / "emb_ckpt.txt"
        save_checkpoint(LinearCheckpoint(params=fused(np.zeros((7, 32)), np.zeros(7)),
                                         labels=LABELS, provider_id=f"precomputed:{toy_emb}"),
                        emb_ckpt)
        sentences = tmp_path / "s.txt"
        sentences.write_text("The appeal is allowed.\n", encoding="utf-8")
        argv = command.format(bad=bad, corpus=toy_tsv, out=tmp_path / "o", ckpt=ckpt,
                              emb_ckpt=emb_ckpt, sentences=sentences).split()
        rc, stdout, stderr = run_cli(capsys, *argv)
        assert (rc, stdout, stderr) == (2, "", f"error: {bad}: {message}\n")
        assert not (tmp_path / "o").exists()


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                 "\u0665\u0666\u0667\u0668\u0669")


REAL_FLAGS = ("--lr", "--weight-decay", "--train-fraction")


class TestStrictNumbers:
    """Counts are ASCII digits and reals ASCII decimals in flags, provider
    specs, EMB files and checkpoints alike: what int() or float() would also
    take exits 2."""

    @pytest.mark.parametrize(
        "spec", ["hashed:1_6", "hashed: 16", "hashed:\u0661\u0666", "hashed:1:2", "hashed:0"]
    )
    def test_provider_spec(self, spec, toy_tsv, tmp_path, capsys):
        rc, _, stderr = run_cli(capsys, "train", "--corpus", str(toy_tsv),
                                "--out", str(tmp_path / "o"), "--provider", spec)
        message = ("hashed provider dimension must be >= 1" if spec == "hashed:0"
                   else f"bad hashed provider spec {spec!r}")
        assert (rc, stderr) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "1_0"), ("--max-len", "\u0661\u0662"), ("--epochs", "1_0"),
        ("--batch-size", "\u0668"), ("--lr", "1_0e-2"), ("--weight-decay", "0_1"),
        ("--train-fraction", "\u0660.5"), ("--lr", "1 2"),
    ])
    def test_training_flag(self, flag, value, toy_tsv, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--epochs", "1"] if flag != "--epochs" else []
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(toy_tsv), "--out", str(out), *args, flag, value])
        assert exc.value.code == 2
        form = "a decimal real" if flag in REAL_FLAGS else "a count in ASCII digits"
        err = capsys.readouterr().err
        assert f"argument {flag}: expected {form}, got {value!r}" in err
        assert "read_" not in err
        assert not out.exists()

    @pytest.mark.parametrize("header", [
        lambda count, dim: f"EMB v1 {count.translate(ARABIC_INDIC_DIGITS)} {dim}",
        lambda count, dim: f"EMB v1 {count} +{dim}",
    ], ids=["arabic_indic_count", "plus_dim"])
    def test_emb_header(self, header, toy_emb, toy_tsv, tmp_path, capsys):
        first, rest = toy_emb.read_text(encoding="utf-8").split("\n", 1)
        emb = tmp_path / "vectors.emb"
        emb.write_text(header(*first.split()[2:]) + "\n" + rest, encoding="utf-8")
        rc, _, stderr = run_cli(capsys, "train", "--corpus", str(toy_tsv),
                                "--out", str(tmp_path / "o"), "--provider", f"precomputed:{emb}")
        assert rc == 2
        assert "non-integer count/dim in header" in stderr

    @pytest.mark.parametrize("old,new,message", [
        ("CKPT v1 7 10 ", "CKPT v1 7 1_0 ", "non-integer num_labels/dim in header"),
        ("CKPT v1 7 10 ", "CKPT v1 \u0667 10 ", "non-integer num_labels/dim in header"),
        ("\n0.5 ", "\n1_0 ", "non-numeric parameter value"),
        ("\n0.5 ", "\n\u0661 ", "non-numeric parameter value"),
        ("\tRuling by Lower Court\t", "\tFacts\t", "labels on line 2 must be non-empty"),
        ("\tArgument\t", "\t\t", "labels on line 2 must be non-empty and distinct"),
        ("CKPT v1 7 10 ", "CKPT v2 7 10 ", "bad header 'CKPT v2 7 10 hashed:10:cased:8'; "
         "expected 'CKPT v1 <num_labels> <dim> <provider_id>'"),
        ("\n0.5 ", "\n", "weight row length does not match dim 10"),
    ], ids=["underscore_dim", "arabic_indic_labels", "underscore_value", "arabic_indic_value",
            "duplicate_label", "empty_label", "bad_header", "short_row"])
    def test_checkpoint(self, old, new, message, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.txt"
        save_checkpoint(LinearCheckpoint(
            params=fused(np.full((7, 10), 0.5), np.zeros(7)),
            labels=LABELS, provider_id="hashed:10:cased:8",
        ), ckpt)
        text = ckpt.read_text(encoding="utf-8")
        assert old in text
        ckpt.write_text(text.replace(old, new, 1), encoding="utf-8")
        sentences = tmp_path / "s.txt"
        sentences.write_text("The appeal is allowed.\n", encoding="utf-8")
        rc, _, stderr = run_cli(capsys, "predict", "--checkpoint", str(ckpt),
                                "--sentences", str(sentences))
        # The label messages go on to repeat the labels read.
        assert (rc, stderr.count("\n")) == (2, 1)
        assert stderr.startswith(f"error: {ckpt}: {message}")


class TestCrlfCheckpoint:
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_scores_as_the_original(self, command, trained, toy, toy_tsv, tmp_path, capsys):
        ckpt = trained / "checkpoint.txt"
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(ckpt.read_bytes().replace(b"\n", b"\r\n"))
        sentences = tmp_path / "s.txt"
        sentences.write_text("".join(text + "\n" for text in toy.texts), encoding="utf-8")
        inputs = {"evaluate": ["--corpus", str(toy_tsv)],
                  "predict": ["--sentences", str(sentences)]}
        outputs = []
        for path in (ckpt, crlf):
            out = tmp_path / f"{path.stem}.out"
            rc, _, _ = run_cli(capsys, command, "--checkpoint", str(path), *inputs[command],
                               "--out", str(out))
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestReproduceRun:
    def test_invalid_run_id_exit_2(self, toy_tsv, capsys):
        rc, _, stderr = run_cli(capsys, "reproduce-run", "9", "--corpus", str(toy_tsv))
        assert rc == 2
        assert "run id" in stderr

    def test_run_writes_checkpoint_and_metrics(self, toy_tsv, tmp_path, capsys):
        out = tmp_path / "r1"
        rc, stdout, _ = run_cli(
            capsys, "reproduce-run", "1", "--corpus", str(toy_tsv), "--out", str(out)
        )
        assert rc == 0
        assert (out / "checkpoint.txt").exists()
        assert (out / "metrics.json").exists()
        assert "macro_f1" in stdout
        assert "validation" in stdout


def task_scale_corpus() -> Corpus:
    """5,125 Zipfian sentences whose labels follow TASK_COUNTS' skew, two in
    three led by a word naming their label, so training has something to
    learn. Its default split leaves 1,025 validation sentences."""
    zipf = zipf_corpus(num_sentences=5125)
    texts = [f"cue{y} {text}" if i % 3 else text
             for i, (text, y) in enumerate(zip(zipf.texts, zipf.labels))]
    return Corpus(texts, zipf.labels, zipf.documents, zipf.starts)


class TestReproduceRunMetricsAreTheSelectedEpochs:
    """reproduce-run reports the validation report that training made for
    the epoch it selected. Scoring the validation split again with the
    saved checkpoint, block by block as evaluate scores a corpus, gives the
    same metrics.json bytes."""

    @pytest.fixture(scope="class")
    def task(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("task")
        corpus = task_scale_corpus()
        save_corpus(corpus, d / "corpus.tsv")
        texts = list(dict.fromkeys(corpus.texts))
        # Another featuriser than the hashed run's, so the precomputed run differs.
        save_embeddings(zip(texts, HashedBowProvider(96, "cased", 40).embed(texts)), 96,
                        d / "task.emb")
        return d

    @pytest.mark.parametrize("provider", ["hashed", "precomputed"])
    @pytest.mark.parametrize("metric", SELECTION_METRICS)
    def test_metrics_json_is_the_validation_split_scored_again(
        self, task, provider, metric, tmp_path, capsys
    ):
        out = tmp_path / "run"
        extra = ["--provider", f"precomputed:{task / 'task.emb'}"] if provider != "hashed" else []
        rc, stdout, _ = run_cli(
            capsys, "reproduce-run", "1", "--corpus", str(task / "corpus.tsv"), "--out", str(out),
            "--lr", "5e-2", "--selection-metric", metric, *extra,
        )
        assert rc == 0
        # At this lr an earlier epoch wins, so the last epoch's report would differ.
        log = (out / "train_log.tsv").read_text(encoding="utf-8").splitlines()
        scores = [float(line.split("\t")[2]) for line in log]
        assert scores.index((max if metric == "macro_f1" else min)(scores)) < len(scores) - 1
        # The scoring that reproduce-run ran after training until it took
        # training's report instead.
        cfg = resolve_config(file_config=load_config_file(out / "config.json"))
        corpus = load_corpus(cfg.corpus)
        _, val_idx = split(corpus, cfg)
        assert len(val_idx) == 2 * SCORE_BLOCK_ROWS + 1  # a one-row tail joins the last block
        ckpt = load_checkpoint(out / "checkpoint.txt")
        inference = cli._provider_for_inference(
            argparse.Namespace(checkpoint=str(out / "checkpoint.txt"), provider=None), ckpt)
        gold = [ckpt.labels.index(LABELS[corpus.labels[i]]) for i in val_idx]
        preds = list(cli._score(ckpt, inference, [corpus.texts[i] for i in val_idx]))
        report = evaluate_predictions(gold, preds, len(ckpt.labels))
        assert (out / "metrics.json").read_bytes() == report_to_json(
            report, ckpt.labels).encode("utf-8")
        assert len(set(preds)) > 2  # the head was trained, not one class everywhere
        assert stdout.endswith(
            f"macro_precision\t{report.macro_precision:.6f}\n"
            f"macro_recall\t{report.macro_recall:.6f}\n"
            f"macro_f1\t{report.macro_f1:.6f}\n"
        )


class TestOutIsADirectory:
    """``ingest``, ``evaluate`` and ``predict`` refuse, before they read any
    input, an ``--out`` file that names a directory, whose directory (after
    symlinks) does not exist, or that is empty."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "--corpus"],
        ["evaluate", "--checkpoint", "missing", "--corpus"],
        ["predict", "--checkpoint", "missing", "--sentences"],
    ], ids=lambda argv: argv[0])
    def test_exit_2_naming_the_path(self, argv, tmp_path, capsys):
        # Every input is missing, so reading any of them first would fail otherwise.
        missing = str(tmp_path / "missing")
        out = tmp_path / "adir"
        out.mkdir()
        argv = [missing if arg == "missing" else arg for arg in argv]
        rc, stdout, stderr = run_cli(capsys, *argv, missing, "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert stderr == f"error: output file {out} is a directory\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["ingest", "--corpus"],
        ["evaluate", "--checkpoint", "missing", "--corpus"],
        ["predict", "--checkpoint", "missing", "--sentences"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("case", [
        "missing_parent", "file_parent", "dangling_link", "below_dangling_link", "empty",
    ])
    def test_unwritable_out_exit_2_before_any_input(self, argv, case, tmp_path, capsys):
        (tmp_path / "afile").write_text("keep\n", encoding="utf-8")
        (tmp_path / "dang").symlink_to("nowhere/x")
        real = Path(os.path.realpath(tmp_path))
        out, parent = {
            "missing_parent": (tmp_path / "nodir" / "o", real / "nodir"),
            "file_parent": (tmp_path / "afile" / "o", real / "afile"),
            "dangling_link": (tmp_path / "dang", real / "nowhere"),
            "below_dangling_link": (tmp_path / "dang" / "o", real / "nowhere" / "x"),
            "empty": ("", None),
        }[case]
        missing = str(tmp_path / "missing")
        argv = [missing if arg == "missing" else arg for arg in argv]
        rc, stdout, stderr = run_cli(capsys, *argv, missing, "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert stderr == ("error: output path is empty\n" if case == "empty" else
                          f"error: output file {out}: {parent} is not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dang"]
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "keep\n"
        assert str((tmp_path / "dang").readlink()) == "nowhere/x"

    def test_out_through_a_symlink_to_a_directory_writes(self, trained, toy_tsv, tmp_path,
                                                          capsys):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to("real")
        out = tmp_path / "link" / "m.json"
        rc, stdout, _ = run_cli(capsys, "evaluate", "--checkpoint",
                                str(trained / "checkpoint.txt"), "--corpus", str(toy_tsv),
                                "--out", str(out))
        assert (rc, stdout) == (0, f"metrics written to {out}\n")
        assert json.loads((tmp_path / "real" / "m.json").read_text())["total"] == 700


class TestEmptyCorpusOrSplit:
    """``load_corpus`` refuses a corpus with no sentence, and ``split`` a split
    with an empty side, for every command that reads a corpus or splits one."""

    @pytest.mark.parametrize(
        "argv", [["ingest"], ["stats"], ["train"], ["evaluate"], ["reproduce-run", "1"]],
        ids=lambda argv: argv[0],
    )
    def test_corpus_with_no_sentences_exit_2(self, argv, trained, tmp_path, capsys):
        tsv = tmp_path / "headers.tsv"
        tsv.write_text("#doc\tA\n\n#doc\tB\n", encoding="utf-8")
        if argv[0] in ("train", "reproduce-run"):
            argv = [*argv, "--out", str(tmp_path / "out")]
        if argv[0] == "evaluate":
            argv = [*argv, "--checkpoint", str(trained / "checkpoint.txt")]
        rc, stdout, stderr = run_cli(capsys, *argv, "--corpus", str(tsv))
        assert (rc, stdout) == (2, "")
        assert stderr == f"error: {tsv}: contains no sentences\n"
        assert not (tmp_path / "out").exists()

    def test_one_sentence_corpus_exit_2_with_the_split_message(self, tmp_path, capsys):
        tsv = tmp_path / "one.tsv"
        tsv.write_text("#doc\tA\nThe appeal is allowed.\tFacts\n", encoding="utf-8")
        rc, stdout, stderr = run_cli(
            capsys, "train", "--corpus", str(tsv), "--out", str(tmp_path / "out")
        )
        assert (rc, stdout) == (2, "")
        assert stderr == (
            "error: the sentence_shuffled split leaves the training set empty "
            "(sentences: 1, train_fraction: 0.8)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_one_document_split_refused_before_the_vectors_file_is_read(
        self, tmp_path, capsys
    ):
        tsv = tmp_path / "one_doc.tsv"
        tsv.write_text(
            "#doc\tA\nThe appeal is allowed.\tFacts\nSection 302 applies.\tStatute\n",
            encoding="utf-8",
        )
        rc, stdout, stderr = run_cli(
            capsys, "train", "--corpus", str(tsv), "--out", str(tmp_path / "out"),
            "--split-mode", "document_level",
            "--provider", f"precomputed:{tmp_path / 'missing.emb'}",
        )
        assert (rc, stdout) == (2, "")
        assert stderr == (
            "error: the document_level split leaves the validation set empty "
            "(sentences: 2, train_fraction: 0.8)\n"
        )
        assert not (tmp_path / "out").exists()


class TestConfigResolution:
    def test_presets_match_run_descriptions(self):
        assert PRESETS["run1"] == {
            "casing": "cased", "weight_scheme": "inverse_frequency", "balance": "loss_weighting"
        }
        assert PRESETS["run2"]["casing"] == "uncased"
        assert PRESETS["run3"]["weight_scheme"] == "direct_frequency"

    def test_defaults_carry_shared_hyperparameters(self):
        cfg = resolve_config(preset="run1")
        assert (cfg.batch_size, cfg.epochs, cfg.learning_rate) == (8, 4, 2e-5)
        assert (cfg.train_fraction, cfg.seed) == (0.8, 42)

    def test_precedence_flags_over_file_over_preset(self):
        cfg = resolve_config(
            preset="run1",
            file_config={"casing": "uncased", "epochs": 9},
            overrides={"epochs": 2},
        )
        assert cfg.casing == "uncased"  # file beats preset
        assert cfg.epochs == 2  # flag beats file

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match=r"^unknown config fields: \['learning_rat'\]$"):
            resolve_config(file_config={"learning_rat": 1e-3})

    def test_wrong_typed_field_rejected(self):
        with pytest.raises(InputError, match="^epochs must be an integer$"):
            resolve_config(file_config={"epochs": "four"})

    def test_config_json_key_order_and_defaults(self):
        """Pins config.json byte for byte: its key order and every default."""
        cfg = resolve_config(
            preset="run2", overrides={"corpus": "corpus.tsv", "learning_rate": 1e-2, "max_len": 12}
        )
        weights = {label: (i + 1) / 4 for i, label in enumerate(LABELS)}
        assert config_to_json(cfg, weights, "hashed:256:uncased:12") == """\
{
  "run_id": "run2",
  "preset": "run2",
  "corpus": "corpus.tsv",
  "casing": "uncased",
  "weight_scheme": "inverse_frequency",
  "balance": "loss_weighting",
  "weight_overrides": null,
  "provider": "hashed:256",
  "max_len": 12,
  "length_percentile_q": 0.98,
  "train_fraction": 0.8,
  "split_mode": "sentence_shuffled",
  "batch_size": 8,
  "epochs": 4,
  "learning_rate": 0.01,
  "weight_decay": 0.01,
  "beta1": 0.9,
  "beta2": 0.999,
  "epsilon": 1e-08,
  "seed": 42,
  "selection_metric": "macro_f1",
  "resolved_class_weights": {
    "Facts": 0.25,
    "Ruling by Lower Court": 0.5,
    "Argument": 0.75,
    "Statute": 1.0,
    "Precedent": 1.25,
    "Ratio of the decision": 1.5,
    "Ruling by Present Court": 1.75
  },
  "resolved_provider_id": "hashed:256:uncased:12"
}
"""

    def test_loss_weighting_requires_non_uniform(self):
        with pytest.raises(InputError, match="^balance=loss_weighting needs a non-uniform "):
            RunConfig(weight_scheme="uniform", balance="loss_weighting")
        RunConfig(
            weight_scheme="uniform", balance="loss_weighting",
            weight_overrides={"Facts": 2.0},
        )

    def test_provider_spec_parsing(self):
        assert parse_provider_spec("hashed:128") == ("hashed", 128, None, None)
        assert parse_provider_spec("hashed:128:uncased:9") == ("hashed", 128, "uncased", 9)
        assert parse_provider_spec("precomputed:/x/y.emb") == (
            "precomputed", "/x/y.emb", None, None
        )
        message = "^provider must be 'hashed:<dim>' or 'precomputed:<path>', got 'magic:1'$"
        with pytest.raises(InputError, match=message):
            parse_provider_spec("magic:1")
        with pytest.raises(InputError, match=message):
            RunConfig(provider="magic:1")

    @pytest.mark.parametrize(
        "override",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"seed": -1},
            {"train_fraction": 1.0},
            {"split_mode": "by_page"},
            {"selection_metric": "accuracy"},
        ],
    )
    def test_training_and_split_rules_checked_at_resolution(self, override):
        with pytest.raises(InputError):
            resolve_config(overrides=override)

    @pytest.mark.parametrize(
        "name",
        ("batch_size", "epochs", "seed", "learning_rate", "weight_decay", "beta1", "beta2",
         "epsilon", "train_fraction", "length_percentile_q", "max_len"),
    )
    def test_boolean_in_numeric_field_rejected(self, name):
        with pytest.raises(InputError, match=name):
            resolve_config(file_config={name: True})

    @pytest.mark.parametrize(
        "name,value",
        [("learning_rate", float("nan")), ("epsilon", float("nan")),
         ("weight_decay", float("inf")),
         # An integer beyond float range is no finite real either.
         pytest.param("learning_rate", 10**400, id="learning_rate-big_int")],
    )
    def test_non_finite_real_field_rejected(self, name, value):
        with pytest.raises(InputError, match=name):
            resolve_config(file_config={name: value})

    @pytest.mark.parametrize(
        "overrides",
        [{"Facts": "x"}, ["Facts"], {"Facts": float("nan")}, {"Facts": float("inf")},
         {"Facts": True}, {"Facts": 10**400}],
        ids=["string", "list", "nan", "inf", "bool", "big_int"],
    )
    def test_malformed_weight_overrides_rejected(self, overrides):
        with pytest.raises(InputError, match="weight"):
            resolve_config(file_config={"weight_overrides": overrides})
