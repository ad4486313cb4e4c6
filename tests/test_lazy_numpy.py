"""numpy is imported at its first use: a command that computes nothing never
loads it, and a numpy imported before the package is the one it uses.

Every case runs in a fresh interpreter, since this test process has long
imported numpy (``conftest`` does)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rhetrole import cli
from rhetrole._lazynp import _lazy_loading_safe
from rhetrole.cli import main

# Runs main on argv and prints, as its last stdout line, the exit code and
# the numpy submodules loaded, which numpy's own import would load.
RUN_MAIN = """
import json, sys
from rhetrole.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""

# Imports numpy, then every package module that uses it, and prints whether
# each one's np is that numpy.
NUMPY_FIRST = """
import importlib, json, numpy
names = ["corpus", "embedding", "fileio", "imbalance", "linear_model", "_embcache", "toydata"]
print(json.dumps([importlib.import_module(f"rhetrole.{n}").np is numpy for n in names]))
"""


def python(code: str, *argv: str, cwd: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_main(tmp_path: Path, *argv: str) -> tuple[int, list[str], list[str]]:
    """Exit code, numpy submodules loaded, and the lines printed before them."""
    *printed, last = python(RUN_MAIN, *argv, cwd=tmp_path).splitlines()
    rc, numpy_modules = json.loads(last)
    return rc, numpy_modules, printed


@pytest.mark.parametrize("argv,rc", [
    (["--version"], 0),
    (["--help"], 0),
    (["train", "--help"], 0),
    (["train", "--epochs", "x"], 2),
    (["ingest", "--corpus", "{corpus}", "--out", "o.tsv"], 0),
    (["evaluate", "--checkpoint", "c.txt", "--corpus", "{corpus}", "--out", "missing/m.json"], 2),
], ids=["version", "help", "train_help", "usage_error", "ingest", "out_refused"])
def test_commands_that_compute_nothing_leave_numpy_unloaded(argv, rc, toy_tsv, tmp_path):
    argv = [arg.format(corpus=toy_tsv) for arg in argv]
    assert run_main(tmp_path, *argv)[:2] == (rc, [])
    if argv[0] == "ingest":
        assert (tmp_path / "o.tsv").read_bytes() == toy_tsv.read_bytes()


def test_stats_loads_numpy_and_prints_what_it_prints_in_process(toy_tsv, tmp_path, capsys):
    rc, numpy_modules, printed = run_main(tmp_path, "stats", "--corpus", str(toy_tsv))
    assert rc == 0 and numpy_modules
    assert main(["stats", "--corpus", str(toy_tsv)]) == 0
    assert printed == capsys.readouterr().out.splitlines()


def test_a_numpy_imported_first_is_the_np_of_every_module(tmp_path):
    assert json.loads(python(NUMPY_FIRST, cwd=tmp_path)) == [True] * 7


@pytest.mark.parametrize("version,safe", [
    ((3, 12, 3, "final", 0), False),
    ((3, 13, 0, "alpha", 6), False),
    ((3, 12, 4, "final", 0), True),
    ((3, 13, 0, "beta", 1), True),
    ((3, 10, 14, "final", 0), True),
], ids=["3.12.3", "3.13.0a6", "3.12.4", "3.13.0b1", "3.10.14"])
def test_numpy_is_imported_at_once_where_lazy_loading_is_not_reentrant(version, safe):
    assert _lazy_loading_safe(version) is safe
