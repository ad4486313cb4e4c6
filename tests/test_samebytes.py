"""``tools/samebytes.py``: its comparison of two run directories, and its
command table against the CLI's parser. Nothing here trains."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from rhetrole import cli

_SPEC = importlib.util.spec_from_file_location(
    "samebytes", Path(__file__).resolve().parent.parent / "tools" / "samebytes.py")
samebytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(samebytes)


def write(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_equal_directories_have_no_differences(tmp_path):
    files = {"run/checkpoint.txt": b"CKPT v1\n", "run.stdout": b"ok\n", "run.exit": b"0\n",
             ".toy.emb.cache": b"\0\1"}
    assert samebytes.differences(write(tmp_path / "a", files), write(tmp_path / "b", files)) == []


def test_files_held_by_one_side_or_with_other_bytes_are_named(tmp_path):
    a = write(tmp_path / "a", {"same.tsv": b"x\n", "only_a/checkpoint.txt": b"",
                               "metrics.json": b"{}\n", "run.exit": b"0\n"})
    b = write(tmp_path / "b", {"same.tsv": b"x\n", "only_b.stderr": b"",
                               "metrics.json": b"{ }\n", "run.exit": b"1\n"})
    assert samebytes.differences(a, b) == [
        "metrics.json", "only_a/checkpoint.txt", "only_b.stderr", "run.exit"]


@pytest.mark.parametrize("row", samebytes.ROWS)
def test_every_row_parses(row):
    # A renamed or removed flag fails here rather than in a run of the script.
    args = cli.build_parser().parse_args(samebytes.ROWS[row].split())
    assert callable(args.func)
