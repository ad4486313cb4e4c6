from __future__ import annotations

import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetrole.errors import InputError
from rhetrole.fileio import check_output_path, write_atomic


def test_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    write_atomic(path, ["old\n"])

    def chunks():
        yield "new\n" * 100_000
        raise RuntimeError("failed part-way")

    with pytest.raises(RuntimeError, match="part-way"):
        write_atomic(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_new_file_mode_is_that_of_a_plain_open(tmp_path):
    write_atomic(tmp_path / "atomic.txt", ["x"])
    (tmp_path / "plain.txt").write_text("x")
    assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_symlinks_and_devices_are_written_through(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    (tmp_path / "link.txt").symlink_to(target)
    write_atomic(tmp_path / "link.txt", ["new\n"])
    assert (tmp_path / "link.txt").is_symlink()
    assert target.read_text() == "new\n"
    (tmp_path / "null").symlink_to(os.devnull)
    write_atomic(tmp_path / "null", ["discarded\n"])
    assert (tmp_path / "null").is_symlink()
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "null", "target.txt"]


def test_missing_directory_error_names_the_target(tmp_path):
    path = tmp_path / "no_such_dir" / "out.txt"
    with pytest.raises(FileNotFoundError, match="no_such_dir/out.txt'"):
        write_atomic(path, ["x"])


_NAMES = ("a", "b", "c")
# What a tree entry is made as; a symlink's value is its target.
_KINDS = {"dir": None, "file": None, "dangling_link": "nowhere/x",
          "dangling_link_to_a_sibling": "gone", "link_to_its_directory": "."}
_PATHS = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3).map(tuple)


def _make_tree(root: Path, entries) -> None:
    for parts, kind in entries:
        path = root.joinpath(*parts)
        if os.path.lexists(path) or not path.parent.is_dir():
            continue
        if kind == "dir":
            path.mkdir()
        elif kind == "file":
            path.write_text("old\n")
        else:
            path.symlink_to(_KINDS[kind])


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.tuples(_PATHS, st.sampled_from(sorted(_KINDS))), max_size=8),
       target=_PATHS)
def test_a_file_output_is_accepted_exactly_when_write_atomic_can_write_it(entries, target):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _make_tree(root, entries)
        path = str(root.joinpath(*target))
        try:
            check_output_path(path)
            accepted = True
        except InputError:
            accepted = False
        try:
            write_atomic(path, ["new\n"])
            written = True
        except OSError:
            written = False
        assert accepted == written
        if written:
            assert Path(path).read_text() == "new\n"

