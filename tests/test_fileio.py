from __future__ import annotations

import os
import stat

import pytest

from rhetrole.fileio import write_atomic


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
