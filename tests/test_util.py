"""Atomic text and byte writes."""

import pytest

from cogcn.util import write_text_atomic


def test_write_replaces_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    write_text_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_write_removes_temp_file_and_keeps_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    # a lone surrogate fails to encode
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "new \ud800\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_bytes_are_written_as_given(tmp_path):
    path = tmp_path / "out.bin"
    write_text_atomic(path, b"\x93NUMPY\xff\n")
    assert path.read_bytes() == b"\x93NUMPY\xff\n"


def test_failed_rename_removes_temp_file(tmp_path):
    # the temp file is written, then the rename onto a non-empty directory fails
    target = tmp_path / "out"
    target.mkdir()
    (target / "keep.txt").write_text("keep\n")
    with pytest.raises(OSError):
        write_text_atomic(target, b"new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert (target / "keep.txt").read_text() == "keep\n"
