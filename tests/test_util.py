"""Atomic text writes."""

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
    # a lone surrogate fails to encode after the temp file is created
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "new \ud800\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
