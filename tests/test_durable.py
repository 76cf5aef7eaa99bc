"""The shared durability protocol: cases its callers' tests do not reach."""

from __future__ import annotations

import os

from repro.durable import append_line, read_lines


def test_append_to_an_empty_file_adds_no_leading_newline(tmp_path):
    path = tmp_path / "log.jsonl"
    path.touch()
    append_line(path, "x")
    assert path.read_bytes() == b"x\n"


def test_every_appended_line_is_fsynced(tmp_path, monkeypatch):
    synced = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real(fd)))
    append_line(tmp_path / "log.jsonl", "a")
    append_line(tmp_path / "log.jsonl", "b")
    assert len(synced) == 2


def test_read_lines_strips_and_skips_blank_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("  a \n\n\nb\n   \n", encoding="utf-8")
    assert list(read_lines(path)) == [b"a", b"b"]
    assert list(read_lines(tmp_path / "missing.jsonl")) == []
