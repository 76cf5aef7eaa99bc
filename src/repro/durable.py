"""Durable file writes: the one place the fsync and rename rules live.

Every file the package must not lose or tear goes through one of two
protocols:

* :func:`append_line` — an append-only line log (sweep checkpoints, the
  service job journal).  Each line is flushed and fsynced before the call
  returns.  A torn final line left by a crash mid-write is first moved onto
  a line of its own, so the next record is not glued to it and a reader
  loses at most that fragment.
* :func:`atomic_write` — a whole-file replace (snapshots, result-cache
  entries, chaos corpus entries).  The bytes go to a staging sibling that
  is fsynced and renamed over the target, so a reader sees the old file or
  the new one, never a torn mix.  A failed write removes the staging file.

:func:`read_lines` is the reading half of the log protocol.  It yields raw
bytes: callers keep their own serialization, decode each line themselves
and skip (and count) a line that does not decode, exactly like a torn one,
so one garbled byte cannot stop a journal from loading.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from pathlib import Path

__all__ = ["append_line", "atomic_write", "read_lines"]


def atomic_write(path: str | os.PathLike[str], data: bytes) -> Path:
    """Replace *path* with *data* atomically; returns the path.

    Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, staging = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(staging, path)
    except BaseException:
        os.unlink(staging)
        raise
    return path


def append_line(path: str | os.PathLike[str], text: str) -> None:
    """Append *text* plus a newline to *path* and force it to disk.

    Parent directories are created as needed.  When the file does not end
    in a newline (a writer died mid-line), a newline is written first.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as fh:
        torn = False
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            torn = fh.read(1) != b"\n"
        fh.write((("\n" if torn else "") + text + "\n").encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())


def read_lines(path: str | os.PathLike[str]) -> Iterator[bytes]:
    """Yield the stripped, non-empty lines of *path* as bytes; nothing if
    missing."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line
