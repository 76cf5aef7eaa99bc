"""Crash-safe sweep checkpoints (append-only JSONL).

A sweep writes one line per finished item — success or failure — keyed by a
content fingerprint of the item's :class:`ScenarioConfig`.  Resuming a
killed sweep (``--resume PATH``) replays the file and skips every config
whose summary is already recorded, so an interrupted multi-hour grid loses
at most the items that were in flight.

Design points:

* the key is a hash of the *config contents* (not its position), so a
  resume is safe under grid edits — only unchanged points are reused;
* lines are flushed + fsynced as written (:func:`repro.durable.append_line`);
  a torn final line (the process died mid-write) is detected and ignored
  on load;
* failed items are recorded for reporting but never *reused*: a resume
  retries them, because the failure may have been environmental (OOM, a
  killed worker) rather than deterministic.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Union

from repro.durable import append_line, read_lines
from repro.reports.summary import FailedRun, RunSummary

SweepResult = Union[RunSummary, FailedRun]

_KIND_SUMMARY = "summary"
_KIND_FAILED = "failed"


class SweepCheckpoint:
    """One sweep's append-only result log.

    The in-memory view keeps the *last* record per key, so a retried item
    simply overwrites its earlier failure when replayed.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._records: dict[str, SweepResult] = {}
        #: Replayed lines whose key was already present (retries, or a
        #: pre-harvest-fix sweep that recomputed items after a pool
        #: rebuild).  Last write wins; the count makes it visible.
        self.duplicate_keys = 0
        self._load()

    def _load(self) -> None:
        duplicates: set[str] = set()
        for line in read_lines(self.path):
            try:
                entry = json.loads(line.decode("utf-8"))
                kind = entry["kind"]
                data = entry["data"]
                key = entry["key"]
                if kind == _KIND_SUMMARY:
                    record = RunSummary.from_record(data)
                elif kind == _KIND_FAILED:
                    record = FailedRun.from_record(data)
                else:
                    continue
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                continue  # torn final line from a mid-write crash, or garbled bytes
            if key in self._records:
                self.duplicate_keys += 1
                duplicates.add(key)
            self._records[key] = record
        if duplicates:
            # One warning per load, not per line: a long retry history is
            # normal, but the operator should know the journal holds more
            # than one record for some points (the later one is used).
            warnings.warn(
                f"sweep checkpoint {self.path} replayed "
                f"{self.duplicate_keys} duplicate line(s) across "
                f"{len(duplicates)} fingerprint(s); keeping the last "
                "record for each",
                stacklevel=3,
            )

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def completed(self, key: str) -> RunSummary | None:
        """The recorded *successful* summary for *key*, if any.

        Failures are deliberately not returned: a resumed sweep retries
        them (the crash may have been environmental, not deterministic).
        """
        hit = self._records.get(key)
        return hit if isinstance(hit, RunSummary) else None

    def failed(self, key: str) -> FailedRun | None:
        """The recorded failure for *key*, if any (reporting only)."""
        hit = self._records.get(key)
        return hit if isinstance(hit, FailedRun) else None

    # -- writes --------------------------------------------------------------

    def record(self, key: str, result: SweepResult) -> None:
        """Append one finished item and force it to disk."""
        kind = _KIND_SUMMARY if isinstance(result, RunSummary) else _KIND_FAILED
        entry: dict[str, Any] = {
            "key": key,
            "kind": kind,
            "data": result.record(),
        }
        self._records[key] = result
        append_line(self.path, json.dumps(entry, default=str))
