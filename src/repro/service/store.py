"""Append-only job journal for the scenario service.

Every job-state transition is one JSONL line, flushed and fsynced as
written by :func:`repro.durable.append_line`, so a SIGKILL at any instant
loses at most the line being written.  The journal is the service's *only*
authoritative state: restarting a killed service replays the file (torn
final line tolerated, exactly like
:class:`repro.experiments.checkpoint.SweepCheckpoint`) and resumes where it
died — jobs recorded ``running`` at the crash are put back in the queue,
terminal jobs stay terminal, and nothing accepted is ever forgotten.

State machine (see docs/service.md)::

    queued ──> running ──> done
       │          │  └───> failed        (quarantined after max attempts)
       │          └──────> queued        (requeued on crash recovery)
       ├─────────> done                  (cache hit, never ran)
       ├─────────> failed                (config payload lost, cache miss)
       ├─────────> shed                  (displaced by a higher priority)
       └─────────> cancelled

``done``/``failed``/``cancelled``/``shed`` are terminal.  A ``done`` event
records whether the result came from the fingerprint cache (``cache_hit``)
or a fresh computation — the exactly-once accounting the chaos oracles
check.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.durable import append_line, read_lines
from repro.errors import ConfigurationError

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "QUEUED",
    "RUNNING",
    "SHED",
    "TERMINAL_STATES",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
SHED = "shed"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, SHED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, SHED})

#: Transitions the journal accepts; anything else is a service bug.  A
#: crash-recovery requeue (``running -> queued``) is deliberately legal.
_LEGAL = {
    # queued -> done serves a cache hit without running; queued -> failed
    # is the dispatch-time dead end (journal lost the config payload and
    # the cache cannot serve the fingerprint).
    QUEUED: {RUNNING, SHED, CANCELLED, DONE, FAILED},
    RUNNING: {DONE, FAILED, QUEUED, CANCELLED},
}


@dataclass(frozen=True)
class JobRecord:
    """The folded (current) view of one job after journal replay."""

    job_id: str
    fingerprint: str
    state: str
    priority: int = 0
    #: Admission order — the deterministic tiebreak for queueing/shedding.
    seq: int = 0
    attempts: int = 0
    #: Encoded :class:`~repro.experiments.scenario.ScenarioConfig` (the
    #: ``queued`` event carries it so a restart can re-dispatch the job).
    config: dict[str, Any] | None = None
    #: ``done`` bookkeeping: did the result come from the cache?
    cache_hit: bool = False
    error_type: str = ""
    error_message: str = ""
    #: Why a ``shed`` job was dropped (see docs/chaos.md taxonomy).
    shed_reason: str = ""
    #: Path of the quarantine reproducer for a poisoned ``failed`` job.
    quarantine: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobStore:
    """One service's append-only job journal (JSONL, fsync per line)."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._jobs: dict[str, JobRecord] = {}
        #: Count of journal lines skipped on load (torn tail, corruption).
        self.skipped_lines = 0
        self._max_seq = -1
        self._load()

    # -- replay ------------------------------------------------------------

    def _load(self) -> None:
        for line in read_lines(self.path):
            try:
                self._fold(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Torn final line from a mid-write crash, or bytes a chaos
                # campaign truncated/garbled (a UnicodeDecodeError is a
                # ValueError).  The line before it was fsynced, so skipping
                # loses at most one transition — which replays as a
                # requeue, never a lost job.
                self.skipped_lines += 1

    def _fold(self, entry: dict[str, Any]) -> None:
        job_id = entry["job"]
        event = entry["event"]
        if event not in JOB_STATES:
            raise ValueError(f"unknown job event {event!r}")
        prev = self._jobs.get(job_id)
        if prev is None:
            if event != QUEUED:
                # An orphan transition whose queued line was lost: keep the
                # job visible rather than dropping it, but only terminal
                # states are trustworthy without the config payload.
                self._jobs[job_id] = JobRecord(
                    job_id=job_id,
                    fingerprint=str(entry.get("fingerprint", "")),
                    state=event,
                    attempts=int(entry.get("attempts", 0)),
                    cache_hit=bool(entry.get("cache_hit", False)),
                    error_type=str(entry.get("error_type", "")),
                    error_message=str(entry.get("error_message", "")),
                    shed_reason=str(entry.get("shed_reason", "")),
                    quarantine=str(entry.get("quarantine", "")),
                )
                return
            record = JobRecord(
                job_id=job_id,
                fingerprint=entry["fingerprint"],
                state=QUEUED,
                priority=int(entry.get("priority", 0)),
                seq=int(entry.get("seq", 0)),
                attempts=int(entry.get("attempts", 0)),
                config=entry.get("config"),
            )
            self._jobs[job_id] = record
            self._max_seq = max(self._max_seq, record.seq)
            return
        changes: dict[str, Any] = {"state": event}
        if "attempts" in entry:
            changes["attempts"] = int(entry["attempts"])
        for key in (
            "cache_hit", "error_type", "error_message", "shed_reason",
            "quarantine",
        ):
            if key in entry:
                changes[key] = entry[key]
        self._jobs[job_id] = replace(prev, **changes)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def get(self, job_id: str) -> JobRecord | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[JobRecord]:
        """All jobs in admission order (stable across replays)."""
        return sorted(self._jobs.values(), key=lambda j: (j.seq, j.job_id))

    def open_jobs(self) -> list[JobRecord]:
        """Jobs not yet in a terminal state, in admission order."""
        return [j for j in self.jobs() if not j.terminal]

    def counts(self) -> dict[str, int]:
        out = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            out[job.state] += 1
        return out

    def next_seq(self) -> int:
        """The admission sequence number for the next accepted job."""
        return self._max_seq + 1

    # -- writes ------------------------------------------------------------

    def _append(self, entry: dict[str, Any]) -> None:
        append_line(self.path, json.dumps(entry, sort_keys=True))
        self._fold(entry)

    def record_queued(
        self,
        job_id: str,
        fingerprint: str,
        *,
        priority: int = 0,
        config: dict[str, Any] | None = None,
        attempts: int = 0,
        seq: int | None = None,
    ) -> JobRecord:
        """Admit a new job, or requeue an existing (crashed) one."""
        prev = self._jobs.get(job_id)
        if prev is not None and prev.state not in _LEGAL:
            raise ConfigurationError(
                f"job {job_id} is {prev.state}; cannot requeue a terminal job"
            )
        entry: dict[str, Any] = {
            "job": job_id,
            "event": QUEUED,
            "fingerprint": fingerprint,
            "attempts": attempts,
        }
        if prev is None:
            entry["priority"] = priority
            entry["seq"] = self.next_seq() if seq is None else seq
            entry["config"] = config
        self._append(entry)
        return self._jobs[job_id]

    def _transition(self, job_id: str, event: str, **fields: Any) -> JobRecord:
        prev = self._jobs.get(job_id)
        if prev is None:
            raise ConfigurationError(f"unknown job {job_id}")
        if event not in _LEGAL.get(prev.state, set()):
            raise ConfigurationError(
                f"illegal transition {prev.state} -> {event} for job {job_id}"
            )
        entry = {"job": job_id, "event": event, **fields}
        self._append(entry)
        return self._jobs[job_id]

    def record_running(self, job_id: str, *, attempts: int) -> JobRecord:
        return self._transition(job_id, RUNNING, attempts=attempts)

    def record_done(self, job_id: str, *, cache_hit: bool) -> JobRecord:
        return self._transition(job_id, DONE, cache_hit=cache_hit)

    def record_failed(
        self,
        job_id: str,
        *,
        error_type: str,
        error_message: str,
        attempts: int,
        quarantine: str = "",
    ) -> JobRecord:
        return self._transition(
            job_id,
            FAILED,
            error_type=error_type,
            error_message=error_message,
            attempts=attempts,
            quarantine=quarantine,
        )

    def record_shed(self, job_id: str, *, reason: str) -> JobRecord:
        return self._transition(job_id, SHED, shed_reason=reason)

    def record_cancelled(self, job_id: str) -> JobRecord:
        return self._transition(job_id, CANCELLED)

    def state_digest(self) -> str:
        """Canonical JSON of the folded job map (replay-stability oracle).

        Two replays of the same journal bytes must produce byte-identical
        digests; the chaos campaign asserts exactly that after every crash,
        truncation and restart.
        """
        payload = {
            job_id: {
                "state": job.state,
                "fingerprint": job.fingerprint,
                "priority": job.priority,
                "seq": job.seq,
                "attempts": job.attempts,
                "cache_hit": job.cache_hit,
                "shed_reason": job.shed_reason,
                "error_type": job.error_type,
            }
            for job_id, job in self._jobs.items()
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
