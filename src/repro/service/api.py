"""The resilient scenario service: submit configs, survive anything.

:class:`ScenarioService` glues the journal (:mod:`repro.service.store`),
the fingerprint result cache (:mod:`repro.service.cache`), the bounded
admission queue (:mod:`repro.service.queue`) and the worker supervisor
(:mod:`repro.service.supervisor`) into one crash-tolerant job service:

* ``submit(config)`` → a :class:`Ticket`: served from cache immediately,
  coalesced onto an identical in-flight job, queued, or rejected with an
  explicit ``retry_after`` (backpressure);
* ``step()`` / ``drain()`` pump the pipeline: dispatch queued jobs to the
  supervisor, harvest outcomes, write results through cache + journal;
* constructing a service on an existing root **recovers**: the journal is
  replayed, jobs that were ``running`` or ``queued`` at the crash are
  requeued (bypassing admission — accepted work is never shed by a
  restart), and jobs whose result reached the cache before the crash are
  completed as cache hits instead of recomputed.

Write ordering gives exactly-once completion: a result is written to the
cache *before* the journal's ``done`` line, so a crash between the two
replays as "requeue, then hit the cache" — never as a second computation.

**Graceful degradation**: the cache path never touches the worker pool, so
a saturated or dead pool (``supervisor.healthy == False``) still serves
every duplicate-fingerprint submission; only fresh computations are
rejected.  See docs/service.md for the full semantics.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, ReproError
from repro.experiments.runner import with_rolling_snapshot
from repro.experiments.scenario import ScenarioConfig, config_fingerprint
from repro.reports.summary import FailedRun, RunSummary
from repro.service.cache import ResultCache
from repro.service.queue import SHED_DISPLACED, AdmissionQueue
from repro.service.store import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
)
from repro.service.supervisor import JobOutcome, WorkerSupervisor
from repro.snapshot.capture import encode_config
from repro.snapshot.restore import decode_config

__all__ = ["ScenarioService", "ServiceStats", "Ticket"]

#: Ticket statuses a submission can come back with.
STATUS_DONE = "done"  # served from cache, already terminal
STATUS_QUEUED = "queued"  # accepted, will run
STATUS_COALESCED = "coalesced"  # identical fingerprint already in flight
STATUS_REJECTED = "rejected"  # backpressure: retry after the hint


@dataclass(frozen=True)
class Ticket:
    """What a client gets back from one ``submit`` call."""

    job_id: str
    fingerprint: str
    status: str
    #: True when the result came straight from the fingerprint cache.
    cached: bool = False
    #: Backpressure hint (seconds) for a rejected submission.
    retry_after: float | None = None

    @property
    def accepted(self) -> bool:
        return self.status != STATUS_REJECTED


@dataclass
class ServiceStats:
    """Monotone counters; nothing is ever dropped without one ticking."""

    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    #: Cache hits served while the worker pool was saturated or dead.
    degraded_hits: int = 0
    computed: int = 0
    failed: int = 0
    recovered: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class ScenarioService:
    """A supervised, crash-tolerant scenario-execution service."""

    def __init__(
        self,
        root: str | Path,
        *,
        workers: int = 0,
        queue_capacity: int = 64,
        timeout: float | None = None,
        max_attempts: int = 2,
        seed: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        run_fn: Callable[[ScenarioConfig], RunSummary | FailedRun] | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.root / "journal.jsonl")
        self.cache = ResultCache(self.root / "cache")
        self.queue = AdmissionQueue(queue_capacity)
        self.supervisor = WorkerSupervisor(
            workers,
            run_fn=run_fn,
            timeout=timeout,
            max_attempts=max_attempts,
            seed=seed,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            quarantine_dir=self.root / "quarantine",
            clock=clock,
        )
        self.stats = ServiceStats()
        # The only sanctioned ad-hoc wait in the repo outside the sweep
        # engine (reprolint REP010); injectable so tests never sleep.
        self._sleep = sleep if sleep is not None else time.sleep
        #: fingerprint -> job_id for every non-terminal job (coalescing).
        self._open_by_fp: dict[str, str] = {}
        self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: requeue interrupted work, index open jobs."""
        for job in self.store.jobs():
            if job.terminal:
                continue
            if job.state == RUNNING:
                # Crashed mid-run: the journal is authoritative, put it
                # back.  Attempts are preserved so a poison job cannot
                # dodge quarantine by crashing the whole service.
                self.store.record_queued(
                    job.job_id,
                    job.fingerprint,
                    attempts=job.attempts,
                )
                self.stats.recovered += 1
            elif job.state == QUEUED:
                self.stats.recovered += 1
            # Accepted-before-crash work bypasses admission control:
            # recovery must never shed or reject it.
            self.queue.force(
                job.job_id, priority=job.priority, seq=job.seq
            )
            self._open_by_fp[job.fingerprint] = job.job_id

    # -- submission --------------------------------------------------------

    def submit(self, config: ScenarioConfig, *, priority: int = 0) -> Ticket:
        """Offer one scenario; returns a :class:`Ticket`, never raises for
        load reasons (rejection is a ticket, not an exception)."""
        self.stats.submitted += 1
        fingerprint = config_fingerprint(config)

        # 1. Cache first: hits bypass admission control and the pool
        #    entirely, which is exactly what keeps degraded mode useful.
        hit = self.cache.get(fingerprint)
        if hit is not None:
            self.stats.cache_hits += 1
            if not self.supervisor.has_capacity():
                self.stats.degraded_hits += 1
            job_id = self._new_job_id(fingerprint)
            self.store.record_queued(
                job_id,
                fingerprint,
                priority=priority,
                config=None,  # result already cached; config not needed
            )
            self.store.record_done(job_id, cache_hit=True)
            self.stats.accepted += 1
            return Ticket(
                job_id=job_id,
                fingerprint=fingerprint,
                status=STATUS_DONE,
                cached=True,
            )

        # 2. Identical fingerprint already queued/running: coalesce.  The
        #    duplicate rides the in-flight computation — duplicate
        #    fingerprints never recompute (chaos oracle).
        open_job = self._open_by_fp.get(fingerprint)
        if open_job is not None and not self._is_terminal(open_job):
            self.stats.coalesced += 1
            return Ticket(
                job_id=open_job,
                fingerprint=fingerprint,
                status=STATUS_COALESCED,
            )

        # 3. Admission control: bounded queue, shed-or-reject when full.
        decision = self.queue.offer(
            self._peek_job_id(fingerprint),
            priority=priority,
            seq=self.store.next_seq(),
        )
        if not decision.admitted:
            self.stats.rejected += 1
            return Ticket(
                job_id="",
                fingerprint=fingerprint,
                status=STATUS_REJECTED,
                retry_after=decision.retry_after,
            )
        if decision.displaced is not None:
            shed = self.store.record_shed(
                decision.displaced, reason=SHED_DISPLACED
            )
            self._open_by_fp.pop(shed.fingerprint, None)
            self.stats.shed += 1
        job_id = self._new_job_id(fingerprint)
        self.store.record_queued(
            job_id,
            fingerprint,
            priority=priority,
            config=encode_config(config),
        )
        self._open_by_fp[fingerprint] = job_id
        self.stats.accepted += 1
        return Ticket(
            job_id=job_id, fingerprint=fingerprint, status=STATUS_QUEUED
        )

    def _peek_job_id(self, fingerprint: str) -> str:
        return f"job-{self.store.next_seq():06d}-{fingerprint[:12]}"

    def _new_job_id(self, fingerprint: str) -> str:
        return self._peek_job_id(fingerprint)

    def _is_terminal(self, job_id: str) -> bool:
        job = self.store.get(job_id)
        return job is None or job.terminal

    # -- pumping -----------------------------------------------------------

    def step(self) -> int:
        """One pump cycle: dispatch, harvest, settle.  Returns the number
        of jobs that reached a terminal state this cycle."""
        self._dispatch()
        settled = 0
        for outcome in self.supervisor.poll():
            self._settle(outcome.job_id, outcome)
            settled += 1
        return settled

    def _dispatch(self) -> None:
        while self.supervisor.has_capacity():
            job_id = self.queue.pop()
            if job_id is None:
                return
            job = self.store.get(job_id)
            if job is None or job.terminal:
                continue  # shed after queueing, or stale recovery entry
            # A result may have landed since this job was queued (a crash
            # between cache-write and journal-done, or a coalesced twin
            # finished first): serve it, never recompute.
            hit = self.cache.get(job.fingerprint)
            if hit is not None:
                self.store.record_done(job_id, cache_hit=True)
                self._open_by_fp.pop(job.fingerprint, None)
                self.stats.cache_hits += 1
                continue
            if job.config is None:
                self._fail_undispatchable(
                    job,
                    "MissingConfig",
                    "journal lost this job's config payload; "
                    "resubmit the scenario",
                )
                continue
            try:
                config = decode_config(job.config)
            except ReproError as exc:
                # Journaled by an older build (a field or option value
                # since removed): fail this job, not every restart.
                self._fail_undispatchable(job, type(exc).__name__, str(exc))
                continue
            config = with_rolling_snapshot(
                config, self.root / "snap", job.fingerprint
            )
            self.store.record_running(job_id, attempts=job.attempts + 1)
            self.supervisor.submit(job_id, config, attempts=job.attempts)

    def _fail_undispatchable(
        self, job: JobRecord, error_type: str, error_message: str
    ) -> None:
        """Record a job that cannot even be handed to a worker as failed."""
        self.store.record_failed(
            job.job_id,
            error_type=error_type,
            error_message=error_message,
            attempts=job.attempts,
        )
        self._open_by_fp.pop(job.fingerprint, None)
        self.stats.failed += 1

    def _settle(self, job_id: str, outcome: JobOutcome) -> None:
        job = self.store.get(job_id)
        if job is None or job.terminal:
            return
        result = outcome.result
        if isinstance(result, RunSummary):
            # Cache BEFORE journal: a crash between the two replays as a
            # requeue that hits the cache — exactly-once completion.
            self.cache.put(job.fingerprint, result)
            self.store.record_done(job_id, cache_hit=False)
            self.stats.computed += 1
        else:
            self.store.record_failed(
                job_id,
                error_type=result.error_type,
                error_message=result.error_message,
                attempts=outcome.attempts,
                quarantine=outcome.quarantine,
            )
            self.stats.failed += 1
        self._open_by_fp.pop(job.fingerprint, None)

    def drain(
        self,
        *,
        poll_interval: float = 0.02,
        max_wall: float | None = None,
    ) -> bool:
        """Pump until every accepted job is terminal.

        Returns True when fully drained; False when *max_wall* seconds of
        wall time elapsed first (the caller decides what to do with the
        remainder — state is durable either way).
        """
        start = time.perf_counter()
        while True:
            settled = self.step()
            if not self.open_jobs() and self.supervisor.pending() == 0:
                return True
            if (
                max_wall is not None
                and time.perf_counter() - start > max_wall
            ):
                return False
            if settled == 0:
                self._sleep(poll_interval)

    # -- queries -----------------------------------------------------------

    def open_jobs(self) -> list[JobRecord]:
        return self.store.open_jobs()

    def status(self, job_id: str) -> JobRecord:
        job = self.store.get(job_id)
        if job is None:
            raise ConfigurationError(f"unknown job {job_id}")
        return job

    def result(self, job_id: str) -> RunSummary | FailedRun | None:
        """The job's result: a summary for ``done`` (from the cache), a
        :class:`FailedRun` reconstructed from the journal for ``failed``,
        ``None`` while the job is still open or was shed/cancelled."""
        job = self.status(job_id)
        if job.state == DONE:
            return self.cache.get(job.fingerprint)
        if job.state == FAILED:
            return FailedRun(
                scenario="",
                policy="",
                seed=0,
                error_type=job.error_type,
                error_message=job.error_message,
                attempts=job.attempts,
            )
        return None

    def report(self) -> dict[str, Any]:
        """One JSON-safe document describing the whole service state."""
        return {
            "root": str(self.root),
            "counts": self.store.counts(),
            "jobs": [
                {
                    "job_id": j.job_id,
                    "state": j.state,
                    "fingerprint": j.fingerprint,
                    "priority": j.priority,
                    "attempts": j.attempts,
                    "cache_hit": j.cache_hit,
                    "shed_reason": j.shed_reason,
                    "error_type": j.error_type,
                }
                for j in self.store.jobs()
            ],
            "stats": self.stats.as_dict(),
            "supervisor": self.supervisor.stats.as_dict(),
            "cache": {
                "entries": len(self.cache.fingerprints()),
                "corrupt_dropped": self.cache.corrupt_dropped,
            },
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.capacity,
            },
            "degraded": not self.supervisor.healthy,
        }

    def write_report(self, path: str | Path | None = None) -> Path:
        target = Path(path) if path is not None else self.root / "report.json"
        target.write_text(
            json.dumps(self.report(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    def close(self) -> None:
        self.supervisor.shutdown()

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
