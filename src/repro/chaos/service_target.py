"""Chaos campaign against the scenario service (docs/chaos.md).

Where the main fuzzer attacks the *simulator* with fault schedules, this
campaign attacks the *service* (:mod:`repro.service`) with hostile
operation sequences: interleaved fresh and duplicate submissions, worker
failures, mid-flight crash-restarts, torn journal tails, and cache
corruption — all derived from one seed, so every campaign replays exactly.

The compute path is a deterministic stand-in (a summary synthesized from
the config fingerprint) so thousands of service operations cost
milliseconds; the real-simulator kill/recovery path is exercised by
``tests/service/test_kill_recovery.py``.  What this campaign proves is the
*service machinery*, via four oracles:

* :data:`ORACLE_LOST_JOB` — every accepted job reaches a terminal state;
  nothing accepted is ever silently forgotten, through any number of
  crashes and restarts;
* :data:`ORACLE_RECOMPUTE` — a fingerprint is computed at most once, plus
  one recompute per cache-corruption event that hit it (duplicates and
  crash replays must ride the cache);
* :data:`ORACLE_REPLAY_STABLE` — replaying the journal is byte-stable:
  two independent replays fold to identical state digests, and recomputed
  cache entries are byte-identical to the originals;
* :data:`ORACLE_ACCOUNTING` — counters never lie: shed jobs carry a
  reason, terminal counts cover every accepted job, and no job is in an
  unknown state.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.scenario import ScenarioConfig, config_fingerprint
from repro.reports.summary import FailedRun, RunSummary
from repro.rng import RngFactory, derive_seed
from repro.service.api import ScenarioService
from repro.service.store import JobStore, SHED, TERMINAL_STATES

__all__ = [
    "ORACLE_ACCOUNTING",
    "ORACLE_LOST_JOB",
    "ORACLE_RECOMPUTE",
    "ORACLE_REPLAY_STABLE",
    "ServiceCaseResult",
    "run_service_campaign",
    "run_service_case",
]

ORACLE_LOST_JOB = "service-lost-job"
ORACLE_RECOMPUTE = "service-recompute"
ORACLE_REPLAY_STABLE = "service-replay-stable"
ORACLE_ACCOUNTING = "service-accounting"


class _FakeClock:
    """Deterministic supervisor clock: advances only when slept."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


def _scenario(seed: int) -> ScenarioConfig:
    """A tiny scenario; only its fingerprint matters to this campaign."""
    return ScenarioConfig(
        name="chaos-service",
        n_nodes=4,
        sim_time=20.0,
        policy="fifo",
        router="snw",
        seed=seed,
    )


def _fake_summary(config: ScenarioConfig) -> RunSummary:
    """A deterministic pure-function 'result' for *config*.

    Derived entirely from the config fingerprint, so same fingerprint →
    same summary → same cache bytes: exactly the property the real
    simulator gives the cache, at zero cost.
    """
    fp = config_fingerprint(config)
    digest = hashlib.sha256(fp.encode("ascii")).digest()
    created = 10 + digest[0] % 50
    delivered = digest[1] % (created + 1)
    return RunSummary(
        scenario=config.name,
        policy=config.policy,
        seed=config.seed,
        sim_time=config.sim_time,
        initial_copies=config.initial_copies,
        buffer_bytes=config.buffer_bytes,
        interval_range=config.interval_range,
        created=created,
        delivered=delivered,
        relayed=digest[2],
        delivery_ratio=delivered / created,
        average_hopcount=1.0 + digest[3] / 255.0,
        overhead_ratio=digest[4] / 16.0,
        average_latency=float(digest[5]),
    )


@dataclass
class _Harness:
    """Mutable campaign state threaded through one case."""

    seed: int
    root: Path
    #: fingerprint -> completed computations (the recompute oracle input).
    computes: dict[str, int] = field(default_factory=dict)
    #: fingerprint -> cache corruptions we inflicted on it.
    corruptions: dict[str, int] = field(default_factory=dict)
    #: fingerprint -> first observed cache bytes (byte-stability oracle).
    first_bytes: dict[str, bytes] = field(default_factory=dict)
    #: fingerprint -> compute count when first_bytes was captured; a raw
    #: byte comparison is only meaningful after a recompute rewrote the
    #: file (a flipped gzip-header don't-care byte leaves the entry valid
    #: but byte-different, with nothing ever recomputed).
    computes_at_capture: dict[str, int] = field(default_factory=dict)
    #: fingerprint -> corruption count at the latest compute.  The rewrite
    #: (cache.put) follows the compute synchronously (inline workers), so
    #: ``corruptions[fp] == corruptions_at_compute[fp]`` means the file on
    #: disk is untouched since its last rewrite.
    corruptions_at_compute: dict[str, int] = field(default_factory=dict)
    #: job_id -> fingerprint for every accepted (non-rejected) ticket.
    accepted: dict[str, str] = field(default_factory=dict)
    #: scheduled worker-failure budget per fingerprint (attempt count that
    #: fails before the job succeeds; > max_attempts means poison).
    fail_budget: dict[str, int] = field(default_factory=dict)

    def run_fn(self, config: ScenarioConfig) -> RunSummary | FailedRun:
        fp = config_fingerprint(config)
        if self.fail_budget.get(fp, 0) > 0:
            self.fail_budget[fp] -= 1
            return FailedRun(
                scenario=config.name,
                policy=config.policy,
                seed=config.seed,
                error_type="WorkerDeath",
                error_message="chaos: injected worker failure",
            )
        self.computes[fp] = self.computes.get(fp, 0) + 1
        self.corruptions_at_compute[fp] = self.corruptions.get(fp, 0)
        return _fake_summary(config)


@dataclass
class ServiceCaseResult:
    """Verdict of one fuzzed service case."""

    case_seed: int
    ops: int
    findings: list[dict[str, Any]]

    @property
    def ok(self) -> bool:
        return not self.findings


def _new_service(harness: _Harness, clock: _FakeClock) -> ScenarioService:
    return ScenarioService(
        harness.root,
        workers=0,
        queue_capacity=4,
        max_attempts=2,
        seed=harness.seed,
        backoff_base=0.01,
        backoff_cap=0.05,
        run_fn=harness.run_fn,
        clock=clock.now,
        sleep=clock.sleep,
    )


def _tear_journal_tail(path: Path, stream) -> bool:
    """Simulate a crash mid-append: tear the journal's final line.

    Fidelity matters here.  The store fsyncs every line *before* the
    caller's ticket is acknowledged, so a real crash can only tear a line
    whose write was never acknowledged.  Tearing an acknowledged original
    ``queued`` line would therefore be an impossible fault (and would
    legitimately lose the job, turning the lost-job oracle into a false
    alarm) — for those we append a torn *fragment* instead, the other real
    failure shape (crash mid-write of the next line).  Every other final
    line (``running``/``done``/``failed``/``shed``/requeue) is fair game:
    losing it must replay as a requeue, never as a lost job.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return False
    body = raw.rstrip(b"\n")
    if not body:
        return False
    last_start = body.rfind(b"\n") + 1
    last_line = body[last_start:]
    original_queued = False
    try:
        entry = json.loads(last_line.decode("utf-8"))
        original_queued = entry.get("event") == "queued" and "seq" in entry
    except (UnicodeDecodeError, ValueError):
        pass
    if original_queued or len(last_line) <= 1:
        # Torn write of a line that never completed: garbage, no newline.
        fragment = b'{"job": "job-torn", "event": "runn'
        path.write_bytes(raw + fragment)
        return True
    cut = 1 + int(stream.integers(0, len(last_line) - 1))
    path.write_bytes(raw[: len(raw) - cut])
    return True


def _corrupt_cache_entry(harness: _Harness, service: ScenarioService, stream) -> None:
    fingerprints = service.cache.fingerprints()
    if not fingerprints:
        return
    fp = fingerprints[int(stream.integers(0, len(fingerprints)))]
    path = service.cache.path_for(fp)
    try:
        raw = bytearray(path.read_bytes())
    except OSError:
        return
    if not raw:
        return
    if harness.first_bytes.get(fp) is None:
        harness.first_bytes[fp] = bytes(raw)
        harness.computes_at_capture[fp] = harness.computes.get(fp, 0)
    pos = int(stream.integers(0, len(raw)))
    raw[pos] ^= 0xFF
    path.write_bytes(bytes(raw))
    harness.corruptions[fp] = harness.corruptions.get(fp, 0) + 1


def run_service_case(
    case_seed: int,
    *,
    ops: int = 60,
    root: str | Path | None = None,
) -> ServiceCaseResult:
    """Fuzz one operation sequence against a fresh service root."""
    stream = RngFactory(case_seed).stream("chaos.service")
    tmp = None
    if root is None:
        tmp = tempfile.mkdtemp(prefix="chaos-service-")
        root = tmp
    harness = _Harness(seed=case_seed, root=Path(root))
    clock = _FakeClock()
    service = _new_service(harness, clock)
    submitted_configs: list[ScenarioConfig] = []
    next_seed = 0
    findings: list[dict[str, Any]] = []

    def note(ticket) -> None:
        if ticket.accepted and ticket.job_id:
            harness.accepted.setdefault(ticket.job_id, ticket.fingerprint)

    try:
        for _ in range(ops):
            op = float(stream.random())
            if op < 0.30 or not submitted_configs:
                # Fresh fingerprint; occasionally scheduled to fail.
                config = _scenario(derive_seed(case_seed, "cfg", next_seed))
                next_seed += 1
                fp = config_fingerprint(config)
                fail_roll = float(stream.random())
                if fail_roll < 0.15:
                    harness.fail_budget[fp] = 1  # retry succeeds
                elif fail_roll < 0.20:
                    harness.fail_budget[fp] = 5  # poison: quarantined
                submitted_configs.append(config)
                note(service.submit(config))
            elif op < 0.50:
                # Duplicate of an earlier fingerprint.
                pick = int(stream.integers(0, len(submitted_configs)))
                note(service.submit(submitted_configs[pick]))
            elif op < 0.80:
                service.step()
                clock.sleep(0.02)
            elif op < 0.90:
                # SIGKILL equivalent: drop the live service, no drain, then
                # maybe tear the journal tail, then restart and recover.
                service.close()
                if float(stream.random()) < 0.5:
                    _tear_journal_tail(harness.root / "journal.jsonl", stream)
                service = _new_service(harness, clock)
            else:
                _corrupt_cache_entry(harness, service, stream)

        # Final drain must land every accepted job in a terminal state.
        service.drain(poll_interval=0.02, max_wall=30.0)
        findings.extend(_check_oracles(harness, service))
    finally:
        service.close()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    return ServiceCaseResult(case_seed=case_seed, ops=ops, findings=findings)


def _check_oracles(
    harness: _Harness, service: ScenarioService
) -> list[dict[str, Any]]:
    findings: list[dict[str, Any]] = []

    def finding(oracle: str, detail: str) -> None:
        findings.append({"oracle": oracle, "detail": detail})

    # 1. No accepted job is ever lost.
    for job_id, fp in sorted(harness.accepted.items()):
        job = service.store.get(job_id)
        if job is None:
            finding(
                ORACLE_LOST_JOB,
                f"accepted job {job_id} (fp {fp[:12]}) vanished from the "
                "journal",
            )
        elif job.state not in TERMINAL_STATES:
            finding(
                ORACLE_LOST_JOB,
                f"accepted job {job_id} still {job.state} after full drain",
            )

    # 2. Duplicate fingerprints never recompute (modulo corruption).
    for fp, count in sorted(harness.computes.items()):
        allowed = 1 + harness.corruptions.get(fp, 0)
        if count > allowed:
            finding(
                ORACLE_RECOMPUTE,
                f"fingerprint {fp[:12]} computed {count}x "
                f"(allowed {allowed}: 1 + {allowed - 1} corruptions)",
            )

    # 3. Replay is byte-stable: independent journal replays agree with the
    #    live store and each other; recomputed cache entries are
    #    byte-identical to what the corruption destroyed.
    journal = service.root / "journal.jsonl"
    digest_live = service.store.state_digest()
    digest_a = JobStore(journal).state_digest()
    digest_b = JobStore(journal).state_digest()
    if not (digest_live == digest_a == digest_b):
        finding(
            ORACLE_REPLAY_STABLE,
            "journal replay digests diverge (live vs replay vs replay)",
        )
    for fp, original in sorted(harness.first_bytes.items()):
        # Only entries a recompute actually rewrote — and that no later
        # corruption touched — are held to raw byte-identity: a corruption
        # that hit a gzip-header don't-care byte leaves a *valid* entry
        # whose bytes differ although the service wrote nothing (whether
        # the flip landed before any recompute or after the last one), and
        # a corrupt entry never re-read still holds the flipped bytes
        # (get() drops it; it can never be served).
        rewritten = harness.computes.get(fp, 0) > harness.computes_at_capture[fp]
        pristine = harness.corruptions.get(fp, 0) == harness.corruptions_at_compute.get(fp, -1)
        if not rewritten or not pristine or service.cache.get(fp) is None:
            continue
        recomputed = service.cache.get_bytes(fp)
        if recomputed is not None and recomputed != original:
            finding(
                ORACLE_REPLAY_STABLE,
                f"cache entry {fp[:12]} recomputed to different bytes",
            )

    # 4. Accounting: shed jobs carry reasons; stats cover the journal.
    counts = service.store.counts()
    for job in service.store.jobs():
        if job.state == SHED and not job.shed_reason:
            finding(
                ORACLE_ACCOUNTING,
                f"job {job.job_id} shed without a recorded reason",
            )
    # Per-process stats reset on restart while the journal accumulates, so
    # the journal may show *more* sheds than the live process — but never
    # fewer (that would mean a counted shed lost its journal line).
    if counts[SHED] < service.stats.shed:
        finding(
            ORACLE_ACCOUNTING,
            f"journal shows {counts[SHED]} shed jobs but this process "
            f"shed {service.stats.shed}",
        )
    return findings


def run_service_campaign(
    seed: int,
    iterations: int,
    *,
    ops_per_case: int = 60,
) -> dict[str, Any]:
    """Run *iterations* independent cases; pure function of the inputs."""
    results = [
        run_service_case(
            derive_seed(seed, "chaos.service", i), ops=ops_per_case
        )
        for i in range(iterations)
    ]
    findings = [
        {"case": r.case_seed, **f} for r in results for f in r.findings
    ]
    return {
        "target": "service",
        "seed": seed,
        "iterations": iterations,
        "ops_per_case": ops_per_case,
        "cases_ok": sum(1 for r in results if r.ok),
        "findings": findings,
    }
