"""ScenarioService end-to-end: lifecycle, exactly-once, overload, degraded
mode — all on workers=0 with an injected clock, so nothing here sleeps."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenario import config_fingerprint
from repro.reports.summary import FailedRun, RunSummary
from repro.service.api import (
    STATUS_COALESCED,
    STATUS_DONE,
    STATUS_QUEUED,
    STATUS_REJECTED,
    ScenarioService,
)
from repro.service.queue import SHED_DISPLACED
from repro.service.store import DONE, FAILED, SHED
from repro.snapshot.capture import encode_config
from tests.service.test_supervisor import (
    FakeClock,
    config,
    fake_summary,
    failed,
)


class Runner:
    """Counts computes per fingerprint; fails while fail_budget holds."""

    def __init__(self):
        self.computes = {}
        self.fail_budget = {}

    def __call__(self, cfg):
        fp = config_fingerprint(cfg)
        if self.fail_budget.get(fp, 0) > 0:
            self.fail_budget[fp] -= 1
            return failed(cfg, kind="WorkerDeath")
        self.computes[fp] = self.computes.get(fp, 0) + 1
        return fake_summary(cfg.seed)


@pytest.fixture
def ctx(tmp_path):
    clock = FakeClock()
    runner = Runner()

    def make(**kw):
        options = dict(
            workers=0, queue_capacity=8, max_attempts=2, seed=3,
            backoff_base=0.0, backoff_cap=0.1, run_fn=runner,
            clock=clock.now, sleep=clock.advance,
        )
        options.update(kw)
        return ScenarioService(tmp_path / "svc", **options)

    return make, runner, clock


class TestLifecycle:
    def test_submit_drain_result(self, ctx):
        make, runner, _ = ctx
        service = make()
        ticket = service.submit(config(seed=1))
        assert ticket.status == STATUS_QUEUED and ticket.accepted
        assert service.drain()
        job = service.status(ticket.job_id)
        assert job.state == DONE and not job.cache_hit
        assert isinstance(service.result(ticket.job_id), RunSummary)
        assert service.stats.computed == 1
        assert runner.computes[ticket.fingerprint] == 1

    def test_duplicate_coalesces_then_hits_the_cache(self, ctx):
        make, runner, _ = ctx
        service = make()
        first = service.submit(config(seed=1))
        twin = service.submit(config(seed=1))
        assert twin.status == STATUS_COALESCED
        assert twin.job_id == first.job_id  # rides the in-flight job
        service.drain()
        third = service.submit(config(seed=1))
        assert third.status == STATUS_DONE and third.cached
        # One fingerprint, three submissions, exactly one compute.
        assert runner.computes == {first.fingerprint: 1}
        assert service.stats.coalesced == 1
        assert service.stats.cache_hits == 1

    def test_restart_serves_cached_results_without_recompute(self, ctx):
        make, runner, _ = ctx
        service = make()
        service.submit(config(seed=1))
        service.drain()
        service.close()
        revived = make()
        ticket = revived.submit(config(seed=1))
        assert ticket.status == STATUS_DONE and ticket.cached
        assert sum(runner.computes.values()) == 1

    def test_failed_job_reports_its_error(self, ctx):
        make, runner, _ = ctx
        cfg = config(seed=5)
        runner.fail_budget[config_fingerprint(cfg)] = 10  # poison
        service = make()
        ticket = service.submit(cfg)
        service.drain()
        job = service.status(ticket.job_id)
        assert job.state == FAILED
        result = service.result(ticket.job_id)
        assert isinstance(result, FailedRun)
        assert result.error_type == "WorkerDeath"
        assert service.supervisor.stats.quarantined == 1

    def test_retry_recovers_a_transient_failure(self, ctx):
        make, runner, _ = ctx
        cfg = config(seed=5)
        runner.fail_budget[config_fingerprint(cfg)] = 1  # fail exactly once
        service = make()
        ticket = service.submit(cfg)
        assert service.drain()
        assert service.status(ticket.job_id).state == DONE
        assert service.supervisor.stats.retries == 1
        # The retry reran the byte-exact same config.
        assert runner.computes == {ticket.fingerprint: 1}

    def test_dispatch_keys_rolling_snapshots_by_fingerprint(self, ctx):
        # The sweep engine's mid-run-resume idiom: a job with
        # snapshot_every set rolls its snapshot under the service root,
        # keyed by the submit-time fingerprint (the cache key is computed
        # before this execution-plumbing mutation).
        make, _, _ = ctx
        seen = {}

        def spy(cfg):
            seen[config_fingerprint(cfg.replace(snapshot_to=None))] = (
                cfg.snapshot_to
            )
            return fake_summary(cfg.seed)

        service = make(run_fn=spy)
        ticket = service.submit(config(seed=1, snapshot_every=5.0))
        assert service.drain()
        snap = seen[ticket.fingerprint]
        assert snap == str(
            service.root / "snap" / f"{ticket.fingerprint}.snap.gz"
        )

    def test_unknown_job_raises(self, ctx):
        make, _, _ = ctx
        with pytest.raises(ConfigurationError):
            make().status("job-ghost")


class TestExactlyOnce:
    def test_crash_between_cache_write_and_done_line_replays_as_a_hit(
        self, ctx
    ):
        # The write-ordering argument: cache.put lands BEFORE the journal's
        # done line, so a crash in between must replay as requeue → cache
        # hit, never as a second computation.
        make, runner, _ = ctx
        service = make()
        ticket = service.submit(config(seed=1))
        real_record_done = service.store.record_done

        def crash(job_id, **kw):
            raise RuntimeError("injected crash after cache.put")

        service.store.record_done = crash
        with pytest.raises(RuntimeError):
            service.drain()
        service.store.record_done = real_record_done
        assert service.cache.get(ticket.fingerprint) is not None  # put won
        service.close()

        revived = make()
        assert revived.stats.recovered == 1
        assert revived.drain()
        job = revived.status(ticket.job_id)
        assert job.state == DONE and job.cache_hit
        assert runner.computes == {ticket.fingerprint: 1}  # exactly once

    def test_crash_while_running_requeues_with_attempts_preserved(self, ctx):
        make, runner, _ = ctx
        service = make()
        # Dispatch without settling: mark running in the journal, then
        # "crash" before the supervisor outcome lands.
        ticket = service.submit(config(seed=1))
        service.store.record_running(ticket.job_id, attempts=1)
        service.close()
        revived = make()
        assert revived.stats.recovered == 1
        assert revived.drain()
        job = revived.status(ticket.job_id)
        assert job.state == DONE
        assert runner.computes == {ticket.fingerprint: 1}

    @pytest.mark.parametrize(
        ("stale", "error_type", "named"),
        [
            ({"detector": "grid"}, "SnapshotError", "detector"),
            ({"engine_backend": "vector"}, "ConfigurationError", "'vector'"),
        ],
        ids=["removed-field", "removed-backend"],
    )
    def test_undecodable_journaled_config_fails_only_its_job(
        self, ctx, stale, error_type, named
    ):
        # A queued job journaled by an older build may hold a config this
        # build no longer accepts.  It must fail on its own, not raise out
        # of every restart's drain().
        make, runner, _ = ctx
        service = make()
        payload = {**encode_config(config(seed=1)), **stale}
        service.store.record_queued("job-stale", "fp-stale", config=payload)
        healthy = service.submit(config(seed=2))
        service.close()
        revived = make()
        assert revived.drain()
        job = revived.status("job-stale")
        assert job.state == FAILED
        result = revived.result("job-stale")
        assert isinstance(result, FailedRun)
        assert result.error_type == error_type
        assert named in result.error_message
        assert revived.status(healthy.job_id).state == DONE
        assert runner.computes == {healthy.fingerprint: 1}
        revived.close()
        assert make().drain()  # terminal now: the next restart is clean


class TestOverload:
    def test_full_queue_rejects_with_a_retry_hint(self, ctx):
        make, _, _ = ctx
        service = make(queue_capacity=2)
        for seed in (1, 2):
            assert service.submit(config(seed=seed)).accepted
        ticket = service.submit(config(seed=3))
        assert ticket.status == STATUS_REJECTED and not ticket.accepted
        assert ticket.retry_after is not None and ticket.retry_after > 0
        assert service.stats.rejected == 1
        # Rejection is stateless: nothing was journaled for it.
        assert len(service.store.jobs()) == 2

    def test_priority_displacement_sheds_with_a_counted_reason(self, ctx):
        make, _, _ = ctx
        service = make(queue_capacity=2)
        service.submit(config(seed=1))
        victim = service.submit(config(seed=2))
        urgent = service.submit(config(seed=3), priority=5)
        assert urgent.status == STATUS_QUEUED
        shed_job = service.status(victim.job_id)
        assert shed_job.state == SHED
        assert shed_job.shed_reason == SHED_DISPLACED
        assert service.stats.shed == 1  # never silent
        assert service.drain()
        # The shed job stays terminal; the survivors complete.
        assert service.status(urgent.job_id).state == DONE

    def test_rejected_duplicate_of_cached_result_is_still_served(self, ctx):
        make, _, _ = ctx
        service = make(queue_capacity=1)
        done = service.submit(config(seed=1))
        service.drain()
        service.submit(config(seed=2))  # fills the queue
        # Queue is full, but the duplicate never touches admission.
        ticket = service.submit(config(seed=1))
        assert ticket.status == STATUS_DONE and ticket.cached
        assert ticket.fingerprint == done.fingerprint


class TestDegradedMode:
    def test_dead_pool_still_serves_cache_hits(self, ctx):
        make, runner, _ = ctx
        service = make()
        service.submit(config(seed=1))
        service.drain()
        service.supervisor.mark_dead()
        ticket = service.submit(config(seed=1))
        assert ticket.status == STATUS_DONE and ticket.cached
        assert service.stats.degraded_hits == 1
        assert service.report()["degraded"] is True
        assert sum(runner.computes.values()) == 1

    def test_report_is_json_safe_and_counts_everything(self, ctx):
        import json

        make, _, _ = ctx
        service = make()
        service.submit(config(seed=1))
        service.drain()
        report = service.report()
        json.dumps(report)  # must not raise
        assert report["counts"][DONE] == 1
        assert report["cache"]["entries"] == 1
        assert report["stats"]["computed"] == 1

    def test_write_report_lands_in_the_root(self, ctx):
        make, _, _ = ctx
        service = make()
        service.submit(config(seed=1))
        service.drain()
        path = service.write_report()
        assert path.exists() and path.parent == service.root
