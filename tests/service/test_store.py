"""Job journal: state machine legality, replay, torn-tail tolerance."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.service.store import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SHED,
    JobStore,
)


def store(tmp_path):
    return JobStore(tmp_path / "journal.jsonl")


class TestLifecycle:
    def test_full_happy_path(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1", priority=2, config={"x": 1})
        assert s.get("j1").state == QUEUED
        assert s.get("j1").priority == 2
        s.record_running("j1", attempts=1)
        assert s.get("j1").state == RUNNING
        s.record_done("j1", cache_hit=False)
        job = s.get("j1")
        assert job.state == DONE and job.terminal and not job.cache_hit

    def test_requeue_after_crash_preserves_attempts(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1")
        s.record_running("j1", attempts=2)
        s.record_queued("j1", "fp1", attempts=2)  # crash-recovery requeue
        job = s.get("j1")
        assert job.state == QUEUED
        assert job.attempts == 2  # poison jobs cannot dodge quarantine

    def test_queued_to_done_serves_a_cache_hit(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1", config=None)
        s.record_done("j1", cache_hit=True)
        assert s.get("j1").cache_hit

    def test_queued_to_failed_is_the_lost_config_dead_end(self, tmp_path):
        # Regression: the chaos campaign found this transition illegal —
        # a job whose config payload was torn away and whose fingerprint
        # misses the cache must be failable straight from queued.
        s = store(tmp_path)
        s.record_queued("j1", "fp1", config=None)
        s.record_failed(
            "j1", error_type="MissingConfig", error_message="gone", attempts=0
        )
        assert s.get("j1").state == FAILED

    def test_terminal_states_refuse_further_transitions(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1")
        s.record_shed("j1", reason="displaced-by-priority")
        with pytest.raises(ConfigurationError):
            s.record_running("j1", attempts=1)
        with pytest.raises(ConfigurationError):
            s.record_queued("j1", "fp1")

    def test_unknown_job_transition_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            store(tmp_path).record_done("ghost", cache_hit=False)

    def test_shed_records_its_reason(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1")
        s.record_shed("j1", reason="displaced-by-priority")
        assert s.get("j1").shed_reason == "displaced-by-priority"
        assert s.counts()[SHED] == 1


class TestReplay:
    def test_reload_matches_live_state(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1", config={"a": 1})
        s.record_running("j1", attempts=1)
        s.record_queued("j2", "fp2")
        reloaded = JobStore(s.path)
        assert reloaded.state_digest() == s.state_digest()
        assert reloaded.get("j1").config == {"a": 1}
        assert [j.job_id for j in reloaded.jobs()] == ["j1", "j2"]

    def test_replay_is_byte_stable(self, tmp_path):
        s = store(tmp_path)
        for i in range(5):
            s.record_queued(f"j{i}", f"fp{i}", priority=i % 2)
        s.record_running("j0", attempts=1)
        s.record_done("j0", cache_hit=False)
        a = JobStore(s.path).state_digest()
        b = JobStore(s.path).state_digest()
        assert a == b == s.state_digest()

    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1")
        with open(s.path, "a", encoding="utf-8") as fh:
            fh.write('{"job": "j2", "event": "que')  # torn, no newline
        reloaded = JobStore(s.path)
        assert reloaded.skipped_lines == 1
        assert reloaded.get("j2") is None
        assert reloaded.get("j1").state == QUEUED

    def test_undecodable_line_is_skipped_and_counted(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1")
        with open(s.path, "ab") as fh:
            fh.write(b"\xff\xfe garbled\n")
        s.record_running("j1", attempts=1)
        reloaded = JobStore(s.path)
        assert reloaded.skipped_lines == 1
        assert reloaded.get("j1").state == RUNNING

    def test_append_repairs_a_torn_tail(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1")
        with open(s.path, "a", encoding="utf-8") as fh:
            fh.write('{"job": "j2", "event": "que')
        survivor = JobStore(s.path)
        survivor.record_queued("j3", "fp3")
        reloaded = JobStore(s.path)
        # The fragment is quarantined on its own line; j1 and j3 survive.
        assert reloaded.get("j1") is not None
        assert reloaded.get("j3") is not None
        assert reloaded.skipped_lines == 1

    def test_orphan_terminal_line_keeps_the_job_visible(self, tmp_path):
        # The queued line was lost (torn earlier); a later done line must
        # not crash the replay nor drop the job.
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps(
                {"job": "j9", "event": "done", "fingerprint": "fp9",
                 "cache_hit": True}
            ) + "\n",
            encoding="utf-8",
        )
        s = JobStore(path)
        job = s.get("j9")
        assert job is not None and job.state == DONE and job.cache_hit

    def test_next_seq_resumes_past_recorded_admissions(self, tmp_path):
        s = store(tmp_path)
        s.record_queued("j1", "fp1")
        s.record_queued("j2", "fp2")
        assert JobStore(s.path).next_seq() == s.next_seq() == 2
