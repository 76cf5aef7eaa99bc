"""Cross-process snapshot portability.

A rolling snapshot is written by whichever process ran the simulation — a
spawn-context pool worker in a resilient sweep, a service worker — and is
restored by whichever process resumes it next.  That only works if a
snapshot saved in one process restores *byte-identically* in another.
This suite runs a scenario partway in a real spawn child, saves it there,
restores it in the parent and runs it to the horizon, comparing the
observable bytes (event trace plus stable summary) against a run that
never crossed a process boundary.
"""

from __future__ import annotations

import json

from repro.chaos.runner import stable_summary
from repro.experiments.runner import build_scenario, run_built
from repro.parallel.pool import _pool_context
from repro.snapshot import read_snapshot, restore, save, write_snapshot
from tests.obs.conftest import tiny_config

#: Where the child stops: a drifting float from repeated ``now + 0.1``,
#: not a clean tick multiple, so the restored clock must carry it exactly.
STOP_TIME = 149.99999999999577


def _config(**overrides):
    return tiny_config(trace_capacity=500_000, **overrides)


def _observed_bytes(built) -> str:
    """The run's observable bytes: full trace JSONL + stable summary."""
    summary = run_built(built)
    assert built.trace is not None
    return built.trace.to_jsonl() + json.dumps(
        stable_summary(summary), sort_keys=True
    )


def _save_in_child(snapshot_path):
    """Spawn target: run to :data:`STOP_TIME` and write a snapshot."""
    built = build_scenario(_config())
    built.sim.run(until=STOP_TIME)
    write_snapshot(save(built), snapshot_path)


class TestCrossProcessPortability:
    def test_child_snapshot_restores_byte_identically_in_parent(
        self, tmp_path
    ):
        snapshot_path = str(tmp_path / "run.snap.gz")
        proc = _pool_context().Process(
            target=_save_in_child, args=(snapshot_path,)
        )
        proc.start()
        proc.join(timeout=60.0)
        assert proc.exitcode == 0

        snapshot = read_snapshot(snapshot_path)
        assert snapshot.state["t"] == STOP_TIME
        resumed = _observed_bytes(restore(snapshot))
        uninterrupted = _observed_bytes(build_scenario(_config()))
        assert resumed == uninterrupted

    def test_restoring_under_a_different_seed_diverges(self):
        """Anti-vacuity: the byte comparison can actually fail."""
        built = build_scenario(_config(seed=2))
        built.sim.run(until=STOP_TIME)
        resumed = _observed_bytes(restore(save(built)))
        assert resumed != _observed_bytes(build_scenario(_config(seed=1)))
