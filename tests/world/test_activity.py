"""The activity-proportional tick equals the full per-node scans it replaced.

``full_scan`` marks every node due for purge and dirty for sending on every
tick, which is exactly the old pair of loops over all nodes.  Each case runs
the same scenario both ways and compares the run summary and the complete
event trace byte for byte.  The default runs also arm the sanitizer, whose
oracles re-check the index and the dirty set by brute force every tick.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.engine.events import PRIORITY_SNAPSHOT
from repro.errors import InvariantViolation
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ROUTER_KINDS, ScenarioConfig
from repro.faults.plan import FaultPlan
from repro.routing.base import Router
from repro.snapshot import restore, save
from repro.units import megabytes
from repro.world.activity import ActivityWorld
from tests.obs.conftest import tiny_config


def config(**overrides) -> ScenarioConfig:
    """Ten nodes on a small field, congested and short-lived: contacts,
    overflows, TTL expiries and aborted transfers all happen in 900 s."""
    base = dict(
        area=(800.0, 600.0), interval_range=(5.0, 8.0), ttl=300.0,
        buffer_bytes=megabytes(1.5), trace_capacity=500_000,
    )
    base.update(overrides)
    return tiny_config(**base)


@pytest.fixture
def full_scan(monkeypatch):
    """Turn on the old every-node purge and send loops for the test."""

    def enable() -> None:
        original = ActivityWorld._maintain

        def maintain(self) -> None:
            everyone = range(len(self.nodes))
            self._carry.update(everyone)
            self._dirty.update(everyone)
            original(self)

        monkeypatch.setattr(ActivityWorld, "_maintain", maintain)

    return enable


@pytest.fixture
def purge_calls(monkeypatch):
    """Count Router.purge_expired calls (proves the index skipped nodes)."""
    calls = [0]
    original = Router.purge_expired

    def counted(self) -> None:
        calls[0] += 1
        original(self)

    monkeypatch.setattr(Router, "purge_expired", counted)
    return calls


def outputs(built) -> tuple[str, str]:
    """The run summary (minus wall time, NaN made comparable) and trace."""
    record = run_built(built).record()
    record.pop("wall_seconds", None)
    for key, value in record.items():
        if isinstance(value, float) and math.isnan(value):
            record[key] = "nan"
    return json.dumps(record, sort_keys=True), built.trace.to_jsonl()


def compare(cfg: ScenarioConfig, full_scan, purge_calls) -> None:
    indexed = outputs(build_scenario(cfg.replace(sanitize=True)))
    indexed_purges = purge_calls[0]
    full_scan()
    assert outputs(build_scenario(cfg)) == indexed
    assert indexed_purges < purge_calls[0] - indexed_purges


@pytest.mark.parametrize("policy", ["fifo", "sdsrp"])
@pytest.mark.parametrize("router", ROUTER_KINDS)
def test_indexed_tick_equals_full_scan(router, policy, full_scan, purge_calls):
    compare(config(router=router, policy=policy), full_scan, purge_calls)


def test_indexed_tick_equals_full_scan_under_churn(full_scan, purge_calls):
    faults = FaultPlan(
        churn_fraction=0.3, churn_off_time=120.0, churn_on_time=120.0,
        link_flap_rate=0.01, transfer_fault_prob=0.1,
    )
    compare(config(policy="sdsrp", faults=faults), full_scan, purge_calls)


def test_restore_mid_run_equals_full_scan(full_scan):
    cfg = config(policy="sdsrp")
    built = build_scenario(cfg)
    box: list = []
    built.sim.schedule_at(
        cfg.sim_time / 2.0, lambda: box.append(save(built)),
        priority=PRIORITY_SNAPSHOT,
    )
    run_built(built)
    resumed = outputs(restore(box[0]))
    full_scan()
    baseline = outputs(build_scenario(cfg))
    # The restored run's summary and trace cover the whole horizon.
    assert resumed == baseline


def _unindexed(world, node, message) -> None:
    world.touch(node)  # the copy never enters the expiry index


def _untouched(world, node) -> None:
    pass  # no change is ever reported


@pytest.mark.parametrize("method, bug, invariant", [
    ("buffer_added", _unindexed, "ttl-purge"),
    ("touch", _untouched, "send-schedule"),
])
def test_sanitizer_catches_a_broken_index(method, bug, invariant):
    """A change the world is not told about must not slip by silently: the
    brute-force oracles name the structure that missed it."""
    built = build_scenario(config(policy="sdsrp", sanitize=True))
    setattr(built.world, method, bug.__get__(built.world))
    with pytest.raises(InvariantViolation) as excinfo:
        run_built(built)
    assert excinfo.value.invariant == invariant
