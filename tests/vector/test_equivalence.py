"""Differential equivalence: the vector backend replays the scalar bytes.

The vector backend (batched buffer ranking, ``Router.batch_eval``) is only
allowed to exist because it is *observably identical* to the scalar
reference: same seeded scenario, same event trace (byte-for-byte JSONL),
same metric time series, same summary (modulo wall-clock fields).  This
suite pins that contract cell by cell across the configuration matrix —
every router, every buffer policy, every mobility model, faults, the
runtime sanitizer, and both contact candidate branches — using
axis-coverage grids rather than the full cross product so the matrix stays
inside the tier-1 time budget.

A trace diff here means the fast path changed *behaviour*, not just speed;
see docs/vectorization.md for the contract and how to debug a mismatch.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.world.contacts as contacts
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import ROUTER_KINDS, ScenarioConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.policies.registry import available_policies
from repro.routing.base import Router
from repro.snapshot import restore, save
from repro.snapshot.codec import canonical_json
from tests.obs.conftest import tiny_config
from tests.obs.test_determinism import assert_identical
from tests.snapshot.test_roundtrip import outputs, run_with_snapshot

#: Fault schedule mixing rate-based churn/flaps with scripted events, so the
#: equivalence cells exercise ``set_node_down``/``force_link_down`` — the
#: out-of-band link mutations between world ticks.
FAULTED = FaultPlan(
    churn_fraction=0.3,
    churn_off_time=200.0,
    churn_on_time=150.0,
    churn_wipe_buffer=True,
    link_flap_rate=0.02,
    transfer_fault_prob=0.1,
    events=(
        FaultEvent(time=100.0, kind="node_down", node=2),
        FaultEvent(time=300.0, kind="node_up", node=2),
        FaultEvent(time=400.0, kind="link_flap", node=1),
    ),
)


def observed(**overrides) -> ScenarioConfig:
    return tiny_config(obs_interval=60.0, trace_capacity=500_000, **overrides)


def stable_summary(summary) -> str:
    """The run summary minus wall-clock noise, as sorted JSON."""
    payload = dataclasses.asdict(summary)
    stable = {
        k: v
        for k, v in payload.items()
        if k not in ("wall_seconds", "profile") and not k.startswith("profile_")
    }
    return json.dumps(stable, sort_keys=True)


def backend_run(config: ScenarioConfig, backend: str) -> tuple[str, str, str]:
    """(trace JSONL, time-series JSON, stable summary) for one backend."""
    built = build_scenario(config.replace(engine_backend=backend))
    summary = run_built(built)
    assert built.trace is not None and built.timeseries is not None
    return (
        built.trace.to_jsonl(),
        json.dumps(built.timeseries.as_dict(), sort_keys=True),
        stable_summary(summary),
    )


def assert_backends_agree(
    name: str, config: ScenarioConfig, before_vector=None
) -> None:
    scalar = backend_run(config, "scalar")
    if before_vector is not None:
        before_vector()
    vector = backend_run(config, "vector")
    assert scalar[0], f"{name}: empty trace; the cell is vacuous"
    # assert_identical dumps both runs to REPRO_OBS_ARTIFACT_DIR on mismatch.
    assert_identical(f"{name}-trace-timeseries", [scalar[:2], vector[:2]])
    assert scalar[2] == vector[2], f"{name}: summary differs"


# -- axis grids --------------------------------------------------------------


class TestRouterAxis:
    @pytest.mark.parametrize("router", ROUTER_KINDS)
    def test_vector_matches_scalar(self, router):
        assert_backends_agree(
            f"router-{router}", observed(router=router, policy="sdsrp")
        )


class TestPolicyAxis:
    @pytest.mark.parametrize("policy", available_policies())
    def test_vector_matches_scalar(self, policy):
        assert_backends_agree(
            f"policy-{policy}", observed(router="snw", policy=policy)
        )


class TestMobilityAxis:
    @pytest.mark.parametrize(
        "mobility", ["rwp", "random-walk", "random-direction", "stationary"]
    )
    def test_vector_matches_scalar(self, mobility):
        assert_backends_agree(
            f"mobility-{mobility}", observed(mobility=mobility, policy="gbsd")
        )


class TestHardeningAxis:
    def test_faulted_run_matches(self):
        """Churn + flaps + scripted events between ticks."""
        assert_backends_agree("faulted", observed(faults=FAULTED))

    def test_sanitized_run_matches(self):
        """The invariant sanitizer observes identical state on both paths."""
        assert_backends_agree("sanitized", observed(sanitize=True))

    def test_tree_contact_branch_matches(self, monkeypatch):
        """The vector leg finds contacts with the cKDTree candidate branch,
        the scalar leg with the upper triangle: same bytes."""
        assert_backends_agree(
            "tree",
            observed(),
            before_vector=lambda: monkeypatch.setattr(
                contacts, "TREE_MIN_NODES", 2
            ),
        )

    def test_seeds_differ(self):
        """Anti-vacuity: different seeds produce different vector traces."""
        a = backend_run(observed(seed=1), "vector")
        b = backend_run(observed(seed=2), "vector")
        assert a[0] != b[0]


class TestBatchedBranch:
    def test_forced_batching_matches(self, monkeypatch):
        """Drop the batch-size gate to 1 so every ranking goes through the
        NumPy batch path, then require the scalar bytes anyway.

        ``batch_min_messages`` is a pure cost dispatch — at the default of
        16 the tiny fleets here rarely reach it, which would leave the
        batched branch untested.
        """
        monkeypatch.setattr(Router, "batch_min_messages", 1)
        for policy in ("sdsrp", "sdsrp-knapsack", "gbsd"):
            assert_backends_agree(
                f"batched-{policy}", observed(router="snw", policy=policy)
            )


# -- snapshots on the vector path -------------------------------------------


class TestVectorSnapshot:
    def test_save_restore_continue_is_byte_identical(self):
        """Mid-horizon save -> restore -> run on the vector backend equals
        the uninterrupted vector run, and re-capturing the restored state
        reproduces the snapshot payload exactly."""
        config = observed(engine_backend="vector")
        snap, baseline = run_with_snapshot(config)
        restored = restore(snap)
        recaptured = save(restored)
        assert canonical_json(recaptured.state) == canonical_json(snap.state)
        assert recaptured.checksum == snap.checksum
        run_built(restored)
        assert outputs(restored) == outputs(baseline)

    def test_restored_vector_run_matches_scalar(self):
        """Cross-backend: the restored vector continuation replays the
        bytes of an uninterrupted *scalar* run of the same scenario."""
        snap, _ = run_with_snapshot(observed(engine_backend="vector"))
        restored = restore(snap)
        run_built(restored)
        scalar = build_scenario(observed(engine_backend="scalar"))
        run_built(scalar)
        assert outputs(restored) == outputs(scalar)
