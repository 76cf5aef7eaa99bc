"""Rebuild a running simulation from a captured snapshot.

:func:`restore` rebuilds the scenario from its config (via
``build_scenario``), discards the freshly-scheduled bootstrap events, and
overwrites every piece of component state from the snapshot payload.
Pending events are then *re-armed* from their captured cursors in a fixed
order chosen so that same-instant ties resolve exactly as they would have
in the uninterrupted run:

1. named recurring chains (world tick, reports, obs sampling) in their
   registration order,
2. the traffic generator's next-arrival event,
3. fault-plan events (churn square waves replayed from phase cursors, then
   the next link-flap),
4. in-flight transfer completions, in transfer-sequence order,
5. the periodic snapshotter itself.

Recurring chains re-arm before transfers because a transfer whose ETA
lands exactly on a sampling instant was necessarily scheduled *after* that
sample's chain event in the original run (transfer durations are shorter
than the sampling intervals used here; longer-than-interval transfers are
the one tie class this ordering does not cover).

:func:`fork` is the what-if entry point: same state, optionally a new seed
(fresh randomness from the divergence point) and a whitelisted set of
config overrides (e.g. a longer horizon).
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Any

from repro.core.dropped_list import DropRecord
from repro.core.intermeeting import (
    MinIntermeetingEstimator,
    PairIntermeetingEstimator,
    StaticIntermeetingEstimator,
    _RunningMean,
)
from repro.core.oracle import _InfectionState
from repro.core.sdsrp import SdsrpPolicy
from repro.errors import ConfigurationError, SnapshotError
from repro.mobility.base import WaypointEngine
from repro.mobility.random_direction import RandomDirection
from repro.mobility.random_walk import RandomWalk
from repro.mobility.stationary import Stationary
from repro.mobility.taxi import TaxiFleet
from repro.mobility.trace import TraceMobility
from repro.net.message import Message
from repro.net.transfer import Transfer
from repro.policies.fifo import FifoPolicy
from repro.policies.lifo import LifoPolicy
from repro.policies.mofo import MofoPolicy
from repro.policies.random_drop import RandomPolicy
from repro.routing.prophet import ProphetRouter
from repro.routing.spray_and_focus import SprayAndFocusRouter
from repro.snapshot.codec import Snapshot, decode_array

__all__ = ["decode_config", "fork", "restore"]

#: Config fields :func:`fork` may override.  Anything else would make the
#: captured state inconsistent with the rebuilt scenario (different fleet,
#: different routing, different traffic law...).
FORK_OVERRIDES = frozenset({"sim_time", "name", "snapshot_every", "snapshot_to"})

_TUPLE_FIELDS = (
    "area", "speed_range", "pause_range", "interval_range",
    "message_size_range",
)


def decode_config(data: dict[str, Any]) -> Any:
    """Inverse of :func:`repro.snapshot.capture.encode_config`."""
    from repro.experiments.scenario import ScenarioConfig
    from repro.faults.plan import FaultPlan

    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise SnapshotError(
            f"snapshot config has unknown fields {sorted(unknown)}; was it "
            "written by a newer build?"
        )
    kwargs = dict(data)
    for key in _TUPLE_FIELDS:
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    if isinstance(kwargs.get("faults"), dict):
        kwargs["faults"] = FaultPlan.from_dict(kwargs["faults"])
    return ScenarioConfig(**kwargs)


def restore(
    snapshot: Snapshot,
    *,
    config: Any | None = None,
    skip_rng: bool = False,
) -> Any:
    """Rebuild a ``BuiltSimulation`` positioned exactly at the snapshot.

    ``sim.run()`` (or ``run_built``) on the result continues the original
    run byte-identically.  *config* substitutes a forked configuration
    (:func:`fork` uses this); *skip_rng* leaves the freshly-seeded RNG
    streams in place instead of restoring the captured stream states.
    """
    from repro.experiments.runner import build_scenario

    if config is None:
        config = decode_config(snapshot.config)
    built = build_scenario(config)
    sim = built.sim
    state = snapshot.state
    t = float(state["t"])
    if t > sim.end_time:
        raise SnapshotError(
            f"snapshot taken at t={t} but scenario horizon is {sim.end_time}"
        )

    # Drop the bootstrap events scheduled by build_scenario; everything is
    # re-armed from captured cursors below.
    sim.queue.clear()
    sim.now = t
    sim._events_processed = int(state["events_processed"])

    if not skip_rng and state["rng"] is not None:
        if built.rng is None:
            raise SnapshotError("rebuilt scenario has no RngFactory")
        built.rng.restore_state(state["rng"])

    _restore_mobility(built.world.mobility, state["mobility"])
    built.world.positions = built.world.mobility.positions
    _restore_world(built.world, state["world"])

    gen_state = state["generator"]
    built.generator.created = int(gen_state["created"])
    built.generator._next_at = float(gen_state["next_at"])

    _restore_nodes(built, state["nodes"])
    _restore_shared(built.shared, state["shared"])
    _restore_metrics(built.metrics, state["metrics"])
    _restore_contacts(built.contacts, state["contacts"])
    _restore_buffer_report(built.buffer_report, state["buffer_report"])
    _restore_sanitizer(built.sanitizer, state["sanitizer"])
    _restore_timeseries(built.timeseries, state["timeseries"])
    _restore_trace(built.trace, state["trace"])
    _restore_profiler(built.profiler, state["profiler"])
    _restore_fault_state(built.fault_injector, state["faults"])

    # -- re-arm pending events (tie-safe order; see module docstring) ------
    recurring = state["recurring"]
    for name in built.sim._recurring:
        if name not in recurring:
            raise SnapshotError(
                f"snapshot has no cursor for recurring chain {name!r}"
            )
        sim.rearm_recurring(name, float(recurring[name]))
    unknown_chains = set(recurring) - set(built.sim._recurring)
    if unknown_chains:
        raise SnapshotError(
            f"snapshot carries unknown recurring chains {sorted(unknown_chains)}"
        )
    built.generator.rearm()
    if built.fault_injector is not None and state["faults"] is not None:
        built.fault_injector._schedule_churn_events(after=t)
        built.fault_injector.rearm_flap()
        built.fault_injector._schedule_scripted(after=t)
    _restore_transfers(built, state["transfers"])
    # The TTL expiry index and the dirty set of senders are derived state:
    # rebuilt from the restored buffers, with every node marked dirty.
    built.world.reindex()
    snap_state = state.get("snapshotter")
    if getattr(built, "snapshotter", None) is not None:
        if snap_state is not None:
            built.snapshotter.rearm(float(snap_state["next_at"]))
        else:
            # Snapshotting enabled by a fork override: start a fresh cadence
            # from the restore point.
            built.snapshotter.rearm(sim.now + built.snapshotter.every)
    return built


def fork(
    snapshot: Snapshot,
    *,
    seed: int | None = None,
    overrides: dict[str, Any] | None = None,
) -> Any:
    """Branch a what-if run off a snapshot.

    With no arguments this is an exact continuation (same as
    :func:`restore`).  *seed* reseeds every RNG stream so the branch
    diverges stochastically from the capture point onward; *overrides*
    may adjust :data:`FORK_OVERRIDES` fields (e.g. extend ``sim_time``).

    Note: recurring chains that had already run past the *original* horizon
    at capture time stay exhausted even if the fork extends the horizon —
    extend before the chains wind down, not after.
    """
    changes = dict(overrides or {})
    bad = set(changes) - FORK_OVERRIDES
    if bad:
        raise ConfigurationError(
            f"fork cannot override {sorted(bad)}; allowed: "
            f"{sorted(FORK_OVERRIDES)}"
        )
    config = decode_config(snapshot.config)
    if seed is not None:
        changes["seed"] = int(seed)
    if changes:
        config = dataclasses.replace(config, **changes)
    return restore(snapshot, config=config, skip_rng=seed is not None)


# -- world ----------------------------------------------------------------


def _restore_mobility(mob: Any, data: dict[str, Any]) -> None:
    if data["kind"] != type(mob).__name__:
        raise SnapshotError(
            f"snapshot mobility is {data['kind']!r} but scenario built "
            f"{type(mob).__name__!r}"
        )
    mob._time = float(data["time"])
    mob._pos = decode_array(data["pos"])
    if isinstance(mob, TraceMobility):
        return
    if isinstance(mob, WaypointEngine):
        mob._target = decode_array(data["target"])
        mob._speed = decode_array(data["speed"])
        mob._pause_left = decode_array(data["pause_left"])
        if isinstance(mob, TaxiFleet):
            mob._hotspots = decode_array(data["hotspots"])
            mob._weights = decode_array(data["weights"])
        return
    if isinstance(mob, RandomWalk):
        mob._heading = decode_array(data["heading"])
        mob._speed = decode_array(data["speed"])
        mob._leg_left = decode_array(data["leg_left"])
        return
    if isinstance(mob, RandomDirection):
        mob._heading = decode_array(data["heading"])
        mob._speed = decode_array(data["speed"])
        mob._pause_left = decode_array(data["pause_left"])
        return
    if isinstance(mob, Stationary):
        return  # _pos (restored above) is the only state
    raise SnapshotError(
        f"mobility model {type(mob).__name__} is not snapshot-capable"
    )


def _restore_world(world: Any, data: dict[str, Any]) -> None:
    # Set layout never matters for links (all behaviour-relevant iterations
    # sort first), so a plain rebuild is exact.
    world.links = {(int(i), int(j)) for i, j in data["links"]}
    world.down_nodes = {int(i) for i in data["down_nodes"]}


# -- per-node state --------------------------------------------------------


def _decode_message(md: dict[str, Any]) -> Message:
    return Message(
        msg_id=str(md["msg_id"]),
        source=int(md["source"]),
        destination=int(md["destination"]),
        size=int(md["size"]),
        created_at=float(md["created_at"]),
        ttl=float(md["ttl"]),
        initial_copies=int(md["initial_copies"]),
        copies=int(md["copies"]),
        hop_count=int(md["hop_count"]),
        spray_times=list(md["spray_times"]),
    )


def _restore_nodes(built: Any, node_states: list[dict[str, Any]]) -> None:
    nodes = built.nodes
    if len(node_states) != len(nodes):
        raise SnapshotError(
            f"snapshot has {len(node_states)} nodes, scenario has {len(nodes)}"
        )
    world = built.world
    for node, data in zip(nodes, node_states):
        if int(data["id"]) != node.id:
            raise SnapshotError(
                f"node id mismatch: snapshot {data['id']} vs built {node.id}"
            )
        buf = node.buffer
        buf.clear()
        for md in data["buffer"]:
            buf.add(_decode_message(md))
        # Pins and the sending flag are re-established when in-flight
        # transfers are re-armed.
        node.sending = False
        # Neighbor maps are rebuilt silently (no link events: the contacts
        # already happened before the snapshot) in captured insertion order,
        # which breaks relay-selection ties.
        node.neighbors.clear()
        for pid in data["neighbors"]:
            node.neighbors[int(pid)] = world.nodes[int(pid)]
        router = node.router
        router.delivered_ids = set(data["delivered_ids"])
        _restore_router_state(router, data["router"])
        _restore_policy_state(router.policy, data["policy"])


def _restore_router_state(router: Any, data: dict[str, Any] | None) -> None:
    if data is None:
        return
    kind = data["kind"]
    if kind == "prophet":
        if not isinstance(router, ProphetRouter):
            raise SnapshotError(
                f"snapshot has PRoPHET state but router is {type(router).__name__}"
            )
        router._preds = {int(d): float(p) for d, p in data["preds"]}
        router._last_aged = float(data["last_aged"])
    elif kind == "snf":
        if not isinstance(router, SprayAndFocusRouter):
            raise SnapshotError(
                f"snapshot has spray-and-focus state but router is "
                f"{type(router).__name__}"
            )
        router.last_seen = {int(p): float(t) for p, t in data["last_seen"]}
    else:
        raise SnapshotError(f"unknown router state kind {kind!r}")


def _restore_policy_state(policy: Any, data: dict[str, Any] | None) -> None:
    if data is None:
        return
    kind = data["kind"]
    if kind == "sdsrp":
        if not isinstance(policy, SdsrpPolicy):
            raise SnapshotError(
                f"snapshot has SDSRP state but policy is {type(policy).__name__}"
            )
        if data["dropped"] is not None:
            store = policy.dropped
            if store is None:
                raise SnapshotError(
                    "snapshot carries a dropped-list store but the rebuilt "
                    "policy has none"
                )
            store._records = {
                int(origin): DropRecord(
                    int(origin),
                    float(record_time),
                    {str(mid): float(exp) for mid, exp in dropped.items()},
                )
                for origin, record_time, dropped in data["dropped"]
            }
            own = store._records.get(store.node_id)
            if own is None:
                raise SnapshotError(
                    f"dropped-list store for node {store.node_id} lost its "
                    "own record"
                )
            store._own = own
    elif kind == "arrival":
        if not isinstance(policy, (FifoPolicy, LifoPolicy)):
            raise SnapshotError(
                f"snapshot has FIFO/LIFO state but policy is "
                f"{type(policy).__name__}"
            )
        policy._arrival = {str(mid): int(n) for mid, n in data["arrival"]}
        policy._counter = int(data["counter"])
    elif kind == "mofo":
        if not isinstance(policy, MofoPolicy):
            raise SnapshotError(
                f"snapshot has MOFO state but policy is {type(policy).__name__}"
            )
        policy._forwards = {str(mid): int(n) for mid, n in data["forwards"]}
    elif kind == "random":
        if not isinstance(policy, RandomPolicy):
            raise SnapshotError(
                f"snapshot has random-policy state but policy is "
                f"{type(policy).__name__}"
            )
        policy._scores = {str(mid): float(s) for mid, s in data["scores"]}
    else:
        raise SnapshotError(f"unknown policy state kind {kind!r}")


# -- SDSRP shared state ----------------------------------------------------


def _restore_shared(shared: Any, data: dict[str, Any] | None) -> None:
    if (shared is None) != (data is None):
        raise SnapshotError("snapshot/scenario disagree on SDSRP shared state")
    if shared is None:
        return
    _restore_estimator(shared.estimator, data["estimator"])
    oracle_data = data["oracle"]
    if (shared.oracle is None) != (oracle_data is None):
        raise SnapshotError("snapshot/scenario disagree on infection oracle")
    if shared.oracle is not None:
        shared.oracle._state = {
            str(mid): _InfectionState(
                source=int(source),
                holders={int(h) for h in holders},
                seen={int(s) for s in seen},
                drops=int(drops),
            )
            for mid, source, holders, seen, drops in oracle_data["state"]
        }


def _restore_mean(acc: _RunningMean, data: dict[str, Any]) -> None:
    acc.total = float(data["total"])
    acc.count = int(data["count"])


def _restore_estimator(est: Any, data: dict[str, Any]) -> None:
    kind = data["kind"]
    if kind == "min":
        if not isinstance(est, MinIntermeetingEstimator):
            raise SnapshotError(
                f"snapshot estimator is 'min' but scenario built "
                f"{type(est).__name__}"
            )
        _restore_mean(est._acc, data["acc"])
        est._active = {int(i): int(n) for i, n in data["active"]}
        est._last_idle = {int(i): float(v) for i, v in data["last_idle"]}
    elif kind == "pair":
        if not isinstance(est, PairIntermeetingEstimator):
            raise SnapshotError(
                f"snapshot estimator is 'pair' but scenario built "
                f"{type(est).__name__}"
            )
        _restore_mean(est._acc, data["acc"])
        est._last_end = {
            (int(a), int(b)): float(v) for a, b, v in data["last_end"]
        }
    elif kind == "static":
        if not isinstance(est, StaticIntermeetingEstimator):
            raise SnapshotError(
                f"snapshot estimator is 'static' but scenario built "
                f"{type(est).__name__}"
            )
    else:
        raise SnapshotError(f"unknown estimator kind {kind!r}")


# -- collectors ------------------------------------------------------------


def _restore_metrics(metrics: Any, data: dict[str, Any]) -> None:
    metrics._excluded = {str(m) for m in data["excluded"]}
    metrics.created = int(data["created"])
    metrics.delivered = int(data["delivered"])
    metrics.relayed = int(data["relayed"])
    metrics.relayed_accepted = int(data["relayed_accepted"])
    metrics.aborted = int(data["aborted"])
    metrics.started = int(data["started"])
    metrics.drops_by_reason = {
        str(k): int(v) for k, v in data["drops_by_reason"].items()
    }
    metrics.faults_by_kind = {
        str(k): int(v) for k, v in data["faults_by_kind"].items()
    }
    metrics.hop_counts = [int(h) for h in data["hop_counts"]]
    metrics.latencies = [float(v) for v in data["latencies"]]
    metrics._created_at = {
        str(mid): float(v) for mid, v in data["created_at"]
    }


def _restore_contacts(contacts: Any, data: dict[str, Any]) -> None:
    contacts.contact_count = int(data["contact_count"])
    contacts._durations = [float(v) for v in data["durations"]]
    contacts._intermeetings = [float(v) for v in data["intermeetings"]]
    contacts._up_since = {
        (int(a), int(b)): float(v) for a, b, v in data["up_since"]
    }
    contacts._last_down = {
        (int(a), int(b)): float(v) for a, b, v in data["last_down"]
    }


def _restore_buffer_report(report: Any, data: dict[str, Any] | None) -> None:
    if (report is None) != (data is None):
        raise SnapshotError("snapshot/scenario disagree on the buffer report")
    if report is None:
        return
    report._times = [float(v) for v in data["times"]]
    report._mean_occupancy = [float(v) for v in data["mean"]]
    report._max_occupancy = [float(v) for v in data["max"]]


def _restore_sanitizer(sanitizer: Any, data: dict[str, Any] | None) -> None:
    if sanitizer is None or data is None:
        # Sanitizer enablement may come from the environment
        # (REPRO_SANITIZE=1), so presence is allowed to differ; its state is
        # rebuilt within one tick either way.
        return
    sanitizer.ticks_checked = int(data["ticks_checked"])
    sanitizer._ttl_seen = {
        (int(node_id), str(mid)): float(v)
        for node_id, mid, v in data["ttl_seen"]
    }
    sanitizer._copy_budget = {
        str(mid): int(n) for mid, n in data["copy_budget"]
    }
    sanitizer._committed_seqs = {int(s) for s in data["committed_seqs"]}


def _restore_timeseries(ts: Any, data: dict[str, Any] | None) -> None:
    if (ts is None) != (data is None):
        raise SnapshotError("snapshot/scenario disagree on the time series")
    if ts is None:
        return
    ts.created = int(data["created"])
    ts.delivered = int(data["delivered"])
    ts.relayed = int(data["relayed"])
    ts.bytes_relayed = int(data["bytes_relayed"])
    ts.transfers_started = int(data["transfers_started"])
    ts.transfers_aborted = int(data["transfers_aborted"])
    ts.drops_by_reason = {
        str(k): int(v) for k, v in data["drops_by_reason"].items()
    }
    ts.faults_by_kind = {
        str(k): int(v) for k, v in data["faults_by_kind"].items()
    }
    _restore_histogram(ts.latency_hist, data["latency_hist"])
    _restore_histogram(ts.transfer_duration_hist, data["duration_hist"])
    # Column cells keep their JSON-native numeric types: counter columns
    # store ints, rate columns floats, and the export must not widen them.
    ts._columns = {str(c): list(vals) for c, vals in data["columns"].items()}
    ts._node_occupancy = [list(row) for row in data["node_occupancy"]]
    last = data["last_sample_time"]
    ts._last_sample_time = None if last is None else float(last)
    ts._last_bytes = int(data["last_bytes"])


def _restore_histogram(hist: Any, data: dict[str, Any]) -> None:
    counts = [int(c) for c in data["counts"]]
    if len(counts) != len(hist.counts):
        raise SnapshotError("histogram bin count mismatch")
    hist.counts = counts
    hist.n = int(data["n"])
    hist.total = float(data["total"])


def _restore_trace(trace: Any, data: dict[str, Any] | None) -> None:
    if (trace is None) != (data is None):
        raise SnapshotError("snapshot/scenario disagree on event tracing")
    if trace is None:
        return
    trace._records = deque(
        (dict(r) for r in data["records"]), maxlen=trace.capacity
    )
    trace.events_seen = int(data["events_seen"])


def _restore_profiler(profiler: Any, data: dict[str, Any] | None) -> None:
    if profiler is None or data is None:
        # Wall-clock profiling is advisory; tolerate presence differences.
        return
    profiler.self_seconds = {
        str(k): float(v) for k, v in data["self_seconds"].items()
    }
    profiler.calls = {str(k): int(v) for k, v in data["calls"].items()}


# -- faults / transfers ----------------------------------------------------


def _restore_fault_state(injector: Any, data: dict[str, Any] | None) -> None:
    if (injector is None) != (data is None):
        raise SnapshotError("snapshot/scenario disagree on fault injection")
    if injector is None:
        return
    injector.counts = {str(k): int(v) for k, v in data["counts"].items()}
    injector.churned_nodes = tuple(int(i) for i in data["churned_nodes"])
    injector.churn_phases = {
        int(i): float(p) for i, p in data["churn_phases"]
    }
    injector._next_flap_at = float(data["next_flap_at"])
    # Older snapshots predate scripted fault events; they carry none, so a
    # zero cursor is exact for them.
    injector._scripted_transfer_consumed = int(
        data.get("scripted_transfer_consumed", 0)
    )


def _restore_transfers(built: Any, data: dict[str, Any]) -> None:
    manager = built.world.transfer_manager
    sim = built.sim
    world = built.world
    manager._active.clear()
    for td in data["active"]:
        sender = world.nodes[int(td["sender"])]
        receiver = world.nodes[int(td["receiver"])]
        # The transfer's message IS the sender's buffered object (split
        # commits mutate it in place), so look it up rather than decode it.
        message = sender.buffer.get(str(td["msg_id"]))
        eta = float(td["eta"])
        if math.isnan(eta):
            raise SnapshotError(f"transfer {td['seq']} has no valid ETA")
        transfer = Transfer(
            sender,
            receiver,
            message,
            str(td["mode"]),
            float(td["started_at"]),
            eta,
            seq=int(td["seq"]),
        )
        sender.buffer.pin(message.msg_id)
        sender.sending = True
        manager._active[sender.id] = transfer
        # Re-arm the completion directly; TransferManager.start would emit a
        # fresh transfer.started event and re-run link checks.
        transfer.event = sim.schedule_at(eta, manager._complete, transfer)
    manager._seq = int(data["seq"])
