"""End-to-end simulator throughput benchmarks.

Measures whole-run wall time for a small Table-II-shaped scenario per
policy — the number that determines how long the full paper-scale sweeps
take (events/second is printed for context).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import best_of, run_once
from repro.engine.events import EventQueue
from repro.experiments import random_waypoint_scenario, scale_scenario
from repro.experiments.figures import REDUCED_INTERVAL_FACTOR
from repro.experiments.runner import build_scenario


def small_config(policy: str):
    return scale_scenario(
        random_waypoint_scenario(policy=policy, seed=5),
        node_factor=0.25,
        time_factor=0.2,
        interval_factor=REDUCED_INTERVAL_FACTOR,
    )


@pytest.mark.benchmark(group="engine")
@pytest.mark.parametrize("policy", ["fifo", "sdsrp"])
def test_full_run_throughput(benchmark, policy):
    def work():
        built = build_scenario(small_config(policy))
        built.sim.run()
        return built

    built = run_once(benchmark, work)
    print(f"\n{policy}: {built.sim.events_processed} events, "
          f"{built.metrics.created} messages, "
          f"{built.contacts.contact_count} contacts")
    assert built.metrics.created > 0


@pytest.mark.benchmark(group="engine")
@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_backend_ticks_per_sec(benchmark, record_figure, backend):
    """End-to-end ticks/sec per engine backend — the tracked throughput
    metric (accumulates one key per backend in bench_results.json)."""
    config = small_config("sdsrp").replace(engine_backend=backend)

    def work():
        built = build_scenario(config)
        built.sim.run()
        return built

    built = run_once(benchmark, work)
    assert built.metrics.created > 0
    elapsed = best_of(work, repeats=2)
    ticks_per_sec = (config.sim_time / config.tick) / elapsed
    record_figure(f"engine_ticks_per_sec_{backend}", {
        "scenario": config.name,
        "backend": backend,
        "ticks_per_sec": ticks_per_sec,
    })
    print(f"\n{backend}: {ticks_per_sec:.0f} ticks/sec")


@pytest.mark.benchmark(group="engine")
def test_routing_prepass_speedup(benchmark, record_figure):
    """Batched SDSRP ranking (Eqs. 4-13, the vector routing pre-pass) vs
    per-message scalar evaluation over a sweep-sized population."""
    import numpy as np

    from repro.core.priority import priority_closed_form, sdsrp_priority

    rng = np.random.default_rng(2)
    size = 5000
    copies = rng.integers(1, 33, size=size)
    remaining = rng.uniform(0.0, 18000.0, size=size)
    m_seen = rng.integers(0, 10, size=size)
    n_holders = np.maximum(1, m_seen + 1 - rng.integers(0, 3, size=size))
    lam, n_nodes = 0.0004, 100

    def scalar():
        return [
            float(priority_closed_form(
                int(c), float(r), int(m), int(n), lam, n_nodes
            ))
            for c, r, m, n in zip(copies, remaining, m_seen, n_holders)
        ]

    def batched():
        return sdsrp_priority(
            copies, remaining, m_seen, n_holders, lam, n_nodes
        )

    got = run_once(benchmark, batched)
    assert got.tolist() == scalar()
    speedup = best_of(scalar) / best_of(batched)
    record_figure("engine_routing_prepass", {
        "messages": size,
        "speedup": speedup,
    })
    print(f"\nrouting pre-pass: {speedup:.1f}x over per-message calls")
    assert speedup >= 5.0


@pytest.mark.benchmark(group="engine")
def test_event_queue_throughput(benchmark):
    """Schedule + pop 10k events (the engine's raw overhead)."""

    def work():
        q = EventQueue()
        for i in range(10_000):
            q.schedule(float(i % 997), lambda: None)
        count = 0
        while q.pop() is not None:
            count += 1
        return count

    assert benchmark(work) == 10_000
