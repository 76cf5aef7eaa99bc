"""Shared chaos-test scaffolding: fast search spaces and tiny cases.

The full :class:`~repro.chaos.space.ChaosSpace` samples runs up to 600
simulated seconds; the spaces here shrink every axis so a whole campaign
fits inside a unit test's time budget without losing the regimes under
test (token-splitting routers, tight buffers, scripted faults).
"""

from __future__ import annotations

import dataclasses

from repro.chaos.space import ChaosSpace
from repro.experiments.scenario import ScenarioConfig


def fast_space(**overrides) -> ChaosSpace:
    """A search space whose cases run in tens of milliseconds."""
    space = ChaosSpace(
        routers=("snw",),
        policies=("fifo",),
        mobilities=("rwp",),
        n_nodes=(4, 8),
        sim_time=(100.0, 200.0),
        ttl_choices=(600.0,),
        copies_choices=(8,),
        max_fault_events=6,
    )
    return dataclasses.replace(space, **overrides) if overrides else space


def tiny_case(**overrides) -> ScenarioConfig:
    """One small, clean, sanitizer-armed scenario for direct runner tests."""
    config = ScenarioConfig(
        name="chaos-test",
        n_nodes=6,
        sim_time=150.0,
        mobility="rwp",
        area=(800.0, 800.0),
        speed_range=(1.0, 3.0),
        radio_range=100.0,
        buffer_bytes=4000,
        message_size=1000,
        interval_range=(10.0, 20.0),
        ttl=600.0,
        initial_copies=8,
        router="snw",
        policy="fifo",
        seed=11,
        sanitize=True,
        trace_capacity=65536,
    )
    return config.replace(**overrides) if overrides else config
