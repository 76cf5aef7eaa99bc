"""The chaos search space: seeded sampling of hostile configurations.

:func:`sample_case` is a pure function of ``(space, base_seed, index)``:
case *i* of seed *s* is the same scenario on every machine, forever.  That
single property carries the whole harness — failures replay from two
integers, the corpus stays valid across runs, and a nightly fuzz job can
split the index range across shards without coordination.

The space deliberately concentrates on the regimes the ISSUE calls out:
near-zero buffers (1–8 messages of headroom), TTL edge values (shorter
than a contact gap up to effectively-infinite), single-copy sprays, dense
fault schedules (scripted bursts on top of rate-based churn/flap/
corruption), across every router and registered buffer policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.scenario import (
    ANALYTIC_BACKENDS,
    ANALYTIC_MOBILITIES,
    ANALYTIC_ROUTERS,
    ScenarioConfig,
)
from repro.faults.plan import EVENT_KINDS, FaultEvent, FaultPlan
from repro.rng import RngFactory, derive_seed

__all__ = ["ChaosSpace", "sample_case"]

#: Routers exercised by default (all of them).
_ROUTERS = (
    "snw", "snw-source", "epidemic", "direct", "first-contact", "snf",
    "prophet",
)
#: Registered buffer policies (repro.policies.registry builtins).
_POLICIES = (
    "fifo", "lifo", "random", "snw-o", "snw-c", "mofo", "shli", "sdsrp",
    "sdsrp-knapsack", "gbsd",
)
#: Mobility kinds that need no external trace file.
_MOBILITIES = ("rwp", "random-walk", "random-direction")


@dataclass(frozen=True)
class ChaosSpace:
    """Parameter ranges the fuzzer draws cases from.

    All ranges are inclusive.  Shrink the space (e.g. a single router) to
    focus a hunt; the default covers everything the runner can build
    without external inputs.
    """

    routers: tuple[str, ...] = _ROUTERS
    policies: tuple[str, ...] = _POLICIES
    mobilities: tuple[str, ...] = _MOBILITIES
    n_nodes: tuple[int, int] = (4, 20)
    sim_time: tuple[float, float] = (150.0, 600.0)
    #: Buffer capacity in *messages* — 1 means the buffer holds exactly one
    #: message, the hardest drop-policy regime.
    buffer_messages: tuple[int, int] = (1, 8)
    message_size: int = 1000
    #: TTL edge values (seconds): shorter than a typical contact gap,
    #: around the horizon, and effectively infinite.
    ttl_choices: tuple[float, ...] = (30.0, 120.0, 600.0, 1.0e6)
    #: Spray budgets: degenerate single-copy up to a full 32-copy spray.
    copies_choices: tuple[int, ...] = (1, 2, 3, 8, 32)
    #: New-message inter-arrival lower bound is drawn from this range.
    interval_lo: tuple[float, float] = (5.0, 30.0)
    #: Scripted fault events per case (upper bound, inclusive).
    max_fault_events: int = 12
    #: Probability that a case carries each rate-based fault family.
    churn_prob: float = 0.4
    flap_prob: float = 0.4
    transfer_fault_prob: float = 0.4
    #: Event-trace ring size for cases (bounds byte-identity comparisons
    #: and failure context; big enough to hold a whole small case).
    trace_capacity: int = 65536
    #: Engine backends cases may run on.  The default is the simulator
    #: alone; widen to ``("scalar", "analytic", "hybrid")`` to point the
    #: replay / crash / summary oracles at the mean-field backend too
    #: (cases are coerced into its validity envelope — see
    #: :func:`sample_case`).
    engine_backends: tuple[str, ...] = ("scalar",)


def _sample_plan(
    space: ChaosSpace, rng: np.random.Generator, n_nodes: int, sim_time: float
) -> FaultPlan | None:
    """Draw the fault model: rate-based families plus a scripted burst."""
    churn_fraction = 0.0
    churn_off = churn_on = sim_time / 4.0
    if rng.random() < space.churn_prob:
        churn_fraction = float(rng.uniform(0.1, 0.5))
        # Duty windows up to half the horizon: long outages, but every
        # churned node still cycles at least once (validate_for enforces
        # windows <= horizon).
        churn_off = float(rng.uniform(sim_time / 10.0, sim_time / 2.0))
        churn_on = float(rng.uniform(sim_time / 10.0, sim_time / 2.0))
    link_flap_rate = 0.0
    if rng.random() < space.flap_prob:
        # Up to one forced flap every ~10 s of sim time: a flap storm for
        # these small fleets.
        link_flap_rate = float(rng.uniform(0.005, 0.1))
    transfer_fault = 0.0
    if rng.random() < space.transfer_fault_prob:
        transfer_fault = float(rng.uniform(0.05, 0.4))

    n_events = int(rng.integers(0, space.max_fault_events + 1))
    events = []
    for _ in range(n_events):
        kind = EVENT_KINDS[int(rng.integers(len(EVENT_KINDS)))]
        time = float(rng.uniform(0.0, sim_time))
        node = int(rng.integers(n_nodes))
        events.append(FaultEvent(time=time, kind=kind, node=node))
    # Sort by time so shrinking chunks are contiguous windows; FaultEvent
    # is frozen, so sorting cannot change semantics, only presentation.
    events.sort(key=lambda e: (e.time, e.kind, e.node))

    if not events and churn_fraction == 0 and link_flap_rate == 0 \
            and transfer_fault == 0:
        return None
    return FaultPlan(
        churn_fraction=churn_fraction,
        churn_off_time=churn_off,
        churn_on_time=churn_on,
        churn_wipe_buffer=bool(rng.random() < 0.8),
        link_flap_rate=link_flap_rate,
        transfer_fault_prob=transfer_fault,
        events=tuple(events),
    )


def sample_case(
    space: ChaosSpace, base_seed: int, index: int
) -> ScenarioConfig:
    """Case *index* of the fuzzing campaign seeded with *base_seed*.

    Deterministic: the draw comes from a dedicated stream of a factory
    seeded with ``derive_seed(base_seed, "chaos", index)``; the scenario
    itself gets the same derived seed, so the case is fully identified by
    ``(base_seed, index)`` and — once serialized — by its config alone.
    """
    seed = derive_seed(base_seed, "chaos", index)
    rng = RngFactory(seed).stream("chaos.space")

    n_nodes = int(rng.integers(space.n_nodes[0], space.n_nodes[1] + 1))
    sim_time = float(rng.uniform(*space.sim_time))
    router = space.routers[int(rng.integers(len(space.routers)))]
    policy = space.policies[int(rng.integers(len(space.policies)))]
    mobility = space.mobilities[int(rng.integers(len(space.mobilities)))]
    k_messages = int(
        rng.integers(space.buffer_messages[0], space.buffer_messages[1] + 1)
    )
    ttl = space.ttl_choices[int(rng.integers(len(space.ttl_choices)))]
    copies = space.copies_choices[int(rng.integers(len(space.copies_choices)))]
    lo = float(rng.uniform(*space.interval_lo))
    hi = lo + float(rng.uniform(1.0, 10.0))
    faults = _sample_plan(space, rng, n_nodes, sim_time)
    # Drawn last so adding the backend axis left every pre-existing
    # (seed, index) -> case mapping — and thus the corpus — intact.
    backend = space.engine_backends[
        int(rng.integers(len(space.engine_backends)))
    ]
    sanitize = True
    trace_capacity = space.trace_capacity
    if backend in ANALYTIC_BACKENDS:
        # The mean-field backend validates a narrower envelope (no faults,
        # no tracing/sanitizing, modelled routers/mobilities only —
        # ScenarioConfig raises ConfigurationError otherwise).  Coerce the
        # draw into that envelope deterministically so every sampled case
        # constructs; the *rejection* path is covered by
        # tests/analytic/test_config_validation.py.
        if router not in ANALYTIC_ROUTERS:
            router = ANALYTIC_ROUTERS[int(rng.integers(len(ANALYTIC_ROUTERS)))]
        if mobility not in ANALYTIC_MOBILITIES:
            mobility = ANALYTIC_MOBILITIES[
                int(rng.integers(len(ANALYTIC_MOBILITIES)))
            ]
        faults = None
        sanitize = False
        trace_capacity = 0

    # Area scales with fleet size at roughly the Table-II node density, so
    # contact rates stay in a regime where messages actually move.
    side = 350.0 * float(np.sqrt(n_nodes))
    return ScenarioConfig(
        name=f"chaos-{index}",
        n_nodes=n_nodes,
        sim_time=sim_time,
        mobility=mobility,
        area=(side, side),
        speed_range=(1.0, 3.0),
        radio_range=100.0,
        buffer_bytes=k_messages * space.message_size,
        message_size=space.message_size,
        interval_range=(lo, hi),
        ttl=ttl,
        initial_copies=copies,
        router=router,
        policy=policy,
        engine_backend=backend,
        seed=seed,
        faults=faults,
        sanitize=sanitize,
        trace_capacity=trace_capacity,
    )


def describe_case(config: ScenarioConfig) -> str:
    """One-line human label for logs and CLI output."""
    plan = config.faults
    fault_bits = "no-faults"
    if plan is not None:
        fault_bits = (
            f"churn={plan.churn_fraction:.2f} flap={plan.link_flap_rate:.3f} "
            f"xfer={plan.transfer_fault_prob:.2f} events={len(plan.events)}"
        )
    return (
        f"{config.name}: {config.router}/{config.policy}/{config.mobility} "
        f"({config.engine_backend}) n={config.n_nodes} t={config.sim_time:.0f}s "
        f"buf={config.buffer_bytes}B ttl={config.ttl:.0f}s "
        f"L={config.initial_copies} [{fault_bits}]"
    )

