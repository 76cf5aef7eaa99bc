"""Build and run one scenario.

:func:`build_scenario` assembles the full simulator stack from a
:class:`~repro.experiments.scenario.ScenarioConfig`; :func:`run_scenario`
runs it to the horizon and returns a
:class:`~repro.reports.summary.RunSummary`.  Both are importable by worker
processes (no closures), so sweeps parallelize cleanly.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.sanitizer import Sanitizer
from repro.core.oracle import GlobalInfectionOracle
from repro.core.params import ESTIMATOR_ORACLE, SdsrpParams
from repro.core.sdsrp import SdsrpPolicy, SdsrpShared
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, InvariantViolation, SnapshotError
from repro.faults.injector import FaultInjector
from repro.mobility.base import MobilityModel
from repro.mobility.random_direction import RandomDirection
from repro.mobility.random_walk import RandomWalk
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.stationary import Stationary
from repro.mobility.taxi import TaxiFleet
from repro.net.generator import MessageGenerator, TrafficSpec
from repro.net.transfer import TransferManager
from repro.obs.profiler import PhaseProfiler
from repro.obs.timeseries import TimeSeriesCollector
from repro.obs.trace import DEFAULT_CONTEXT_EVENTS, EventTrace
from repro.policies.base import BufferPolicy
from repro.policies.registry import make_policy
from repro.reports.buffer_report import BufferReport
from repro.reports.contact_report import ContactReport
from repro.reports.metrics import MetricsCollector
from repro.reports.summary import FailedRun, RunSummary
from repro.rng import RngFactory
from repro.routing.base import Router
from repro.routing.direct import DirectDeliveryRouter
from repro.routing.epidemic import EpidemicRouter
from repro.routing.first_contact import FirstContactRouter
from repro.routing.prophet import ProphetRouter
from repro.routing.spray_and_focus import SprayAndFocusRouter
from repro.routing.spray_and_wait import SprayAndWaitRouter
from repro.traces.format import read_movement_trace
from repro.world.node import Node
from repro.world.radio import Radio
from repro.world.world import World
from repro.experiments.scenario import ANALYTIC_BACKENDS, ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.snapshot.snapshotter import PeriodicSnapshotter


@dataclass
class BuiltSimulation:
    """The assembled stack for one run (exposed for tests and examples)."""

    config: ScenarioConfig
    sim: Simulator
    world: World
    nodes: list[Node]
    metrics: MetricsCollector
    contacts: ContactReport
    generator: MessageGenerator
    shared: SdsrpShared | None
    buffer_report: BufferReport | None
    fault_injector: FaultInjector | None = None
    sanitizer: Sanitizer | None = None
    #: Observability collectors (None unless enabled on the config; see
    #: docs/observability.md).  All three are strictly observation-only.
    timeseries: TimeSeriesCollector | None = None
    trace: EventTrace | None = None
    profiler: PhaseProfiler | None = None
    #: The seeded stream factory the stack was built with; required by
    #: :func:`repro.snapshot.save` to capture RNG stream states.
    rng: RngFactory | None = None
    #: Periodic checkpointer (None unless ``config.snapshot_every > 0``).
    snapshotter: "PeriodicSnapshotter | None" = None


def _make_mobility(config: ScenarioConfig) -> MobilityModel:
    kw = dict(config.mobility_kwargs)
    if config.mobility == "rwp":
        return RandomWaypoint(
            config.n_nodes, config.area, config.speed_range, config.pause_range, **kw
        )
    if config.mobility == "taxi":
        return TaxiFleet(config.n_nodes, area=config.area, **kw)
    if config.mobility == "random-walk":
        return RandomWalk(config.n_nodes, config.area, config.speed_range, **kw)
    if config.mobility == "random-direction":
        return RandomDirection(
            config.n_nodes, config.area, config.speed_range, config.pause_range, **kw
        )
    if config.mobility == "stationary":
        return Stationary(config.n_nodes, config.area, **kw)
    if config.mobility == "trace":
        assert config.trace_path is not None
        mobility = read_movement_trace(config.trace_path)
        if mobility.n_nodes != config.n_nodes:
            raise ConfigurationError(
                f"trace drives {mobility.n_nodes} nodes, scenario wants "
                f"{config.n_nodes}"
            )
        return mobility
    raise ConfigurationError(f"unknown mobility {config.mobility!r}")


#: Policies of the SDSRP family share fleet state (λ estimator / oracle);
#: the suffix "-oracle" switches any of them to exact global knowledge.
_SHARED_FAMILY: dict[str, type[SdsrpPolicy]] = {}


def _shared_family() -> dict[str, type[SdsrpPolicy]]:
    if not _SHARED_FAMILY:
        from repro.core.knapsack import KnapsackSdsrpPolicy
        from repro.policies.gbsd import GbsdPolicy

        _SHARED_FAMILY.update(
            {
                "sdsrp": SdsrpPolicy,
                "sdsrp-oracle": SdsrpPolicy,
                "sdsrp-knapsack": KnapsackSdsrpPolicy,
                "gbsd": GbsdPolicy,
                "gbsd-oracle": GbsdPolicy,
            }
        )
    return _SHARED_FAMILY


def _make_policies(
    config: ScenarioConfig, sim: Simulator
) -> tuple[list[BufferPolicy], SdsrpShared | None]:
    """One policy instance per node, plus the SDSRP shared state if any."""
    family = _shared_family()
    if config.policy in family:
        cls = family[config.policy]
        kwargs = dict(config.policy_kwargs)
        if config.policy.endswith("-oracle"):
            kwargs["estimator"] = ESTIMATOR_ORACLE
        params = SdsrpParams(**kwargs)
        oracle = None
        if params.estimator == ESTIMATOR_ORACLE:
            oracle = GlobalInfectionOracle()
            oracle.subscribe(sim)
        shared = SdsrpShared.for_fleet(config.n_nodes, params=params, oracle=oracle)
        return [cls(shared=shared) for _ in range(config.n_nodes)], shared
    policies = [
        make_policy(config.policy, **config.policy_kwargs)
        for _ in range(config.n_nodes)
    ]
    return policies, None


def _make_router(config: ScenarioConfig, node: Node, policy: BufferPolicy) -> Router:
    if config.router == "snw":
        return SprayAndWaitRouter(node, policy)
    if config.router == "snw-source":
        return SprayAndWaitRouter(node, policy, source_spray=True)
    if config.router == "epidemic":
        return EpidemicRouter(node, policy)
    if config.router == "direct":
        return DirectDeliveryRouter(node, policy)
    if config.router == "first-contact":
        return FirstContactRouter(node, policy)
    if config.router == "snf":
        return SprayAndFocusRouter(node, policy)
    if config.router == "prophet":
        return ProphetRouter(node, policy)
    raise ConfigurationError(f"unknown router {config.router!r}")


#: Routers whose forwarding conserves spray tokens, enabling the sanitizer's
#: copy-conservation invariant.  Source spray ("snw-source") and
#: clone-everything routers (epidemic, prophet, …) inflate token sums by
#: design, so only the check's cheaper invariants apply to them.
_TOKEN_CONSERVING_ROUTERS = ("snw", "snf")


def build_scenario(config: ScenarioConfig) -> BuiltSimulation:
    """Assemble the simulator stack without running it."""
    if config.engine_backend in ANALYTIC_BACKENDS:
        raise ConfigurationError(
            f"engine_backend {config.engine_backend!r} runs no simulator; "
            "use run_scenario() (which dispatches to repro.analytic) "
            "instead of build_scenario()"
        )
    sim = Simulator(end_time=config.sim_time, sanitize=config.sanitize or None)
    rng = RngFactory(config.seed)

    mobility = _make_mobility(config)
    radio = Radio(range_m=config.radio_range, bandwidth_Bps=config.bandwidth)
    nodes = [
        Node(i, radio, buffer_capacity=config.buffer_bytes)
        for i in range(config.n_nodes)
    ]
    transfer_manager = TransferManager(sim)
    world = World(sim, mobility, nodes, transfer_manager, tick=config.tick)

    policies, shared = _make_policies(config, sim)
    for node, policy in zip(nodes, policies):
        router = _make_router(config, node, policy)
        router.deliverable_first = config.deliverable_first
        router.bind(sim, transfer_manager, config.n_nodes, rng=rng)

    metrics = MetricsCollector(warmup=config.metrics_warmup)
    metrics.subscribe(sim)
    contacts = ContactReport()
    contacts.subscribe(sim)
    buffer_report = None
    if config.with_buffer_report:
        buffer_report = BufferReport(nodes)
        buffer_report.subscribe(sim)

    generator = MessageGenerator(
        sim,
        nodes,
        TrafficSpec(
            interval_range=config.interval_range,
            message_size=config.message_size,
            ttl=config.ttl,
            initial_copies=config.initial_copies,
            size_range=config.message_size_range,
        ),
        rng.stream("traffic"),
    )

    world.start(rng.stream("mobility"))
    generator.start()

    fault_injector = None
    if config.faults is not None and config.faults.enabled:
        fault_injector = FaultInjector(world, config.faults, rng.stream("faults"))
        fault_injector.start()

    sanitizer = None
    if sim.sanitize:
        sanitizer = Sanitizer(
            nodes, check_copies=config.router in _TOKEN_CONSERVING_ROUTERS
        )
        sanitizer.subscribe(sim)

    timeseries = None
    if config.obs_interval > 0:
        timeseries = TimeSeriesCollector(nodes, interval=config.obs_interval)
        timeseries.subscribe(sim)
    trace = None
    if config.trace_capacity > 0:
        trace = EventTrace(capacity=config.trace_capacity)
        trace.subscribe(sim)
    profiler = None
    if config.profile:
        profiler = PhaseProfiler()
        sim.profiler = profiler
    built = BuiltSimulation(
        config=config,
        sim=sim,
        world=world,
        nodes=nodes,
        metrics=metrics,
        contacts=contacts,
        generator=generator,
        shared=shared,
        buffer_report=buffer_report,
        fault_injector=fault_injector,
        sanitizer=sanitizer,
        timeseries=timeseries,
        trace=trace,
        profiler=profiler,
        rng=rng,
    )
    if config.snapshot_every > 0:
        # Imported here: repro.snapshot.restore imports this module back.
        from repro.snapshot.snapshotter import PeriodicSnapshotter

        built.snapshotter = PeriodicSnapshotter(
            built, every=config.snapshot_every, path=config.snapshot_to
        )
        built.snapshotter.start()
    return built


def run_built(built: BuiltSimulation, wall_start: float | None = None) -> RunSummary:
    """Run an assembled stack to the horizon and summarize it.

    When an :class:`~repro.errors.InvariantViolation` escapes the sanitizer
    and the run carried an event trace, the last
    :data:`~repro.obs.trace.DEFAULT_CONTEXT_EVENTS` trace records are
    attached to the exception as ``trace_tail`` before it propagates — the
    CLI and test harnesses dump them as debugging context.
    """
    if wall_start is None:
        wall_start = time.perf_counter()
    config = built.config
    try:
        built.sim.run()
    except InvariantViolation as exc:
        if built.trace is not None:
            exc.trace_tail = built.trace.tail(DEFAULT_CONTEXT_EVENTS)
        raise
    if built.timeseries is not None:
        built.timeseries.finalize(built.sim.now)
    metrics = built.metrics
    return RunSummary(
        scenario=config.name,
        policy=config.policy,
        seed=config.seed,
        sim_time=config.sim_time,
        initial_copies=config.initial_copies,
        buffer_bytes=config.buffer_bytes,
        interval_range=config.interval_range,
        created=metrics.created,
        delivered=metrics.delivered,
        relayed=metrics.relayed,
        delivery_ratio=metrics.delivery_ratio,
        average_hopcount=metrics.average_hopcount,
        overhead_ratio=metrics.overhead_ratio,
        average_latency=metrics.average_latency,
        drops=dict(metrics.drops_by_reason),
        faults=dict(metrics.faults_by_kind),
        contacts=built.contacts.contact_count,
        mean_intermeeting=built.contacts.mean_intermeeting(),
        wall_seconds=time.perf_counter() - wall_start,
        profile=built.profiler.as_dict() if built.profiler is not None else {},
    )


def run_scenario(config: ScenarioConfig) -> RunSummary:
    """Build, run to the horizon, and summarize one scenario.

    ``engine_backend="analytic"``/``"hybrid"`` configs never build a
    simulator: they dispatch to the mean-field surrogate
    (:func:`repro.analytic.runner.run_analytic_summary`), which returns the
    same :class:`RunSummary` shape — sweeps, figures, the service cache and
    the CLI are backend-agnostic.
    """
    if config.engine_backend in ANALYTIC_BACKENDS:
        # Imported lazily: repro.analytic's calibration fallback runs short
        # simulations through build_scenario, so the import must not cycle.
        from repro.analytic.runner import run_analytic_summary

        return run_analytic_summary(config)
    wall_start = time.perf_counter()
    return run_built(build_scenario(config), wall_start=wall_start)


def _try_resume(config: ScenarioConfig) -> BuiltSimulation | None:
    """Restore from the scenario's rolling snapshot file, if one is valid.

    Returns ``None`` (caller builds from scratch) when snapshotting is off,
    no file exists, the file is unreadable/corrupt, or it was written for a
    different configuration.
    """
    if config.snapshot_every <= 0 or not config.snapshot_to:
        return None
    path = Path(config.snapshot_to)
    if not path.exists():
        return None
    from repro.snapshot import read_snapshot, restore
    from repro.snapshot.capture import encode_config
    from repro.snapshot.codec import canonical_json

    try:
        snap = read_snapshot(path)
        if canonical_json(snap.config) != canonical_json(encode_config(config)):
            return None
        return restore(snap)
    except SnapshotError:
        return None


def with_rolling_snapshot(
    config: ScenarioConfig, directory: Path, fingerprint: str
) -> ScenarioConfig:
    """*config* with its rolling snapshot file placed in *directory*.

    Mid-run resume for killed workers: a config that snapshots
    (``snapshot_every`` > 0) but names no file rolls one at
    ``<directory>/<fingerprint>.snap.gz``; :func:`run_scenario_safe` resumes
    from it when valid and removes it on success.  Any other config is
    returned unchanged.  The file is execution plumbing: callers take the
    fingerprint (their checkpoint or cache key) before this replace.
    """
    if config.snapshot_every > 0 and config.snapshot_to is None:
        return config.replace(
            snapshot_to=str(directory / f"{fingerprint}.snap.gz")
        )
    return config


def run_scenario_safe(config: ScenarioConfig) -> RunSummary | FailedRun:
    """:func:`run_scenario`, but failures become :class:`FailedRun` records.

    Any :class:`Exception` (including every :class:`~repro.errors.ReproError`)
    is captured with its traceback instead of propagating, so one bad
    configuration or simulator bug cannot poison a whole sweep.
    ``KeyboardInterrupt``/``SystemExit`` still propagate.

    When the config carries a snapshot file (``snapshot_every`` > 0 and
    ``snapshot_to`` set), a valid snapshot left by a previous attempt is
    resumed from instead of restarting at t=0, and the file is removed once
    the run completes.
    """
    try:
        if config.engine_backend in ANALYTIC_BACKENDS:
            return run_scenario(config)
        wall_start = time.perf_counter()
        built = _try_resume(config)
        if built is None:
            built = build_scenario(config)
        summary = run_built(built, wall_start=wall_start)
        if config.snapshot_every > 0 and config.snapshot_to:
            Path(config.snapshot_to).unlink(missing_ok=True)
        return summary
    except Exception as exc:
        return FailedRun(
            scenario=config.name,
            policy=config.policy,
            seed=config.seed,
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback=traceback.format_exc(),
        )
