"""Scenario configurations (paper Tables II and III).

A :class:`ScenarioConfig` is a plain, picklable record — the sweep engine
ships them to worker processes.  The two presets encode the paper's tables;
:func:`scale_scenario` produces cheaper variants (for CI benchmarks) that
keep node density and congestion level, hence the metric *orderings*.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.units import kbps, megabytes, minutes

#: Mobility kinds understood by the runner.
MOBILITY_KINDS = (
    "rwp", "taxi", "random-walk", "random-direction", "stationary", "trace",
)
#: Engine backends (see docs/analytic.md): "scalar" is the discrete-event
#: simulator, "analytic" the mean-field surrogate (repro.analytic; no
#: simulation at all), and "hybrid" the analytic field plus sampled
#: discrete per-message outcomes.
ENGINE_BACKENDS = ("scalar", "analytic", "hybrid")
#: The two backends served by the mean-field models.
ANALYTIC_BACKENDS = ("analytic", "hybrid")
#: Routers with an analytic model (repro.analytic.runner dispatches on
#: these; utility-routed protocols have no closed form).
ANALYTIC_ROUTERS = ("snw", "snw-source", "epidemic", "direct")
#: Mobilities the analytic backend can parameterize: a derived meeting
#: rate (waypoint family) or an empirically calibrated one (taxi).
#: Stationary fleets never meet and traces are arbitrary, so neither fits
#: a homogeneous-rate mean field.
ANALYTIC_MOBILITIES = ("rwp", "random-walk", "random-direction", "taxi")
#: Router kinds understood by the runner.
ROUTER_KINDS = (
    "snw", "snw-source", "epidemic", "direct", "first-contact", "snf",
    "prophet",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one simulation."""

    name: str
    n_nodes: int
    sim_time: float
    # -- mobility --
    mobility: str = "rwp"
    area: tuple[float, float] = (4500.0, 3400.0)
    speed_range: tuple[float, float] = (2.0, 2.0)
    pause_range: tuple[float, float] = (0.0, 0.0)
    mobility_kwargs: dict[str, Any] = field(default_factory=dict)
    trace_path: str | None = None
    # -- radio --
    radio_range: float = 100.0
    bandwidth: float = kbps(250)
    # -- storage / traffic (Table II defaults) --
    buffer_bytes: int = megabytes(2.5)
    message_size: int = megabytes(0.5)
    #: Optional uniform size draw (extension; the paper uses a fixed size).
    message_size_range: tuple[int, int] | None = None
    interval_range: tuple[float, float] = (25.0, 35.0)
    ttl: float = minutes(300)
    initial_copies: int = 32
    # -- protocol --
    router: str = "snw"
    policy: str = "sdsrp"
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    #: Deliverable messages jump the send queue (ONE behaviour) vs strict
    #: Algorithm-1 priority order (the paper's literal scheduling).
    deliverable_first: bool = False
    # -- engine --
    tick: float = 1.0
    #: One of :data:`ENGINE_BACKENDS`; "scalar" runs the simulator.
    engine_backend: str = "scalar"
    seed: int = 1
    #: Optional fault model (node churn, link flaps, transfer truncation);
    #: None or a disabled plan runs the paper's ideal conditions.
    faults: FaultPlan | None = None
    #: Install the runtime invariant sanitizer
    #: (:mod:`repro.analysis.sanitizer`) for this run.  Also enabled
    #: globally by ``REPRO_SANITIZE=1``.
    sanitize: bool = False
    # -- extra reports --
    with_buffer_report: bool = False
    #: Exclude messages created before this time from all metrics (ONE's
    #: report warm-up; the paper reports without one).
    metrics_warmup: float = 0.0
    # -- observability (all observation-only; see docs/observability.md) --
    #: Sample interval (sim seconds) for the time-series collector
    #: (:class:`repro.obs.timeseries.TimeSeriesCollector`); 0 disables it.
    obs_interval: float = 0.0
    #: Ring-buffer size for structured event tracing
    #: (:class:`repro.obs.trace.EventTrace`); 0 disables tracing.
    trace_capacity: int = 0
    #: Per-subsystem wall-time profiling; fills ``RunSummary.profile``.
    profile: bool = False
    # -- checkpointing (see docs/checkpointing.md) --
    #: Simulated seconds between periodic state snapshots
    #: (:class:`repro.snapshot.snapshotter.PeriodicSnapshotter`); 0 disables.
    snapshot_every: float = 0.0
    #: Where to write the rolling snapshot file (gzip JSON, atomically
    #: replaced on each snapshot).  ``None`` keeps snapshots in memory only.
    snapshot_to: str | None = None

    def __post_init__(self) -> None:
        if self.mobility not in MOBILITY_KINDS:
            raise ConfigurationError(
                f"unknown mobility {self.mobility!r}; expected {MOBILITY_KINDS}"
            )
        if self.router not in ROUTER_KINDS:
            raise ConfigurationError(
                f"unknown router {self.router!r}; expected {ROUTER_KINDS}"
            )
        if self.mobility == "trace" and not self.trace_path:
            raise ConfigurationError("trace mobility requires trace_path")
        if self.n_nodes < 2:
            raise ConfigurationError(f"n_nodes must be >= 2: {self.n_nodes}")
        if self.sim_time <= 0:
            raise ConfigurationError(f"sim_time must be positive: {self.sim_time}")
        if self.obs_interval < 0:
            raise ConfigurationError(
                f"obs_interval must be >= 0: {self.obs_interval}"
            )
        if self.trace_capacity < 0:
            raise ConfigurationError(
                f"trace_capacity must be >= 0: {self.trace_capacity}"
            )
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0: {self.snapshot_every}"
            )
        if self.engine_backend not in ENGINE_BACKENDS:
            raise ConfigurationError(
                f"unknown engine_backend {self.engine_backend!r}; "
                f"expected {ENGINE_BACKENDS}"
            )
        if self.engine_backend in ANALYTIC_BACKENDS:
            self._validate_analytic()

    def _validate_analytic(self) -> None:
        """Reject features the mean-field surrogate cannot honor.

        Anything a user could reasonably expect to *change the numbers* —
        fault injection, event tracing, snapshotting, the runtime sanitizer
        — must fail loudly here rather than be silently ignored by a
        backend that never builds a simulator (docs/analytic.md lists the
        validity envelope).
        """
        backend = self.engine_backend
        if self.router not in ANALYTIC_ROUTERS:
            raise ConfigurationError(
                f"router {self.router!r} has no analytic model; the "
                f"{backend!r} backend supports {ANALYTIC_ROUTERS}"
            )
        if self.mobility not in ANALYTIC_MOBILITIES:
            raise ConfigurationError(
                f"mobility {self.mobility!r} has no meeting-rate estimator; "
                f"the {backend!r} backend supports {ANALYTIC_MOBILITIES}"
            )
        if self.faults is not None and self.faults.enabled:
            raise ConfigurationError(
                f"the {backend!r} backend cannot inject faults; "
                "use the scalar simulator for fault studies"
            )
        if self.sanitize:
            raise ConfigurationError(
                f"the {backend!r} backend runs no simulation to sanitize"
            )
        if self.trace_capacity > 0:
            raise ConfigurationError(
                f"the {backend!r} backend emits no event trace; "
                "set trace_capacity=0"
            )
        if self.snapshot_every > 0:
            raise ConfigurationError(
                f"the {backend!r} backend has no simulator state to "
                "snapshot; set snapshot_every=0"
            )
        if self.with_buffer_report:
            raise ConfigurationError(
                f"the {backend!r} backend has no per-node buffers to report"
            )
        if self.metrics_warmup > 0:
            raise ConfigurationError(
                f"the {backend!r} backend models the whole horizon; "
                "metrics_warmup is not supported"
            )
        if self.profile:
            raise ConfigurationError(
                f"the {backend!r} backend has no per-phase profiler; "
                "set profile=False"
            )

    def replace(self, **changes: Any) -> "ScenarioConfig":
        """A copy with *changes* applied (dataclasses.replace wrapper)."""
        return dataclasses.replace(self, **changes)


def config_fingerprint(config: ScenarioConfig) -> str:
    """Stable content hash of a scenario config.

    The key of sweep checkpoints, the service's result cache and chaos
    corpus file names.
    """
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def random_waypoint_scenario(**overrides: Any) -> ScenarioConfig:
    """Table II: the synthetic random-waypoint scenario.

    18000 s, 4500 m x 3400 m, 100 nodes at 2 m/s, 250 kbit/s radio with
    100 m range, 2.5 MB buffers, 0.5 MB messages every 25-35 s, TTL 300 min,
    L = 32 copies.  Override any field via keyword arguments.
    """
    base = ScenarioConfig(
        name="random-waypoint",
        n_nodes=100,
        sim_time=18000.0,
        mobility="rwp",
    )
    return base.replace(**overrides) if overrides else base


def epfl_scenario(**overrides: Any) -> ScenarioConfig:
    """Table III: the taxi-trace scenario (synthetic EPFL substitute).

    200 taxis over 18000 s with the same radio/buffer/traffic parameters as
    Table II.  Uses :class:`repro.mobility.taxi.TaxiFleet` by default; pass
    ``mobility="trace", trace_path=...`` to replay real data instead.
    """
    base = ScenarioConfig(
        name="epfl",
        n_nodes=200,
        sim_time=18000.0,
        mobility="taxi",
        area=(8000.0, 8000.0),
    )
    return base.replace(**overrides) if overrides else base


def scale_scenario(
    config: ScenarioConfig,
    node_factor: float = 1.0,
    time_factor: float = 1.0,
    interval_factor: float = 1.0,
) -> ScenarioConfig:
    """Shrink a scenario while preserving node density and congestion.

    Four invariants keep the policy *orderings* intact at reduced cost:

    * **node density** — the area scales with the node count, so per-node
      contact rates stay similar;
    * **spray saturation** — L/N governs how much of the fleet a spray can
      reach (L=32 must stay "a third of the fleet", not "most of it"), so
      initial copies scale with the node count;
    * **buffer pressure** — total generated copy-bytes stay proportional to
      total buffer bytes.  Copy-bytes ∝ (sim_time/interval)·L, and with L
      already scaled by the node factor, the interval scales by
      ``time_factor`` alone;
    * **message aging** — TTL scales with the simulation time (the paper
      sets TTL = 300 min = the 18000 s horizon).

    ``interval_factor`` additionally multiplies the generation interval to
    *calibrate the congestion operating point*: a simulator substrate that
    is more or less efficient than the paper's (ONE) at equal byte pressure
    can be brought into the paper's observed delivery-ratio band (where the
    reported orderings live) by generating proportionally less or more
    traffic.  The benchmark harness uses
    :data:`repro.experiments.figures.REDUCED_INTERVAL_FACTOR`, calibrated so
    the plain Spray-and-Wait baseline lands near the paper's ~0.3 delivery
    ratio (see EXPERIMENTS.md).
    """
    if node_factor <= 0 or time_factor <= 0 or interval_factor <= 0:
        raise ConfigurationError("scale factors must be positive")
    n_nodes = max(2, round(config.n_nodes * node_factor))
    actual_factor = n_nodes / config.n_nodes
    w, h = config.area
    area_scale = actual_factor**0.5
    lo, hi = config.interval_range
    return config.replace(
        name=f"{config.name}-x{actual_factor:.2f}",
        n_nodes=n_nodes,
        sim_time=config.sim_time * time_factor,
        ttl=config.ttl * time_factor,
        area=(w * area_scale, h * area_scale),
        interval_range=(
            lo * time_factor * interval_factor,
            hi * time_factor * interval_factor,
        ),
        initial_copies=max(2, round(config.initial_copies * actual_factor)),
    )
