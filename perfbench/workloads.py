"""The benchmark's three workloads: inputs from a seed, timed runs, checks.

Configs are built only with the program's public constructors
(``ScenarioConfig``, ``random_waypoint_scenario``, ``epfl_scenario``,
``reduced``) and runs are driven only through ``build_scenario``,
``run_built`` and ``run_many``.  No config sets an engine, contact kernel,
detector or shard option, so each workload measures whatever the program
picks by default and keeps measuring it as those defaults change.

* ``paper-rwp`` -- the reduced Table-II random-waypoint run with SDSRP: the
  congested paper operating point, where routing, policy and transfer do
  most of the work.
* ``fleet-10k`` -- 10k nodes, (almost) no traffic in 30 s: contact detection at
  scale plus routing scans over empty buffers; policy and transfer idle.
* ``sweep`` -- the fig8/fig9 grid path: {RWP, taxi} x the four paper
  policies x L in {16, 48} on a process pool with a checkpoint, run fresh
  and then resumed from the complete checkpoint.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from collections import Counter
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.experiments.figures import PAPER_POLICIES, reduced
from repro.experiments.runner import build_scenario, run_built
from repro.experiments.scenario import (
    ScenarioConfig,
    epfl_scenario,
    random_waypoint_scenario,
)
from repro.experiments.sweep import run_many
from repro.reports.summary import RunSummary

from hostspeed import HostSpeed
from tracing import Tracer, percentile

#: The seed each workload's committed digest was recorded with.
DEFAULT_SEEDS = {"paper-rwp": 1, "fleet-10k": 7, "sweep": 1}

#: Sweep grid: copies in paper units (scaled with the fleet by ``reduced``,
#: as the fig8 copies axis does).  The node and time factors keep a point
#: under a second, so one run holds several fresh passes.
SWEEP_COPIES = (16, 48)
SWEEP_NODE_FACTOR = 0.2
SWEEP_TIME_FACTOR = 1.0 / 12.0
#: Resume passes timed after each fresh pass (checkpoint loads timed per
#: traced run); each costs milliseconds, so ``setup_s`` is the median of
#: many, spread over the run.
RESUME_PASSES = 20

EXPECTED_DIGESTS = Path(__file__).with_name("expected_digests.json")


# -- inputs -------------------------------------------------------------------


def paper_rwp_config(seed: int) -> ScenarioConfig:
    """The reduced Table-II RWP scenario (40 nodes, 6000 s) with SDSRP."""
    return reduced(random_waypoint_scenario(policy="sdsrp", seed=seed))


def fleet_config(seed: int) -> ScenarioConfig:
    """10k nodes on a 12 km square for 30 s (the shard benchmark's fleet)."""
    return ScenarioConfig(
        name="fleet-10k",
        n_nodes=10_000,
        sim_time=30.0,
        mobility="rwp",
        area=(12_000.0, 12_000.0),
        speed_range=(1.0, 3.0),
        radio_range=100.0,
        buffer_bytes=10_000,
        message_size=1000,
        interval_range=(20.0, 40.0),
        ttl=600.0,
        initial_copies=8,
        router="snw",
        policy="sdsrp",
        seed=seed,
    )


def sweep_grid(seed: int) -> list[ScenarioConfig]:
    """{RWP, taxi} x paper policies x L, each point reduced."""
    return [
        reduced(
            preset(policy=policy, initial_copies=copies, seed=seed),
            node_factor=SWEEP_NODE_FACTOR,
            time_factor=SWEEP_TIME_FACTOR,
        )
        for preset in (random_waypoint_scenario, epfl_scenario)
        for policy in PAPER_POLICIES
        for copies in SWEEP_COPIES
    ]


def ticks(config: ScenarioConfig) -> float:
    return config.sim_time / config.tick


def repeat_until(deadline: float, step: Callable[[], bool]) -> None:
    """Call *step* at least once, and again while it fits before *deadline*.

    A further call is skipped when the median call so far would end past
    the deadline, so a run lasts its window and not a repetition longer.
    *step* returns False to stop early.
    """
    took: list[float] = []
    while True:
        t0 = time.perf_counter()
        if not step():
            return
        took.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(took) > deadline:
            return


# -- output check -------------------------------------------------------------


def _canonical(value: Any) -> Any:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def summary_digest(summaries: Sequence[RunSummary]) -> str:
    """Hash of the summaries' simulated outcomes.

    ``wall_seconds`` and ``profile`` are host-time diagnostics and are
    left out; NaN (e.g. ``average_latency`` with no deliveries) is mapped
    to a string, since NaN != NaN would make equal runs differ.
    """
    records = []
    for summary in summaries:
        record = dataclasses.asdict(summary)
        record.pop("wall_seconds", None)
        record.pop("profile", None)
        records.append(_canonical(record))
    payload = json.dumps(records, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class OutputCheck:
    """Counts runs and compares each run's digest with its reference.

    The reference is the committed digest for the seed when there is one,
    else the first successful run's digest.
    """

    def __init__(self, expected: str | None) -> None:
        self.reference = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, summaries: Sequence[Any] | None, error: str = "") -> bool:
        """Account one run; *summaries* is None when the run raised."""
        self.attempted += 1
        if summaries is None:
            return self._fail(error or "run raised")
        bad = [s for s in summaries if not isinstance(s, RunSummary)]
        if bad:
            return self._fail(f"failed run: {bad[0]!r}"[:500])
        digest = summary_digest(summaries)
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            return self._fail(f"digest {digest[:12]} != {self.reference[:12]}")
        return True

    def _fail(self, why: str) -> bool:
        self.failed += 1
        self.errors.append(why)
        return False


def expected_digest(workload: str, seed: int) -> str | None:
    table = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


# -- single-run workloads -----------------------------------------------------


def _timed_rep(
    config: ScenarioConfig,
    check: OutputCheck,
    after_build: Callable[[Any], None] | None = None,
    after_run: Callable[[Any], None] | None = None,
) -> tuple[float, float] | None:
    """Build and run once: ``(build_s, run_s)``, or None if it raised.

    A run whose output fails the check is still timed; *check* counts it
    failed.  The stack is dropped before returning, so the next repetition
    builds and runs without the previous one's objects alive.
    """
    gc.collect()
    try:
        t0 = time.perf_counter()
        built = build_scenario(config)
        t1 = time.perf_counter()
        if after_build is not None:
            after_build(built)
        t2 = time.perf_counter()
        summary = run_built(built)
        t3 = time.perf_counter()
    except Exception as exc:  # a crash is a failed run, not a dead benchmark
        check.record(None, f"{type(exc).__name__}: {exc}")
        return None
    check.record([summary])
    if after_run is not None:
        after_run(built)
    return t1 - t0, t3 - t2


def measure_single(
    config: ScenarioConfig, seconds: float, check: OutputCheck
) -> dict[str, Any]:
    """Untraced build+run repetitions for *seconds*, a warm-up included.

    A probe pass runs before the first repetition and after each one; each
    build and run time is scaled to the reference host speed by the probe
    passes around it (see ``hostspeed``).  Rates are totals over every
    timed repetition (run phase only); set-up is the median build time.
    The raw wall-time figures are returned as well, under ``raw_*``.
    """
    deadline = time.perf_counter() + seconds
    _timed_rep(config, check)  # warm-up: lazy imports and first-call caches
    host = HostSpeed()
    before = host.probe()
    builds: list[float] = []
    runs: list[float] = []
    raw_builds: list[float] = []
    raw_runs: list[float] = []

    def step() -> bool:
        nonlocal before
        done = _timed_rep(config, check)
        after = host.probe()
        if done is not None:
            # The build runs right after the earlier probe pass.
            builds.append(host.scale(done[0], before, before))
            runs.append(host.scale(done[1], before, after))
            raw_builds.append(done[0])
            raw_runs.append(done[1])
        before = after
        return bool(runs) or check.failed < 3

    repeat_until(deadline, step)
    if not runs:
        return {}
    return {
        "ticks_per_s": ticks(config) * len(runs) / sum(runs),
        "points_per_s": len(runs) / sum(runs),
        "setup_s": statistics.median(builds),
        "raw_ticks_per_s": ticks(config) * len(raw_runs) / sum(raw_runs),
        "raw_setup_s": statistics.median(raw_builds),
        "host.speed": host.speed(),
        "reps": len(runs),
        "rep_run_s": raw_runs,
        "probe_s": host.samples,
    }


#: Layer wrap points: (span name, object path on the built stack, method,
#: metrics derived from the span).  The class wrapped is the concrete class
#: of the object found at the path.
SPAN_POINTS = (
    ("mobility.advance", "world.mobility", "advance", ()),
    ("world.update", "world", "update", (
        "world.update.p50_ms", "world.update.p99_ms",
        "world.links_up", "world.links_down",
    )),
    ("contacts.pairs", "world.detector", "pairs", ("contacts.pairs_found",)),
    ("routing.purge_expired", "router", "purge_expired", ()),
    ("routing.try_send", "router", "try_send", ()),
    ("routing.select_next", "router", "select_next", ("routing.send_hit_ratio",)),
    ("routing.receive", "router", "receive", ()),
    ("routing.on_link_up", "router", "on_link_up", ()),
    ("routing.drop_message", "router", "drop_message", ("routing.purged_ttl",)),
    ("policy.send_priority", "policy", "send_priority", ()),
    ("policy.drop_priority", "policy", "drop_priority", ()),
    ("transfer.start", "world.transfer_manager", "start", (
        "routing.send_hit_ratio", "transfer.abort_ratio",
    )),
    ("transfer.abort_for_link", "world.transfer_manager", "abort_for_link", ()),
)


#: Counters the program keeps itself, read from the built stack per run.
STACK_COUNTERS = {
    "generator.created": "generator.created",
    "engine.events": "sim.events_processed",
}
#: Per-simulation counts read from the stack or from wrapper observers.
COUNTERS = (
    "contacts.pairs_found", "world.links_up", "world.links_down",
    "routing.purged_ttl", "transfer.aborted", *STACK_COUNTERS,
)


def _attr_path(obj: Any, path: str) -> Any:
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _classes_at(built: Any, path: str) -> list[type]:
    """Concrete classes found at *path* ("router"/"policy" span all nodes)."""
    routers = [getattr(n, "router", None) for n in built.nodes]
    if path == "router":
        objs = [r for r in routers if r is not None]
    elif path == "policy":
        objs = [getattr(r, "policy", None) for r in routers if r is not None]
    else:
        objs = [_attr_path(built, path)]
    return list(dict.fromkeys(type(o) for o in objs if o is not None))


def install_spans(tracer: Tracer, built: Any) -> None:
    """Wrap every span point on the classes *built* instantiates."""
    for name, path, method, _ in SPAN_POINTS:
        classes = _classes_at(built, path)
        if not classes:
            tracer.absent.add(name)
        observe = prepare = None
        if name == "contacts.pairs":
            def observe(args: Any, result: Any, token: Any) -> None:
                tracer.counters["contacts.pairs_found"] += len(result)
        elif name == "routing.drop_message":
            def observe(args: Any, result: Any, token: Any) -> None:
                if args[2] == "ttl":
                    tracer.counters["routing.purged_ttl"] += 1
        elif name == "world.update":
            # World.update rebinds ``links`` to the new set each tick.
            def prepare(args: Any) -> Any:
                return set(getattr(args[0], "links", ()))

            def observe(args: Any, result: Any, before: Any) -> None:
                after = set(getattr(args[0], "links", ()))
                tracer.counters["world.links_up"] += len(after - before)
                tracer.counters["world.links_down"] += len(before - after)
        for cls in classes:
            tracer.wrap(cls, method, name, prepare=prepare, observe=observe)


def trace_single(
    config: ScenarioConfig, seconds: float, check: OutputCheck, out_dir: Path
) -> dict[str, float]:
    """Untraced reps, then traced reps, for *seconds* in total.

    Per-layer figures are per simulation (summed over traced reps, divided
    by their number).  The classes to wrap come from a probe build, and
    are wrapped before the traced builds because the engine captures bound
    methods (the world tick) when the stack is assembled.
    """
    deadline = time.perf_counter() + seconds
    untraced = measure_single(config, seconds / 2, check)
    if not untraced:
        return {}
    tracer = Tracer()
    install_spans(tracer, build_scenario(config))
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    update_ms: list[float] = []
    runs: list[float] = []

    def arm(built: Any) -> None:
        tracer.clear()
        built.sim.listeners.subscribe(
            "transfer.aborted",
            lambda *_: tracer.counters.update(("transfer.aborted",)),
        )

    def collect(built: Any) -> None:
        calls.update(tracer.calls())
        self_s.update(tracer.self_seconds())
        update_ms.extend(1e3 * d for d in tracer.durations("world.update"))
        counts.update(tracer.counters)
        for name, path in STACK_COUNTERS.items():
            value = _attr_path(built, path)
            if value is None:
                tracer.absent.add(name)
            else:
                counts[name] += value

    host = HostSpeed()
    before = host.probe()

    def step() -> bool:
        nonlocal before
        done = _timed_rep(config, check, after_build=arm, after_run=collect)
        after = host.probe()
        if done is not None:
            runs.append(host.scale(done[1], before, after))
        before = after
        return done is not None

    try:
        repeat_until(deadline, step)
    finally:
        tracer.restore()
    if not runs:
        return {}
    tracer.dump(out_dir / "spans.npz")
    n = len(runs)
    metrics: dict[str, float] = {}
    for name, _, _, _ in SPAN_POINTS:
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.self_s"] = self_s[name] / n
    for name in COUNTERS:
        metrics[name] = counts[name] / n
    metrics["world.update.p50_ms"] = percentile(update_ms, 50)
    metrics["world.update.p99_ms"] = percentile(update_ms, 99)
    metrics["routing.send_hit_ratio"] = _ratio(
        calls["transfer.start"], calls["routing.select_next"]
    )
    metrics["transfer.abort_ratio"] = _ratio(
        counts["transfer.aborted"], calls["transfer.start"]
    )
    if "engine.events" not in tracer.absent:
        metrics["engine.events_per_tick"] = counts["engine.events"] / n / ticks(config)
    metrics["run_s"] = sum(runs) / n
    metrics["host.speed"] = host.speed()
    traced_rate = ticks(config) * n / sum(runs)
    metrics.update(_overhead(untraced["ticks_per_s"], traced_rate))
    for name, _, _, derived in SPAN_POINTS:
        if name in tracer.absent:
            for key in (f"{name}.calls", f"{name}.self_s", *derived):
                metrics.pop(key, None)
    for name in tracer.absent:
        metrics.pop(name, None)
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _overhead(untraced: float, traced: float) -> dict[str, float]:
    return {
        "trace.rate_untraced": untraced,
        "trace.rate_traced": traced,
        "trace.overhead": untraced / traced - 1.0,
    }


# -- sweep --------------------------------------------------------------------


def _reap_workers(timeout: float = 60.0) -> None:
    """Wait until every worker process of earlier pools has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


def stop_pool_processes() -> None:
    """Reap pool workers, then stop multiprocessing's resource tracker."""
    _reap_workers()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


class SweepRunner:
    """Fresh and resumed ``run_many`` passes over one grid.

    Checkpoints go to a temporary directory under *out_dir*; :meth:`close`
    removes it after stopping every process the pools started.
    """

    def __init__(self, seed: int, out_dir: Path, check: OutputCheck) -> None:
        self.grid = sweep_grid(seed)
        self.workers = nproc()
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=out_dir))
        self.check = check
        self._passes = 0

    def close(self) -> None:
        stop_pool_processes()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def fresh(self) -> tuple[float, str, list[Any]] | None:
        """One pass on a new checkpoint: ``(wall_s, checkpoint, results)``."""
        _reap_workers()
        self._passes += 1
        path = str(self.workdir / f"fresh-{self._passes}.jsonl")
        return self._pass(path)

    def _pass(self, path: str) -> tuple[float, str, list[Any]] | None:
        """One ``run_many`` call, timed and checked; None if it raised."""
        try:
            t0 = time.perf_counter()
            results = run_many(self.grid, workers=self.workers, checkpoint=path)
            wall = time.perf_counter() - t0
        except Exception as exc:
            self.check.record(None, f"{type(exc).__name__}: {exc}")
            return None
        self.check.record(results)
        return wall, path, results

    def resume(self, path: str) -> float | None:
        """One pass over a complete checkpoint; its wall time."""
        done = self._pass(path)
        return None if done is None else done[0]

    def total_ticks(self) -> float:
        return sum(ticks(c) for c in self.grid)


def measure_sweep(runner: SweepRunner, seconds: float) -> dict[str, Any]:
    """Fresh passes for *seconds*, each followed by resume passes.

    A probe pass runs before the first fresh pass and after every fresh
    pass and every batch of resume passes, once the pool workers have
    exited; each wall time is scaled by the probe passes around it (see
    ``hostspeed``).  Rates are totals over every fresh pass, set-up the
    median resume pass.  The raw figures are returned under ``raw_*``.
    """
    deadline = time.perf_counter() + seconds
    host = HostSpeed()
    before = host.probe()
    walls: list[float] = []
    resumes: list[float] = []
    raw_walls: list[float] = []
    raw_resumes: list[float] = []

    def step() -> bool:
        nonlocal before
        done = runner.fresh()
        _reap_workers()
        mid = host.probe()
        if done is None:
            return False
        walls.append(host.scale(done[0], before, mid))
        raw_walls.append(done[0])
        batch = [runner.resume(done[1]) for _ in range(RESUME_PASSES)]
        after = host.probe()
        for wall in batch:
            if wall is not None:
                resumes.append(host.scale(wall, mid, after))
                raw_resumes.append(wall)
        before = after
        return True

    repeat_until(deadline, step)
    if not walls or not resumes:
        return {}
    return {
        "ticks_per_s": runner.total_ticks() * len(walls) / sum(walls),
        "points_per_s": len(runner.grid) * len(walls) / sum(walls),
        "setup_s": statistics.median(resumes),
        "raw_ticks_per_s": runner.total_ticks() * len(raw_walls) / sum(raw_walls),
        "raw_setup_s": statistics.median(raw_resumes),
        "host.speed": host.speed(),
        "reps": len(walls),
        "rep_run_s": raw_walls,
        "probe_s": host.samples,
    }


def trace_sweep(runner: SweepRunner, seconds: float) -> dict[str, float]:
    """Untraced fresh passes, then traced ones, for *seconds* in total.

    Spans in pool workers are invisible to this process, so the per-layer
    figures come from calls in this process (checkpoint writes and loads) and
    from each point's own ``RunSummary.wall_seconds``, per fresh pass.
    """
    deadline = time.perf_counter() + seconds
    untraced = measure_sweep(runner, seconds / 2)
    if not untraced:
        return {}
    try:
        from repro.experiments.checkpoint import SweepCheckpoint
    except ImportError:  # the checkpoint layer was moved or removed
        SweepCheckpoint = None
    tracer = Tracer()
    if SweepCheckpoint is None:
        tracer.absent.update(("checkpoint.record", "checkpoint.load_s"))
    else:
        tracer.wrap(SweepCheckpoint, "record", "checkpoint.record")
    passes: list[tuple[float, str, list[Any]]] = []
    scaled: list[float] = []
    host = HostSpeed()
    before = host.probe()

    def step() -> bool:
        nonlocal before
        done = runner.fresh()
        _reap_workers()
        after = host.probe()
        if done is not None:
            passes.append(done)
            scaled.append(host.scale(done[0], before, after))
        before = after
        return done is not None

    try:
        repeat_until(deadline, step)
    finally:
        tracer.restore()
    if not passes:
        return {}
    n = len(passes)
    wall = sum(p[0] for p in passes) / n
    points = [
        r.wall_seconds
        for _, _, results in passes
        for r in results
        if isinstance(r, RunSummary)
    ]
    metrics: dict[str, float] = {"run_s": wall, "host.speed": host.speed()}
    if points:
        compute = sum(points) / n
        metrics["sweep.compute_s"] = compute
        metrics["sweep.parallel_efficiency"] = compute / (wall * runner.workers)
        metrics["sweep.point_p50_s"] = statistics.median(points)
        metrics["sweep.point_max_s"] = max(points)
    if "checkpoint.record" not in tracer.absent:
        metrics["checkpoint.record.calls"] = (
            tracer.calls()["checkpoint.record"] / n
        )
        metrics["checkpoint.record.self_s"] = (
            tracer.self_seconds().get("checkpoint.record", 0.0) / n
        )
    if SweepCheckpoint is not None:
        loads = []
        for _ in range(RESUME_PASSES):
            t0 = time.perf_counter()
            SweepCheckpoint(passes[-1][1])
            loads.append(time.perf_counter() - t0)
        metrics["checkpoint.load_s"] = statistics.median(loads)
    tracer.dump(runner.out_dir / "spans.npz")
    traced_rate = len(runner.grid) * n / sum(scaled)
    metrics.update(_overhead(untraced["points_per_s"], traced_rate))
    return metrics
