"""Parameter sweeps over scenarios.

Thin, deterministic glue between scenario configs and the process pool:

* :func:`replicate` — n seeds per config (seed derivation is stable under
  reordering, see :func:`repro.rng.derive_seed`);
* :func:`run_many` — run a list of configs, serial or parallel, preserving
  input order; with any resilience option set it switches to the crash-safe
  path (failures become :class:`~repro.reports.summary.FailedRun` records in
  place, optionally retried with fresh derived seeds and checkpointed to a
  resumable JSONL file);
* :func:`summarize_replicates` — average metric values over replicates.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

from repro.experiments.checkpoint import SweepCheckpoint, SweepResult
from repro.experiments.runner import (
    run_scenario,
    run_scenario_safe,
    with_rolling_snapshot,
)
from repro.experiments.scenario import ScenarioConfig, config_fingerprint
from repro.parallel.pool import parallel_map
from repro.reports.summary import FailedRun, RunSummary
from repro.rng import RngFactory, derive_seed

#: Backoff shape for retry rounds: base * 2^(round-1) seconds, capped.
BACKOFF_BASE = 0.5
BACKOFF_CAP = 30.0


def backoff_delays(
    seed: int,
    attempts: int,
    *,
    base: float = BACKOFF_BASE,
    cap: float = BACKOFF_CAP,
) -> list[float]:
    """Exponential backoff with equal jitter, fully determined by *seed*.

    Delay for retry round ``k`` (1-based) is drawn from
    ``[w/2, w]`` where ``w = min(cap, base * 2**(k-1))`` — the classic
    equal-jitter scheme, except the jitter comes from a dedicated stream of
    a :class:`~repro.rng.RngFactory` seeded with *seed*, never from
    wall-clock or ambient randomness.  Two sweeps over the same grid
    therefore back off on an identical schedule (and a test can assert the
    exact sequence), while different sweeps still decorrelate their retry
    bursts against a shared machine.
    """
    stream = RngFactory(seed).stream("sweep.backoff")
    delays = []
    for k in range(1, attempts + 1):
        window = min(cap, base * (2.0 ** (k - 1)))
        delays.append(window * (0.5 + 0.5 * float(stream.random())))
    return delays


def replicate(config: ScenarioConfig, n: int) -> list[ScenarioConfig]:
    """*n* copies of *config* with independent, reproducible seeds."""
    return [
        config.replace(seed=derive_seed(config.seed, "replicate", i))
        for i in range(n)
    ]


def run_many(
    configs: Sequence[ScenarioConfig],
    workers: int | None = None,
    *,
    safe: bool = False,
    retries: int = 0,
    timeout: float | None = None,
    checkpoint: str | None = None,
    backoff_base: float = BACKOFF_BASE,
) -> list[SweepResult]:
    """Run every config; results are in input order.

    ``workers=None`` uses all cores minus one; ``workers=1`` forces serial.

    The default path propagates the first failure, exactly as before.  With
    ``safe=True`` (implied by ``retries``, ``timeout`` or ``checkpoint``)
    every failure — a raising scenario, a hung worker (``timeout`` seconds),
    or a dying worker process — is returned as a :class:`FailedRun` record
    in the failing config's slot instead of poisoning the sweep:

    * ``retries`` re-runs failed items up to that many extra times, each
      attempt with a fresh seed derived from the original (a pathological
      seed must not fail the grid point forever), after a seeded
      exponential-with-jitter backoff (:func:`backoff_delays`; transient
      resource exhaustion — OOM-killed workers, a saturated disk — needs
      breathing room, but the pause must stay deterministic per seed;
      ``backoff_base=0`` disables the sleep);
    * ``checkpoint`` appends each finished item to a JSONL file keyed by
      config fingerprint; re-running with the same path skips configs whose
      summaries are already recorded (``--resume`` in the CLI).
    """
    configs = list(configs)
    if not (safe or retries or timeout is not None or checkpoint):
        return parallel_map(run_scenario, configs, workers=workers)
    return _run_resilient(
        configs,
        workers=workers,
        retries=retries,
        timeout=timeout,
        checkpoint=SweepCheckpoint(checkpoint) if checkpoint else None,
        backoff_base=backoff_base,
    )


def _failed_from(config: ScenarioConfig, exc: BaseException) -> FailedRun:
    """A FailedRun for an item the worker never got to report on."""
    return FailedRun(
        scenario=config.name,
        policy=config.policy,
        seed=config.seed,
        error_type=type(exc).__name__,
        # concurrent.futures.TimeoutError stringifies to "" — say something.
        error_message=str(exc) or "no result (timed out or worker died)",
    )


def _run_resilient(
    configs: list[ScenarioConfig],
    workers: int | None,
    retries: int,
    timeout: float | None,
    checkpoint: SweepCheckpoint | None,
    backoff_base: float = BACKOFF_BASE,
) -> list[SweepResult]:
    keys = [config_fingerprint(c) for c in configs]
    # One backoff schedule per sweep, seeded from the grid itself so the
    # pause pattern replays exactly (and differs between unrelated sweeps).
    backoff = backoff_delays(
        derive_seed(configs[0].seed if configs else 0, "sweep.backoff"),
        retries,
        base=backoff_base,
    )
    results: dict[int, SweepResult] = {}
    if checkpoint is not None:
        for i, key in enumerate(keys):
            hit = checkpoint.completed(key)
            if hit is not None:
                results[i] = hit

    pending = [i for i in range(len(configs)) if i not in results]
    for attempt in range(retries + 1):
        if not pending:
            break
        if attempt > 0 and backoff[attempt - 1] > 0:
            time.sleep(backoff[attempt - 1])
        batch = []
        for i in pending:
            cfg = configs[i]
            if attempt > 0:
                # Fresh derived seed per retry: a crash tied to one seed's
                # event sequence must not fail the grid point forever.
                cfg = cfg.replace(seed=derive_seed(cfg.seed, "retry", attempt))
            if checkpoint is not None:
                # Each grid point rolls its snapshot next to the sweep
                # checkpoint.  A retry changes the seed, so a stale snapshot
                # from the crashed attempt fails the config match and is
                # rebuilt from scratch.
                cfg = with_rolling_snapshot(
                    cfg,
                    checkpoint.path.parent / (checkpoint.path.name + ".snap"),
                    keys[i],
                )
            batch.append(cfg)

        def write_through(batch_pos: int, result: SweepResult) -> None:
            if checkpoint is not None:
                checkpoint.record(keys[pending[batch_pos]], result)

        outcomes = parallel_map(
            run_scenario_safe,
            batch,
            workers=workers,
            timeout=timeout,
            on_error=_failed_from,
            on_result=write_through,
        )
        for i, outcome in zip(pending, outcomes):
            if isinstance(outcome, FailedRun):
                outcome = outcome.replace_attempts(attempt + 1)
            results[i] = outcome
        pending = [i for i in pending if isinstance(results[i], FailedRun)]
    return [results[i] for i in range(len(configs))]


def summarize_replicates(
    summaries: Sequence[SweepResult], metric: str
) -> float:
    """Mean of *metric* across replicate summaries, ignoring NaNs.

    :class:`FailedRun` records are skipped (a crashed replicate must not
    poison the surviving ones).  Returns NaN when every replicate is NaN or
    failed (e.g. overhead with zero deliveries).
    """
    values = [
        v
        for s in summaries
        if isinstance(s, RunSummary)
        and not math.isnan(v := float(getattr(s, metric)))
    ]
    if not values:
        return math.nan
    return sum(values) / len(values)
