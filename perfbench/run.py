"""Repository benchmark for the SDSRP simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper-rwp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

One workload per invocation measures for ``--seconds`` and checks every
run's output against a digest (see ``workloads.py``).  ``--trace 0``
reports the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1``
reports the per-layer metrics from a separate traced run, plus the tracing
overhead.  A per-layer metric the workload cannot see (simulator layers
inside sweep workers, sweep layers on a single run, or a wrap point that no
longer exists) is reported as 0 and named in the ``absent`` list.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
provenance (commit, dirty flag, date, nproc, Python/NumPy/SciPy versions)
and the spans of the traced run are written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("paper-rwp", "fleet-10k", "sweep")


def _bootstrap() -> None:
    """Make the in-tree program and the benchmark helpers importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            env=env, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def provenance(nproc: int) -> dict[str, Any]:
    import numpy
    import scipy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit.strip() if commit else "unknown",
        "dirty": None if status is None else bool(status.strip()),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    import workloads as wl

    seed = wl.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    out_dir = OUT / f"{args.workload}-seed{seed}-trace{args.trace}"
    check = wl.OutputCheck(wl.expected_digest(args.workload, seed))
    if args.workload == "sweep":
        runner = wl.SweepRunner(seed, out_dir, check)
        try:
            if args.trace:
                measured = wl.trace_sweep(runner, args.seconds)
            else:
                measured = wl.measure_sweep(runner, args.seconds)
        finally:
            runner.close()
    else:
        config = (
            wl.paper_rwp_config(seed) if args.workload == "paper-rwp"
            else wl.fleet_config(seed)
        )
        if args.trace:
            measured = wl.trace_single(config, args.seconds, check, out_dir)
        else:
            measured = wl.measure_single(config, args.seconds, check)
    if not measured:
        print("error: no run completed:", *check.errors[:3], sep="\n  ",
              file=sys.stderr)
        return 1
    measured["peak_rss_mb"] = peak_rss_mb(args.workload == "sweep")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    absent = []
    for m in wanted:
        if m["name"] not in measured:
            absent.append(m["name"])
        value = float(measured.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(wl.nproc()),
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "digest": check.reference,
        "errors": check.errors[:10],
        "absent": absent,
        "extra": {k: v for k, v in measured.items() if k not in metrics},
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={seed} trace={args.trace} "
          f"{json.dumps(record['provenance'])}")
    for name, m in metrics.items():
        mark = "  (absent)" if name in absent else ""
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}{mark}")
    for name, value in record["extra"].items():
        if isinstance(value, float):
            print(f"{name:<34} {value:>14.6g}")
    for error in check.errors[:10]:
        print(f"check failed: {error}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own process."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                return done.returncode or 1
            result = json.loads(lines[-1])
            totals["correct"] = totals["correct"] and result["correct"]
            totals["attempted"] += result["attempted"]
            totals["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                totals["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(totals))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    _bootstrap()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
