"""Priority kernel benchmark and its regression gate.

Two numbers, recorded into ``bench_results.json``:

* **kernel speedup** — one array call of the SDSRP priority against
  per-message scalar calls, the same comparison
  ``tests/core/test_priority.py`` pins bit for bit (the Fig. 4 curves
  take the array path).
* **the regression gate** — the measured *speedup ratio* is compared against
  ``benchmarks/results/vector_baseline.json``.  Ratios divide two numbers
  from the same machine and run, so the gate is hardware-independent; a
  ratio more than 20% below its committed baseline fails the suite.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import best_of, run_once
from repro.core.priority import priority_closed_form, sdsrp_priority

BASELINE_PATH = Path(__file__).parent / "results" / "vector_baseline.json"

#: Gate threshold: a measured speedup ratio may degrade to this fraction of
#: its committed baseline before the benchmark fails.
ALLOWED_REGRESSION = 0.8

_measured: dict[str, float] = {}


@pytest.mark.benchmark(group="vector-kernels")
def test_priority_kernel_speedup(benchmark, record_figure):
    """Batched SDSRP priority (Eq. 10) vs per-message scalar calls."""
    rng = np.random.default_rng(1)
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
    assert got.tolist() == scalar(), "batched and scalar priorities disagree"

    scalar_s = best_of(scalar)
    batch_s = best_of(batched)
    speedup = scalar_s / batch_s
    _measured["priority_kernel_speedup"] = speedup
    record_figure("vector_priority_kernel", {
        "messages": size,
        "scalar_s": scalar_s,
        "batched_s": batch_s,
        "speedup": speedup,
    })
    print(f"\npriority kernel: {speedup:.1f}x over per-message calls")
    assert speedup >= 5.0, (
        f"priority kernel only {speedup:.1f}x over per-message calls"
    )


@pytest.mark.benchmark(group="vector-kernels")
def test_speedups_hold_against_committed_baseline(record_figure):
    """CI gate: every measured speedup ratio stays within 20% of the
    committed baseline (``vector_baseline.json``)."""
    if not _measured:
        pytest.skip("speedup benchmarks did not run in this session")
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    record_figure("vector_speedup_gate", {
        "baseline": baseline,
        "measured": dict(_measured),
        "allowed_regression": ALLOWED_REGRESSION,
    })
    failures = []
    for key, floor in baseline.items():
        measured = _measured.get(key)
        if measured is None:
            failures.append(f"{key}: not measured this session")
        elif measured < floor * ALLOWED_REGRESSION:
            failures.append(
                f"{key}: measured {measured:.2f} < {ALLOWED_REGRESSION:.0%} "
                f"of baseline {floor:.2f}"
            )
    assert not failures, "; ".join(failures)
