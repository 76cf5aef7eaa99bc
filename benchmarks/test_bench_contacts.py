"""Micro-benchmarks of the contact-detection hot path.

``contact_pairs`` picks its candidate pass by fleet size: the cached upper
triangle below ``TREE_MIN_NODES``, a ``cKDTree`` query from it on.  Both
branches are timed at the sizes the program runs — the paper's 20-40 node
scenarios up to the 10k-node fleet — so the crossover behind the constant
is on record (``contacts_crossover`` in ``bench_results.json``).  The
triangle branch is quadratic in memory and stops at 2000 nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.world.contacts as contacts
from benchmarks.conftest import best_of
from repro.world.contacts import TREE_MIN_NODES, contact_pairs

RADIUS = 100.0
#: The paper's Table-II area; larger fleets keep its node density.
PAPER_AREA = (4500.0, 3400.0)
PAPER_NODES = 100

SIZES = (20, 40, 100, 500, 2000, 10_000)
BRANCH_FLOOR = {"triangle": 10**9, "tree": 2}

_crossover: dict[str, dict[str, float]] = {}


def positions(n: int, seed: int = 0) -> np.ndarray:
    scale = max(1.0, (n / PAPER_NODES) ** 0.5)
    area = np.array(PAPER_AREA) * scale
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2)) * area


@pytest.mark.benchmark(group="contacts")
@pytest.mark.parametrize("branch", list(BRANCH_FLOOR))
@pytest.mark.parametrize("n", SIZES)
def test_contact_pairs(benchmark, monkeypatch, record_figure, n, branch):
    if branch == "triangle" and n > 2000:
        pytest.skip("the upper triangle at 10k nodes needs ~2 GB")
    pts = positions(n)
    monkeypatch.setattr(contacts, "TREE_MIN_NODES", BRANCH_FLOOR[branch])
    result = benchmark(contact_pairs, pts, RADIUS)
    monkeypatch.setattr(contacts, "TREE_MIN_NODES", BRANCH_FLOOR["tree"])
    assert result == contact_pairs(pts, RADIUS)
    _crossover.setdefault(str(n), {})[f"{branch}_s"] = benchmark.stats["min"]
    record_figure("contacts_crossover", {
        "tree_min_nodes": TREE_MIN_NODES,
        "radius": RADIUS,
        "min_seconds": _crossover,
    })


def _python_pair_loop(pts: np.ndarray, radius: float) -> set[tuple[int, int]]:
    """The per-pair Python loop vectorization replaced (and the oracle
    ``tests/world/test_contacts.py`` checks ``contact_pairs`` against)."""
    n = pts.shape[0]
    found = set()
    for i in range(n):
        for j in range(i + 1, n):
            diff = pts[i] - pts[j]
            if float(diff @ diff) <= radius * radius:
                found.add((i, j))
    return found


@pytest.mark.benchmark(group="contacts-speedup")
def test_vectorized_speedup_over_python_loop(benchmark, record_figure):
    """``contact_pairs`` vs the per-pair Python loop, n=500."""
    pts = positions(500)
    expected = _python_pair_loop(pts, RADIUS)
    result = benchmark(contact_pairs, pts, RADIUS)
    assert result == expected

    python_s = best_of(lambda: _python_pair_loop(pts, RADIUS))
    numpy_s = best_of(lambda: contact_pairs(pts, RADIUS))
    speedup = python_s / numpy_s
    record_figure("contacts_vectorization", {
        "n": 500,
        "python_loop_s": python_s,
        "vectorized_s": numpy_s,
        "speedup": speedup,
    })
    print(f"\nvectorized contacts: {speedup:.1f}x over the Python loop")
    assert speedup >= 5.0
