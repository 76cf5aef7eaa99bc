"""Contact (link) detection: the world's one contact function.

:func:`contact_pairs` maps an ``(N, 2)`` position array and the nodes' radio
ranges to the set of index pairs ``(i, j), i < j`` in contact.  It finds
candidate pairs first, then applies one exact filter to them:

* fleets smaller than :data:`TREE_MIN_NODES` take every pair of the cached
  upper triangle as a candidate (one NumPy pass, no tree to build);
* larger fleets take the pairs a ``cKDTree`` finds within the largest range,
  widened by a relative ``1e-9`` so no pair at the boundary is lost to the
  tree's own rounding.

The filter keeps a pair when ``d2 <= min(range_i, range_j) ** 2`` with
``diff = positions[i] - positions[j]`` for ``i < j``.  Both branches run the
same float sequence on the same pair, so ties at exactly the radius decide
the same way whichever branch a fleet size picks.  The crossover between
the branches is measured in ``benchmarks/test_bench_contacts.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import ConfigurationError

PairSet = set[tuple[int, int]]

#: Fleet size from which the cKDTree candidate pass beats the upper
#: triangle (see ``benchmarks/test_bench_contacts.py``).
TREE_MIN_NODES = 36

#: Relative widening of the tree query radius; the exact filter decides.
_TREE_SLACK = 1.0 + 1e-9


@lru_cache(maxsize=8)
def _triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n, k=1)
    return iu.astype(np.int64), ju.astype(np.int64)


def contact_pairs(positions: np.ndarray, ranges: float | np.ndarray) -> PairSet:
    """All pairs ``(i, j), i < j`` within the smaller of their two ranges.

    *ranges* is one radio range per node, or a single range shared by all.
    """
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError(
            f"positions must have shape (N, 2), got {positions.shape}"
        )
    n = positions.shape[0]
    per_node = np.ndim(ranges) > 0
    if per_node:
        ranges = np.asarray(ranges, dtype=float)
        if ranges.shape != (n,):
            raise ConfigurationError(
                f"need one range per node ({n}), got shape {ranges.shape}"
            )
        if not np.all(ranges > 0):
            raise ConfigurationError("ranges must be positive")
    elif not ranges > 0:
        raise ConfigurationError(f"range must be positive: {ranges}")
    if n < 2:
        return set()
    max_range = float(ranges.max()) if per_node else float(ranges)
    if n < TREE_MIN_NODES:
        lo, hi = _triu_pairs(n)
    else:
        tree = cKDTree(positions)
        cand = tree.query_pairs(max_range * _TREE_SLACK, output_type="ndarray")
        lo, hi = cand[:, 0], cand[:, 1]
    diff = positions[lo] - positions[hi]
    d2 = np.einsum("ij,ij->i", diff, diff)
    if per_node:
        limit = np.minimum(ranges[lo], ranges[hi])
        close = d2 <= limit * limit
    else:
        close = d2 <= max_range * max_range
    return set(zip(lo[close].tolist(), hi[close].tolist()))
