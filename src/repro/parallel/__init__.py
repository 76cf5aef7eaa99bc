"""Parallel execution utilities for parameter sweeps."""

from repro.parallel.pool import parallel_map
from repro.parallel.partition import chunk_evenly, chunk_exact, chunk_sized

__all__ = ["chunk_evenly", "chunk_exact", "chunk_sized", "parallel_map"]
