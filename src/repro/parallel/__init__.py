"""Parallel execution utilities for parameter sweeps."""

from repro.parallel.pool import parallel_map

__all__ = ["parallel_map"]
