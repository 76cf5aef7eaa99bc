"""Work-partitioning helpers.

Simulation runs have high variance in duration (congested runs are slower),
so the sweep engine hands the pool small chunks for dynamic load balancing;
these helpers are also used by tests that verify ordering guarantees.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def chunk_sized(items: Sequence[T], size: int) -> list[list[T]]:
    """Split *items* into consecutive chunks of at most *size*."""
    if size < 1:
        raise ConfigurationError(f"chunk size must be >= 1: {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def chunk_evenly(items: Sequence[T], parts: int) -> list[list[T]]:
    """Split *items* into *parts* contiguous chunks whose sizes differ by <= 1.

    Empty trailing chunks are dropped, so fewer than *parts* lists may be
    returned when there are fewer items than parts.  Do NOT pair the result
    positionally against a fixed-length id list (``zip(ids, chunks)`` silently
    truncates when ``parts > len(items)``) — use :func:`chunk_exact` when the
    consumer owns exactly *parts* slots.
    """
    return [chunk for chunk in chunk_exact(items, parts) if chunk]


def chunk_exact(items: Sequence[T], parts: int) -> list[list[T]]:
    """Split *items* into exactly *parts* contiguous chunks (some may be
    empty when ``parts > len(items)``); sizes differ by <= 1.

    Safe to zip against a *parts*-long id list: position ``i`` of the result
    always exists and is chunk ``i``'s (possibly empty) work share.
    """
    if parts < 1:
        raise ConfigurationError(f"parts must be >= 1: {parts}")
    n = len(items)
    base, extra = divmod(n, parts)
    out: list[list[T]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out
