"""Outside-in span tracing for the benchmark.

The tracer wraps methods of the classes a workload actually instantiates,
from the benchmark's side: nothing under ``src/`` knows it is being
traced.  Each wrapped call records one span (name, start, end, parent) in
compact in-memory arrays; :meth:`Tracer.restore` puts every original
function back.  A wrap point that no longer exists (a method renamed or
deleted by a later refactor) is recorded as absent instead of failing, so
the benchmark keeps running across refactors and reports what it could not
see.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import Any

#: ``prepare(args) -> token`` runs before a wrapped call;
#: ``observe(args, result, token)`` runs after it returns.
Prepare = Callable[[tuple[Any, ...]], Any]
Observe = Callable[[tuple[Any, ...], Any, Any], None]


class Tracer:
    """Spans and counters collected around wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter[str] = Counter()
        #: Span names whose wrap point did not exist.
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[type, str, bool, Any]] = []
        self._wrapped: set[tuple[type, str]] = set()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        *,
        prepare: Prepare | None = None,
        observe: Observe | None = None,
    ) -> bool:
        """Record a span named *name* around every call of ``owner.attr``.

        The wrapper is installed on *owner* itself, shadowing an inherited
        definition, so only instances of that concrete class are traced.
        Returns False (and marks *name* absent) when *owner* has no
        callable *attr*.  Wrapping the same point twice is a no-op.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.add(name)
            return False
        if (owner, attr) in self._wrapped:
            return True
        nid = self._intern(name)
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            token = prepare(args) if prepare is not None else None
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, result, token)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        self._saved.append(
            (owner, attr, attr in owner.__dict__, owner.__dict__.get(attr))
        )
        self._wrapped.add((owner, attr))
        setattr(owner, attr, traced)
        return True

    def restore(self) -> None:
        """Put back every function this tracer replaced (newest first)."""
        while self._saved:
            owner, attr, had_own, saved = self._saved.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)
        self._wrapped.clear()

    def clear(self) -> None:
        """Forget recorded spans and counters; wrappers stay installed."""
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.counters.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every recorded span as ``(name, start, end, parent_index)``."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]

    def calls(self) -> Counter[str]:
        """Number of spans per name."""
        return Counter(self.names[n] for n in self.name_id)

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span named *name*, in record order."""
        nid = self._name_ids.get(name)
        return [
            e - s
            for n, s, e in zip(self.name_id, self.start, self.end)
            if n == nid
        ]

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name (see :func:`self_times`)."""
        return self_times(self.spans())

    def dump(self, path: Path) -> None:
        """Write the recorded spans to a compressed ``.npz`` file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
        )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> dict[str, float]:
    """Self seconds per span name.

    A span's self time is its duration minus the part of its interval that
    its direct child spans cover; *spans* are ``(name, start, end, parent)``
    with ``parent`` an index into *spans* or -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = _covered(children[i], start, end) if i in children else 0.0
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def percentile(values: Iterable[float], q: float) -> float:
    """The *q*-th percentile (0 < q < 100) by the inclusive method."""
    data = sorted(values)
    if len(data) < 2:
        return data[0] if data else 0.0
    return statistics.quantiles(data, n=100, method="inclusive")[round(q) - 1]
