"""Host-speed probe: timings expressed in seconds of a fixed reference speed.

The 2-vCPU reference box runs the same interpreter code up to 2x slower
for minutes at a time, while nothing in this process changes (CPU time
tracks wall time, so it is not descheduling).  A raw wall time therefore
measures the host as much as the program.  The probe is a fixed
pure-Python kernel that shares no code with the program; timing it
between the program's repetitions samples how fast the host runs
interpreter code over a cache-sized working set at that moment.  A
repetition's wall time multiplied by ``PROBE_REF_S / probe`` (the probe
passes around it) is its time at the reference speed: a change to the
program moves it in full, a change in host speed largely cancels.

The raw wall times are kept next to the scaled ones in every result
record, together with the probe times.
"""

from __future__ import annotations

import random
import time

#: Time of one probe pass on the reference box (2-vCPU Intel Xeon,
#: CPython 3) when it runs at its usual speed.  It fixes the scale only:
#: scaled figures read in seconds of that box at that speed.
PROBE_REF_S = 0.12
#: Kernel calls in one probe pass.
PROBE_CALLS = 2
#: The probe's working set: small objects and an index over a third of
#: them, about 15 MB, well past the 2 MB L2 of a reference-box core.  A
#: kernel that fits in L1 reacted to the host up to twice as strongly as
#: the simulator did; random reads over this set tracked it (slope
#: 0.94-1.10 of log times over 15-20 s blocks of paper-rwp).
PROBE_OBJECTS = 100_000
PROBE_READS = 60_000


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 0.5


_items: list[_Item] = []
_index: dict[int, _Item] = {}
_order: list[int] = []


def _kernel() -> float:
    """Attribute and dict reads in a fixed random order over the working set."""
    if not _items:
        _items.extend(_Item(i) for i in range(PROBE_OBJECTS))
        _index.update((i, _items[i]) for i in range(0, PROBE_OBJECTS, 3))
        _order.extend(random.Random(1).sample(range(PROBE_OBJECTS), PROBE_READS))
    acc = 0.0
    for key in _order:
        acc += _items[key].weight
        hit = _index.get(key)
        if hit is not None:
            acc += hit.key
    return acc


class HostSpeed:
    """Probe passes taken during one run, and scaling by the ones around a span."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        _kernel()  # builds the working set outside any timed pass

    def probe(self) -> float:
        """Time one probe pass; the wall seconds it took."""
        t0 = time.perf_counter()
        for _ in range(PROBE_CALLS):
            _kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """*seconds* of wall time between probe passes *before* and *after*,
        in seconds of the reference speed."""
        return seconds * PROBE_REF_S / ((before + after) / 2.0)

    def speed(self) -> float:
        """Mean host speed over the run relative to the reference (>1 faster)."""
        if not self.samples:
            return 0.0
        return PROBE_REF_S * len(self.samples) / sum(self.samples)
