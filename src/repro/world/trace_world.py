"""Contact-trace-driven world: replay connectivity without mobility.

Given a recorded :class:`~repro.traces.contact_trace.ContactTrace`, this
world schedules the exact same link transitions as events — no positions, no
contact detection.  Uses:

* **regression**: a run replayed from its own recorded trace produces
  byte-identical message metrics (tested in
  ``tests/world/test_trace_world.py``);
* **real contact datasets**: many DTN traces are published as contact lists
  rather than GPS logs; this is the entry point for them;
* **speed**: replay skips the mobility + detection cost entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.events import PRIORITY_WORLD
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.transfer import TransferManager
from repro.world.activity import ActivityWorld
from repro.world.node import Node

if TYPE_CHECKING:  # pragma: no cover - breaks the traces<->world import cycle
    from repro.traces.contact_trace import ContactTrace


class TraceWorld(ActivityWorld):
    """Link lifecycle driven by a contact trace instead of movement.

    Trace ``up`` events touching a down node (fault injection) are
    discarded; after a rejoin, connectivity resumes at the next recorded
    contact.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: list[Node],
        transfer_manager: TransferManager,
        trace: ContactTrace,
        tick: float = 1.0,
    ) -> None:
        max_id = max((max(e.a, e.b) for e in trace.events), default=-1)
        if max_id >= len(nodes):
            raise ConfigurationError(
                f"trace references node {max_id}, only {len(nodes)} nodes"
            )
        super().__init__(sim, nodes, transfer_manager, tick)
        self.trace = trace

    def start(self) -> None:
        """Schedule every trace event plus the recurring maintenance tick."""
        for event in self.trace.events:
            if event.time > self.sim.end_time:
                break
            self.sim.schedule_at(
                event.time,
                self._apply,
                event.a,
                event.b,
                event.up,
                priority=PRIORITY_WORLD,
            )
        self.reindex()
        # The tick half of World.update: TTL purge and idle-sender retry.
        self.sim.schedule_every(self.tick, self._maintain, priority=PRIORITY_WORLD)

    # -- event application ---------------------------------------------------

    def _apply(self, a_id: int, b_id: int, up: bool) -> None:
        key = (min(a_id, b_id), max(a_id, b_id))
        if up:
            if key in self.links:
                return  # idempotent against duplicate trace lines
            if a_id in self.down_nodes or b_id in self.down_nodes:
                return  # faulted node: the recorded contact never happens
            self.links.add(key)
            self._link_up(self.nodes[a_id], self.nodes[b_id])
        elif key in self.links:
            self._drop_link(a_id, b_id)
