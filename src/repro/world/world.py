"""The world: time-stepped movement + connectivity, event-driven messaging.

Each tick (default 1 s, matching the granularity ONE uses for the paper's
scenarios) the world advances the mobility model, recomputes the link set
with :func:`~repro.world.contacts.contact_pairs`, fires ``link.down``
(aborting in-flight transfers) and ``link.up`` events, purges expired
messages, and gives idle routers a chance to start transfers.  The last two
steps visit only the nodes where something changed (see
:mod:`repro.world.activity`).
"""

from __future__ import annotations

import numpy as np

from repro.engine.events import PRIORITY_WORLD
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.net.transfer import TransferManager
from repro.obs.profiler import timed
from repro.world.activity import ActivityWorld
from repro.world.contacts import contact_pairs
from repro.world.node import Node


class World(ActivityWorld):
    """Owns nodes, positions and the link set."""

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        nodes: list[Node],
        transfer_manager: TransferManager,
        tick: float = 1.0,
    ) -> None:
        if len(nodes) != mobility.n_nodes:
            raise ConfigurationError(
                f"{len(nodes)} nodes but mobility drives {mobility.n_nodes}"
            )
        super().__init__(sim, nodes, transfer_manager, tick)
        self.mobility = mobility
        self.positions = np.zeros((len(nodes), 2))
        ranges = np.array([n.radio.range_m for n in self.nodes])
        #: What :func:`contact_pairs` gets: one shared range when every
        #: radio agrees, else the per-node array.
        self._ranges: float | np.ndarray = (
            float(ranges[0]) if np.all(ranges == ranges[0]) else ranges
        )

    def start(self, rng: np.random.Generator) -> None:
        """Initialize mobility and register the recurring update event."""
        self.mobility.initialize(rng)
        self.positions = self.mobility.advance(0.0)
        self.reindex()
        self.sim.schedule_every(
            self.tick, self.update, priority=PRIORITY_WORLD, start=self.sim.now,
            name="world.update",
        )

    # -- the tick ----------------------------------------------------------

    def update(self) -> None:
        """One world step: move, rewire links, purge TTLs, kick senders."""
        now = self.sim.now
        profiler = self.sim.profiler
        with timed(profiler, "movement"):
            self.positions = self.mobility.advance(now)
        with timed(profiler, "contacts"):
            new_links = contact_pairs(self.positions, self._ranges)
            if self.down_nodes:
                new_links = {
                    (i, j)
                    for i, j in new_links
                    if i not in self.down_nodes and j not in self.down_nodes
                }

        with timed(profiler, "links"):
            # Sorted so teardown order is a function of the pair ids alone,
            # never of set memory layout — keeps snapshot/restore runs
            # byte-identical to uninterrupted ones (link.up already sorts).
            for i, j in sorted(self.links - new_links):
                self._link_down(self.nodes[i], self.nodes[j])
            for i, j in sorted(new_links - self.links):
                self._link_up(self.nodes[i], self.nodes[j])
            self.links = new_links

        self._maintain()

    # -- convenience -------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Node by id."""
        return self.nodes[node_id]

    def connected_pairs(self) -> set[tuple[int, int]]:
        """Current link set as (i, j) with i < j."""
        return set(self.links)
