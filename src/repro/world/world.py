"""The world: time-stepped movement + connectivity, event-driven messaging.

Each tick (default 1 s, matching the granularity ONE uses for the paper's
scenarios) the world advances the mobility model, recomputes the link set
with :func:`~repro.world.contacts.contact_pairs`, fires ``link.down``
(aborting in-flight transfers) and ``link.up`` events, purges expired
messages, and gives idle routers a chance to start transfers.
"""

from __future__ import annotations

import numpy as np

from repro.engine.events import PRIORITY_WORLD
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.net.transfer import TransferManager
from repro.obs.profiler import timed
from repro.world.contacts import contact_pairs
from repro.world.node import Node


class World:
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
        if tick <= 0:
            raise ConfigurationError(f"tick must be positive: {tick}")
        if sorted(n.id for n in nodes) != list(range(len(nodes))):
            raise ConfigurationError("node ids must be 0..N-1 (dense)")
        self.sim = sim
        self.mobility = mobility
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self.transfer_manager = transfer_manager
        self.tick = float(tick)
        self.links: set[tuple[int, int]] = set()
        #: Nodes currently offline (fault injection); they hold no links and
        #: detected pairs touching them are discarded.
        self.down_nodes: set[int] = set()
        self.positions = np.zeros((len(nodes), 2))
        ranges = np.array([n.radio.range_m for n in self.nodes])
        #: What :func:`contact_pairs` gets: one shared range when every
        #: radio agrees, else the per-node array.
        self._ranges: float | np.ndarray = (
            float(ranges[0]) if np.all(ranges == ranges[0]) else ranges
        )
        for node in self.nodes:
            node.attach_world(self)

    def start(self, rng: np.random.Generator) -> None:
        """Initialize mobility and register the recurring update event."""
        self.mobility.initialize(rng)
        self.positions = self.mobility.advance(0.0)
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

        with timed(profiler, "routing"):
            for node in self.nodes:
                if node.router is not None:
                    node.router.purge_expired()
        with timed(profiler, "observers"):
            self.sim.listeners.emit("world.updated", now)
        # Idle senders retry: new eligibility can appear without a link
        # event (e.g. a neighbor dropped its copy of a message we hold).
        with timed(profiler, "routing"):
            for node in self.nodes:
                if node.router is not None and not node.sending and node.neighbors:
                    node.router.try_send()

    # -- link transitions ---------------------------------------------------

    def _link_up(self, a: Node, b: Node) -> None:
        a.neighbors[b.id] = b
        b.neighbors[a.id] = a
        self.sim.listeners.emit("link.up", a, b)
        if a.router is not None:
            a.router.on_link_up(b)
        if b.router is not None:
            b.router.on_link_up(a)

    def _link_down(self, a: Node, b: Node) -> None:
        # Neighbor sets first: the aborted sender immediately retries other
        # links and must not re-select the one that just died.
        a.neighbors.pop(b.id, None)
        b.neighbors.pop(a.id, None)
        self.transfer_manager.abort_for_link(a, b)
        self.sim.listeners.emit("link.down", a, b)
        if a.router is not None:
            a.router.on_link_down(b)
        if b.router is not None:
            b.router.on_link_down(a)

    # -- fault hooks -------------------------------------------------------

    def set_node_down(self, node_id: int) -> None:
        """Take a node offline: tear down all its links (aborting in-flight
        transfers) and keep it unlinkable until :meth:`set_node_up`."""
        if node_id in self.down_nodes:
            return
        self.down_nodes.add(node_id)
        for i, j in sorted(pair for pair in self.links if node_id in pair):
            self.links.discard((i, j))
            self._link_down(self.nodes[i], self.nodes[j])

    def set_node_up(self, node_id: int) -> None:
        """Bring a node back online; links re-form on the next tick."""
        self.down_nodes.discard(node_id)

    def force_link_down(self, i: int, j: int) -> bool:
        """Drop the (i, j) link now (fault injection).  Returns True if the
        link existed.  If both nodes stay in range it re-forms next tick."""
        key = (min(i, j), max(i, j))
        if key not in self.links:
            return False
        self.links.discard(key)
        self._link_down(self.nodes[key[0]], self.nodes[key[1]])
        return True

    # -- convenience -------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Node by id."""
        return self.nodes[node_id]

    def connected_pairs(self) -> set[tuple[int, int]]:
        """Current link set as (i, j) with i < j."""
        return set(self.links)
