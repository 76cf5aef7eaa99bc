"""The activity-proportional half of the world tick, shared by both worlds.

Every tick the world drops expired copies and gives each idle node with
neighbours a chance to start a transfer.  Visiting all N nodes for both
costs O(N) per tick even when nothing changed, which is the common case at
the paper's operating point (518 link-ups in a 6000-tick run).  This base
class of :class:`~repro.world.world.World` and
:class:`~repro.world.trace_world.TraceWorld` keeps two structures so a tick
only visits the nodes where something happened:

* **the expiry index** — a heap of ``(expires_at, node_id)`` with one entry
  per message that entered a buffer (:meth:`MessageBuffer.add
  <repro.net.buffer.MessageBuffer.add>` reports through its owner node).  A
  tick purges exactly the nodes with a due entry, plus the carry-over nodes
  whose expired copies were pinned at their last purge: those copies go
  once their transfer ends.  Stale entries (the copy left earlier) cost one
  empty purge.
* **the dirty set** — nodes whose send eligibility may have changed since
  their last scan.  :meth:`touch` marks a node and its current neighbours;
  it runs on every buffer add and remove, on link up and down, and on
  transfer teardown for both ends (interface idle, token split,
  ``delivered_ids``, a rejected newcomer's drop record).

Both are visited in ascending node id, the order of the full loops they
replace, so every event fires in the same order and every output byte is
unchanged.  The invariant: after a drain, an idle node with neighbours that
was not scanned has nothing to send.  Routers whose eligibility changes with
time alone (:attr:`Router.time_dependent_eligibility
<repro.routing.base.Router.time_dependent_eligibility>`) are scanned every
tick.  Under ``REPRO_SANITIZE`` the sanitizer re-checks both halves by brute
force (see :mod:`repro.analysis.sanitizer`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.transfer import TransferManager
from repro.obs.profiler import timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.message import Message
    from repro.world.node import Node


class ActivityWorld:
    """Link bookkeeping plus the expiry index and dirty set (module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        nodes: list[Node],
        transfer_manager: TransferManager,
        tick: float,
    ) -> None:
        if tick <= 0:
            raise ConfigurationError(f"tick must be positive: {tick}")
        if sorted(n.id for n in nodes) != list(range(len(nodes))):
            raise ConfigurationError("node ids must be 0..N-1 (dense)")
        self.sim = sim
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self.transfer_manager = transfer_manager
        self.tick = float(tick)
        self.links: set[tuple[int, int]] = set()
        #: Nodes currently offline (fault injection); they hold no links.
        self.down_nodes: set[int] = set()
        #: Heap of (expires_at, node id), one entry per buffered copy.
        self._expiry: list[tuple[float, int]] = []
        #: Nodes whose expired copies were pinned at their last purge.
        self._carry: set[int] = set()
        #: Nodes to offer a send scan at the next drain.
        self._dirty: set[int] = set()
        #: Nodes whose router's eligibility ages: scanned every tick.
        self._always_scan: set[int] = set()
        for node in self.nodes:
            node.attach_world(self)

    def reindex(self) -> None:
        """Rebuild the index from the buffers and mark every node dirty.

        Called at start (once the routers are attached) and after a
        snapshot restore.  Extra dirty nodes are always safe.
        """
        self._expiry = [
            (message.expires_at(), node.id)
            for node in self.nodes
            for message in node.buffer
        ]
        heapify(self._expiry)
        self._carry = set()
        self._dirty = set(range(len(self.nodes)))
        self._always_scan = {
            node.id
            for node in self.nodes
            if node.router is not None and node.router.time_dependent_eligibility
        }

    # -- change notifications ------------------------------------------------

    def touch(self, node: Node) -> None:
        """Mark *node* and its current neighbours for the next send scan."""
        dirty = self._dirty
        dirty.add(node.id)
        dirty.update(node.neighbors)

    def buffer_added(self, node: Node, message: Message) -> None:
        """Index a copy that just entered *node*'s buffer."""
        heappush(self._expiry, (message.expires_at(), node.id))
        self.touch(node)

    # -- the tick --------------------------------------------------------------

    def _maintain(self) -> None:
        """TTL purge, the ``world.updated`` fan-out, then the send drain."""
        now = self.sim.now
        profiler = self.sim.profiler
        with timed(profiler, "routing"):
            self._purge(now)
        with timed(profiler, "observers"):
            self.sim.listeners.emit("world.updated", now)
        # Idle senders retry: new eligibility can appear without a link
        # event (e.g. a neighbour dropped its copy of a message we hold);
        # every such change touched the node.
        with timed(profiler, "routing"):
            scanned = self._drain()
        self.sim.listeners.emit("world.drained", now, scanned)

    def _purge(self, now: float) -> None:
        """Run ``purge_expired`` on the nodes holding a due copy, by id."""
        due = self._carry
        self._carry = set()
        expiry = self._expiry
        while expiry and expiry[0][0] <= now:  # == Message.is_expired(now)
            due.add(heappop(expiry)[1])
        for node_id in sorted(due):
            node = self.nodes[node_id]
            if node.router is None:
                continue
            node.router.purge_expired()
            buffer = node.buffer
            if any(buffer.get(m).is_expired(now) for m in buffer.pinned_ids()):
                self._carry.add(node_id)

    def _drain(self) -> list[int]:
        """Offer ``try_send`` to the dirty nodes in ascending id order.

        A node touched mid-drain joins this drain if its id is above the
        cursor and waits for the next tick otherwise — the schedule of the
        full loop over all nodes.  Returns the ids visited.
        """
        pending = self._dirty | self._always_scan
        self._dirty = set()
        order = sorted(pending)  # a sorted list is a heap
        scanned: list[int] = []
        while order:
            node_id = heappop(order)
            if scanned and scanned[-1] == node_id:
                continue
            scanned.append(node_id)
            node = self.nodes[node_id]
            if node.router is not None and not node.sending and node.neighbors:
                node.router.try_send()
            late = self._dirty
            if late:
                for later in sorted(i for i in late if i > node_id):
                    late.discard(later)
                    heappush(order, later)
        return scanned

    # -- link transitions ------------------------------------------------------

    def _link_up(self, a: Node, b: Node) -> None:
        a.neighbors[b.id] = b
        b.neighbors[a.id] = a
        self.touch(a)
        self.touch(b)
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
        self.touch(a)
        self.touch(b)
        self.transfer_manager.abort_for_link(a, b)
        self.sim.listeners.emit("link.down", a, b)
        if a.router is not None:
            a.router.on_link_down(b)
        if b.router is not None:
            b.router.on_link_down(a)

    def _drop_link(self, i: int, j: int) -> None:
        self.links.discard((min(i, j), max(i, j)))
        self._link_down(self.nodes[i], self.nodes[j])

    # -- fault hooks -------------------------------------------------------------

    def set_node_down(self, node_id: int) -> None:
        """Take a node offline: tear down all its links (aborting in-flight
        transfers) and keep it unlinkable until :meth:`set_node_up`."""
        if node_id in self.down_nodes:
            return
        self.down_nodes.add(node_id)
        # Sorted so teardown order is a function of the pair ids alone,
        # never of set memory layout.
        for i, j in sorted(pair for pair in self.links if node_id in pair):
            self._drop_link(i, j)

    def set_node_up(self, node_id: int) -> None:
        """Bring a node back online; links re-form at the next contact."""
        self.down_nodes.discard(node_id)

    def force_link_down(self, i: int, j: int) -> bool:
        """Drop the (i, j) link now (fault injection).  Returns True if the
        link existed.  It re-forms at the pair's next contact."""
        key = (min(i, j), max(i, j))
        if key not in self.links:
            return False
        self._drop_link(*key)
        return True
