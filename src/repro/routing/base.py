"""Router base class.

A router owns one node's forwarding logic.  The base class implements
everything protocol-independent:

* message creation (with make-room),
* the receive path — duplicate / dropped-list / delivery / overflow handling
  per Algorithm 1 of the paper,
* the make-room drop loop driven by the attached
  :class:`~repro.policies.base.BufferPolicy`,
* idle-sender scheduling: pick the best ``(message, peer)`` pair by the
  policy's send priority and hand it to the transfer manager.

Subclasses define *eligibility*: which buffered messages may go to which
peers, and what happens on the sender side when a transfer completes
(:meth:`Router.transfer_modes`, :meth:`Router.after_transfer`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.simulator import Simulator
from repro.errors import SimulationError
from repro.net.message import Message
from repro.net.outcomes import (  # re-exported: the routing-facing names
    DROP_NO_ROOM,
    DROP_OVERFLOW,
    DROP_TTL,
    MODE_COPY,
    MODE_DELIVERY,
    MODE_MOVE,
    MODE_SPLIT,
    ReceiveOutcome,
)
from repro.obs.profiler import timed
from repro.policies.base import BufferPolicy, PolicyContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.transfer import TransferManager
    from repro.rng import RngFactory
    from repro.world.node import Node

__all__ = [
    "MODE_COPY",
    "MODE_DELIVERY",
    "MODE_MOVE",
    "MODE_SPLIT",
    "ReceiveOutcome",
    "Router",
]


class Router:
    """Protocol-independent routing machinery (see module docstring)."""

    name = "abstract"

    #: If True, messages deliverable to a connected destination jump the
    #: queue (ONE's ``exchangeDeliverableMessages``).  If False, scheduling
    #: is strictly by policy priority — the literal reading of the paper's
    #: Algorithm 1 ("return ID_S"), under which a bad priority function also
    #: delays direct deliveries.  The experiment harness uses strict order
    #: for the paper comparison; the flag is an ablation axis.
    deliverable_first = False

    #: True when which messages this router may send changes with time
    #: alone (an aging predictability table, encounter timers), with no
    #: buffer, link or transfer event to announce it.  The world then
    #: scans the node every tick instead of only when it was touched (see
    #: :mod:`repro.world.activity`).  A property of the protocol.
    time_dependent_eligibility = False

    def __init__(self, node: Node, policy: BufferPolicy) -> None:
        self.node = node
        self.policy = policy
        self.sim: Simulator | None = None
        self.transfer_manager: "TransferManager | None" = None
        #: Messages this node (as destination) has received.
        self.delivered_ids: set[str] = set()
        node.attach_router(self)

    # -- wiring ----------------------------------------------------------------

    def bind(self, sim: Simulator, transfer_manager: "TransferManager",
             n_nodes: int, rng: "RngFactory | None" = None) -> None:
        """Connect to the simulator; called once by the scenario builder."""
        self.sim = sim
        self.transfer_manager = transfer_manager
        self.policy.attach(
            PolicyContext(node=self.node, sim=sim, n_nodes=n_nodes, rng=rng)
        )

    @property
    def now(self) -> float:
        if self.sim is None:
            raise SimulationError("router used before bind()")
        return self.sim.now

    # -- message creation ---------------------------------------------------------

    def create_message(self, message: Message) -> bool:
        """Buffer a locally generated message, making room if needed.

        Returns False when the message cannot be stored (larger than the
        whole buffer, or everything else is pinned).  The ``message.created``
        event is emitted either way — the paper's delivery ratio denominator
        counts all generated messages.
        """
        assert self.sim is not None
        self.sim.listeners.emit("message.created", message)
        # Locally generated messages are never "the newcomer that loses":
        # the source always tries to make room (ONE's makeRoomForNewMessage).
        if not self._make_room(message, allow_reject=False):
            self.sim.listeners.emit(
                "message.dropped", message, self.node, DROP_NO_ROOM
            )
            return False
        self.node.buffer.add(message)
        self.policy.on_message_added(message, self.now)
        self.try_send()
        return True

    # -- receive path ----------------------------------------------------------------

    def will_accept(self, message: Message, sender: Node) -> bool:
        """Cheap pre-checks used during selection AND re-checked on arrival."""
        now = self.now
        if message.is_expired(now):
            return False
        if message.destination == self.node.id:
            return message.msg_id not in self.delivered_ids
        if message.msg_id in self.node.buffer:
            return False
        if not self.node.buffer.could_ever_fit(message):
            return False
        return self.policy.will_accept(message, now)

    def receive(self, message: Message, sender: Node) -> ReceiveOutcome:
        """Handle an arriving copy (transfer already completed)."""
        assert self.sim is not None
        now = self.now
        if message.is_expired(now):
            return ReceiveOutcome.EXPIRED
        if message.destination == self.node.id:
            if message.msg_id in self.delivered_ids:
                return ReceiveOutcome.ALREADY_DELIVERED
            self.delivered_ids.add(message.msg_id)
            self.sim.listeners.emit("message.delivered", message, sender, self.node)
            return ReceiveOutcome.DELIVERED
        if message.msg_id in self.node.buffer:
            return ReceiveOutcome.DUPLICATE
        if not self.policy.will_accept(message, now):
            return ReceiveOutcome.REJECTED_POLICY
        if not self._make_room(message, allow_reject=self.policy.compare_newcomer):
            # The newcomer copy is destroyed: record it as a drop so that
            # stateful policies (SDSRP's dropped list) learn about it.
            self.policy.on_message_dropped(message, now, DROP_OVERFLOW)
            self.sim.listeners.emit(
                "message.dropped", message, self.node, DROP_OVERFLOW
            )
            return ReceiveOutcome.REJECTED_OVERFLOW
        self.node.buffer.add(message)
        self.policy.on_message_added(message, now)
        self.try_send()
        return ReceiveOutcome.ACCEPTED

    def _make_room(self, incoming: Message, allow_reject: bool) -> bool:
        """Drop lowest-priority droppable messages until *incoming* fits.

        With *allow_reject* (Algorithm 1), the newcomer participates in the
        ranking and is refused if it is ever the lowest-priority candidate.
        Policies that define ``select_victims`` (set-based strategies such
        as the knapsack variant) take over the whole decision instead.
        """
        assert self.sim is not None
        with timed(self.sim.profiler, "policy"):
            return self._make_room_inner(incoming, allow_reject)

    def _make_room_inner(self, incoming: Message, allow_reject: bool) -> bool:
        assert self.sim is not None
        buffer = self.node.buffer
        if not buffer.could_ever_fit(incoming):
            return False
        now = self.now
        select_victims = getattr(self.policy, "select_victims", None)
        if allow_reject and select_victims is not None and not buffer.fits(incoming):
            droppable = buffer.droppable()
            budget = buffer.free + sum(m.size for m in droppable)
            accept, victims = select_victims(droppable, incoming, budget, now)
            if not accept:
                return False
            for victim in victims:
                self.drop_message(victim, DROP_OVERFLOW)
            return buffer.fits(incoming)
        while not buffer.fits(incoming):
            candidates = buffer.droppable()
            if not candidates:
                return False
            worst = min(
                candidates, key=lambda m: self.policy.drop_priority(m, now)
            )
            if allow_reject and (
                self.policy.drop_priority(incoming, now)
                <= self.policy.drop_priority(worst, now)
            ):
                return False
            self.drop_message(worst, DROP_OVERFLOW)
        return True

    def drop_message(self, message: Message, reason: str) -> None:
        """Remove *message* from the buffer and fire the drop hooks."""
        assert self.sim is not None
        self.node.buffer.remove(message.msg_id)
        self.policy.on_message_dropped(message, self.now, reason)
        self.sim.listeners.emit("message.dropped", message, self.node, reason)

    def purge_expired(self) -> None:
        """Drop all expired, unpinned messages (pinned ones die on completion)."""
        for message in self.node.buffer.expired(self.now):
            if not self.node.buffer.is_pinned(message.msg_id):
                self.drop_message(message, DROP_TTL)

    # -- link lifecycle ---------------------------------------------------------------

    def on_link_up(self, peer: Node) -> None:
        self.policy.on_link_up(peer, self.now)
        self.try_send()

    def on_link_down(self, peer: Node) -> None:
        self.policy.on_link_down(peer, self.now)

    # -- sending ------------------------------------------------------------------------

    def transfer_modes(self, message: Message, peer: Node) -> str | None:
        """Eligibility: may *message* be offered to *peer*, and how?

        Returns one of the MODE_* constants or None.  Delivery eligibility is
        handled by the base class; subclasses decide relay eligibility.
        """
        return None

    def select_next(self) -> tuple[Node, Message, str] | None:
        """Choose the best (peer, message, mode) to send, or None.

        Candidates are ranked by the policy's send priority — the paper's
        scheduling decision.  With :attr:`deliverable_first`, messages whose
        destination is connected outrank all relays regardless of priority
        (ONE's ``exchangeDeliverableMessages`` behaviour).
        """
        assert self.sim is not None
        with timed(self.sim.profiler, "routing"):
            return self._select_next_inner()

    def _select_next_inner(self) -> tuple[Node, Message, str] | None:
        now = self.now
        best_delivery: tuple[float, Node, Message] | None = None
        best_relay: tuple[float, Node, Message, str] | None = None
        for message in self.node.buffer:
            if message.is_expired(now):
                continue
            for peer in self.node.neighbors.values():
                if peer.router is None:
                    continue
                if message.destination == peer.id:
                    if peer.router.will_accept(message, self.node):
                        rank = self.policy.send_priority(message, now)
                        if best_delivery is None or rank > best_delivery[0]:
                            best_delivery = (rank, peer, message)
                    continue
                mode = self.transfer_modes(message, peer)
                if mode is None:
                    continue
                if not peer.router.will_accept(message, self.node):
                    continue
                rank = self.policy.send_priority(message, now)
                if best_relay is None or rank > best_relay[0]:
                    best_relay = (rank, peer, message, mode)
        if best_delivery is not None and (
            self.deliverable_first
            or best_relay is None
            or best_delivery[0] >= best_relay[0]
        ):
            _, peer, message = best_delivery
            return peer, message, MODE_DELIVERY
        if best_relay is not None:
            _, peer, message, mode = best_relay
            return peer, message, mode
        return None

    def try_send(self) -> None:
        """Start a transfer if the interface is idle and something is eligible."""
        if self.transfer_manager is None:
            return
        node = self.node
        if node.sending or not node.neighbors or not len(node.buffer):
            return
        choice = self.select_next()
        if choice is None:
            return
        peer, message, mode = choice
        self.transfer_manager.start(self.node, peer, message, mode)

    def after_transfer(self, message: Message, peer: Node, mode: str,
                       outcome: ReceiveOutcome) -> None:
        """Sender-side bookkeeping once a transfer completed.

        Default implements the mode semantics; subclasses may extend (e.g.
        MOFO's forward counting).
        """
        accepted = outcome in (ReceiveOutcome.ACCEPTED, ReceiveOutcome.DELIVERED)
        if mode == MODE_DELIVERY:
            # Direct delivery: the copy reached its destination; this node's
            # copy is spent (ONE deletes on transfer to final recipient).
            if outcome == ReceiveOutcome.DELIVERED and message.msg_id in self.node.buffer:
                self.node.buffer.remove(message.msg_id)
        elif mode == MODE_MOVE:
            if accepted and message.msg_id in self.node.buffer:
                self.node.buffer.remove(message.msg_id)
        # MODE_SPLIT token accounting is committed by the transfer manager
        # (two-phase split); MODE_COPY needs nothing.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} node={self.node.id}>"
