"""Spray-and-Focus (Spyropoulos et al. [18]).

Identical spray phase to binary Spray-and-Wait, but instead of passively
waiting, a wait-phase copy is *forwarded* (moved) to relays with fresher
last-encounter information about the destination.  The utility is the
classic last-encounter timer: node u's utility for destination d is the time
since u last met d (smaller = better); a copy moves when the peer's timer
beats the holder's by ``focus_threshold`` seconds.

Included as the paper's "improvements of Spray and Wait" related-work
representative, so the buffer-policy comparison can be repeated on a
stronger router (extended benchmarks).
"""

from __future__ import annotations

from repro.net.message import Message
from repro.policies.base import BufferPolicy
from repro.routing.base import MODE_MOVE, MODE_SPLIT, Router
from repro.world.node import Node


class SprayAndFocusRouter(Router):
    """Binary spray + utility-driven focus phase."""

    name = "spray-and-focus"
    #: The focus rule compares encounter timers that grow with time alone.
    time_dependent_eligibility = True

    def __init__(
        self, node: Node, policy: BufferPolicy, focus_threshold: float = 60.0
    ) -> None:
        super().__init__(node, policy)
        self.focus_threshold = float(focus_threshold)
        #: node id -> last time this node was in contact with it.
        self.last_seen: dict[int, float] = {}

    def on_link_up(self, peer: Node) -> None:
        self.last_seen[peer.id] = self.now
        super().on_link_up(peer)

    def _timer(self, dest: int) -> float:
        """Seconds since this node last met *dest* (inf if never)."""
        seen = self.last_seen.get(dest)
        return float("inf") if seen is None else self.now - seen

    def transfer_modes(self, message: Message, peer: Node) -> str | None:
        if message.can_spray:
            return MODE_SPLIT
        # Focus phase: move the last copy toward fresher information.
        peer_router = peer.router
        if not isinstance(peer_router, SprayAndFocusRouter):
            return None
        mine = self._timer(message.destination)
        theirs = peer_router._timer(message.destination)
        if theirs + self.focus_threshold < mine:
            return MODE_MOVE
        return None
