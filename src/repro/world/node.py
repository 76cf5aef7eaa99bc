"""A network node: buffer + radio + router + live neighbor set.

Positions are owned by the :class:`~repro.world.world.World` (vectorized
mobility), not by the node, so the node object stays cheap; ``node.position``
reads back the world's current array row for convenience.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.net.buffer import MessageBuffer
from repro.world.radio import Radio

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.message import Message
    from repro.routing.base import Router
    from repro.world.activity import ActivityWorld


class Node:
    """One DTN node."""

    def __init__(self, node_id: int, radio: Radio, buffer_capacity: int) -> None:
        self.id = int(node_id)
        self.radio = radio
        self.buffer = MessageBuffer(buffer_capacity, owner=self)
        self.router: "Router | None" = None
        #: Currently connected peers, keyed by node id.
        self.neighbors: dict[int, "Node"] = {}
        #: True while this node's interface is busy sending one message.
        self.sending = False
        self._world: "ActivityWorld | None" = None

    def attach_router(self, router: "Router") -> None:
        """Wire the routing protocol driving this node."""
        self.router = router

    def attach_world(self, world: "ActivityWorld") -> None:
        """Called by the world when the node is registered."""
        self._world = world

    def touch(self) -> None:
        """Report that this node's or its neighbours' send eligibility may
        have changed (see :meth:`ActivityWorld.touch
        <repro.world.activity.ActivityWorld.touch>`)."""
        if self._world is not None:
            self._world.touch(self)

    def buffer_added(self, message: "Message") -> None:
        """Report a copy that just entered this node's buffer."""
        if self._world is not None:
            self._world.buffer_added(self, message)

    @property
    def position(self) -> np.ndarray:
        """Current (x, y) in meters; requires world registration."""
        if self._world is None:
            raise RuntimeError(f"node {self.id} is not attached to a world")
        return self._world.positions[self.id]  # type: ignore[attr-defined]

    def is_connected_to(self, other: "Node") -> bool:
        """True while a live link to *other* exists."""
        return other.id in self.neighbors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.id} buf={len(self.buffer)} "
            f"nbrs={sorted(self.neighbors)}>"
        )
