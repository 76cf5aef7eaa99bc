"""Listener registry — the simulator's publish/subscribe spine.

Reports, metrics collectors and tests observe the simulation through typed
topics rather than by monkey-patching components.  Topics used by the core
library:

``message.created``      (message)
``message.relayed``      (message, from_node, to_node, is_delivery)
``message.delivered``    (message, from_node, to_node)   — first delivery only
``message.dropped``      (message, node, reason)         — reason: one of
                         :data:`repro.net.outcomes.DROP_REASONS`
                         ("overflow" | "ttl" | "no_room" | "fault")
``message.expired``      (message, node)                 — TTL drops (also emitted as dropped/ttl)
``transfer.started``     (transfer)
``transfer.commit``      (transfer)  — spray-token halving about to apply
``transfer.aborted``     (transfer)
``link.up``              (node_a, node_b)
``link.down``            (node_a, node_b)
``world.updated``        (time)                 — after the tick's TTL purge
``world.drained``        (time, scanned_ids)    — after the tick's send drain
``fault.injected``       (kind, time)

Listeners fire in registration order; exceptions propagate (a broken listener
should fail the run loudly rather than silently skew metrics).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any


class ListenerRegistry:
    """Maps topic names to ordered listener lists."""

    def __init__(self) -> None:
        self._listeners: dict[str, list[Callable[..., None]]] = defaultdict(list)

    def subscribe(self, topic: str, listener: Callable[..., None]) -> None:
        """Register *listener* for *topic* (duplicates allowed, fire twice)."""
        self._listeners[topic].append(listener)

    def unsubscribe(self, topic: str, listener: Callable[..., None]) -> None:
        """Remove the first registration of *listener* on *topic*."""
        self._listeners[topic].remove(listener)

    def emit(self, topic: str, *args: Any) -> None:
        """Invoke all listeners registered for *topic*."""
        for listener in self._listeners.get(topic, ()):
            listener(*args)

    def has_listeners(self, topic: str) -> bool:
        """True if at least one listener is registered for *topic*."""
        return bool(self._listeners.get(topic))
