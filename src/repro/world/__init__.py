"""World model: nodes, radios, connectivity and the time-stepped update.

The :class:`repro.world.world.World` advances the mobility substrate at a
fixed tick, finds the link set with
:func:`~repro.world.contacts.contact_pairs`, purges expired messages, and
publishes ``link.up`` / ``link.down`` / ``world.updated`` events that drive
the routing layer.
"""

from repro.world.contacts import contact_pairs
from repro.world.node import Node
from repro.world.radio import Radio
from repro.world.trace_world import TraceWorld
from repro.world.world import World

__all__ = [
    "Node",
    "Radio",
    "TraceWorld",
    "World",
    "contact_pairs",
]
