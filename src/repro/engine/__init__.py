"""Discrete-event simulation engine.

The engine is a hybrid of the two classic simulator styles, matching the ONE
simulator's semantics:

* a **time-stepped** world update (node movement + connectivity detection)
  registered as a recurring event, and
* an **event-driven** core (:class:`EventQueue`) for everything with an exact
  time: message generation, transfer completions, TTL expiry, report samples.

Public API:

* :class:`repro.engine.events.Event` / :class:`repro.engine.events.EventQueue`
* :class:`repro.engine.simulator.Simulator`
* :class:`repro.engine.hooks.ListenerRegistry`
"""

from repro.engine.events import Event, EventQueue
from repro.engine.hooks import ListenerRegistry
from repro.engine.simulator import Simulator

__all__ = ["Event", "EventQueue", "ListenerRegistry", "Simulator"]
