"""Oracle vocabulary and summary-level correctness checks.

Three oracle families judge every fuzzed case (docs/chaos.md):

* **invariant oracles** — the armed sanitizer must not raise
  (:data:`ORACLE_INVARIANT`), the run must not crash with any other
  exception (:data:`ORACLE_CRASH`), and the run summary must be internally
  consistent — delivered ≤ created, no negative counters
  (:data:`ORACLE_SUMMARY`);
* **metamorphic oracles** — a chaos run whose fault plan is disabled must
  be byte-identical to the plain run (:data:`ORACLE_ZERO_FAULT`), and at
  a fixed seed the delivery ratio must not *improve* when the buffer shrinks
  (:data:`ORACLE_BUFFER_MONOTONE`);
* **replay oracles** — re-running any case from its recorded config must
  reproduce it byte-identically; for failures, the same oracle must fire
  with the same invariant (:data:`ORACLE_REPLAY`).

A failing case is recorded as an :class:`OracleFailure`, the unit the
shrinker minimizes and the corpus serializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

ORACLE_INVARIANT = "invariant"
ORACLE_CRASH = "crash"
ORACLE_SUMMARY = "summary"
ORACLE_ZERO_FAULT = "zero-fault-identity"
ORACLE_BUFFER_MONOTONE = "buffer-monotone"
ORACLE_REPLAY = "replay"
ORACLE_FAMILIES = (
    ORACLE_INVARIANT,
    ORACLE_CRASH,
    ORACLE_SUMMARY,
    ORACLE_ZERO_FAULT,
    ORACLE_BUFFER_MONOTONE,
    ORACLE_REPLAY,
)

#: Delivery may legitimately dip a little when a *larger* buffer reorders
#: drop decisions (more queueing can delay the copy that would have been
#: delivered), so the monotone oracle only fires on a flagrant reversal.
MONOTONE_SLACK = 0.25
#: ... and only when the sample is large enough for the ratio to be stable.
MONOTONE_MIN_CREATED = 20


@dataclass
class OracleFailure:
    """One oracle firing on one case.

    ``invariant`` carries the sanitizer's invariant name for
    :data:`ORACLE_INVARIANT` failures (``buffer-accounting``,
    ``copy-conservation``, ...) and the exception type name for crashes.
    """

    oracle: str
    detail: str
    invariant: str | None = None
    violation_time: float | None = None
    node_id: int | None = None
    msg_id: str | None = None
    trace_tail: list[dict[str, Any]] = field(default_factory=list)

    def matches(self, other: "OracleFailure | None") -> bool:
        """Same failure class?  (The shrinker's acceptance predicate: a
        candidate only counts as a reproduction when the same oracle fires
        with the same invariant — shrinking into a *different* bug would
        poison the reproducer.)"""
        return (
            other is not None
            and other.oracle == self.oracle
            and other.invariant == self.invariant
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "oracle": self.oracle,
            "detail": self.detail,
            "invariant": self.invariant,
            "violation_time": self.violation_time,
            "node_id": self.node_id,
            "msg_id": self.msg_id,
            "trace_tail": [dict(r) for r in self.trace_tail],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OracleFailure":
        return cls(
            oracle=str(data["oracle"]),
            detail=str(data["detail"]),
            invariant=data.get("invariant"),
            violation_time=data.get("violation_time"),
            node_id=data.get("node_id"),
            msg_id=data.get("msg_id"),
            trace_tail=list(data.get("trace_tail") or []),
        )


def check_summary(summary: Any) -> OracleFailure | None:
    """Summary-consistency leg of the invariant oracle family.

    The sanitizer checks per-tick state; this checks the aggregated
    outcome.  Both must hold — a counter bug could balance the books every
    tick yet still report more deliveries than creations.
    """
    if summary.delivered > summary.created:
        return OracleFailure(
            oracle=ORACLE_SUMMARY,
            detail=(
                f"delivered {summary.delivered} exceeds created "
                f"{summary.created}"
            ),
            invariant="delivered-le-created",
        )
    negatives = {
        name: value
        for name, value in (
            ("created", summary.created),
            ("delivered", summary.delivered),
            ("relayed", summary.relayed),
            ("contacts", summary.contacts),
        )
        if value < 0
    }
    negatives.update(
        (f"drop_{reason}", count)
        for reason, count in summary.drops.items()
        if count < 0
    )
    negatives.update(
        (f"fault_{kind}", count)
        for kind, count in summary.faults.items()
        if count < 0
    )
    if negatives:
        return OracleFailure(
            oracle=ORACLE_SUMMARY,
            detail=f"negative counters in run summary: {negatives}",
            invariant="non-negative-counters",
        )
    if not 0.0 <= summary.delivery_ratio <= 1.0 and summary.created > 0:
        return OracleFailure(
            oracle=ORACLE_SUMMARY,
            detail=f"delivery ratio out of [0, 1]: {summary.delivery_ratio}",
            invariant="delivery-ratio-range",
        )
    return None


def check_buffer_monotone(
    small_summary: Any, large_summary: Any
) -> OracleFailure | None:
    """Metamorphic check: shrinking the buffer must not *improve* delivery.

    *small_summary* ran with the smaller buffer, *large_summary* with the
    larger one, same seed.  Fires only past :data:`MONOTONE_SLACK` and with
    at least :data:`MONOTONE_MIN_CREATED` messages (see module docstring).
    """
    if min(small_summary.created, large_summary.created) < MONOTONE_MIN_CREATED:
        return None
    gap = small_summary.delivery_ratio - large_summary.delivery_ratio
    if gap > MONOTONE_SLACK:
        return OracleFailure(
            oracle=ORACLE_BUFFER_MONOTONE,
            detail=(
                f"delivery ratio {small_summary.delivery_ratio:.3f} with "
                f"{small_summary.buffer_bytes} B buffer beats "
                f"{large_summary.delivery_ratio:.3f} with "
                f"{large_summary.buffer_bytes} B (gap {gap:.3f} > "
                f"{MONOTONE_SLACK})"
            ),
            invariant="buffer-monotone",
        )
    return None
