"""The world tick's idle-sender retry path.

New send eligibility can appear without any link event — e.g. a neighbor
drops its copy of a message we hold, making it sprayable to them again, or
a copy is put straight into a buffer.  Every such change reports to the
world (buffer add/remove, transfer teardown), which marks the node and its
neighbours dirty; the next tick's drain scans exactly those.  Each scenario
runs with the sanitizer armed, whose send-schedule oracle fails the tick if
an unscanned idle node could have sent something.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.core.sdsrp import SdsrpPolicy
from repro.errors import InvariantViolation
from repro.net.buffer import MessageBuffer
from tests.helpers import build_micro_world, make_message

#: Source, a relay in range, and a far-away destination.
POINTS = [(0.0, 0.0), (80.0, 0.0), (900.0, 900.0)]


def sanitized_world(**kwargs):
    mw = build_micro_world(points=POINTS, **kwargs)
    Sanitizer(mw.nodes).subscribe(mw.sim)
    mw.sim.run(until=1.5)
    return mw


def run_peer_drops_copy():
    mw = sanitized_world()
    src, peer = mw.nodes[0], mw.nodes[1]

    # Peer already holds the message: source has nothing to send.
    msg = make_message(msg_id="m", source=0, destination=2, copies=8,
                       size=1000)
    src.router.create_message(msg)
    peer.buffer.add(
        make_message(msg_id="m", source=0, destination=2, copies=4,
                     initial_copies=16, size=1000, hop_count=1)
    )
    mw.sim.run(until=5.0)
    assert mw.metrics.relayed == 0
    assert not src.sending

    # The peer's copy vanishes (e.g. dropped by its policy): the next world
    # tick must notice and restart spraying without any link transition.
    peer.router.drop_message(peer.buffer.get("m"), "overflow")
    mw.sim.run(until=10.0)
    assert src.sending or mw.metrics.relayed >= 1
    mw.sim.run(until=30.0)
    assert "m" in peer.buffer  # re-infected


def test_idle_sender_retries_when_peer_drops_copy():
    run_peer_drops_copy()


def test_unreported_drop_is_caught_by_the_sanitizer(monkeypatch):
    """Planted bug: a buffer remove that does not tell the world leaves the
    source unscanned, and the send-schedule oracle names it."""
    remove = MessageBuffer.remove

    def remove_unreported(self, msg_id):
        owner, self.owner = self.owner, None
        try:
            return remove(self, msg_id)
        finally:
            self.owner = owner

    monkeypatch.setattr(MessageBuffer, "remove", remove_unreported)
    with pytest.raises(InvariantViolation) as excinfo:
        run_peer_drops_copy()
    assert excinfo.value.invariant == "send-schedule"
    assert excinfo.value.node_id == 0


def test_copy_put_straight_into_a_buffer_is_offered():
    mw = sanitized_world()
    src, peer = mw.nodes[0], mw.nodes[1]
    peer.buffer.add(
        make_message(msg_id="m", source=1, destination=2, copies=8,
                     size=1000)
    )
    mw.sim.run(until=3.0)
    assert "m" in src.buffer  # sprayed at the next tick, no link event


def test_rejected_newcomer_is_not_offered_again():
    """SDSRP: a relay that drops the arriving copy on overflow records the
    drop and refuses that message from then on — also once it has room."""
    mw = sanitized_world(buffer_bytes=2000, policy_factory=SdsrpPolicy)
    src, peer = mw.nodes[0], mw.nodes[1]
    # The relay is full of wait-phase copies it cannot evict (pinned).
    for rid in ("r1", "r2"):
        peer.buffer.add(
            make_message(msg_id=rid, source=1, destination=2, copies=1,
                         size=1000)
        )
        peer.buffer.pin(rid)
    for mid in ("m1", "m2"):
        src.router.create_message(
            make_message(msg_id=mid, source=0, destination=2, copies=8,
                         size=1000)
        )
    mw.sim.run(until=5.0)
    # Both newcomers lost the drop decision; their tokens were committed.
    assert mw.metrics.drops_by_reason.get("overflow") == 2
    assert [src.buffer.get(m).copies for m in ("m1", "m2")] == [4, 4]

    # Room appears at the relay without a link event: the source is
    # rescanned and finds nothing the relay will take.
    for rid in ("r1", "r2"):
        peer.buffer.unpin(rid)
    peer.router.drop_message(peer.buffer.get("r1"), "fault")
    mw.sim.run(until=30.0)
    assert not src.sending
    assert "m1" not in peer.buffer and "m2" not in peer.buffer
    assert mw.metrics.drops_by_reason.get("overflow") == 2
