"""Byte-exact message buffer.

The buffer only does storage and accounting; *which* message to drop when
space runs out is the buffer policy's job (see :mod:`repro.policies`).  It
preserves insertion order so FIFO-style policies can rank without extra
bookkeeping, and tracks "pinned" messages (currently being transmitted) that
must not be dropped mid-transfer.

Every add and remove is reported to the buffer's owner node, which tells its
world (the TTL expiry index and the dirty set of senders, see
:mod:`repro.world.activity`) — direct buffer edits included.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.errors import (
    DuplicateMessageError,
    MessageNotFoundError,
    ReproBufferError,
)
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.world.node import Node


class MessageBuffer:
    """A capacity-limited store of :class:`Message` copies.

    Parameters
    ----------
    capacity:
        Capacity in bytes. Must be positive.
    owner:
        The node holding the buffer; told of every add and remove.
    """

    def __init__(self, capacity: int, owner: Node | None = None) -> None:
        if capacity <= 0:
            raise ReproBufferError(f"buffer capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self._messages: dict[str, Message] = {}  # insertion-ordered
        self._used = 0
        self._pins: dict[str, int] = {}
        self.owner = owner

    # -- capacity ----------------------------------------------------------

    @property
    def used(self) -> int:
        """Bytes currently occupied."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes currently available."""
        return self.capacity - self._used

    def fits(self, message: Message) -> bool:
        """True if *message* fits in the current free space."""
        return message.size <= self.free

    def could_ever_fit(self, message: Message) -> bool:
        """True if *message* would fit in an empty buffer."""
        return message.size <= self.capacity

    # -- storage -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self._messages

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages.values())

    def messages(self) -> list[Message]:
        """Snapshot of stored messages in insertion (arrival) order."""
        return list(self._messages.values())

    def ids(self) -> list[str]:
        """Message ids in insertion order."""
        return list(self._messages.keys())

    def get(self, msg_id: str) -> Message:
        """Return the stored copy for *msg_id*.

        Raises :class:`MessageNotFoundError` if absent.
        """
        try:
            return self._messages[msg_id]
        except KeyError:
            raise MessageNotFoundError(msg_id) from None

    def add(self, message: Message) -> None:
        """Insert *message*; the caller must have ensured space.

        Raises :class:`DuplicateMessageError` on id collision and
        :class:`ReproBufferError` if the message does not fit — callers are
        expected to run the drop policy first, so an overflow here is a bug.
        """
        if message.msg_id in self._messages:
            raise DuplicateMessageError(message.msg_id)
        if message.size > self.free:
            raise ReproBufferError(
                f"message {message.msg_id} ({message.size}B) exceeds free "
                f"space ({self.free}B of {self.capacity}B)"
            )
        self._messages[message.msg_id] = message
        self._used += message.size
        if self.owner is not None:
            self.owner.buffer_added(message)

    def remove(self, msg_id: str) -> Message:
        """Remove and return the copy for *msg_id*.

        Pinned messages cannot be removed (see :meth:`pin`).
        """
        if self.is_pinned(msg_id):
            raise ReproBufferError(f"message {msg_id} is pinned (in transfer)")
        message = self._messages.pop(msg_id, None)
        if message is None:
            raise MessageNotFoundError(msg_id)
        self._used -= message.size
        if self.owner is not None:
            self.owner.touch()
        return message

    def clear(self) -> None:
        """Empty the buffer, pins included (snapshot restore refills it)."""
        self._messages.clear()
        self._pins.clear()
        self._used = 0
        if self.owner is not None:
            self.owner.touch()

    # -- pinning (active transfers) -----------------------------------------

    def pin(self, msg_id: str) -> None:
        """Protect *msg_id* from removal while a transfer is in flight.

        Pins are counted, so concurrent transfers of the same message each
        pin/unpin independently.
        """
        if msg_id not in self._messages:
            raise MessageNotFoundError(msg_id)
        self._pins[msg_id] = self._pins.get(msg_id, 0) + 1

    def unpin(self, msg_id: str) -> None:
        """Release one pin on *msg_id* (idempotent for unknown ids)."""
        count = self._pins.get(msg_id, 0)
        if count <= 1:
            self._pins.pop(msg_id, None)
        else:
            self._pins[msg_id] = count - 1

    def is_pinned(self, msg_id: str) -> bool:
        """True while at least one transfer holds *msg_id*."""
        return self._pins.get(msg_id, 0) > 0

    def pinned_ids(self) -> list[str]:
        """Ids currently holding at least one pin (sanitizer/debug view)."""
        return [msg_id for msg_id, count in self._pins.items() if count > 0]

    def droppable(self) -> list[Message]:
        """Messages eligible for policy-driven dropping (unpinned)."""
        return [m for m in self._messages.values() if not self.is_pinned(m.msg_id)]

    def expired(self, now: float) -> list[Message]:
        """Messages whose TTL has elapsed (pinned ones included)."""
        return [m for m in self._messages.values() if m.is_expired(now)]

    def occupancy(self) -> float:
        """Fraction of capacity in use, in [0, 1]."""
        return self._used / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MessageBuffer {len(self)} msgs, {self._used}/{self.capacity}B>"
        )
