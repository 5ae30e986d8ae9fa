"""Channel runtime: one bounded FIFO per consumer endpoint.

A push delivers the sample to every consumer queue (broadcast for
multipoint channels) and is allowed only when all of them have room, so
every consumer sees the full stream and producers cannot outrun the
slowest reader.
"""

from __future__ import annotations

from collections import deque

from ..tlm import ChannelSpec
from .interp import SimError


class ChannelRt:
    def __init__(self, spec: ChannelSpec):
        self.spec = spec
        self.depth = spec.fifo_depth
        self.queues: dict[tuple, deque] = {
            (c.unit, c.port): deque() for c in spec.consumers}
        self.pushed = 0
        self.popped = 0

    def can_push(self) -> bool:
        return all(len(q) < self.depth for q in self.queues.values())

    def push(self, value: int) -> None:
        if not self.can_push():
            raise SimError(f"channel {self.spec.id}: push into a full FIFO")
        for q in self.queues.values():
            q.append(value)
        self.pushed += 1

    def can_pop(self, key: tuple) -> bool:
        return bool(self.queues[key])

    def pop(self, key: tuple) -> int:
        self.popped += 1
        return self.queues[key].popleft()

    def status(self, key: tuple | None) -> int:
        """STATUS register value: bit0 not-empty (consumer side), bit1
        not-full (producer side)."""
        bits = 0
        if key is not None and self.can_pop(key):
            bits |= 1
        if self.can_push():
            bits |= 2
        return bits
