"""Channel runtime: one bounded FIFO per consumer endpoint.

A push delivers the sample to every consumer queue (broadcast for
multipoint channels) and is allowed only when all of them have room, so
every consumer sees the full stream and producers cannot outrun the
slowest reader.  Every push and pop marks awake the micro units on the
channel's wake list, the units that read or write it (see ``engine``).
Every unit does this inline when it does not block, and calls a method
only for a blocked test or a push to several consumers (see ``interp``).
A push is counted; a pop is not, since every consumer queue receives
every push, so ``popped`` follows from ``pushed`` and what the queues
still hold.
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
        self.fifos = list(self.queues.values())
        self.pushed = 0
        self.wake: list = []  # micro units that read or write the channel

    @property
    def popped(self) -> int:
        """The samples popped, summed over the consumer queues."""
        return len(self.fifos) * self.pushed - sum(map(len, self.fifos))

    def can_push(self) -> bool:
        depth = self.depth
        for q in self.fifos:
            if len(q) >= depth:
                return False
        return True

    def push(self, value: int) -> None:
        if not self.can_push():
            raise SimError(f"channel {self.spec.id}: push into a full FIFO")
        for q in self.fifos:
            q.append(value)
        self.pushed += 1
        if self.wake:  # empty at levels 1 and 2: a test costs less than a loop
            for u in self.wake:
                u.awake = True

    def can_pop(self, key: tuple) -> bool:
        return bool(self.queues[key])
