"""Per-node state machine for event-triggered exact quantized averaging.

A node keeps two integer mass pairs: the held mass (y, z) accumulated from
arrivals, and the stored mass (y_s, z_s) written at its last transmission.
The ratio y_s / z_s is the node's current state estimate.  Transmission is
event-triggered: a node forwards its held mass, on the next edge of its
round-robin schedule, exactly when the held pair is lexicographically at
least the stored pair (counter first, then value dimensions in order).
"""

from __future__ import annotations

from operator import add
from typing import Iterable, NamedTuple, Optional

from .exactmath import FractionVector


class Mass(NamedTuple):
    """An integer value-mass vector together with its counter mass."""
    y: tuple[int, ...]
    z: int


class ConsensusState:
    """One node's view of a single averaging instance.

    ``targets`` is the node's out-neighbor list indexed by round-robin order;
    ``e`` points at the order that receives the next transmission.
    """

    __slots__ = ("dim", "targets", "held_y", "held_z",
                 "stored_y", "stored_z", "tr", "e")

    def __init__(self, dim: int, targets: tuple[int, ...]):
        if not targets:
            raise ValueError("a node needs at least one out-neighbor")
        self.dim = dim
        self.targets = targets
        self.held_y = (0,) * dim
        self.held_z = 0
        self.stored_y = (0,) * dim
        self.stored_z = 0
        self.tr = 0
        self.e = 0

    @classmethod
    def create(cls, y0: tuple[int, ...], z0: int, targets: tuple[int, ...],
               ) -> tuple["ConsensusState", Optional[tuple[int, Mass]]]:
        """Initialize an instance with mass (y0, z0) and, for a participating
        node (z0 = 1), emit the initial transmission to the order-0 neighbor.

        A labeled non-participant (z0 = 0, zero vector) starts silent with no
        stored state: it will act as a relay once mass reaches it.
        """
        if z0 not in (0, 1):
            raise ValueError("initial counter mass must be 0 or 1")
        y0 = tuple(y0)
        state = cls(len(y0), targets)
        if z0 == 0:
            if any(y0):
                raise ValueError("zero counter mass requires a zero value mass")
            return state, None
        state.stored_y = y0
        state.stored_z = 1
        message = (targets[0], Mass(y0, 1))
        state.tr = 1
        state.e = 1 % len(targets)
        return state, message

    @property
    def estimate(self) -> Optional[FractionVector]:
        """Current state estimate, absent until any mass has been stored."""
        if self.stored_z == 0:
            return None
        return FractionVector(self.stored_y, self.stored_z)

    @property
    def held_nonzero(self) -> bool:
        return self.held_z > 0 or any(self.held_y)

    def absorb_one(self, y: tuple[int, ...], z: int) -> None:
        if len(y) != self.dim:
            raise ValueError("dimension mismatch")
        self.held_y = tuple(map(add, self.held_y, y))
        self.held_z += z

    def absorb(self, incoming: Iterable[Mass]) -> None:
        """Sum arrived masses into the held pair; empty input is a no-op."""
        for mass in incoming:
            self.absorb_one(mass.y, mass.z)

    def trigger(self) -> bool:
        """Event-trigger decision over (held z, held y) vs (stored z, stored y).

        The counter is compared first; on a counter tie the value dimensions
        are scanned in order, a strictly larger dimension fires, a strictly
        smaller one holds, and full equality fires.  A held mass of exactly
        zero never fires: empty messages carry no information.
        """
        hz = self.held_z
        hy = self.held_y
        if hz == 0 and not any(hy):
            return False
        sz = self.stored_z
        if hz > sz:
            return True
        if hz < sz:
            return False
        for a, b in zip(hy, self.stored_y):
            if a > b:
                return True
            if a < b:
                return False
        return True

    def emit(self) -> tuple[int, Mass]:
        """Store the held mass, hand it to the neighbor at the current
        round-robin order, zero the held pair, and advance the pointer.
        Call it only when ``trigger`` holds; it does not check again."""
        self.stored_y = self.held_y
        self.stored_z = self.held_z
        target = self.targets[self.e]
        message = (target, Mass(self.held_y, self.held_z))
        self.held_y = (0,) * self.dim
        self.held_z = 0
        self.tr += 1
        self.e = self.tr % len(self.targets)
        return message

    def node_step(self, incoming: Iterable[Mass]) -> Optional[tuple[int, Mass]]:
        """One synchronous step: absorb arrivals, then transmit if triggered.
        At most one message leaves per step."""
        self.absorb(incoming)
        if self.trigger():
            return self.emit()
        return None
