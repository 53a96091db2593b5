"""Max/min-consensus and the windowed distributed stopping mechanism.

Protocol: every D steps (D at least the graph diameter) each node snapshots,
per cluster label, the ratio of the labeled mass it currently holds; the
snapshots then flood for exactly D one-hop merge rounds, one extrema message
per edge and step.  When the running maximum and minimum coincide for a
label, every contributing mass ratio was identical at snapshot time, which
certifies that the common value is the exact cluster average.  The window
closes only when that holds for every label, and its verdict is then the
next centroid set, with no value for a label nobody contributed to.

Simulation: after D >= diameter rounds every node holds the global extrema,
so every node reaches the verdict of one fold over all snapshots, and a
label's maximum equals its minimum exactly when all its snapshot values are
equal.  So once per window the simulator cross-multiplies each label's held
ratios, as its conservation check has just verified them, with the first
one, and still counts the flood's messages.  ``snapshot``, ``extrema_merge``
and ``window_check`` are the protocol's own steps; ``flood_verdict``
replays the flood node by node with them and is the reference that tests
compare the simulator's verdict against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exactmath import FractionVector


@dataclass(frozen=True)
class ClusterExtrema:
    """Running per-dimension extrema of one cluster's snapshot values."""
    upper: FractionVector
    lower: FractionVector


# A node's extrema: one entry per cluster label; ``None`` means the node has
# observed no contribution for that cluster in the current window.
Extrema = tuple[Optional[ClusterExtrema], ...]


def snapshot(values: Sequence[Optional[FractionVector]]) -> Extrema:
    """Open a window: each present value seeds both extrema for its cluster."""
    return tuple(None if v is None else ClusterExtrema(v, v) for v in values)


def _merge_entry(a: Optional[ClusterExtrema],
                 b: Optional[ClusterExtrema]) -> Optional[ClusterExtrema]:
    if a is None:
        return b
    if b is None:
        return a
    return ClusterExtrema(a.upper.elementwise_max(b.upper),
                          a.lower.elementwise_min(b.lower))


def extrema_merge(own: Extrema, received: Iterable[Extrema]) -> Extrema:
    """Fold received extrema into the node's own, per cluster and dimension.
    Absent entries act as identity elements."""
    for other in received:
        own = tuple(map(_merge_entry, own, other))
    return own


def window_check(state: Extrema,
                 ) -> Optional[tuple[Optional[FractionVector], ...]]:
    """Close a window.  The verdict is ``None`` when max and min differ for
    some label, so the window does not close; otherwise it holds each
    label's common value, the certified exact average, or ``None`` for a
    label nobody contributed to."""
    if any(e is not None and e.upper != e.lower for e in state):
        return None
    return tuple(None if e is None else e.upper for e in state)


def flood_verdict(in_nbrs: Sequence[Sequence[int]],
                  snapshots: Sequence[Extrema],
                  rounds: int,
                  ) -> Optional[tuple[Optional[FractionVector], ...]]:
    """Reference for one stopping window as the protocol runs it: every node
    merges the extrema of its in-neighbors (``in_nbrs[j]``) for ``rounds``
    synchronous rounds, then closes the window on its own state.  Returns
    the verdict all nodes reached; raises ValueError when two nodes reach
    different verdicts, which ``rounds`` below the diameter can cause."""
    states = list(snapshots)
    for _ in range(rounds):
        states = [extrema_merge(states[j], [states[i] for i in in_nbrs[j]])
                  for j in range(len(states))]
    verdicts = [window_check(state) for state in states]
    if any(v != verdicts[0] for v in verdicts):
        raise ValueError("stopping verdicts diverged across nodes")
    return verdicts[0]
