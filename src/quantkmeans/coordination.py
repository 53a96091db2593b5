"""Max/min-consensus and the windowed distributed stopping mechanism.

Protocol: every D steps (D at least the graph diameter) each node snapshots,
per cluster label, the ratio of the labeled mass it currently holds; the
snapshots then flood for exactly D one-hop merge rounds, one extrema message
per edge and step.  When the running maximum and minimum coincide for a
label, every contributing mass ratio was identical at snapshot time, which
certifies that the common value is the exact cluster average.  A label
nobody contributed to is flagged empty.

Simulation: after D >= diameter rounds every node holds the global extrema,
so every node reaches the verdict of one fold over all snapshots, and a
label's maximum equals its minimum exactly when all its snapshot values are
equal.  The simulator therefore certifies each label by comparing its values
with the first one, once per window, and still counts the flood's messages.
``extrema_merge`` and ``window_check`` are the protocol's own steps;
``flood_verdict`` replays the flood node by node with them and is the
reference that tests compare the simulator's verdict against.
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


@dataclass(frozen=True)
class Agreed:
    """Window verdict: all contributions matched; ``value`` is the certified
    exact average for the cluster."""
    value: FractionVector


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


DISAGREED = _Sentinel("DISAGREED")
EMPTY = _Sentinel("EMPTY")

WindowOutcome = object  # Agreed | DISAGREED | EMPTY


def window_check(state: Extrema) -> tuple[WindowOutcome, ...]:
    """Close a window: per cluster, Agreed when max equals min exactly in
    every dimension, Empty when nobody contributed, Disagreed otherwise."""
    outcomes: list[WindowOutcome] = []
    for entry in state:
        if entry is None:
            outcomes.append(EMPTY)
        elif entry.upper == entry.lower:
            outcomes.append(Agreed(entry.upper))
        else:
            outcomes.append(DISAGREED)
    return tuple(outcomes)


def all_settled(outcomes: Iterable[WindowOutcome]) -> bool:
    """The inner loop may stop only when no cluster is still disagreeing."""
    return not any(o is DISAGREED for o in outcomes)


def flood_verdict(in_nbrs: Sequence[Sequence[int]],
                  snapshots: Sequence[Extrema],
                  rounds: int) -> tuple[WindowOutcome, ...]:
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
