"""Outer clustering loop: assignment, labeled mass injection, refinement.

Each round every node assigns its observation to the nearest centroid under
exact squared distances, injects its observation as initial mass into the
averaging instance labeled with its cluster (and an empty mass into every
other label), and adopts the certified cluster averages as the next centroid
set.  The run terminates when two consecutive calculated centroid sets are
exactly equal.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .consensus import ConsensusState, Mass
from .coordination import Agreed, DISAGREED, EMPTY, WindowOutcome
from .exactmath import Fraction, FractionVector, sq_dist_exact


class CentroidSet:
    """The k exact centroids of one round."""

    __slots__ = ("centroids", "round_index")

    def __init__(self, centroids: Iterable[FractionVector], round_index: int = 0):
        self.centroids = tuple(centroids)
        if not self.centroids:
            raise ValueError("at least one centroid is required")
        self.round_index = round_index

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def dim(self) -> int:
        return self.centroids[0].dim

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.centroids)
        return f"CentroidSet(T={self.round_index}: {inner})"


def assign_cluster(x: Sequence[int], centroids: CentroidSet | Sequence[FractionVector],
                   tie_break: str = "low") -> int:
    """Index of the nearest centroid under exact squared distance.

    Ties go to the smallest index; ``tie_break="high"`` flips the rule and
    exists only to demonstrate how a non-canonical rule breaks agreement.
    """
    if isinstance(centroids, CentroidSet):
        centroids = centroids.centroids
    if tie_break not in ("low", "high"):
        raise ValueError("tie_break must be 'low' or 'high'")
    best = 0
    best_dist = sq_dist_exact(x, centroids[0])
    for idx in range(1, len(centroids)):
        dist = sq_dist_exact(x, centroids[idx])
        if dist < best_dist or (tie_break == "high" and dist == best_dist):
            best = idx
            best_dist = dist
    return best


def init_round(x: Sequence[int], assigned: int, k: int,
               ) -> list[tuple[tuple[int, ...], int]]:
    """Initial (value mass, counter mass) per label: the node's observation
    with a unit counter under its own label, an empty mass elsewhere."""
    if not (0 <= assigned < k):
        raise ValueError(f"cluster index {assigned} out of range for k={k}")
    x = tuple(x)
    zero = (0,) * len(x)
    return [(x, 1) if cl == assigned else (zero, 0) for cl in range(k)]


def finalize_round(outcomes: Sequence[WindowOutcome], previous: CentroidSet,
                   ) -> tuple[CentroidSet, bool]:
    """Adopt the certified averages as the next centroid set.

    Empty clusters carry their previous centroid forward.  A Disagreed
    outcome means the stopping mechanism fired early, which the protocol
    rules out; it is reported loudly rather than patched over.
    """
    if len(outcomes) != previous.k:
        raise ValueError("outcome count does not match the centroid count")
    new = []
    for cl, outcome in enumerate(outcomes):
        if outcome is DISAGREED:
            raise RuntimeError(f"stopping fired with cluster {cl} still disagreeing")
        if outcome is EMPTY:
            new.append(previous.centroids[cl])
        elif isinstance(outcome, Agreed):
            new.append(outcome.value)
        else:
            raise TypeError(f"unknown window outcome {outcome!r}")
    updated = CentroidSet(new, previous.round_index + 1)
    return updated, updated.centroids == previous.centroids


class NodeKMeansState:
    """One node's full clustering state: its observation, current assignment,
    the k labeled averaging instances of the running round, and the terminal
    flag."""

    __slots__ = ("node_id", "x", "targets", "assignment", "instances", "flag")

    def __init__(self, node_id: int, x: Sequence[int], targets: tuple[int, ...]):
        self.node_id = node_id
        self.x = tuple(x)
        self.targets = targets
        self.assignment: Optional[int] = None
        self.instances: list[ConsensusState] = []
        self.flag = False

    def begin_round(self, centroids: CentroidSet, assignment: int,
                    ) -> tuple[list[Optional[FractionVector]],
                               list[tuple[int, int, Mass]]]:
        """Take ``assignment``, the label of the centroid nearest to the
        observation (``assign_cluster``, computed once per round by the
        runner), inject labeled masses, and return the window-opening
        snapshot values plus the initial transmissions (cluster label,
        destination, mass)."""
        if self.flag:
            raise RuntimeError("node already terminated")
        self.assignment = assignment
        snapshot_values: list[Optional[FractionVector]] = []
        messages: list[tuple[int, int, Mass]] = []
        self.instances = []
        for cl, (y0, z0) in enumerate(init_round(self.x, self.assignment,
                                                 centroids.k)):
            state, initial = ConsensusState.create(y0, z0, self.targets)
            self.instances.append(state)
            if z0 == 1:
                # The injected mass is what the node holds at window opening;
                # it leaves on the initial transmission immediately after.
                snapshot_values.append(FractionVector(y0, 1))
            else:
                snapshot_values.append(None)
            if initial is not None:
                messages.append((cl, initial[0], initial[1]))
        return snapshot_values, messages

    def held_snapshot_values(self) -> list[Optional[FractionVector]]:
        """Per-label ratio of the mass the node holds right now; labels with
        no held counter mass contribute nothing."""
        values: list[Optional[FractionVector]] = []
        for state in self.instances:
            if state.held_z > 0:
                values.append(FractionVector(state.held_y, state.held_z).reduced())
            else:
                values.append(None)
        return values

    def mass_phase(self, labels: Iterable[int]) -> list[tuple[int, int, Mass]]:
        """Run the event trigger of the given labels' instances in the given
        order, once each; returns the outgoing (cluster label, destination,
        mass) transmissions."""
        out = []
        for cl in labels:
            state = self.instances[cl]
            if state.trigger():
                target, mass = state.emit()
                out.append((cl, target, mass))
        return out

    def set_flag(self) -> None:
        self.flag = True


def parse_observations(text: str) -> list[tuple[int, ...]]:
    """One observation per line: d integers separated by whitespace."""
    rows: list[tuple[int, ...]] = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            values = tuple(int(tok) for tok in raw.split())
        except ValueError:
            raise ValueError(f"line {lineno}: observations must be integers") from None
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValueError(f"line {lineno}: expected {dim} coordinates")
        rows.append(values)
    if not rows:
        raise ValueError("no observations found")
    return rows


def serialize_observations(observations: Sequence[Sequence[int]]) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in observations) + "\n"


def parse_centroids(text: str) -> list[FractionVector]:
    """One centroid per line: d tokens, each ``num/den`` or a plain integer."""
    rows: list[FractionVector] = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            parts = [Fraction.parse(tok) for tok in raw.split()]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad centroid coordinate") from None
        if dim is None:
            dim = len(parts)
        elif len(parts) != dim:
            raise ValueError(f"line {lineno}: expected {dim} coordinates")
        den = 1
        for f in parts:
            den *= f.den
        nums = tuple(f.num * (den // f.den) for f in parts)
        rows.append(FractionVector(nums, den).reduced())
    if not rows:
        raise ValueError("no centroids found")
    return rows


def serialize_centroids(centroids: Iterable[FractionVector]) -> str:
    return "\n".join(str(c) for c in centroids) + "\n"
