"""Outer clustering loop: assignment, labeled mass injection, refinement.

Each round every node assigns its observation to the nearest centroid under
exact squared distances, injects its observation as initial mass into the
averaging instance labeled with its cluster (and an empty mass into every
other label), and adopts the certified cluster averages as the next centroid
set, where an empty cluster keeps its centroid.  The run terminates when two
consecutive calculated centroid sets are exactly equal.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Optional, Sequence

from .consensus import ConsensusState, Mass
from .exactmath import FractionVector, sq_dist_exact


def assign_cluster(x: Sequence[int], centroids: Sequence[FractionVector],
                   tie_break: str = "low") -> int:
    """Index of the nearest centroid under exact squared distance.

    Ties go to the smallest index; ``tie_break="high"`` flips the rule and
    exists only to demonstrate how a non-canonical rule breaks agreement.
    """
    if tie_break not in ("low", "high"):
        raise ValueError("tie_break must be 'low' or 'high'")
    # Distances are numerators over den**2, compared by cross-multiplying.
    best = 0
    c = centroids[0]
    best_num, best_den = sq_dist_exact(x, c), c.den * c.den
    for idx in range(1, len(centroids)):
        c = centroids[idx]
        num, den = sq_dist_exact(x, c), c.den * c.den
        lhs, rhs = num * best_den, best_num * den
        if lhs < rhs or (tie_break == "high" and lhs == rhs):
            best, best_num, best_den = idx, num, den
    return best


def finalize_round(verdict: Sequence[Optional[FractionVector]],
                   previous: tuple[FractionVector, ...],
                   ) -> tuple[tuple[FractionVector, ...], bool]:
    """Adopt a closed window's verdict, the certified averages, as the next
    centroids; returns them and whether they equal ``previous``.  A label
    without a value (an empty cluster) carries its previous centroid
    forward."""
    if len(verdict) != len(previous):
        raise ValueError("verdict length does not match the centroid count")
    updated = tuple(p if v is None else v for v, p in zip(verdict, previous))
    return updated, updated == previous


class NodeKMeansState:
    """One node's full clustering state: its observation, current assignment
    and the k labeled averaging instances of the running round."""

    __slots__ = ("x", "targets", "assignment", "instances")

    def __init__(self, x: Sequence[int], targets: tuple[int, ...]):
        self.x = tuple(x)
        self.targets = targets
        self.assignment: Optional[int] = None
        self.instances: list[ConsensusState] = []

    def begin_round(self, k: int, assignment: int,
                    ) -> list[tuple[int, int, Mass]]:
        """Take ``assignment``, the label of the centroid nearest to the
        observation among the round's ``k`` (``assign_cluster``), inject
        labeled masses (the observation with a unit counter under its own
        label, an empty mass elsewhere), and return the initial transmissions
        (cluster label, destination, mass).  The injected mass ``x/1`` is
        what the node holds when the round's first window opens; it leaves
        on the initial transmission immediately after.  The engine
        (``sim._LockStep``) opens a round the same way on instances it
        builds itself; the tests hold it to this."""
        if not (0 <= assignment < k):
            raise ValueError(
                f"cluster index {assignment} out of range for k={k}")
        self.assignment = assignment
        messages: list[tuple[int, int, Mass]] = []
        self.instances = []
        zero = (0,) * len(self.x)
        for cl in range(k):
            y0, z0 = (self.x, 1) if cl == assignment else (zero, 0)
            state, initial = ConsensusState.create(y0, z0, self.targets)
            self.instances.append(state)
            if initial is not None:
                messages.append((cl, initial[0], initial[1]))
        return messages

    def held_snapshot_values(self) -> list[Optional[FractionVector]]:
        """The node's own window snapshot: per label, the reduced ratio of
        the mass it holds right now, None where it holds no counter mass.
        The flood-reference tests rebuild every node's snapshot from the
        engine's held pairs and compare it with this one."""
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
        mass) transmissions.  The per-node form of what the engine's
        ``_LockStep.emit`` does in place; the tests hold it to this."""
        out = []
        for cl in labels:
            state = self.instances[cl]
            if state.trigger():
                target, mass = state.emit()
                out.append((cl, target, mass))
        return out


def _read_rows(text: str, read, bad_token: str, what: str) -> list[list]:
    """The non-blank lines of ``text``, each as its tokens read by ``read``.
    A token ``read`` rejects raises ``line N: <bad_token>``; every line must
    have as many tokens as the first."""
    rows: list[list] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            row = [read(tok) for tok in raw.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: {bad_token}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(
                f"line {lineno}: expected {len(rows[0])} coordinates")
        rows.append(row)
    if not rows:
        raise ValueError(f"no {what} found")
    return rows


def parse_observations(text: str) -> list[tuple[int, ...]]:
    """One observation per line: d integers separated by whitespace."""
    return [tuple(row) for row in _read_rows(
        text, int, "observations must be integers", "observations")]


def _parse_coordinate(token: str) -> tuple[int, int]:
    """``num/den`` or a plain integer as ``(num, den)``.  Only ``int`` reads
    the halves, so decimals, exponents and empty halves are rejected."""
    num, slash, den = token.partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError("zero denominator")
    return int(num), den


def parse_centroids(text: str) -> list[FractionVector]:
    """One centroid per line: d tokens, each ``num/den`` or a plain integer."""
    rows = []
    for parts in _read_rows(text, _parse_coordinate,
                            "bad centroid coordinate", "centroids"):
        den = prod(d for _, d in parts)
        nums = tuple(n * (den // d) for n, d in parts)
        rows.append(FractionVector(nums, den).reduced())
    return rows
