"""Centralized reference implementations used to validate the protocols.

The Lloyd reference reuses the library's exact ``assign_cluster`` and this
module's ``brute_average``, so a divergence between it and a distributed run
isolates a protocol bug rather than arithmetic drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactmath import FractionVector
from .kmeans import assign_cluster


def brute_average(vectors: Sequence[Sequence[int]]) -> FractionVector:
    """Sum over count, exact and unreduced."""
    if not vectors:
        raise ValueError("average of an empty collection")
    dim = len(vectors[0])
    sums = [0] * dim
    for v in vectors:
        if len(v) != dim:
            raise ValueError("dimension mismatch")
        for i, value in enumerate(v):
            sums[i] += value
    return FractionVector(tuple(sums), len(vectors))


@dataclass
class LloydResult:
    centroid_sets: list[tuple[FractionVector, ...]]  # T = 0 .. rounds run
    T: int
    terminated: bool


def lloyd_reference(observations: Sequence[Sequence[int]],
                    initial_centroids: Sequence[FractionVector],
                    max_rounds: int = 100,
                    tie_break: str = "low") -> LloydResult:
    """Centralized alternation of assignment and exact refinement.

    Empty clusters carry their centroid forward.  The loop stops at the first
    round whose calculated centroids equal the previous round's calculation;
    the initial guess itself never counts as a calculation.  Each round's
    centroids are a tuple; an empty initial guess is rejected.
    """
    current = tuple(initial_centroids)
    if not current:
        raise ValueError("at least one centroid is required")
    sets = [current]
    terminated = False
    T = 0
    while T < max_rounds and not terminated:
        T += 1
        labels = [assign_cluster(x, current, tie_break=tie_break)
                  for x in observations]
        members: list[list[Sequence[int]]] = [[] for _ in current]
        for x, label in zip(observations, labels):
            members[label].append(x)
        new = []
        for cl in range(len(current)):
            if members[cl]:
                new.append(brute_average(members[cl]))
            else:
                new.append(current[cl])
        updated = tuple(new)
        sets.append(updated)
        if T >= 2 and updated == current:
            terminated = True
        current = updated
    return LloydResult(sets, T, terminated)


@dataclass
class EquivalenceReport:
    passed: bool
    detail: str = ""


def check_equivalence(trace, oracle: LloydResult) -> EquivalenceReport:
    """Round-by-round comparison of a distributed trace against the reference:
    both must produce the same number of calculations and exactly equal
    centroid values at every round.  ``detail`` names the first round and
    cluster that differ, or else the two calculation counts."""
    for r, reference in zip(trace.rounds, oracle.centroid_sets):
        for cl, (a, b) in enumerate(zip(r.centroids, reference)):
            if a != b:
                return EquivalenceReport(
                    False, f"round {r.T} cluster {cl}: distributed "
                           f"{a} vs reference {b}")
    if trace.T != oracle.T:
        return EquivalenceReport(
            False, f"calculation counts differ: distributed T={trace.T}, "
                   f"reference T={oracle.T}")
    return EquivalenceReport(True, "identical centroid sequences")
