import random

import pytest

from quantkmeans import sim
from quantkmeans.coordination import Agreed
from quantkmeans.graph import Digraph


def cycle_digraph(n: int) -> Digraph:
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return Digraph(n, [((i + 1) % n, i) for i in range(n)])


def complete_digraph(n: int) -> Digraph:
    return Digraph(n, [(j, i) for i in range(n) for j in range(n) if i != j])


def agreed_pairs(verdict):
    """The (nums, den) form of every agreed value in a window verdict."""
    return [(o.value.nums, o.value.den) for o in verdict
            if isinstance(o, Agreed)]


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def over_step_bound(monkeypatch):
    """Runs overshoot their step bound: every message spends eight steps in
    flight, and every clustering round reports n*m^2 + D extra steps, its
    whole share of the bound."""
    deliver = sim._LockStep.deliver

    def slow_deliver(self):
        if self.steps % 8:
            self.steps += 1
            return []
        return deliver(self)

    run_round = sim._run_round

    def long_round(nodes, centroids, assignments, window, m_edges, *args):
        steps, *rest = run_round(nodes, centroids, assignments, window,
                                 m_edges, *args)
        return (steps + len(nodes) * m_edges ** 2 + window, *rest)

    monkeypatch.setattr(sim._LockStep, "deliver", slow_deliver)
    monkeypatch.setattr(sim, "_run_round", long_round)
