import random

import pytest

from quantkmeans import sim
from quantkmeans.coordination import extrema_merge, window_check
from quantkmeans.graph import Digraph


def cycle_digraph(n: int) -> Digraph:
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return Digraph(n, [((i + 1) % n, i) for i in range(n)])


def complete_digraph(n: int) -> Digraph:
    return Digraph(n, [(j, i) for i in range(n) for j in range(n) if i != j])


def agreed_pairs(verdict):
    """The (nums, den) form of every certified value in a window verdict;
    a window that does not close certifies none."""
    return [(v.nums, v.den) for v in verdict or () if v is not None]


def flood_verdict(in_nbrs, snapshots, rounds):
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

    def long_round(x, targets, k, assignments, window, m_edges, *args):
        steps, *rest = run_round(x, targets, k, assignments, window, m_edges,
                                 *args)
        return (steps + len(x) * m_edges ** 2 + window, *rest)

    monkeypatch.setattr(sim._LockStep, "deliver", slow_deliver)
    monkeypatch.setattr(sim, "_run_round", long_round)


@pytest.fixture
def delivery_leak(monkeypatch):
    """Every step's delivery gains one counter unit: it is added to the
    first (node, label) pair the delivery just touched."""
    deliver = sim._LockStep.deliver

    def leaky(self):
        received = deliver(self)
        if received:
            j, cl = received[0]
            self.instances[j][cl].held_z += 1
        return received

    monkeypatch.setattr(sim._LockStep, "deliver", leaky)
