import random
from operator import add

import pytest

from quantkmeans import sim
from quantkmeans.coordination import extrema_merge, window_check
from quantkmeans.exactmath import FractionVector
from quantkmeans.graph import Digraph

NOT_STRONGLY_CONNECTED = (
    "diameter is undefined: graph is not strongly connected")


def fv(*nums, den=1):
    return FractionVector(tuple(nums), den)


def cycle_digraph(n: int) -> Digraph:
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return Digraph(n, [((i + 1) % n, i) for i in range(n)])


def complete_digraph(n: int) -> Digraph:
    return Digraph(n, [(j, i) for i in range(n) for j in range(n) if i != j])


def ladder_digraph(n):
    """The chain 0 -> 1 -> ... -> n-2 -> s with s = n-1, where s sends to 0
    and every chain node but n-2 also sends to s.  Under the canonical
    orders every chain rotor points back to s after its first send, so the
    merged mass rarely walks far along the chain: both step bounds fail."""
    s = n - 1
    edges = [(i + 1, i) for i in range(n - 2)] + [(s, n - 2), (0, s)]
    return Digraph(n, edges + [(s, i) for i in range(n - 2)])


def eight_node_counterexample():
    """An 8-node digraph (m=28, D=7) and integer values on which both step
    bounds fail under the canonical orders: the smallest overshoot a local
    search over edges and values found."""
    edges = [(0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3),
             (2, 4), (2, 5), (2, 6), (3, 2), (3, 4), (3, 6), (4, 6), (5, 1),
             (5, 2), (5, 3), (5, 4), (5, 6), (6, 3), (6, 4), (7, 0), (7, 1),
             (7, 2), (7, 4), (7, 5), (7, 6)]
    return Digraph(8, edges), [(v,) for v in (3, 1, 0, 2, 2, 0, 2, 0)]


def agreed_pairs(verdict):
    """The (nums, den) form of every certified value in a window verdict;
    a window that does not close certifies none."""
    return [(v.nums, v.den) for v in verdict or () if v is not None]


def flood(g, states, rounds):
    """The max/min consensus as the protocol floods it: for ``rounds``
    synchronous rounds every node of ``g`` merges the extrema of its
    in-neighbors, in ascending id, into its own.  Returns every node's
    state."""
    in_nbrs = [[] for _ in range(g.n)]
    for j, i in sorted(g.edges):
        in_nbrs[j].append(i)
    states = list(states)
    for _ in range(rounds):
        states = [extrema_merge(states[j], [states[i] for i in in_nbrs[j]])
                  for j in range(g.n)]
    return states


def flood_verdict(g, snapshots, rounds):
    """Reference for one stopping window as the protocol runs it: the nodes
    ``flood`` their snapshots for ``rounds`` rounds, then each closes the
    window on its own state.  Returns the verdict all nodes reached; raises
    ValueError when two nodes reach different verdicts, which ``rounds``
    below the diameter can cause."""
    verdicts = [window_check(state) for state in flood(g, snapshots, rounds)]
    if any(v != verdicts[0] for v in verdicts):
        raise ValueError("stopping verdicts diverged across nodes")
    return verdicts[0]


def fold_verdict(snapshots):
    """The max/min consensus of one window folded over all nodes'
    snapshots; the simulator's equality verdict must match it."""
    return window_check(extrema_merge(snapshots[0], snapshots[1:]))


def held_pairs(lock):
    """Every nonzero held ``(*y, z)`` of a ``sim._LockStep`` by (node,
    label), read from its instances: what the engine's ``held`` must
    equal after each conservation check."""
    return {(j, cl): (*st.held_y, st.held_z)
            for j, row in enumerate(lock.instances)
            for cl, st in enumerate(row) if st.held_z or any(st.held_y)}


def held_sums(lock):
    """Per label, the sum of ``held_pairs(lock)``."""
    sums = [(0,) * len(total) for total in lock.totals]
    for (_, cl), pair in held_pairs(lock).items():
        sums[cl] = tuple(map(add, sums[cl], pair))
    return sums


def balanced(lock):
    """The whole-state conservation check: whether the held pairs plus the
    masses in flight sum, label by label, to ``lock.totals``, the mass the
    round injected."""
    sums = held_sums(lock)
    for _, cl, mass in lock.pending:
        sums[cl] = tuple(map(add, sums[cl], (*mass.y, mass.z)))
    return sums == lock.totals


def add_held(lock, j, cl):
    """Add one counter unit to the held pair of node ``j`` under label
    ``cl``, behind the engine's back.  The one place a test writes a held
    pair of a ``sim._LockStep``."""
    lock.instances[j][cl].held_z += 1


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

    def long_round(x, targets, k, assignments, window, step_bound, *args):
        steps, *rest = run_round(x, targets, k, assignments, window,
                                 step_bound, *args)
        return (steps + step_bound, *rest)

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
            add_held(self, *received[0])
        return received

    monkeypatch.setattr(sim._LockStep, "deliver", leaky)
