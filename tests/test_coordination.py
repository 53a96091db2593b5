import random

import pytest

from quantkmeans import sim
from quantkmeans.consensus import ConsensusState
from quantkmeans.coordination import extrema_merge, snapshot, window_check
from quantkmeans.exactmath import FractionVector
from quantkmeans.graph import diameter, generate_random_digraph
from quantkmeans.kmeans import NodeKMeansState

from conftest import agreed_pairs, cycle_digraph, flood_verdict


def fv(*nums, den=1):
    return FractionVector(tuple(nums), den)


class TestSnapshot:
    def test_present_value_seeds_both_extrema(self):
        state = snapshot([fv(7, den=2), None])
        assert state[0] is not None and state[1] is None
        entry = state[0]
        assert entry.upper == fv(7, den=2) and entry.lower == fv(7, den=2)

    def test_all_absent(self):
        state = snapshot([None, None, None])
        assert all(e is None for e in state)

    def test_vector_value(self):
        state = snapshot([fv(9, 12, den=3)])
        assert state[0].upper == fv(3, 4)


class TestMerge:
    def test_maximum_wins(self):
        own = snapshot([fv(3)])
        other = snapshot([fv(7, den=2)])
        merged = extrema_merge(own, [other])
        assert merged[0].upper == fv(7, den=2)
        assert merged[0].lower == fv(3)

    def test_undefined_adopts_defined(self):
        own = snapshot([None])
        other = snapshot([fv(5)])
        merged = extrema_merge(own, [other])
        assert merged[0] == other[0]

    def test_per_dimension_extrema(self):
        own = snapshot([fv(1, 5)])
        other = snapshot([fv(2, 3)])
        merged = extrema_merge(own, [other])
        assert merged[0].upper == fv(2, 5)
        assert merged[0].lower == fv(1, 3)

    def test_merge_with_nothing_or_itself_keeps_own_values(self):
        own = snapshot([fv(1, 5)])
        assert extrema_merge(own, []) == own
        assert extrema_merge(own, [own]) == own

    def test_order_independent(self):
        states = [snapshot([fv(3, 1)]), snapshot([fv(1, 4)]), snapshot([None])]
        a = extrema_merge(states[0], [states[1], states[2]])
        b = extrema_merge(states[0], [states[2], states[1]])
        assert a[0].upper == b[0].upper
        assert a[0].lower == b[0].lower


class TestWindowCheck:
    def test_agreed(self):
        state = snapshot([fv(3, 4)])
        assert window_check(state) == (fv(3, 4),)

    def test_disagreed_on_any_dimension(self):
        own = snapshot([fv(3, 4)])
        merged = extrema_merge(own, [snapshot([fv(3, 7, den=2)])])
        # second dimension differs: 4 vs 7/2
        assert window_check(merged) is None

    def test_empty(self):
        assert window_check(snapshot([None])) == (None,)


class TestFloodedExtremaMatchDirectComputation:
    def test_random_graphs(self):
        rng = random.Random(123)
        for _ in range(20):
            n = rng.randint(4, 20)
            g = generate_random_digraph(n, rng.choice([0.0, 0.2]),
                                        seed=rng.randint(0, 10 ** 6))
            rounds = diameter(g)
            values = []
            for _ in range(n):
                if rng.random() < 0.3:
                    values.append(None)
                else:
                    values.append(fv(rng.randint(-50, 50), rng.randint(-50, 50)))
            if all(v is None for v in values):
                values[0] = fv(1, 1)
            states = [snapshot([v]) for v in values]
            for _ in range(rounds):
                states = [
                    extrema_merge(states[j],
                                  [states[i] for i in g.in_neighbors(j)])
                    for j in range(n)
                ]
            present = [v for v in values if v is not None]
            import fractions
            for dim in range(2):
                coords = [fractions.Fraction(v.nums[dim], v.den) for v in present]
                hi, lo = max(coords), min(coords)
                for state in states:
                    entry = state[0]
                    up = entry.upper.components()[dim]
                    down = entry.lower.components()[dim]
                    assert fractions.Fraction(up.numerator, up.denominator) == hi
                    assert fractions.Fraction(down.numerator, down.denominator) == lo


def fold_verdict(snapshots):
    """The max/min consensus of one window folded over all nodes'
    snapshots; the simulator's equality verdict must match it."""
    return window_check(extrema_merge(snapshots[0], snapshots[1:]))


def held_pairs(columns):
    """The (*y, z) pairs ``sim._window_verdict`` reads, by (node, label), for
    per-label columns of snapshot values; an absent value holds nothing."""
    return {(j, cl): (*v.nums, v.den)
            for j, row in enumerate(zip(*columns))
            for cl, v in enumerate(row) if v is not None}


def label_values(rng, n, mode):
    """One label's snapshot value at each of n nodes.  Present values are
    negative, small or around 10^30; agreeing nodes build the common ratio
    from different unreduced pairs."""
    if mode == "absent":
        return [None] * n
    scale = rng.choice([1, 10 ** 30])
    base = (rng.randint(-50, 50) * scale + rng.randint(-3, 3),
            rng.randint(-50, 50) * scale)
    den = rng.randint(1, 9)
    values = []
    for _ in range(n):
        if rng.random() < 0.3:
            values.append(None)
            continue
        if mode == "agree":
            f = rng.randint(1, 6)
            value = fv(base[0] * f, base[1] * f, den=den * f)
        else:
            value = fv(base[0] + rng.randint(-1, 1), base[1], den=den)
        values.append(value.reduced() if rng.random() < 0.7 else value)
    return values


class TestFoldMatchesReferenceFlood:
    """``sim._window_verdict`` (all held ratios equal) against the max/min
    fold and the node-by-node flood over the snapshots of the same held
    pairs."""

    @pytest.mark.parametrize("extra_rounds", [0, 2])
    def test_random_digraphs(self, extra_rounds):
        rng = random.Random(4242 + extra_rounds)
        seen = {"agreed": 0, "disagreed": 0, "empty": 0}
        for _ in range(40):
            n = rng.randint(3, 16)
            g = generate_random_digraph(n, rng.choice([0.0, 0.1, 0.3]),
                                        seed=rng.randint(0, 10 ** 6))
            in_nbrs = [g.in_neighbors(j) for j in range(n)]
            k = rng.randint(1, 4)
            columns = [label_values(rng, n, rng.choice(
                ["agree", "agree", "spread", "absent"])) for _ in range(k)]
            snapshots = [snapshot([col[j] for col in columns])
                         for j in range(n)]
            expected = sim._window_verdict(k, held_pairs(columns))
            assert fold_verdict(snapshots) == expected
            assert flood_verdict(in_nbrs, snapshots,
                                 diameter(g) + extra_rounds) == expected
            if expected is None:
                seen["disagreed"] += 1
            else:
                for value in expected:
                    seen["empty" if value is None else "agreed"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("columns, expected", [
        # 2/4, 1/2 and 3/6 are one ratio built from different pairs
        ([[fv(2, den=4), fv(1, den=2), None, fv(3, den=6)]],
         (fv(1, den=2),)),
        ([[None] * 4, [None] * 4], (None, None)),
        # only the last holder differs, and only in its second dimension
        ([[fv(3, -1, den=2), fv(6, -2, den=4), None, fv(3, -3, den=2)],
          [fv(5), None, None, fv(5)]],
         None),
    ])
    def test_fixed_cases(self, columns, expected):
        g = cycle_digraph(4)
        in_nbrs = [g.in_neighbors(j) for j in range(4)]
        snapshots = [snapshot([None if col[j] is None else col[j].reduced()
                               for col in columns]) for j in range(4)]
        assert flood_verdict(in_nbrs, snapshots, diameter(g)) \
            == fold_verdict(snapshots) \
            == sim._window_verdict(len(columns), held_pairs(columns)) \
            == expected

    def test_agreed_value_is_the_reduced_ratio(self):
        # Three holders hold one ratio, (3/2, -1), as different unreduced
        # mass pairs; a fourth holds nothing.  The certified value must be
        # the reduced vector, as the fold over the nodes' own snapshots
        # gives it, not the first pair.
        pairs = [((6, -4), 4), ((9, -6), 6), ((3, -2), 2), ((0, 0), 0)]
        nodes = []
        for y, z in pairs:
            node = NodeKMeansState((0, 0), (0,))
            state = ConsensusState(2, (0,))
            state.held_y, state.held_z = y, z
            node.instances = [state]
            nodes.append(node)
        snapshots = [snapshot(node.held_snapshot_values()) for node in nodes]
        verdict = sim._window_verdict(1, {(j, 0): (*y, z) for j, (y, z)
                                          in enumerate(pairs) if z})
        assert verdict == fold_verdict(snapshots) \
            == (fv(3, -2, den=2),)
        assert agreed_pairs(verdict) == agreed_pairs(fold_verdict(snapshots)) \
            == [((3, -2), 2)]

    def test_rounds_below_diameter_diverge(self):
        g = cycle_digraph(4)
        in_nbrs = [g.in_neighbors(j) for j in range(4)]
        snapshots = [snapshot([fv(v)]) for v in (1, 1, 1, 2)]
        with pytest.raises(ValueError, match="diverged"):
            flood_verdict(in_nbrs, snapshots, 1)
