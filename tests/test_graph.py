import random

import pytest

from quantkmeans.graph import (Digraph, EdgeOrdering, assign_edge_orders,
                               diameter, generate_random_digraph,
                               is_strongly_connected, parse_edge_list,
                               serialize_edge_list)

from conftest import (NOT_STRONGLY_CONNECTED, complete_digraph, cycle_digraph,
                      ladder_digraph)

# digraphs in which some node cannot reach another
DISCONNECTED = [
    pytest.param(Digraph(3, []), id="no-edges"),
    pytest.param(Digraph(3, [(1, 0), (2, 1)]), id="one-way-chain"),
    pytest.param(Digraph(3, [(1, 0), (0, 1)]), id="node-2-isolated"),
    pytest.param(Digraph(3, [(1, 0), (0, 1), (2, 1)]), id="node-2-a-sink"),
    pytest.param(Digraph(3, [(1, 0), (0, 1), (0, 2)]), id="node-2-a-source"),
    pytest.param(Digraph(4, [(1, 0), (2, 1), (0, 2), (3, 2)]),
                 id="a-cycle-into-3"),
    pytest.param(Digraph(4, [(1, 0), (3, 2)]), id="disjoint-edges"),
]


def bfs_diameter(g: Digraph) -> int | None:
    """Per-source BFS oracle: the largest hop count over all sources, or
    None when some node cannot reach another."""
    best = 0
    for source in range(g.n):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.out_neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) < g.n:
            return None
        best = max(best, max(dist.values()))
    return best


def generate_by_pair_lookup(n: int, p: float, seed: int) -> set:
    """The generator's edge set as first written: a per-pair loop that skips
    self-pairs and the cycle's edges by looking each pair up in the set."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set()
    for idx in range(n):
        edges.add((perm[(idx + 1) % n], perm[idx]))
    for sender in range(n):
        for receiver in range(n):
            if receiver == sender or (receiver, sender) in edges:
                continue
            if rng.random() < p:
                edges.add((receiver, sender))
    return edges


class TestConnectivity:
    @pytest.mark.parametrize("g", [
        pytest.param(Digraph(1, []), id="single-node"),
        pytest.param(cycle_digraph(3), id="cycle"),
        pytest.param(complete_digraph(4), id="complete")])
    def test_strongly_connected(self, g):
        assert is_strongly_connected(g) is True

    @pytest.mark.parametrize("g", DISCONNECTED)
    def test_not_strongly_connected_never_raises(self, g):
        assert is_strongly_connected(g) is False


class TestDiameter:
    def test_directed_cycle(self):
        for n in (2, 3, 4, 10, 64, 65, 300):
            assert diameter(cycle_digraph(n)) == n - 1

    def test_complete(self):
        for n in range(2, 12):
            g = complete_digraph(n)
            assert diameter(g) == 1 == bfs_diameter(g)

    def test_single_node(self):
        assert diameter(Digraph(1, [])) == 0

    def test_cycle_with_chord(self):
        # 5-cycle plus the shortcut 0 -> 2
        g = Digraph(5, [((i + 1) % 5, i) for i in range(5)] + [(2, 0)])
        assert diameter(g) == 4
        assert diameter(g) == bfs_diameter(g)

    @pytest.mark.parametrize("g", DISCONNECTED)
    def test_rejects_disconnected(self, g):
        with pytest.raises(ValueError) as exc:
            diameter(g)
        assert str(exc.value) == NOT_STRONGLY_CONNECTED

    @pytest.mark.parametrize("n", range(4, 25))
    def test_ladder_matches_per_source_bfs(self, n):
        g = ladder_digraph(n)
        assert diameter(g) == bfs_diameter(g)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.2, 0.6])
    def test_random_digraphs_match_the_oracle(self, p):
        for n in range(3, 41):
            for seed in range(3):
                g = generate_random_digraph(n, p, seed=1000 * n + seed)
                assert diameter(g) == bfs_diameter(g)

    def test_random_not_strongly_connected_graphs_raise(self):
        rng = random.Random(11)
        seen = 0
        for _ in range(200):
            n = rng.randint(2, 12)
            g = Digraph(n, [(j, i) for i in range(n) for j in range(n)
                            if i != j and rng.random() < 0.25])
            expected = bfs_diameter(g)
            assert is_strongly_connected(g) is (expected is not None)
            if expected is not None:
                assert diameter(g) == expected
                continue
            seen += 1
            with pytest.raises(ValueError) as exc:
                diameter(g)
            assert str(exc.value) == NOT_STRONGLY_CONNECTED
        assert seen > 100


class TestGeneration:
    def test_zero_probability_gives_bare_cycle(self):
        g = generate_random_digraph(5, 0.0, seed=7)
        assert g.m == 5
        assert is_strongly_connected(g)

    def test_probability_one_gives_complete(self):
        g = generate_random_digraph(5, 1.0, seed=7)
        assert g.m == 20

    def test_large_sparse_graph_is_strongly_connected(self):
        g = generate_random_digraph(100, 0.05, seed=1)
        assert is_strongly_connected(g)

    def test_every_generated_graph_is_strongly_connected(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(3, 40)
            g = generate_random_digraph(n, rng.random(), seed=rng.randint(0, 10 ** 6))
            assert is_strongly_connected(g)
            assert n <= g.m <= n * (n - 1)

    def test_deterministic_for_fixed_seed(self):
        a = generate_random_digraph(20, 0.2, seed=11)
        b = generate_random_digraph(20, 0.2, seed=11)
        assert a == b

    @pytest.mark.parametrize("n", [3, 4, 15, 45, 200])
    def test_draw_for_draw_equal_to_the_pair_lookup_loop(self, n):
        for p in (0, 0.005, 0.1, 0.5, 1.0):
            for seed in range(5):
                assert generate_random_digraph(n, p, seed).edges == \
                    generate_by_pair_lookup(n, p, seed)

    def test_paper_scale_graph_is_pinned(self):
        g = generate_random_digraph(1000, 0.005, 1)
        assert (g.m, diameter(g)) == (5987, 8)

    def test_rejects_tiny_node_counts(self):
        with pytest.raises(ValueError):
            generate_random_digraph(2, 0.5, seed=1)

    @pytest.mark.parametrize("p", [1.5, -0.1, "0.5", True, None])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError) as exc:
            generate_random_digraph(5, p, seed=1)
        assert str(exc.value) == \
            f"extra_edge_probability must lie in [0, 1], not {p!r}"


class TestEdgeOrders:
    def test_ascending_id_rule(self):
        g = Digraph(4, [(3, 0), (1, 0), (0, 1), (0, 3), (2, 0), (0, 2), (3, 2), (2, 3)])
        orders = assign_edge_orders(g)
        assert orders.targets(0) == (1, 2, 3)

    def test_single_out_neighbor(self):
        orders = assign_edge_orders(cycle_digraph(3))
        assert orders.targets(0) == (1,)

    def test_orders_that_are_not_a_bijection_rejected(self):
        with pytest.raises(ValueError) as exc:
            EdgeOrdering({0: {1: 0, 2: 0}})
        assert str(exc.value) == "orders at node 0 are not a bijection onto 0..1"

    def test_bijection_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(100):
            g = generate_random_digraph(rng.randint(3, 25), rng.random(),
                                        seed=rng.randint(0, 10 ** 6))
            for seed in (None, 13):
                orders = assign_edge_orders(g, seed=seed)
                for j in range(g.n):
                    assert sorted(orders.targets(j)) == \
                        list(g.out_neighbors(j))

    def test_deterministic(self):
        g = generate_random_digraph(15, 0.3, seed=2)
        a = assign_edge_orders(g)
        b = assign_edge_orders(g)
        assert [a.targets(j) for j in range(g.n)] == \
               [b.targets(j) for j in range(g.n)]


class TestEdgeListFormat:
    def test_parse_three_cycle(self):
        # a blank line between edges is skipped; the edges come in another
        # order than cycle_digraph gives them, so the graph and its hash
        # must not depend on the order
        g = parse_edge_list("3 3\n1 0\n\n0 2\n2 1\n")
        assert g == cycle_digraph(3) and hash(g) == hash(cycle_digraph(3))
        assert g.__eq__(g.edges) is NotImplemented and g != g.edges
        assert repr(g) == "Digraph(n=3, m=3)"

    def test_round_trip_on_random_graphs(self):
        rng = random.Random(9)
        for _ in range(50):
            g = generate_random_digraph(rng.randint(3, 20), rng.random(),
                                        seed=rng.randint(0, 10 ** 6))
            assert parse_edge_list(serialize_edge_list(g)) == g

    def test_serialize_deterministic(self):
        g = generate_random_digraph(12, 0.4, seed=4)
        assert serialize_edge_list(g) == serialize_edge_list(
            generate_random_digraph(12, 0.4, seed=4))

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: Digraph(0, []), "node count must be positive",
                     id="no-nodes"),
        pytest.param(lambda: Digraph(3, [(1, 1)]), "self-loop at node 1",
                     id="self-loop"),
        pytest.param(lambda: Digraph(3, [(3, 0)]),
                     "edge (3, 0) out of range for n=3", id="out-of-range"),
        pytest.param(lambda: parse_edge_list("\n1 0\n"),
                     "line 1: expected header 'n m'", id="blank-header"),
        pytest.param(lambda: parse_edge_list("3 2 1\n"),
                     "line 1: expected header 'n m'", id="long-header"),
        pytest.param(lambda: parse_edge_list("3 2\n1 0\n\n2 x\n"),
                     "line 4: node ids must be integers",
                     id="non-integer-id-after-a-blank-line"),
        pytest.param(lambda: parse_edge_list("3 1\n1 0 9\n"),
                     "line 2: expected 'receiver sender'",
                     id="malformed-line"),
        pytest.param(lambda: parse_edge_list("2 1\n0 0\n"),
                     "line 2: self-loop at node 0", id="self-loop-line"),
        pytest.param(lambda: parse_edge_list("3 2\n1 0\n5 1\n"),
                     "line 3: node id out of range for n=3",
                     id="out-of-range-line"),
        pytest.param(lambda: parse_edge_list("3 2\n1 0\n1 0\n"),
                     "line 3: duplicate edge (1, 0)", id="duplicate-edge"),
        pytest.param(lambda: parse_edge_list("3 3\n1 0\n2 1\n"),
                     "header declares 3 edges but 2 were given",
                     id="count-mismatch"),
    ])
    def test_bad_input_is_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
