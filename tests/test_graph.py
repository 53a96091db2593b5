import random

import pytest

from quantkmeans.graph import (Digraph, EdgeOrdering, assign_edge_orders,
                               diameter, generate_random_digraph,
                               is_strongly_connected, parse_edge_list,
                               serialize_edge_list)

from conftest import complete_digraph, cycle_digraph


def floyd_warshall_diameter(g: Digraph) -> int:
    """Independent all-pairs shortest path oracle."""
    big = 10 ** 9
    n = g.n
    dist = [[big] * n for _ in range(n)]
    for j in range(n):
        dist[j][j] = 0
    for receiver, sender in g.edges:
        dist[sender][receiver] = 1
    for mid in range(n):
        dm = dist[mid]
        for a in range(n):
            da = dist[a]
            via = da[mid]
            if via >= big:
                continue
            for b in range(n):
                cand = via + dm[b]
                if cand < da[b]:
                    da[b] = cand
    best = max(max(row) for row in dist)
    assert best < big, "oracle input must be strongly connected"
    return best


class TestConnectivity:
    def test_cycle_is_strongly_connected(self):
        assert is_strongly_connected(cycle_digraph(3))

    def test_disjoint_edges_are_not(self):
        g = Digraph(4, [(1, 0), (3, 2)])
        assert not is_strongly_connected(g)

    def test_complete_digraph(self):
        assert is_strongly_connected(complete_digraph(4))

    def test_one_way_chain(self):
        g = Digraph(3, [(1, 0), (2, 1)])
        assert not is_strongly_connected(g)


class TestDiameter:
    def test_directed_cycle(self):
        assert diameter(cycle_digraph(4)) == 3

    def test_complete(self):
        for n in (3, 5, 8):
            assert diameter(complete_digraph(n)) == 1

    def test_cycle_with_chord(self):
        # 5-cycle plus the shortcut 0 -> 2
        g = Digraph(5, [((i + 1) % 5, i) for i in range(5)] + [(2, 0)])
        assert diameter(g) == 4
        assert diameter(g) == floyd_warshall_diameter(g)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            diameter(Digraph(3, [(1, 0), (2, 1)]))

    def test_agrees_with_all_pairs_oracle_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(4, 30)
            g = generate_random_digraph(n, rng.choice([0.0, 0.05, 0.2, 0.5]),
                                        seed=rng.randint(0, 10 ** 6))
            assert diameter(g) == floyd_warshall_diameter(g)


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

    def test_rejects_tiny_node_counts(self):
        with pytest.raises(ValueError):
            generate_random_digraph(2, 0.5, seed=1)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            generate_random_digraph(5, 1.5, seed=1)


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
        g = parse_edge_list("3 3\n1 0\n2 1\n0 2\n")
        assert g == cycle_digraph(3)

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

    def test_self_loop_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("2 1\n0 0\n")

    def test_out_of_range_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("3 2\n1 0\n5 1\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("3 1\n1 0 9\n")

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_edge_list("3 2\n1 0\n1 0\n")

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="declares"):
            parse_edge_list("3 3\n1 0\n2 1\n")
