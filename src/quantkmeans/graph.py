"""Static strongly connected digraphs and their round-robin edge orders.

Edges follow the receive convention: the pair ``(j, i)`` means node j can
receive from node i, i.e. a directed link i -> j.  Node identifiers are
0-based dense integers.
"""

from __future__ import annotations

import random
from typing import Iterable


class Digraph:
    """Immutable directed graph without self-loops.

    Out-neighbor lists are precomputed and sorted so that every traversal
    of the graph is deterministic.
    """

    __slots__ = ("n", "edges", "_out")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("node count must be positive")
        edge_set = frozenset((int(j), int(i)) for j, i in edges)
        for j, i in edge_set:
            if j == i:
                raise ValueError(f"self-loop at node {j}")
            if not (0 <= j < n and 0 <= i < n):
                raise ValueError(f"edge ({j}, {i}) out of range for n={n}")
        outs: list[list[int]] = [[] for _ in range(n)]
        for j, i in edge_set:
            outs[i].append(j)
        self.n = n
        self.edges = edge_set
        self._out = tuple(tuple(sorted(v)) for v in outs)

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_neighbors(self, j: int) -> tuple[int, ...]:
        return self._out[j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


class EdgeOrdering:
    """Each node's round-robin target list, given as a per-node bijection
    from out-neighbors to orders 0..out_degree-1.

    ``targets(j)[e]`` is the out-neighbor of j that holds order e, i.e. the
    destination of j's transmission when its round-robin pointer equals e.
    A node the orders do not name has no targets.
    """

    __slots__ = ("_targets",)

    def __init__(self, orders: dict[int, dict[int, int]]):
        self._targets = {}
        for j, by_neighbor in orders.items():
            slots = sorted(by_neighbor, key=by_neighbor.__getitem__)
            if [by_neighbor[t] for t in slots] != list(range(len(slots))):
                raise ValueError(f"orders at node {j} are not a bijection onto "
                                 f"0..{len(by_neighbor) - 1}")
            self._targets[j] = tuple(slots)

    def targets(self, j: int) -> tuple[int, ...]:
        return self._targets.get(j, ())


def diameter(g: Digraph) -> int:
    """Longest shortest directed path over all ordered node pairs.

    Every node's reachable set is a Python int with bit ``v`` for node v.
    Level 0 holds each node alone; each level ORs in the out-neighbors'
    previous sets, so after level L a node's set holds exactly what it
    reaches within L hops, and the diameter is the first level at which
    every set is full.  A level that adds nothing before then means some
    node cannot reach another: the graph is not strongly connected."""
    full = (1 << g.n) - 1
    outs = [g.out_neighbors(v) for v in range(g.n)]
    reach = [1 << v for v in range(g.n)]
    level = 0
    while any(r != full for r in reach):
        grown = []
        for r, nbrs in zip(reach, outs):
            if r != full:
                for u in nbrs:
                    r |= reach[u]
            grown.append(r)
        if grown == reach:
            raise ValueError(
                "diameter is undefined: graph is not strongly connected")
        reach = grown
        level += 1
    return level


def is_strongly_connected(g: Digraph) -> bool:
    """Whether every node reaches every other: ``diameter``'s pass ends."""
    try:
        return diameter(g) >= 0
    except ValueError:
        return False


def check_edge_probability(p: float) -> None:
    """The extra-edge probability is an ``int`` or ``float`` in [0, 1]."""
    if type(p) not in (int, float) or not 0 <= p <= 1:
        raise ValueError(
            f"extra_edge_probability must lie in [0, 1], not {p!r}")


def generate_random_digraph(n: int, extra_edge_probability: float,
                            seed: int) -> Digraph:
    """Random strongly connected digraph: a Hamiltonian directed cycle over a
    seeded node permutation guarantees connectivity, then every remaining
    ordered pair is included independently with the given probability."""
    if n <= 2:
        raise ValueError("node count must exceed 2")
    check_edge_probability(extra_edge_probability)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    # succ[i]: the node i sends to on the cycle; each other ordered pair
    # draws once, senders and then receivers in ascending id
    succ = [0] * n
    for idx in range(n):
        succ[perm[idx]] = perm[(idx + 1) % n]
    edges = [(succ[sender], sender) for sender in range(n)]
    draw = rng.random
    for sender in range(n):
        skip = succ[sender]
        for receiver in range(n):
            if receiver != sender and receiver != skip \
                    and draw() < extra_edge_probability:
                edges.append((receiver, sender))
    return Digraph(n, edges)


def assign_edge_orders(g: Digraph, seed: int | None = None) -> EdgeOrdering:
    """Unique transmission orders per node.  The canonical rule (seed None)
    gives order 0, 1, ... to out-neighbors in ascending id, which keeps traces
    reproducible; a seeded shuffle is available for robustness testing."""
    rng = random.Random(seed) if seed is not None else None
    orders: dict[int, dict[int, int]] = {}
    for j in range(g.n):
        nbrs = list(g.out_neighbors(j))
        if rng is not None:
            rng.shuffle(nbrs)
        orders[j] = {neighbor: order for order, neighbor in enumerate(nbrs)}
    return EdgeOrdering(orders)


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format: first line ``n m``, then m lines ``j i``
    meaning a directed edge from sender i to receiver j."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("line 1: expected header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("line 1: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError("line 1: header fields must be integers") from None
    edges = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'receiver sender'")
        try:
            j, i = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: node ids must be integers") from None
        if not (0 <= j < n and 0 <= i < n):
            raise ValueError(f"line {lineno}: node id out of range for n={n}")
        if j == i:
            raise ValueError(f"line {lineno}: self-loop at node {j}")
        if (j, i) in seen:
            raise ValueError(f"line {lineno}: duplicate edge ({j}, {i})")
        seen.add((j, i))
        edges.append((j, i))
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges but {len(edges)} were given")
    return Digraph(n, edges)


def serialize_edge_list(g: Digraph) -> str:
    lines = [f"{g.n} {g.m}"]
    for j, i in sorted(g.edges):
        lines.append(f"{j} {i}")
    return "\n".join(lines) + "\n"
