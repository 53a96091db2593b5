"""Deterministic synchronous-round scheduler and experiment runners.

Every message sent at step t is delivered at step t+1; there is no loss,
duplication, or reordering.  All nodes advance in lock step, so a run is a
pure function of (graph, edge orders, initial data) and repeated runs are
bit-identical.  One engine, ``_LockStep``, runs every round of labeled
averaging instances; the runners differ only in their stop rule.  Plain
averaging is a one-label round that stops once every estimate is exact and
every remaining mass carries the average; a clustering round stops when a
stopping window closes with every cluster agreed.  Mass conservation is
checked on every step of plain averaging and at every window boundary of a
clustering round, and a violation fails loudly.  Those checks, the stop rule
and the window snapshots re-read only the (node, label) pairs a step touched;
a whole-state conservation check closes every round.  The runners report
whether the run kept the protocol's step bound (``bound_ok``) and, for
clustering, whether the bus stayed silent from the flag step on
(``silent_after_stop``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import groupby
from operator import add, itemgetter, sub
from typing import Optional, Sequence

from .consensus import Mass
from .coordination import Agreed, DISAGREED, EMPTY, all_settled, snapshot
# bound here only because the benchmark's tracer wraps these names in ``sim``
from .coordination import extrema_merge, window_check  # noqa: F401
from .exactmath import Fraction, FractionVector, sq_dist_exact
from .graph import (Digraph, EdgeOrdering, assign_edge_orders, diameter,
                    generate_random_digraph, is_strongly_connected)
from .kmeans import CentroidSet, NodeKMeansState, assign_cluster, finalize_round


class ProtocolError(RuntimeError):
    """A protocol invariant failed; never ignored."""


def _check_inputs(n: int, k: int, max_rounds: int, dim: int = 0,
                  vectors: Sequence[tuple[int, ...]] | None = None,
                  g: Digraph | None = None) -> int:
    """The input rules of every run: more than 2 nodes, a strongly connected
    graph, one vector per node, one shared dimension of at least 1,
    1 <= k < n and at least one round.  The graph and vector rules apply
    when ``g`` and ``vectors`` are given; otherwise ``dim`` is checked.
    Returns the dimension."""
    if n <= 2:
        raise ValueError("the protocol requires more than 2 nodes")
    if g is not None and not is_strongly_connected(g):
        raise ValueError("graph is not strongly connected")
    if vectors is not None:
        if len(vectors) != n:
            raise ValueError("one vector per node is required")
        dim = len(vectors[0])
        if any(len(v) != dim for v in vectors):
            raise ValueError("vectors must share one dimension")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n")
    if max_rounds < 1:
        raise ValueError("max_rounds must be a positive integer")
    return dim


# --------------------------------------------------------------------------
# the lock-step engine


class _MessageStats:
    __slots__ = ("max_component", "bits", "last_step")

    def __init__(self):
        self.max_component = 0
        self.bits = 0
        self.last_step = -1     # the step of the latest send

    def record(self, mass: Mass) -> None:
        z = mass.z
        if z > self.max_component:
            self.max_component = z
        self.bits += z.bit_length()
        for v in mass.y:
            a = v if v >= 0 else -v
            if a > self.max_component:
                self.max_component = a
            self.bits += a.bit_length() + 1


_node, _label, _pair = itemgetter(0), itemgetter(1), itemgetter(0, 1)


class _LockStep:
    """One round of labeled averaging instances on every node.

    Opening the round runs ``begin_round`` on every node with its label in
    ``assignments`` and sends the initial transmissions at the round's first
    step; each later step is ``deliver`` followed by ``emit``.  Only the
    (node, label) pairs that received this step are polled, and each polled
    trigger is evaluated once.  That is exact: a trigger reads only its
    instance's held and stored pairs, ``emit`` zeroes the held pair and only
    ``absorb_one`` changes it, so an instance that received nothing keeps
    its last verdict.  Log entries are
    ``(step_base + step, sender, receiver, label, z, y)``.

    ``deliver`` and ``emit`` both mark the received pairs as touched (a check
    may fall between them).  ``check_conservation`` re-reads only touched
    pairs against a cached held pair and a per-label running sum, so it costs
    the touched pairs plus the messages in flight.  ``check_conservation_scan``
    sums the whole state; the runners call it when a round closes, which also
    catches a held pair that changed without passing through the engine.
    """

    def __init__(self, nodes: list[NodeKMeansState], centroids: CentroidSet,
                 assignments: Sequence[int], stats: _MessageStats,
                 log: Optional[list], step_base: int):
        self.nodes = nodes
        self.stats = stats
        self.log = log
        self.step_base = step_base
        self.steps = 1
        self.messages = 0
        # messages in flight: (receiver, label, mass)
        self.pending: list[tuple[int, int, Mass]] = []
        self.opening = []       # window-opening snapshot values, per node
        # pairs touched since the last check, each pair's held (*y, z) as last
        # read, and their sum per label; a new instance holds nothing
        self.touched: set[tuple[int, int]] = set()
        self.held: dict[tuple[int, int], tuple[int, ...]] = {}
        self.zero = (0,) * (centroids.dim + 1)
        self.held_sums = [self.zero] * centroids.k
        self.totals = [self.zero] * centroids.k   # injected (*y, z) per label
        for j, node in enumerate(nodes):
            values, sends = node.begin_round(centroids, assignments[j])
            self.opening.append(values)
            row = self.totals[node.assignment]
            self.totals[node.assignment] = (*map(add, row, node.x),
                                            row[-1] + 1)
            for cl, dest, mass in sends:
                self.send(j, dest, cl, mass)

    def send(self, sender: int, receiver: int, cl: int, mass: Mass) -> None:
        step = self.step_base + self.steps
        self.pending.append((receiver, cl, mass))
        self.messages += 1
        self.stats.record(mass)
        self.stats.last_step = step
        if self.log is not None:
            self.log.append((step, sender, receiver, cl, mass.z, mass.y))

    def deliver(self) -> list[tuple[int, int]]:
        """Advance one step: every message in flight reaches its receiver.
        Returns the received (node, label) pairs in ascending order."""
        self.steps += 1
        nodes = self.nodes
        for receiver, cl, mass in self.pending:
            nodes[receiver].instances[cl].absorb_one(mass.y, mass.z)
        received = set(map(_pair, self.pending))
        self.pending = []
        self.touched |= received
        return sorted(received)

    def emit(self, received: list[tuple[int, int]]) -> None:
        """Poll the received pairs, node by node, and send what their
        triggered instances emit."""
        self.touched.update(received)
        nodes = self.nodes
        for j, pairs in groupby(received, _node):
            for cl, dest, mass in nodes[j].mass_phase(map(_label, pairs)):
                self.send(j, dest, cl, mass)

    def check_conservation(self) -> list[tuple[int, int]]:
        """Held plus in-flight mass must equal, label by label, the mass
        injected when the round opened.  Re-reads only the pairs touched
        since the previous check; returns those whose held mass changed."""
        touched, self.touched = self.touched, set()
        nodes, held, sums = self.nodes, self.held, self.held_sums
        changed = []
        for pair in touched:
            j, cl = pair
            st = nodes[j].instances[cl]
            new = (*st.held_y, st.held_z)
            old = held.get(pair, self.zero)
            if new != old:
                sums[cl] = tuple(map(sub, map(add, sums[cl], new), old))
                held[pair] = new
                changed.append(pair)
        self._compare(sums)
        return changed

    def check_conservation_scan(self) -> None:
        """``check_conservation`` from the whole state, not the cache."""
        self._compare([(*map(sum, zip(*(st.held_y for st in states))),
                        sum(st.held_z for st in states))
                       for states in zip(*(node.instances
                                           for node in self.nodes))])

    def _compare(self, held_sums: list[tuple[int, ...]]) -> None:
        rows = list(held_sums)
        for _, cl, mass in self.pending:
            rows[cl] = (*map(add, rows[cl], mass.y), rows[cl][-1] + mass.z)
        if rows != self.totals:
            raise ProtocolError("mass conservation violated")


# --------------------------------------------------------------------------
# plain averaging runs


@dataclass
class ConsensusTrace:
    n: int
    m: int
    dim: int
    steps: int                      # steps simulated until stability was certain
    S_t: int                        # first step from which all estimates stay exact
    step_bound: int                 # n * m^2
    bound_ok: bool
    average: FractionVector
    estimates: list[FractionVector]
    messages: int
    per_step_messages: list[int]
    message_log: Optional[list[tuple[int, int, int, int, tuple[int, ...]]]] = None


def run_consensus(g: Digraph, initial: Sequence[Sequence[int]],
                  orders: EdgeOrdering | None = None,
                  log_messages: bool = False) -> ConsensusTrace:
    """Run the averaging protocol until every node's estimate equals the exact
    network average and can no longer change (every remaining mass carries
    that same ratio).  Records S_t and checks it against the n*m^2 step
    bound."""
    n = g.n
    values = [tuple(v) for v in initial]
    dim = _check_inputs(n, 1, 1, vectors=values, g=g)
    if orders is None:
        orders = assign_edge_orders(g)

    total_y = tuple(sum(v[i] for v in values) for i in range(dim))
    average = FractionVector(total_y, n)
    log: Optional[list] = [] if log_messages else None
    nodes = [NodeKMeansState(j, values[j], orders.targets(j)) for j in range(n)]
    # Plain averaging is a round with a single label; its first step is 0.
    lock = _LockStep(nodes, CentroidSet([average]), [0] * n, _MessageStats(),
                     log, -1)
    states = [node.instances[0] for node in nodes]
    per_step = [lock.messages]
    step_bound = n * g.m * g.m
    cap = step_bound + 4 * g.m + 64

    def carries_average(y: tuple[int, ...], z: int) -> bool:
        return all(yi * n == ti * z for yi, ti in zip(y, total_y))

    def faults(st) -> tuple[bool, bool]:
        # the estimate is not the average; the held mass (a zero mass
        # carries any ratio) does not carry the average ratio
        exact = st.stored_z and carries_average(st.stored_y, st.stored_z)
        return not exact, not carries_average(st.held_y, st.held_z)

    # Only a step's receivers change, so only they are re-read.
    node_faults = [faults(st) for st in states]
    inexact, unsettled = map(sum, zip(*node_faults))

    def masses_settled() -> bool:
        # Every held or in-flight mass must already carry the average ratio;
        # from such a state no future transmission can move any estimate.
        return not unsettled and all(carries_average(mass.y, mass.z)
                                     for _, _, mass in lock.pending)

    step = 0
    first_stable: Optional[int] = None if inexact else 0
    lock.check_conservation()
    while first_stable is None or not masses_settled():
        if step >= cap:
            raise ProtocolError(
                f"no convergence within {cap} steps (bound {step_bound})")
        step += 1
        received = lock.deliver()
        lock.emit(received)
        per_step.append(len(lock.pending))
        lock.check_conservation()
        for j, _ in received:
            old, node_faults[j] = node_faults[j], faults(states[j])
            inexact += node_faults[j][0] - old[0]
            unsettled += node_faults[j][1] - old[1]
        if not inexact:
            if first_stable is None:
                first_stable = step
        else:
            first_stable = None
    lock.check_conservation_scan()

    S_t = first_stable
    if log is not None:
        log = [(s, a, b, z, y) for s, a, b, _, z, y in log]
    return ConsensusTrace(
        n=n, m=g.m, dim=dim, steps=step, S_t=S_t, step_bound=step_bound,
        bound_ok=S_t <= step_bound, average=average,
        estimates=[st.estimate for st in states],
        messages=lock.messages, per_step_messages=per_step, message_log=log)


# --------------------------------------------------------------------------
# clustering runs


@dataclass
class RoundRecord:
    T: int
    steps: int
    mass_messages: int
    extrema_messages: int
    centroids: CentroidSet
    objective: Fraction


@dataclass
class KMeansTrace:
    n: int
    m: int
    diam: int
    d_bound: int
    k: int
    dim: int
    rounds: list[RoundRecord]
    centroid_sets: list[CentroidSet]
    final_assignments: list[int]
    T: int
    C_t: int
    terminated: bool
    step_bound: int
    bound_ok: bool
    mass_messages: int
    extrema_messages: int
    max_mass_component: int
    mass_payload_bits: int
    flag_step: Optional[int]
    silent_after_stop: bool
    message_log: Optional[list[tuple[int, int, int, int, int, tuple[int, ...]]]] = None
    config: Optional[dict] = None

    @property
    def objective_values(self) -> list[Fraction]:
        return [r.objective for r in self.rounds]


def distance_objective(observations: Sequence[Sequence[int]],
                       assignments: Sequence[int],
                       centroids: CentroidSet | Sequence[FractionVector],
                       ) -> Fraction:
    """Exact sum of squared distances of each observation to its assigned
    centroid.  Members of one cluster share the denominator ``c.den ** 2``,
    so the numerators are summed per cluster before combining."""
    if isinstance(centroids, CentroidSet):
        cents = centroids.centroids
    else:
        cents = tuple(centroids)
    if len(observations) != len(assignments):
        raise ValueError("one assignment per observation is required")
    sums = [0] * len(cents)
    for x, label in zip(observations, assignments):
        sums[label] += sq_dist_exact(x, cents[label]).num
    total = Fraction(0, 1)
    for label, num in enumerate(sums):
        if num:
            den = cents[label].den
            total = (total + Fraction(num, den * den)).reduced()
    return total


def _window_verdict(snapshots: list):
    """The verdict every node reaches when a window closes.  With D at least
    the diameter the flood leaves every node holding the global extrema, and
    a label's maximum equals its minimum exactly when every snapshot value
    of that label is equal.  So each label is certified directly: empty when
    no snapshot has a value, agreed on the first value when every other one
    equals it, disagreed at the first that differs.  Snapshot values are
    reduced, so an agreed value is the one the max/min fold gives
    (``flood_verdict`` in ``coordination`` is the node-by-node reference)."""
    verdict = []
    for entries in zip(*snapshots):
        first = None
        for entry in entries:
            if entry is None:
                continue
            if first is None:
                first = entry.upper
            elif entry.upper != first:
                verdict.append(DISAGREED)
                break
        else:
            verdict.append(EMPTY if first is None else Agreed(first))
    return tuple(verdict)


def _run_round(nodes: list[NodeKMeansState], centroids: CentroidSet,
               assignments: Sequence[int], window: int, m_edges: int,
               step_cap: int, stats: _MessageStats,
               log: Optional[list], step_base: int):
    """One full round of the inner loop: inject labeled masses under
    ``assignments`` (each node's nearest centroid in ``centroids``), run the
    averaging instances with windowed stopping, return when a window closes
    with no cluster still disagreeing.  The window rule is applied after a
    step's delivery and before its emission, so no message leaves on the
    closing step and the bus is empty at every round boundary.  Each window
    boundary first checks conservation, so every verdict, the closing one
    included, comes from checked masses.

    A node holding no mass contributes no value to any label, so a verdict
    reads one empty snapshot, standing for all of them, and the mass
    holders' snapshots, and certifies a label when all its values are equal.
    A window snapshots again only the nodes whose held pairs the
    conservation check found changed (every node at the first window: all
    have sent)."""
    lock = _LockStep(nodes, centroids, assignments, stats, log, step_base)
    empty = snapshot([None] * centroids.k)
    holders = {j: snap for j, snap in enumerate(map(snapshot, lock.opening))
               if any(snap)}
    verdict = _window_verdict([empty, *holders.values()])
    stale = set(range(len(nodes)))      # nodes whose snapshot may differ
    merges = 0
    while True:
        if lock.steps > step_cap:
            raise ProtocolError(
                f"round did not stop within {step_cap} steps")
        received = lock.deliver()
        merges += 1
        if merges == window:
            stale.update(map(_node, lock.check_conservation()))
            if all_settled(verdict):
                lock.check_conservation_scan()
                # m extrema messages on every step but the closing one
                return (lock.steps, lock.messages,
                        m_edges * (lock.steps - 1), verdict)
            for j in stale:
                snap = snapshot(nodes[j].held_snapshot_values())
                if any(snap):
                    holders[j] = snap
                else:
                    holders.pop(j, None)
            stale = set()
            verdict = _window_verdict([empty, *holders.values()])
            merges = 0
        lock.emit(received)


def run_kmeans(g: Digraph, observations: Sequence[Sequence[int]],
               initial_centroids: Sequence[FractionVector],
               d_bound: int | str | None = None,
               max_rounds: int = 100,
               orders: EdgeOrdering | None = None,
               log_messages: bool = False) -> KMeansTrace:
    """Execute the distributed clustering protocol to termination (two equal
    consecutive centroid calculations) or until max_rounds calculations."""
    n = g.n
    x = [tuple(v) for v in observations]
    k = len(initial_centroids)
    dim = _check_inputs(n, k, max_rounds, vectors=x, g=g)
    if any(c.dim != dim for c in initial_centroids):
        raise ValueError("centroid dimension does not match the observations")
    diam = diameter(g)
    if d_bound is None or d_bound == "auto":
        window = diam
    else:
        window = int(d_bound)
        if window < diam:
            raise ValueError(
                f"diameter bound {window} is below the true diameter {diam}")
    if orders is None:
        orders = assign_edge_orders(g)

    nodes = [NodeKMeansState(j, x[j], orders.targets(j)) for j in range(n)]
    current = CentroidSet(initial_centroids, 0)

    log: Optional[list] = [] if log_messages else None
    stats = _MessageStats()
    assignments = [assign_cluster(v, current) for v in x]
    rounds = [RoundRecord(0, 0, 0, 0, current,
                          distance_objective(x, assignments, current))]
    C_t = 0
    per_round_cap = n * g.m * g.m + 2 * window + 64
    terminated = False
    T = 0
    while T < max_rounds and not terminated:
        T += 1
        steps, mass_msgs, ext_msgs, outcomes = _run_round(
            nodes, current, assignments, window, g.m, per_round_cap, stats,
            log, C_t)
        current, unchanged = finalize_round(outcomes, current)
        assignments = [assign_cluster(v, current) for v in x]
        rounds.append(RoundRecord(T, steps, mass_msgs, ext_msgs, current,
                                  distance_objective(x, assignments, current)))
        C_t += steps
        if T >= 2 and unchanged:
            terminated = True
            for node in nodes:
                node.set_flag()

    step_bound = T * (window + n * g.m * g.m)
    return KMeansTrace(
        n=n, m=g.m, diam=diam, d_bound=window, k=k, dim=dim,
        rounds=rounds, centroid_sets=[r.centroids for r in rounds],
        final_assignments=assignments, T=T, C_t=C_t, terminated=terminated,
        step_bound=step_bound, bound_ok=C_t <= step_bound,
        mass_messages=sum(r.mass_messages for r in rounds),
        extrema_messages=sum(r.extrema_messages for r in rounds),
        max_mass_component=stats.max_component,
        mass_payload_bits=stats.bits,
        flag_step=C_t if terminated else None,
        silent_after_stop=terminated and stats.last_step < C_t,
        message_log=log, config=None)


# --------------------------------------------------------------------------
# experiment configuration and seed sweeps


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment, seeds included."""
    n: int = 100
    k: int = 3
    dim: int = 2
    region: tuple[tuple[int, int], ...] = ((0, 50), (0, 50))
    extra_edge_probability: float = 0.05
    graph_seed: int = 1
    observation_seed: int = 2
    centroid_seed: int = 3
    d_bound: int | str = "auto"
    max_rounds: int = 100

    def as_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "dim": self.dim,
            "region": [list(r) for r in self.region],
            "extra_edge_probability": self.extra_edge_probability,
            "graph_seed": self.graph_seed,
            "observation_seed": self.observation_seed,
            "centroid_seed": self.centroid_seed,
            "d_bound": self.d_bound, "max_rounds": self.max_rounds,
        }

    def validate(self) -> None:
        _check_inputs(self.n, self.k, self.max_rounds, self.dim)
        if len(self.region) != self.dim:
            raise ValueError("one region interval per dimension is required")
        for lo, hi in self.region:
            if lo > hi:
                raise ValueError("region intervals must be nonempty")


def generate_observations(config: ExperimentConfig) -> list[tuple[int, ...]]:
    """Uniform integer points in the region box."""
    rng = random.Random(config.observation_seed)
    return [tuple(rng.randint(lo, hi) for lo, hi in config.region)
            for _ in range(config.n)]


def generate_centroids(config: ExperimentConfig) -> list[FractionVector]:
    rng = random.Random(config.centroid_seed)
    out = []
    for _ in range(config.k):
        point = tuple(rng.randint(lo, hi) for lo, hi in config.region)
        out.append(FractionVector.from_ints(point))
    return out


def run_experiment(config: ExperimentConfig,
                   log_messages: bool = False) -> KMeansTrace:
    config.validate()
    g = generate_random_digraph(config.n, config.extra_edge_probability,
                                config.graph_seed)
    trace = run_kmeans(
        g, generate_observations(config), generate_centroids(config),
        d_bound=config.d_bound, max_rounds=config.max_rounds,
        log_messages=log_messages)
    trace.config = config.as_dict()
    return trace


# Seed strides keep the derived graph/observation/centroid streams disjoint
# across sweep indices without sharing generator state.
_GRAPH_STRIDE = 7919
_OBS_STRIDE = 104729
_CENTROID_STRIDE = 1299709

T_SANITY_BAND = (1, 100)


def config_for_seed(config: ExperimentConfig, index: int) -> ExperimentConfig:
    return replace(
        config,
        graph_seed=config.graph_seed + _GRAPH_STRIDE * index,
        observation_seed=config.observation_seed + _OBS_STRIDE * index,
        centroid_seed=config.centroid_seed + _CENTROID_STRIDE * index)


@dataclass
class SweepResult:
    config: dict
    num_seeds: int
    per_seed: list[dict]
    t_mean: float
    t_min: int
    t_max: int
    histogram: list[tuple[int, int]]
    f_mean_curve: list[float]
    band: tuple[int, int]
    band_violations: list[int]
    all_bounds_ok: bool


def _sweep_single(args: tuple[ExperimentConfig, int]) -> dict:
    config, index = args
    sub = config_for_seed(config, index)
    try:
        trace = run_experiment(sub)
    except (ProtocolError, ValueError) as exc:
        raise ProtocolError(f"sweep seed {index} failed: {exc}") from exc
    if not trace.terminated:
        raise ProtocolError(
            f"sweep seed {index}: no termination within {sub.max_rounds} rounds")
    objectives = trace.objective_values
    monotone = all(b <= a for a, b in zip(objectives, objectives[1:]))
    final = trace.rounds[-1].objective
    return {
        "seed": index,
        "graph_seed": sub.graph_seed,
        "observation_seed": sub.observation_seed,
        "centroid_seed": sub.centroid_seed,
        "n": trace.n, "m": trace.m, "diameter": trace.diam,
        "T": trace.T, "C_t": trace.C_t, "step_bound": trace.step_bound,
        "bound_ok": trace.bound_ok,
        "mass_messages": trace.mass_messages,
        "extrema_messages": trace.extrema_messages,
        "objective_monotone": monotone,
        "objective_final": str(final),
        "objective_final_float": float(final),
        "objective_curve_float": [float(r.objective) for r in trace.rounds],
    }


def sweep(config: ExperimentConfig, num_seeds: int,
          workers: int | None = None) -> SweepResult:
    """Run num_seeds independent experiments with derived seeds and aggregate
    the calculation counts and objective curves.  Results are merged in seed
    order, so the aggregate does not depend on the worker count."""
    if num_seeds < 1:
        raise ValueError("num_seeds must be positive")
    config.validate()
    jobs = [(config, index) for index in range(num_seeds)]
    if workers is not None and workers > 1:
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_sweep_single, jobs)
    else:
        results = [_sweep_single(job) for job in jobs]

    ts = [row["T"] for row in results]
    histogram: dict[int, int] = {}
    for t in ts:
        histogram[t] = histogram.get(t, 0) + 1
    longest = max(len(row["objective_curve_float"]) for row in results)
    f_mean = []
    for idx in range(longest):
        total = 0.0
        for row in results:
            curve = row["objective_curve_float"]
            total += curve[idx] if idx < len(curve) else curve[-1]
        f_mean.append(total / len(results))
    lo, hi = T_SANITY_BAND
    violations = [row["seed"] for row in results if not lo <= row["T"] <= hi]
    return SweepResult(
        config=config.as_dict(), num_seeds=num_seeds, per_seed=results,
        t_mean=sum(ts) / len(ts), t_min=min(ts), t_max=max(ts),
        histogram=sorted(histogram.items()), f_mean_curve=f_mean,
        band=T_SANITY_BAND, band_violations=violations,
        all_bounds_ok=all(row["bound_ok"] for row in results))
