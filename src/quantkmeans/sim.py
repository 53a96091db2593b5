"""Deterministic synchronous-round scheduler and experiment runners.

Every message sent at step t is delivered at step t+1; there is no loss,
duplication, or reordering, so a run is a pure function of (graph, edge
orders, initial data) and repeated runs are bit-identical.  The module
holds the one lock-step engine, ``_LockStep``; the two runners on it,
``run_consensus`` (plain averaging) and ``run_kmeans`` (clustering rounds
closed by stopping windows), which differ only in their stop rule; their
traces; and the seeded experiment configuration and sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from math import lcm
from operator import add, sub
from typing import Optional, Sequence

from .consensus import ConsensusState, Mass
# bound here only because the benchmark's tracer wraps these names in ``sim``
from .coordination import extrema_merge, snapshot, window_check  # noqa: F401
from .exactmath import Fraction, FractionVector, sq_dist_exact
from .graph import (Digraph, EdgeOrdering, check_edge_probability, diameter,
                    generate_random_digraph, is_strongly_connected)
from .kmeans import assign_cluster, finalize_round


class ProtocolError(RuntimeError):
    """A protocol invariant failed; never ignored."""


def _check_ints(what: str, values) -> None:
    bad = [v for v in values if isinstance(v, bool) or not isinstance(v, int)]
    if bad:
        raise ValueError(f"{what} must be integers, not {bad[0]!r}")


def _check_inputs(n: int, k: int, max_rounds: int, dim: int = 0,
                  vectors: Sequence[tuple[int, ...]] | None = None) -> int:
    """The input rules of every run: more than 2 nodes, one integer vector
    per node, one shared dimension of at least 1, 1 <= k < n and at least
    one round.  The vector rules apply when ``vectors`` are given;
    otherwise ``dim`` is checked.  Returns the dimension."""
    if n <= 2:
        raise ValueError("the protocol requires more than 2 nodes")
    if vectors is not None:
        if len(vectors) != n:
            raise ValueError("one vector per node is required")
        dim = len(vectors[0])
        if any(len(v) != dim for v in vectors):
            raise ValueError("vectors must share one dimension")
        _check_ints("coordinates", (c for v in vectors for c in v))
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < n")
    if max_rounds < 1:
        raise ValueError("max_rounds must be a positive integer")
    return dim


def _check_d_bound(d_bound) -> None:
    """``d_bound`` is ``"auto"`` (the diameter) or an ``int`` that is not a
    ``bool``."""
    if d_bound != "auto" and (isinstance(d_bound, bool)
                              or not isinstance(d_bound, int)):
        raise ValueError(
            f"d_bound must be 'auto' or an integer, not {d_bound!r}")


def _edge_targets(g: Digraph, orders: EdgeOrdering | None,
                  ) -> list[tuple[int, ...]]:
    """Each node's round-robin target list under ``orders``, which must
    order exactly the node's out-neighbors in ``g``.  The canonical orders
    (None) are the out-neighbors in ascending id, as ``assign_edge_orders``
    gives them."""
    if orders is None:
        return [g.out_neighbors(j) for j in range(g.n)]
    targets = [orders.targets(j) for j in range(g.n)]
    if any(sorted(t) != list(g.out_neighbors(j))
           for j, t in enumerate(targets)):
        raise ValueError("edge orders do not match the graph")
    return targets


# A run past its step bound reports ``bound_ok=False``; only a runaway this
# many times over the bound raises.
_RUNAWAY_FACTOR = 10


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


class _LockStep:
    """One round of labeled averaging instances on every node.

    Each node ``j`` gets ``k`` instances on ``targets[j]`` and holds the
    pair ``(x_j, 1)`` under its label ``assignments[j]``; ``held`` and the
    per-label sums start from these pairs.  An injected pair always fires,
    so the runner opens the round by calling ``emit`` on the held pairs at
    the round's first step, after reading any opening verdict from
    ``held``; each later step is ``deliver`` followed by ``emit``.  Both
    work on the instances' fields directly, with no per-message method
    call: ``deliver`` adds every mass in flight to its receiver's held pair,
    and ``emit`` polls only the (node, label) pairs that received this step,
    in ascending order, evaluating each trigger once and doing
    ``ConsensusState.emit``'s work in place for each one that fires.  That
    is exact: a trigger reads only its instance's held and stored pairs, and
    only ``deliver`` and a firing change them, so an instance that received
    nothing keeps its last verdict.  The message counts, ``_MessageStats``
    and the log are added up per step.  Log entries are
    ``(step_base + step, sender, receiver, label, z, y)``.

    ``deliver`` and ``emit`` both mark the received pairs as touched (a check
    may fall between them).  ``check_conservation`` re-reads only touched
    pairs against ``held``, every nonzero held ``(*y, z)`` pair by (node,
    label), and a per-label running sum, so it costs the touched pairs plus
    the messages in flight.  ``check_conservation_scan`` sums the whole state;
    the runners call it when a round closes, which also catches a held pair
    that changed without passing through the engine.
    """

    def __init__(self, x: Sequence[tuple[int, ...]],
                 targets: Sequence[tuple[int, ...]], k: int,
                 assignments: Sequence[int], stats: _MessageStats,
                 log: Optional[list], step_base: int):
        dim = len(x[0])
        self.instances = [[ConsensusState(dim, t) for _ in range(k)]
                          for t in targets]
        self.stats = stats
        self.log = log
        self.step_base = step_base
        self.steps = 1
        self.messages = 0
        # messages in flight: (receiver, label, mass)
        self.pending: list[tuple[int, int, Mass]] = []
        # pairs touched since the last check, every nonzero held (*y, z) as
        # last read, and their sum per label
        self.touched: set[tuple[int, int]] = set()
        self.held: dict[tuple[int, int], tuple[int, ...]] = {}
        self.zero = (0,) * (dim + 1)
        self.totals = [self.zero] * k   # injected (*y, z) per label
        for j, cl in enumerate(assignments):
            st = self.instances[j][cl]
            st.held_y, st.held_z = x[j], 1
            self.held[j, cl] = pair = (*x[j], 1)
            self.totals[cl] = tuple(map(add, self.totals[cl], pair))
        self.held_sums = list(self.totals)

    def deliver(self) -> list[tuple[int, int]]:
        """Advance one step: every message in flight reaches its receiver.
        Returns the received (node, label) pairs in ascending order."""
        self.steps += 1
        instances = self.instances
        received = set()
        for receiver, cl, (y, z) in self.pending:
            st = instances[receiver][cl]
            st.held_y = tuple(map(add, st.held_y, y))
            st.held_z += z
            received.add((receiver, cl))
        self.pending = []
        self.touched |= received
        return sorted(received)

    def emit(self, received: list[tuple[int, int]]) -> None:
        """Poll the received pairs in order and send what their triggered
        instances emit.  The trigger is ``ConsensusState.trigger``: fire when
        (held z, held y) is at least (stored z, stored y).  Its zero-held
        rule is not tested, as every mass has z >= 1 and a polled pair holds
        an injected ``x_j/1`` or a received mass."""
        self.touched.update(received)
        instances, pending, log = self.instances, self.pending, self.log
        stats = self.stats
        step = self.step_base + self.steps
        zero_y = self.zero[:-1]
        top, bits, sent = stats.max_component, stats.bits, 0
        for j, cl in received:
            st = instances[j][cl]
            hy, hz = st.held_y, st.held_z
            if (hz, hy) < (st.stored_z, st.stored_y):
                continue
            st.stored_y, st.stored_z = hy, hz
            st.held_y, st.held_z = zero_y, 0
            targets = st.targets
            target = targets[st.e]
            st.tr += 1
            st.e = st.tr % len(targets)
            pending.append((target, cl, Mass(hy, hz)))
            sent += 1
            if hz > top:
                top = hz
            bits += hz.bit_length()
            for v in hy:
                a = v if v >= 0 else -v
                if a > top:
                    top = a
                bits += a.bit_length() + 1
            if log is not None:
                log.append((step, j, target, cl, hz, hy))
        if sent:
            self.messages += sent
            stats.max_component, stats.bits = top, bits
            stats.last_step = step

    def check_conservation(self) -> None:
        """Held plus in-flight mass must equal, label by label, the mass
        injected when the round opened.  Re-reads only the pairs touched
        since the previous check, and drops a pair from ``held`` when its
        held mass returns to zero."""
        touched, self.touched = self.touched, set()
        instances, held, sums = self.instances, self.held, self.held_sums
        for pair in touched:
            j, cl = pair
            st = instances[j][cl]
            new = (*st.held_y, st.held_z)
            old = held.get(pair, self.zero)
            if new != old:
                sums[cl] = tuple(map(sub, map(add, sums[cl], new), old))
                if new == self.zero:
                    del held[pair]
                else:
                    held[pair] = new
        self._compare(sums)

    def check_conservation_scan(self) -> None:
        """``check_conservation`` from the whole state, not the cache."""
        self._compare([(*map(sum, zip(*(st.held_y for st in states))),
                        sum(st.held_z for st in states))
                       for states in zip(*self.instances)])

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
    S_t: int                        # equals steps; perfbench pins both
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
    dim = _check_inputs(n, 1, 1, vectors=values)
    if not is_strongly_connected(g):
        raise ValueError("graph is not strongly connected")
    targets = _edge_targets(g, orders)

    log: Optional[list] = [] if log_messages else None
    # Plain averaging is a round with a single label; its first step is 0.
    lock = _LockStep(values, targets, 1, [0] * n, _MessageStats(), log, -1)
    lock.emit([(j, 0) for j in range(n)])
    total_y = lock.totals[0][:-1]
    states = [row[0] for row in lock.instances]
    per_step = [lock.messages]
    step_bound = n * g.m * g.m
    cap = _RUNAWAY_FACTOR * step_bound

    def carries_average(y: tuple[int, ...], z: int) -> bool:
        return all(yi * n == ti * z for yi, ti in zip(y, total_y))

    def unsettled(st) -> bool:
        return not carries_average(st.stored_y, st.stored_z) or (
            st.held_z > 0 and not carries_average(st.held_y, st.held_z))

    # Stop when no node is unsettled; only a step's receivers change their
    # pairs.  With every estimate exact, each in-flight mass (its sender's
    # estimate) carries the average, and an off-average held mass leaves
    # only by firing, which makes an estimate inexact: so the last step
    # starts with an inexact estimate, and S_t is the stop step.
    node_unsettled = [unsettled(st) for st in states]
    unsettled_count = sum(node_unsettled)
    lock.check_conservation()
    while unsettled_count:
        if lock.steps > cap:
            raise ProtocolError(
                f"no convergence within {cap} steps (bound {step_bound})")
        received = lock.deliver()
        lock.emit(received)
        per_step.append(len(lock.pending))
        lock.check_conservation()
        for j, _ in received:
            old, node_unsettled[j] = node_unsettled[j], unsettled(states[j])
            unsettled_count += node_unsettled[j] - old
    lock.check_conservation_scan()

    if log is not None:
        log = [(s, a, b, z, y) for s, a, b, _, z, y in log]
    steps = lock.steps - 1
    return ConsensusTrace(
        n=n, m=g.m, dim=dim, steps=steps, S_t=steps,
        step_bound=step_bound, bound_ok=steps <= step_bound,
        average=FractionVector(total_y, n),
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
    centroids: tuple[FractionVector, ...]
    objective: Fraction


@dataclass
class KMeansTrace:
    n: int
    m: int
    diameter: int
    d_bound: int
    k: int
    dim: int
    rounds: list[RoundRecord]
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
    silent_after_stop: bool
    message_log: Optional[list[tuple[int, int, int, int, int, tuple[int, ...]]]] = None


def counters(record) -> dict:
    """Every field of a trace or round record annotated ``int`` or
    ``bool``, by name in declaration order: the facts an artifact or a sweep
    row holds as they are."""
    return {f.name: getattr(record, f.name) for f in fields(record)
            if f.type in ("int", "bool")}


def distance_objective(observations: Sequence[Sequence[int]],
                       assignments: Sequence[int],
                       centroids: Sequence[FractionVector]) -> Fraction:
    """Exact sum of squared distances of each observation to its assigned
    centroid.  Members of one cluster share the denominator ``c.den ** 2``,
    so the numerators are summed per cluster, then over a common
    denominator."""
    if len(observations) != len(assignments):
        raise ValueError("one assignment per observation is required")
    sums = [0] * len(centroids)
    for x, label in zip(observations, assignments):
        sums[label] += sq_dist_exact(x, centroids[label])
    squares = [c.den * c.den for c in centroids]
    den = lcm(*squares)
    return Fraction(sum(num * (den // sq) for num, sq in zip(sums, squares)),
                    den)


def _window_verdict(k: int, held: dict[tuple[int, int], tuple[int, ...]]):
    """The verdict every node reaches when a window closes, from ``held``,
    the nonzero held ``(*y, z)`` pairs by (node, label) at its opening.  With
    D at least the diameter the flood leaves every node holding the global
    extrema, and a label's maximum equals its minimum exactly when all its
    held ratios are equal.  So the verdict is ``None`` at the first pair
    whose ratio differs, by cross-multiplication, from its label's first
    pair's; otherwise it is each label's first reduced ratio (the fold's
    form), ``None`` for a label no pair has.  The tests hold it to a
    node-by-node replay of the flood with ``coordination``'s steps."""
    verdict: list[Optional[FractionVector]] = [None] * k
    for (_, cl), pair in held.items():
        seen = verdict[cl]
        if seen is None:
            verdict[cl] = FractionVector(pair[:-1], pair[-1]).reduced()
        elif any(y * seen.den != v * pair[-1]
                 for y, v in zip(pair, seen.nums)):
            return None
    return tuple(verdict)


def _run_round(x: Sequence[tuple[int, ...]],
               targets: Sequence[tuple[int, ...]], k: int,
               assignments: Sequence[int], window: int, m_edges: int,
               step_cap: int, stats: _MessageStats,
               log: Optional[list], step_base: int):
    """One full round of the inner loop: inject labeled masses under
    ``assignments`` (each node's nearest of the round's ``k`` centroids), run
    the averaging instances with windowed stopping, return when a window closes
    with no cluster still disagreeing.  The window rule is applied after a
    step's delivery and before its emission, so no message leaves on the
    closing step and the bus is empty at every round boundary.  Each window
    boundary first checks conservation, so every verdict, the closing one
    included, comes from checked masses.

    Every verdict reads the engine's ``held`` pairs: the first one the
    injected ``x_j/1`` under each node's label, before the opening ``emit``
    sends them, every later one the pairs right after the conservation
    check."""
    lock = _LockStep(x, targets, k, assignments, stats, log, step_base)
    verdict = _window_verdict(k, lock.held)
    received = list(lock.held)      # the injected pairs open the round
    merges = 0
    while True:
        lock.emit(received)
        if lock.steps > step_cap:
            raise ProtocolError(
                f"round did not stop within {step_cap} steps")
        received = lock.deliver()
        merges += 1
        if merges == window:
            lock.check_conservation()
            if verdict is not None:
                lock.check_conservation_scan()
                # m extrema messages on every step but the closing one
                return (lock.steps, lock.messages,
                        m_edges * (lock.steps - 1), verdict)
            verdict = _window_verdict(k, lock.held)
            merges = 0


def run_kmeans(g: Digraph, observations: Sequence[Sequence[int]],
               initial_centroids: Sequence[FractionVector],
               d_bound: int | str = "auto",
               max_rounds: int = 100,
               orders: EdgeOrdering | None = None,
               log_messages: bool = False) -> KMeansTrace:
    """Execute the distributed clustering protocol to termination (two equal
    consecutive centroid calculations) or until max_rounds calculations."""
    n = g.n
    x = [tuple(v) for v in observations]
    k = len(initial_centroids)
    dim = _check_inputs(n, k, max_rounds, vectors=x)
    if any(c.dim != dim for c in initial_centroids):
        raise ValueError("centroid dimension does not match the observations")
    _check_ints("centroid numerators and denominators",
                (v for c in initial_centroids for v in (*c.nums, c.den)))
    _check_d_bound(d_bound)
    diam = diameter(g)
    window = diam if d_bound == "auto" else d_bound
    if window < diam:
        raise ValueError(
            f"diameter bound {window} is below the true diameter {diam}")
    targets = _edge_targets(g, orders)
    current = tuple(initial_centroids)

    log: Optional[list] = [] if log_messages else None
    stats = _MessageStats()
    assignments = [assign_cluster(v, current) for v in x]
    objective = distance_objective(x, assignments, current)
    rounds = [RoundRecord(0, 0, 0, 0, current, objective)]
    C_t = 0
    round_bound = window + n * g.m * g.m
    terminated = False
    T = 0
    while T < max_rounds and not terminated:
        T += 1
        steps, mass_msgs, ext_msgs, verdict = _run_round(
            x, targets, k, assignments, window, g.m,
            _RUNAWAY_FACTOR * round_bound, stats, log, C_t)
        current, unchanged = finalize_round(verdict, current)
        # unchanged centroids keep the previous assignments and objective
        if not unchanged:
            assignments = [assign_cluster(v, current) for v in x]
            objective = distance_objective(x, assignments, current)
        rounds.append(RoundRecord(T, steps, mass_msgs, ext_msgs, current,
                                  objective))
        C_t += steps
        terminated = T >= 2 and unchanged

    step_bound = T * round_bound
    return KMeansTrace(
        n=n, m=g.m, diameter=diam, d_bound=window, k=k, dim=dim, rounds=rounds,
        final_assignments=assignments, T=T, C_t=C_t, terminated=terminated,
        step_bound=step_bound, bound_ok=C_t <= step_bound,
        mass_messages=sum(r.mass_messages for r in rounds),
        extrema_messages=sum(r.extrema_messages for r in rounds),
        max_mass_component=stats.max_component,
        mass_payload_bits=stats.bits,
        silent_after_stop=terminated and stats.last_step < C_t,
        message_log=log)


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

    def validate(self) -> None:
        _check_inputs(self.n, self.k, self.max_rounds, self.dim)
        check_edge_probability(self.extra_edge_probability)
        _check_d_bound(self.d_bound)
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
        out.append(FractionVector(point))
    return out


def generate_graph(config: ExperimentConfig) -> Digraph:
    """The seeded random digraph the experiment runs on."""
    return generate_random_digraph(config.n, config.extra_edge_probability,
                                   config.graph_seed)


def run_experiment(config: ExperimentConfig,
                   log_messages: bool = False) -> KMeansTrace:
    config.validate()
    return run_kmeans(
        generate_graph(config), generate_observations(config),
        generate_centroids(config),
        d_bound=config.d_bound, max_rounds=config.max_rounds,
        log_messages=log_messages)


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
    per_seed: list[dict]
    t_mean: float
    t_min: int
    t_max: int
    histogram: list[tuple[int, int]]
    f_mean_curve: list[float]
    band_violations: list[int]
    all_bounds_ok: bool


def _sweep_single(args: tuple[ExperimentConfig, int]) -> dict:
    config, index = args
    sub = config_for_seed(config, index)
    try:
        trace = run_experiment(sub)
    except (ProtocolError, ValueError) as exc:
        raise type(exc)(f"sweep seed {index}: {exc}") from exc
    objectives = [r.objective for r in trace.rounds]
    monotone = all(b <= a for a, b in zip(objectives, objectives[1:]))
    return {
        "seed": index,
        "graph_seed": sub.graph_seed,
        "observation_seed": sub.observation_seed,
        "centroid_seed": sub.centroid_seed,
        **counters(trace),
        "objective_monotone": monotone,
        "objective_final": str(objectives[-1]),
        "objective_curve_float": [float(f) for f in objectives],
    }


def sweep(config: ExperimentConfig, num_seeds: int,
          workers: int | None = None) -> SweepResult:
    """Run num_seeds independent experiments with derived seeds and aggregate
    the calculation counts and objective curves.  A seed that does not
    terminate within ``max_rounds`` is a row like any other, with
    ``terminated`` False; an input error or protocol violation in a seed's
    run raises, naming the lowest such seed.  With ``workers`` above 1
    the seeds run in a pool of at most one process per seed.  Results are
    merged in seed order, so the aggregate does not depend on the worker
    count."""
    if num_seeds < 1:
        raise ValueError("num_seeds must be positive")
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    config.validate()
    jobs = [(config, index) for index in range(num_seeds)]
    processes = min(workers or 1, num_seeds)
    if processes > 1:
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            # ``imap`` yields in seed order, so the lowest failing seed
            # raises, as in the serial loop.
            results = list(pool.imap(_sweep_single, jobs))
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
        per_seed=results,
        t_mean=sum(ts) / len(ts), t_min=min(ts), t_max=max(ts),
        histogram=sorted(histogram.items()), f_mean_curve=f_mean,
        band_violations=violations,
        all_bounds_ok=all(row["bound_ok"] for row in results))
