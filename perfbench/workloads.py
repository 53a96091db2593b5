"""Inputs, solves and correctness gates of the benchmark workloads.

Every workload is one fixed instance of quantkmeans, small enough that a
run repeats its solve many times.  The seed picks a
symmetry of that instance: a translation of every value by an integer
offset and, where the benchmark builds the graph itself, a relabeling of the
nodes that carries the edge orders along.  Exact arithmetic makes the
protocol run under a symmetry the same run under new names, so every seed
does the same work (equal ``T``, ``C_t`` and message counts), run times are
comparable across seeds, and the counts pinned in ``pinned.json`` are
checked on every seed.  Seed 0 is the identity: the instance itself.

Module-level program calls go through the module attribute
(``sim.run_kmeans``), so wrappers that ``tracer.py`` installs see them.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from quantkmeans import consensus, graph, kmeans, oracle, sim

REGION = ((0, 50), (0, 50))
SWEEP_SEEDS = 10


def symmetry(seed: int, n: int, dim: int, reach: int
             ) -> tuple[list[int], tuple[int, ...]]:
    """Node relabeling ``perm`` (old id -> new id) and value offset of a seed.
    Seed 0 is the identity; other seeds draw both from ``random.Random``."""
    if seed == 0:
        return list(range(n)), (0,) * dim
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, tuple(rng.randint(-reach, reach) for _ in range(dim))


def shifted_region(offset: Sequence[int]) -> tuple[tuple[int, int], ...]:
    # randint(lo + o, hi + o) draws the same variate as randint(lo, hi) plus
    # o, so a shifted box yields the same points translated by o.
    return tuple((lo + o, hi + o) for (lo, hi), o in zip(REGION, offset))


def relabel(g: graph.Digraph, perm: Sequence[int]
            ) -> tuple[graph.Digraph, graph.EdgeOrdering]:
    """``g`` with node v renamed ``perm[v]``; each node keeps the round-robin
    order of its canonical edge ordering under the new names."""
    renamed = graph.Digraph(g.n, ((perm[j], perm[i]) for j, i in g.edges))
    canonical = graph.assign_edge_orders(g)
    orders = graph.EdgeOrdering({
        perm[j]: {perm[t]: e for e, t in enumerate(canonical.targets(j))}
        for j in range(g.n)})
    return renamed, orders


def place(values: Sequence, perm: Sequence[int]) -> list:
    out = [None] * len(values)
    for j, v in enumerate(values):
        out[perm[j]] = v
    return out


def log_digest(entries, perm: Sequence[int], offset: Sequence[int]) -> str:
    """SHA-256 of a message log mapped back to the seed-0 instance: node ids
    through the inverse relabeling, every mass ``y`` minus ``z`` times the
    offset, entries in (step, sender, label) order as the simulator logs
    them.  Entries are ``(step, sender, dest, [label,] z, y)``."""
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    canon = sorted(
        (e[0], inv[e[1]], inv[e[2]], *e[3:-1],
         tuple(v - e[-2] * o for v, o in zip(e[-1], offset)))
        for e in entries)
    digest = hashlib.sha256()
    for entry in canon:
        digest.update(repr(entry).encode() + b"\n")
    return digest.hexdigest()


def pin_problems(observed: dict, pinned: dict, where: str) -> list[str]:
    return [f"{where}: {key} = {observed[key]!r}, pinned {want!r}"
            for key, want in pinned.items() if observed[key] != want]


@dataclass
class Reference:
    """The oracle's answer for a workload's inputs, computed once per
    invocation; every solve of the invocation is compared with it."""
    expected: object
    lloyd_s: float = 0.0


@dataclass
class Gate:
    """Outcome of checking one solve: ``problems[i]`` lists what failed for
    operation i (one experiment, or one seed of a sweep)."""
    problems: list[list[str]]
    lloyd_s: float = 0.0
    check_s: float = 0.0


def _kmeans_objectives(observations, centroid_sets) -> list:
    out = []
    for cents in centroid_sets:
        labels = [kmeans.assign_cluster(x, cents) for x in observations]
        out.append(sim.distance_objective(observations, labels, cents))
    return out


class _OneRun:
    """A workload whose solve is one run: its logged run is the same call
    with ``log_messages=True``, checked like a timed one."""

    def log_run(self, inp, seed: int):
        return self.solve(inp, log_messages=True)

    def log_check(self, inp, trace, ref: Reference, pins: dict,
                  seed: int) -> list[str]:
        digest = log_digest(trace.message_log, inp.perm, inp.offset)
        return self.check(inp, trace, ref, pins, seed).problems[0] + pin_problems(
            {"log_sha256": digest}, {"log_sha256": pins["log_sha256"]},
            self.name)


# --------------------------------------------------------------------------
# kmeans-n45: one clustering run


@dataclass
class KMeansInputs:
    g: graph.Digraph
    orders: graph.EdgeOrdering
    observations: list
    centroids: list
    perm: list
    offset: tuple


class KMeansN45(_OneRun):
    name = "kmeans-n45"
    n, k, p = 45, 3, 0.05
    seeds = (11, 12, 13)

    def make_inputs(self, seed: int) -> KMeansInputs:
        perm, offset = symmetry(seed, self.n, len(REGION), 50)
        config = sim.ExperimentConfig(
            n=self.n, k=self.k, dim=len(REGION), region=shifted_region(offset),
            extra_edge_probability=self.p, graph_seed=self.seeds[0],
            observation_seed=self.seeds[1], centroid_seed=self.seeds[2])
        g0 = graph.generate_random_digraph(self.n, self.p, self.seeds[0])
        g, orders = relabel(g0, perm)
        return KMeansInputs(g, orders,
                            place(sim.generate_observations(config), perm),
                            sim.generate_centroids(config), perm, offset)

    def solve(self, inp: KMeansInputs, log_messages: bool = False):
        return sim.run_kmeans(inp.g, inp.observations, inp.centroids,
                              orders=inp.orders, log_messages=log_messages)

    def counts(self, trace) -> dict:
        return {"steps": trace.C_t, "rounds": trace.T,
                "mass_messages": trace.mass_messages,
                "extrema_messages": trace.extrema_messages,
                "payload_bits": trace.mass_payload_bits}

    def reference(self, inp: KMeansInputs) -> Reference:
        t0 = time.perf_counter()
        lloyd = oracle.lloyd_reference(inp.observations, inp.centroids)
        lloyd_s = time.perf_counter() - t0
        return Reference((lloyd, graph.diameter(inp.g)), lloyd_s)

    def check(self, inp: KMeansInputs, trace, ref: Reference, pins: dict,
              seed: int) -> Gate:
        t0 = time.perf_counter()
        lloyd, D = ref.expected
        problems = []
        report = oracle.check_equivalence(trace, lloyd)
        if not report.passed:
            problems.append(f"{self.name}: differs from Lloyd: {report.detail}")
        if not trace.terminated:
            problems.append(f"{self.name}: did not terminate")
        bound = trace.T * (D + self.n * inp.g.m ** 2)
        if trace.d_bound != D or trace.C_t > bound:
            problems.append(f"{self.name}: C_t {trace.C_t} over bound {bound}"
                            f" (window {trace.d_bound}, diameter {D})")
        observed = {"T": trace.T, "C_t": trace.C_t,
                    "mass_messages": trace.mass_messages,
                    "extrema_messages": trace.extrema_messages,
                    "mass_payload_bits": trace.mass_payload_bits}
        problems += pin_problems(observed, pins["counts"], self.name)
        if seed == 0:
            problems += pin_problems(observed, pins["seed0"], self.name)
        return Gate([problems], ref.lloyd_s, time.perf_counter() - t0)



# --------------------------------------------------------------------------
# consensus-n200: one plain averaging run


@dataclass
class ConsensusInputs:
    g: graph.Digraph
    orders: graph.EdgeOrdering
    values: list
    perm: list
    offset: tuple


class ConsensusN200(_OneRun):
    name = "consensus-n200"
    n, p, graph_seed, value_seed, reach = 200, 0.01, 5, 6, 1000

    def make_inputs(self, seed: int) -> ConsensusInputs:
        perm, offset = symmetry(seed, self.n, 2, self.reach)
        g0 = graph.generate_random_digraph(self.n, self.p, self.graph_seed)
        g, orders = relabel(g0, perm)
        rng = random.Random(self.value_seed)
        values = [tuple(rng.randint(-self.reach + o, self.reach + o)
                        for o in offset) for _ in range(self.n)]
        return ConsensusInputs(g, orders, place(values, perm), perm, offset)

    def solve(self, inp: ConsensusInputs, log_messages: bool = False):
        return sim.run_consensus(inp.g, inp.values, orders=inp.orders,
                                 log_messages=log_messages)

    def counts(self, trace) -> dict:
        bits = None
        if trace.message_log is not None:
            # run_consensus reports no payload size; the simulator's own
            # accounting, applied to the logged messages, gives it.
            stats = sim._MessageStats()
            for entry in trace.message_log:
                stats.record(consensus.Mass(entry[-1], entry[-2]))
            bits = stats.bits
        return {"steps": trace.steps, "rounds": 0,
                "mass_messages": trace.messages, "extrema_messages": 0,
                "payload_bits": bits}

    def reference(self, inp: ConsensusInputs) -> Reference:
        return Reference(oracle.brute_average(inp.values))

    def check(self, inp: ConsensusInputs, trace, ref: Reference, pins: dict,
              seed: int) -> Gate:
        t0 = time.perf_counter()
        problems = []
        average = ref.expected
        wrong = sum(1 for e in trace.estimates if e != average)
        if wrong:
            problems.append(f"{self.name}: {wrong} estimates differ from "
                            f"the exact average")
        bound = self.n * inp.g.m ** 2
        if trace.S_t > bound:
            problems.append(f"{self.name}: S_t {trace.S_t} over bound {bound}")
        observed = {"m": trace.m, "steps": trace.steps, "S_t": trace.S_t,
                    "messages": trace.messages}
        problems += pin_problems(observed, pins["counts"], self.name)
        return Gate([problems], 0.0, time.perf_counter() - t0)



# --------------------------------------------------------------------------
# sweep-n15-k6: ten short runs on fresh graphs through sweep()


@dataclass
class SweepInputs:
    config: sim.ExperimentConfig
    instances: list          # (graph, observations, centroids) per sweep seed
    offset: tuple


class SweepN15K6:
    """``sweep`` builds its graphs from seeds, so the benchmark cannot
    relabel them; the seed translates the value box only."""
    name = "sweep-n15-k6"
    n, k, p = 15, 6, 0.1
    seeds = (11, 12, 13)

    def make_inputs(self, seed: int) -> SweepInputs:
        _, offset = symmetry(seed, 0, len(REGION), 50)
        config = sim.ExperimentConfig(
            n=self.n, k=self.k, dim=len(REGION), region=shifted_region(offset),
            extra_edge_probability=self.p, graph_seed=self.seeds[0],
            observation_seed=self.seeds[1], centroid_seed=self.seeds[2])
        instances = []
        for index in range(SWEEP_SEEDS):
            sub = sim.config_for_seed(config, index)
            instances.append((
                graph.generate_random_digraph(self.n, self.p, sub.graph_seed),
                sim.generate_observations(sub), sim.generate_centroids(sub)))
        return SweepInputs(config, instances, offset)

    def solve(self, inp: SweepInputs, workers: Optional[int] = None):
        return sim.sweep(inp.config, SWEEP_SEEDS, workers=workers)

    def counts(self, result) -> dict:
        rows = result.per_seed
        return {"steps": sum(r["C_t"] for r in rows),
                "rounds": sum(r["T"] for r in rows),
                "mass_messages": sum(r["mass_messages"] for r in rows),
                "extrema_messages": sum(r["extrema_messages"] for r in rows),
                "payload_bits": None}

    def reference(self, inp: SweepInputs) -> Reference:
        """Per sweep seed: Lloyd's result, its objective sequence and the
        graph's diameter."""
        lloyd_s = 0.0
        expected = []
        for g, obs, cents in inp.instances:
            t0 = time.perf_counter()
            lloyd = oracle.lloyd_reference(obs, cents)
            lloyd_s += time.perf_counter() - t0
            expected.append((lloyd, _kmeans_objectives(obs, lloyd.centroid_sets),
                             graph.diameter(g)))
        return Reference(expected, lloyd_s)

    def check(self, inp: SweepInputs, result, ref: Reference, pins: dict,
              seed: int) -> Gate:
        t0 = time.perf_counter()
        problems = []
        for index, ((g, _, _), (lloyd, objectives, D), row) in enumerate(
                zip(inp.instances, ref.expected, result.per_seed)):
            where = f"{self.name} seed {index}"
            found = []
            if row["T"] != lloyd.T:
                found.append(f"{where}: T {row['T']}, Lloyd T {lloyd.T}")
            elif (row["objective_final"] != str(objectives[-1])
                  or row["objective_curve_float"] != [float(f) for f in objectives]):
                found.append(f"{where}: objective sequence differs from Lloyd")
            bound = row["T"] * (D + self.n * g.m ** 2)
            if (row["m"], row["diameter"], row["step_bound"]) != (g.m, D, bound) \
                    or row["C_t"] > bound:
                found.append(f"{where}: C_t {row['C_t']} over bound {bound} "
                             f"or graph mismatch")
            found += pin_problems(row, pins["per_seed"][index], where)
            problems.append(found)
        return Gate(problems, ref.lloyd_s, time.perf_counter() - t0)

    def log_run(self, inp: SweepInputs, seed: int):
        """The one logged run of an invocation: the sweep seed ``seed mod
        10`` through ``run_experiment``."""
        index = seed % SWEEP_SEEDS
        return index, sim.run_experiment(
            sim.config_for_seed(inp.config, index), log_messages=True)

    def log_check(self, inp: SweepInputs, logged, ref: Reference, pins: dict,
                  seed: int) -> list[str]:
        index, trace = logged
        where = f"{self.name} seed {index}"
        problems = []
        report = oracle.check_equivalence(trace, ref.expected[index][0])
        if not report.passed:
            problems.append(f"{where}: differs from Lloyd: {report.detail}")
        digest = log_digest(trace.message_log, list(range(self.n)), inp.offset)
        problems += pin_problems({"log_sha256": digest},
                                 {"log_sha256": pins["log_sha256"][index]}, where)
        return problems


WORKLOADS = {
    w.name: w for w in (KMeansN45(), ConsensusN200(), SweepN15K6())}
