"""Per-function counts and times of quantkmeans, measured from outside.

``Tracer.install`` replaces each traced function at every place the program
looks it up (``sim.py`` and ``kmeans.py`` import names directly, so the
module attribute alone is not enough) with a wrapper that counts the call
and times it.  A stack of child-time accumulators gives each function its
self time: its own duration minus the part covered by traced callees.  Only
per-function aggregates are kept; a per-span record would run into millions
on one paper-scale run.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import time

from quantkmeans import consensus, exactmath, graph, kmeans, sim

# (owner, attribute, aggregate name).  One name may cover several binding
# sites or methods: their calls and times add up.
SITES = [
    (sim, "run_kmeans", "sim.run_kmeans"),
    (sim, "run_consensus", "sim.run_consensus"),
    (sim, "sweep", "sim.sweep"),
    (sim, "distance_objective", "sim.distance_objective"),
    (sim, "generate_random_digraph", "graph.generate"),
    (graph, "generate_random_digraph", "graph.generate"),
    (sim, "diameter", "graph.diameter"),
    (sim, "is_strongly_connected", "graph.is_strongly_connected"),
    (sim, "extrema_merge", "coordination.extrema_merge"),
    (sim, "snapshot", "coordination.snapshot"),
    (sim, "window_check", "coordination.window_check"),
    (sim, "assign_cluster", "kmeans.assign_cluster"),
    (kmeans, "assign_cluster", "kmeans.assign_cluster"),
    (sim, "finalize_round", "kmeans.finalize_round"),
    (kmeans, "sq_dist_exact", "exactmath.sq_dist_exact"),
    (exactmath.FractionVector, "elementwise_max", "exactmath.elementwise"),
    (exactmath.FractionVector, "elementwise_min", "exactmath.elementwise"),
    (consensus.ConsensusState, "create", "consensus.create"),
    (consensus.ConsensusState, "held_nonzero", "consensus.held_nonzero"),
    (consensus.ConsensusState, "absorb_one", "consensus.absorb_one"),
    (consensus.ConsensusState, "trigger", "consensus.trigger"),
    (consensus.ConsensusState, "emit", "consensus.emit"),
    (consensus.ConsensusState, "node_step", "consensus.node_step"),
    (kmeans.NodeKMeansState, "begin_round", "kmeans.begin_round"),
    (kmeans.NodeKMeansState, "held_snapshot_values", "kmeans.held_snapshot"),
    (kmeans.NodeKMeansState, "mass_phase", "kmeans.mass_phase"),
]

# Called once per node and instance per step (2e7 times on a 1000-node run,
# where timing them would add about half a minute): counted, not timed, so
# their time stays in the caller's self time.  ``absorb`` is not wrapped for
# the same reason; ``absorb_one`` counts the arrivals it sums.
COUNT_ONLY = {"consensus.trigger", "consensus.held_nonzero"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.results: dict[str, list] = {}   # name -> return values kept
        self._stack: list[float] = []        # child time of each open call
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, keep: bool = False):
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        kept = self.results.setdefault(name, []) if keep else None
        stack = self._stack
        clock = time.perf_counter

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                agg[0] += 1
                return fn(*args, **kwargs)
            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child
            if kept is not None:
                kept.append(out)
            return out
        return wrapper

    def install(self, keep: tuple[str, ...] = ()) -> None:
        """Wrap every site; return values of the names in ``keep`` are
        collected in ``results``."""
        for owner, attr, name in SITES:
            original = vars(owner)[attr]
            if isinstance(original, property):
                new = property(self._wrap(name, original.fget))
            elif isinstance(original, classmethod):
                new = classmethod(self._wrap(name, original.__func__))
            else:
                new = self._wrap(name, original, name in keep)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_time(self, prefix: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k.startswith(prefix))
