import fractions
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from quantkmeans import sim
from quantkmeans.consensus import ConsensusState, Mass
from quantkmeans.coordination import extrema_merge, snapshot, window_check
from quantkmeans.exactmath import Fraction, FractionVector
from quantkmeans.graph import (Digraph, assign_edge_orders, diameter,
                               generate_random_digraph)
from quantkmeans.kmeans import NodeKMeansState, assign_cluster, finalize_round
from quantkmeans.oracle import brute_average, check_equivalence, lloyd_reference
from quantkmeans.sim import (ExperimentConfig, ProtocolError, config_for_seed,
                             distance_objective, run_consensus, run_experiment,
                             run_kmeans, sweep)

from conftest import (agreed_pairs, cycle_digraph, flood_verdict,
                      ladder_digraph)


def fv(*nums, den=1):
    return FractionVector(tuple(nums), den)


def stationary_distribution(g):
    """The exact stationary distribution of the uniform random walk on
    ``g`` (each out-edge taken with probability ``1/outdeg``): Gauss-Jordan
    over ``fractions.Fraction`` on ``pi = pi P`` with one equation replaced
    by ``sum(pi) = 1``."""
    n = g.n
    rows = [[fractions.Fraction(0)] * (n + 1) for _ in range(n)]
    for i in range(n):
        rows[i][i] -= 1
        for j in g.out_neighbors(i):
            rows[j][i] += fractions.Fraction(1, len(g.out_neighbors(i)))
    rows[-1] = [fractions.Fraction(1)] * (n + 1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def eight_node_counterexample():
    """An 8-node digraph (m=28, D=7) and integer values on which both step
    bounds fail under the canonical orders: the smallest overshoot a local
    search over edges and values found."""
    edges = [(0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3),
             (2, 4), (2, 5), (2, 6), (3, 2), (3, 4), (3, 6), (4, 6), (5, 1),
             (5, 2), (5, 3), (5, 4), (5, 6), (6, 3), (6, 4), (7, 0), (7, 1),
             (7, 2), (7, 4), (7, 5), (7, 6)]
    return Digraph(8, edges), [(v,) for v in (3, 1, 0, 2, 2, 0, 2, 0)]


def eulerian_digraph(seed):
    """A seeded union of edge-disjoint directed cycles on 4..20 nodes: a
    Hamiltonian cycle plus up to three more (a drawn cycle that would
    repeat an edge is skipped), with integer values for its nodes."""
    rng = random.Random(seed)
    n = rng.randint(4, 20)
    edges = set()
    cycles = [rng.sample(range(n), n)]
    cycles += [rng.sample(range(n), rng.randint(2, n))
               for _ in range(rng.randint(0, 3))]
    for cycle in cycles:
        links = {(cycle[(i + 1) % len(cycle)], v)
                 for i, v in enumerate(cycle)}
        if not links & edges:
            edges |= links
    values = [(rng.randint(-20, 20),) for _ in range(n)]
    return Digraph(n, edges), values


class TestRunConsensus:
    def test_three_cycle_scalar(self):
        trace = run_consensus(cycle_digraph(3), [(2,), (4,), (6,)])
        assert all(e == fv(4) for e in trace.estimates)
        assert trace.S_t <= 27    # n * m^2 = 3 * 9

    def test_three_cycle_vector(self):
        trace = run_consensus(cycle_digraph(3), [(1, 2), (3, 4), (5, 6)])
        assert all(e == fv(3, 4) for e in trace.estimates)

    def test_hand_traced_run_is_reproduced_exactly(self):
        # Single nonzero value 5 on a directed 3-cycle, worked out by hand:
        # the value mass merges with both zero masses and the combined mass
        # (5, 3) circulates from step 5 on; estimates settle at step 7.
        trace = run_consensus(cycle_digraph(3), [(5,), (0,), (0,)],
                              log_messages=True)
        assert trace.S_t == 7
        assert all(e == fv(5, den=3) for e in trace.estimates)
        # once the merged mass has toured the cycle, every node stores the
        # identical (y, z) pair, not merely the same value
        assert {(e.nums, e.den) for e in trace.estimates} == {((5,), 3)}
        assert trace.message_log == [
            (0, 0, 1, 1, (5,)),
            (0, 1, 2, 1, (0,)),
            (0, 2, 0, 1, (0,)),
            (1, 1, 2, 1, (5,)),
            (1, 2, 0, 1, (0,)),
            (2, 0, 1, 2, (0,)),
            (2, 2, 0, 1, (5,)),
            (3, 1, 2, 2, (0,)),
            (4, 2, 0, 2, (0,)),
            (5, 0, 1, 3, (5,)),
            (6, 1, 2, 3, (5,)),
            (7, 2, 0, 3, (5,)),
        ]

    def test_identical_values_converge_immediately(self):
        trace = run_consensus(cycle_digraph(4), [(3,)] * 4)
        assert trace.S_t == 0
        assert all(e == fv(3) for e in trace.estimates)

    def test_overshoot_of_the_step_bound_is_reported_not_raised(self):
        # The round-robin walk reaches the last stale estimate only at step
        # 73,196, above n*m^2 = 55,223: the run must end and report it.
        g = generate_random_digraph(23, 0.05, seed=972805)
        values = [(v,) for v in (1, 2, 2, 1, 0, 2, -1, 2, -1, -1, 1, 0, 2,
                                 2, 2, 1, 0, -1, -1, -2, 1, -2, -2)]
        trace = run_consensus(g, values)
        assert (trace.S_t, trace.step_bound) == (73196, 55223)
        assert trace.bound_ok is False
        assert all(e == fv(8, den=23) for e in trace.estimates)

    @pytest.mark.parametrize("n, S_t, step_bound, bound_ok", [
        (12, 2856, 5808, True),
        (13, 7461, 7488, True),
        (14, 10537, 9464, False),
        (15, 22825, 11760, False),
        (16, 59686, 14400, False),
        (17, 84266, 17408, False),
    ])
    def test_ladder_overshoot_is_reported(self, n, S_t, step_bound,
                                          bound_ok):
        values = [(i % 3,) for i in range(n)]
        trace = run_consensus(ladder_digraph(n), values)
        assert trace.S_t == trace.steps == S_t
        assert trace.step_bound == step_bound
        assert trace.bound_ok is bound_ok
        assert all(e == brute_average(values) for e in trace.estimates)

    @pytest.mark.parametrize("n", range(4, 25))
    def test_ladder_return_time_doubles_per_node(self, n):
        # the rarest node's mean return time 1/pi_min, which the ladder's
        # S_t above tracks; it doubles with each node
        pi = stationary_distribution(ladder_digraph(n))
        assert sum(pi) == 1 and min(pi) > 0
        assert 1 / min(pi) == 3 * 2 ** (n - 2) - 1

    def test_eight_node_overshoot_is_reported(self):
        g, values = eight_node_counterexample()
        trace = run_consensus(g, values)
        assert trace.S_t == trace.steps == 8357
        assert trace.step_bound == 6272
        assert trace.bound_ok is False
        assert all(e == fv(5, den=4) for e in trace.estimates)

    @pytest.mark.parametrize("orders_seed", [None, 1, 2])
    def test_eulerian_digraphs_keep_the_step_bound(self, orders_seed):
        """On an Eulerian digraph (every in-degree equals the out-degree)
        the walk's stationary measure is ``outdeg/m``, so no node is rarely
        visited.  That the ``n*m^2`` bound then holds is a sampled property
        of these 30 seeded graphs, not a theorem."""
        for seed in range(30):
            g, values = eulerian_digraph(seed)
            assert all(len(g.in_neighbors(j)) == len(g.out_neighbors(j))
                       for j in range(g.n))
            orders = (None if orders_seed is None
                      else assign_edge_orders(g, seed=orders_seed))
            trace = run_consensus(g, values, orders=orders)
            assert trace.bound_ok, (seed, trace.S_t, trace.step_bound)
            assert all(e == brute_average(values) for e in trace.estimates)

    def test_random_batch_matches_brute_average(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(4, 15)
            d = rng.choice([1, 2, 3])
            g = generate_random_digraph(n, rng.choice([0.0, 0.2]),
                                        seed=rng.randint(0, 10 ** 6))
            values = [tuple(rng.randint(-50, 50) for _ in range(d))
                      for _ in range(n)]
            trace = run_consensus(g, values)
            average = brute_average(values)
            assert all(e == average for e in trace.estimates)
            assert trace.S_t <= trace.step_bound

    def test_rejects_disconnected_graph(self):
        with pytest.raises(ValueError, match="strongly connected"):
            run_consensus(Digraph(3, [(1, 0), (2, 1)]), [(1,), (2,), (3,)])

    def test_rejects_tiny_networks(self):
        with pytest.raises(ValueError):
            run_consensus(Digraph(2, [(0, 1), (1, 0)]), [(1,), (2,)])

    def test_rejects_zero_dimensional_values(self):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            run_consensus(cycle_digraph(5), [()] * 5)

    def test_one_message_per_node_per_step(self):
        trace = run_consensus(cycle_digraph(5), [(9,), (0,), (0,), (0,), (4,)],
                              log_messages=True)
        by_step_sender = {}
        for step, sender, _, _, _ in trace.message_log:
            key = (step, sender)
            by_step_sender[key] = by_step_sender.get(key, 0) + 1
        assert all(v == 1 for v in by_step_sender.values())


def reference_consensus(g, values, orders):
    """The per-node protocol as a plain loop: every node runs ``node_step``
    on its inbox at every step, with the stop rule of ``run_consensus``.
    Returns the message log, S_t, the step count and the estimates."""
    n = g.n
    total = [sum(col) for col in zip(*values)]
    states, pending, log = [], [], []
    for j, v in enumerate(values):
        state, (dest, mass) = ConsensusState.create(v, 1, orders.targets(j))
        states.append(state)
        pending.append((dest, mass))
        log.append((0, j, dest, 1, v))

    def carries_average(y, z):
        return all(yi * n == ti * z for yi, ti in zip(y, total))

    def estimates_exact():
        return all(st.stored_z and carries_average(st.stored_y, st.stored_z)
                   for st in states)

    def masses_settled():
        masses = [(st.held_y, st.held_z) for st in states if st.held_nonzero]
        masses += [(mass.y, mass.z) for _, mass in pending]
        return all(carries_average(y, z) for y, z in masses)

    step = 0
    first_stable = 0 if estimates_exact() else None
    while first_stable is None or not masses_settled():
        step += 1
        inbox = [[] for _ in range(n)]
        for dest, mass in pending:
            inbox[dest].append(mass)
        pending = []
        for j, st in enumerate(states):
            out = st.node_step(inbox[j])
            if out is not None:
                pending.append(out)
                log.append((step, j, out[0], out[1].z, out[1].y))
        if not estimates_exact():
            first_stable = None
        elif first_stable is None:
            first_stable = step
    return log, first_stable, step, [st.estimate for st in states]


def reference_kmeans(g, obs, cents, orders):
    """The clustering protocol as a plain per-node loop, with ``D`` the
    diameter.  Each step every node absorbs its inbox, the window rule
    applies, and then, unless the window closed the round, every node polls
    all ``k`` labels through ``ConsensusState.trigger`` and ``emit``
    (``NodeKMeansState.mass_phase``).  A window's verdict is the max/min
    fold over every node's snapshot.  Returns the message log, the centroid
    sets and the steps of each round."""
    k, window = len(cents), diameter(g)
    nodes = [NodeKMeansState(obs[j], orders.targets(j))
             for j in range(g.n)]
    centroid_sets, round_steps, log = [tuple(cents)], [], []

    def fold(values):
        every = [snapshot(v) for v in values]
        return window_check(extrema_merge(every[0], every[1:]))

    while len(round_steps) < 2 or centroid_sets[-1] != centroid_sets[-2]:
        base, step, pending = sum(round_steps), 1, []
        for j, node in enumerate(nodes):
            label = assign_cluster(node.x, centroid_sets[-1])
            for cl, dest, mass in node.begin_round(k, label):
                pending.append((dest, cl, mass))
                log.append((base + step, j, dest, cl, mass.z, mass.y))
        verdict = fold([[FractionVector(node.x, 1) if cl == node.assignment
                         else None for cl in range(k)] for node in nodes])
        merges = 0
        while True:
            step += 1
            for dest, cl, mass in pending:
                nodes[dest].instances[cl].absorb_one(mass.y, mass.z)
            pending = []
            merges += 1
            if merges == window:
                if verdict is not None:
                    break
                verdict = fold([node.held_snapshot_values()
                                for node in nodes])
                merges = 0
            for j, node in enumerate(nodes):
                for cl, dest, mass in node.mass_phase(range(k)):
                    pending.append((dest, cl, mass))
                    log.append((base + step, j, dest, cl, mass.z, mass.y))
        round_steps.append(step)
        centroid_sets.append(finalize_round(verdict, centroid_sets[-1])[0])
    return log, centroid_sets, round_steps


class TestLockStepMatchesPerNodeReference:
    @pytest.mark.parametrize("case", range(12))
    def test_run_consensus_matches_node_step_loop(self, case):
        rng = random.Random(7100 + case)
        n = rng.randint(4, 30)
        dim = rng.randint(1, 3)
        g = generate_random_digraph(n, (0.0, 0.2)[case % 2],
                                    seed=rng.randint(0, 10 ** 6))
        big = 10 ** 30
        values = [tuple(rng.choice((rng.randint(-50, 50), big, -big,
                                    big - rng.randint(1, 9)))
                        for _ in range(dim)) for _ in range(n)]
        orders = assign_edge_orders(g, seed=case if case % 3 else None)
        log, S_t, steps, estimates = reference_consensus(g, values, orders)
        trace = run_consensus(g, values, orders=orders, log_messages=True)
        assert trace.message_log == log
        assert (trace.S_t, trace.steps) == (S_t, steps)
        assert [(e.nums, e.den) for e in trace.estimates] == \
               [(e.nums, e.den) for e in estimates]
        assert trace.messages == len(log)


class TestRunsCallNoPerNodeMethod:
    """The engine builds, opens and drives its instances itself.  With every
    per-node protocol method made to raise, the runners and ``sweep`` must
    return exactly what they return unpatched."""

    PER_NODE = [(ConsensusState, name) for name in
                ("create", "emit", "trigger", "absorb_one", "node_step")] + \
               [(NodeKMeansState, name) for name in
                ("begin_round", "mass_phase", "held_snapshot_values")]

    @pytest.mark.parametrize("seed", range(3))
    def test_results_match_unpatched_runs(self, monkeypatch, seed):
        g, values, orders = random_consensus_case(seed)
        g2, obs, cents, orders2 = random_kmeans_case(seed)
        cfg = ExperimentConfig(n=9, k=2, dim=2, region=((0, 12), (0, 12)),
                               extra_edge_probability=0.3, graph_seed=seed)
        runs = [
            lambda: run_consensus(g, values, orders=orders,
                                  log_messages=True),
            lambda: run_kmeans(g2, obs, cents, orders=orders2,
                               log_messages=True),
            lambda: sweep(cfg, 2)]
        expected = [run() for run in runs]

        def refuse(*args, **kwargs):
            raise AssertionError("a per-node protocol method ran")

        for owner, name in self.PER_NODE:
            monkeypatch.setattr(owner, name, refuse)
        assert [run() for run in runs] == expected


class TestConservationCheck:
    def test_extra_counter_unit_is_caught(self, delivery_leak):
        with pytest.raises(ProtocolError, match="mass conservation violated"):
            run_consensus(cycle_digraph(4), [(1,), (2,), (3,), (4,)])
        g = generate_random_digraph(8, 0.3, seed=13)
        obs = [(i, 2 * i) for i in range(8)]
        with pytest.raises(ProtocolError, match="mass conservation violated"):
            run_kmeans(g, obs, [fv(0, 0), fv(7, 14)])
        cfg = ExperimentConfig(n=10, k=2, dim=2, region=((0, 15), (0, 15)),
                               extra_edge_probability=0.2)
        with pytest.raises(ProtocolError, match="mass conservation violated"):
            run_experiment(cfg)
        with pytest.raises(ProtocolError, match="mass conservation violated"):
            sweep(cfg, 2)


def random_consensus_case(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 25)
    dim = rng.randint(1, 3)
    g = generate_random_digraph(n, rng.choice([0.0, 0.2]),
                                seed=rng.randint(0, 10 ** 6))
    # a narrow value range gives many equal values and exact ratios
    reach = rng.choice([1, 50])
    values = [tuple(rng.randint(-reach, reach) for _ in range(dim))
              for _ in range(n)]
    return g, values, assign_edge_orders(g, seed=seed if seed % 2 else None)


def random_kmeans_case(seed, k_max=3):
    rng = random.Random(seed)
    n = rng.randint(k_max + 2, 20)
    k = rng.randint(2, k_max)
    g = generate_random_digraph(n, rng.choice([0.1, 0.3]),
                                seed=rng.randint(0, 10 ** 6))
    obs = [tuple(rng.randint(-15, 15) for _ in range(2)) for _ in range(n)]
    cents = [fv(*(rng.randint(-15, 15) for _ in range(2))) for _ in range(k)]
    orders = assign_edge_orders(g, seed=seed if seed % 2 else None)
    return g, obs, cents, orders


def held_totals(lock):
    """Per label, the held (*y, z) summed over every node."""
    return [tuple(map(sum, zip(*((*st.held_y, st.held_z) for st in states))))
            for states in zip(*lock.instances)]


def run_both_runners(seed, check, log_messages=False):
    """Call ``check`` with a plain averaging run and then a clustering run
    of ``seed``, each as a callable with no arguments."""
    g, values, orders = random_consensus_case(seed)
    check(lambda: run_consensus(g, values, orders=orders,
                                log_messages=log_messages))
    g, obs, cents, orders = random_kmeans_case(seed)
    check(lambda: run_kmeans(g, obs, cents, orders=orders,
                             log_messages=log_messages))


class TestIncrementalConservation:
    """The per-step and per-window check re-reads only touched pairs; these
    compare it with a sum over the whole state."""

    @pytest.mark.parametrize("seed", range(6))
    def test_running_sums_equal_a_whole_state_sum(self, monkeypatch, seed):
        # The cached held pairs must be exactly the nonzero held pairs.
        check = sim._LockStep.check_conservation
        checks = []

        def compared(lock):
            check(lock)
            assert list(lock.held_sums) == held_totals(lock)
            assert lock.held == {
                (j, cl): (*st.held_y, st.held_z)
                for j, row in enumerate(lock.instances)
                for cl, st in enumerate(row)
                if st.held_z or any(st.held_y)}
            checks.append(lock.steps)

        monkeypatch.setattr(sim._LockStep, "check_conservation", compared)
        run_both_runners(seed, lambda run: run())
        assert checks

    @pytest.mark.parametrize("first_step", [1, 2])
    @pytest.mark.parametrize("leak", ["message", "held"])
    @pytest.mark.parametrize("seed", range(4))
    def test_leak_in_emit_is_caught_at_the_first_unbalanced_check(
            self, monkeypatch, leak, seed, first_step):
        # Every check must raise exactly when a whole-state sum first
        # disagrees with the injected mass, as the whole-state check did.
        # From the engine's step ``first_step`` on (step 1 is the round's
        # opening emit), each instance that fires gains one counter unit,
        # on the message it sends or on the held pair it keeps.
        emit = sim._LockStep.emit

        def leaky(lock, received):
            if lock.steps < first_step:
                return emit(lock, received)
            states = [lock.instances[j][cl] for j, cl in received]
            fired_before = [st.tr for st in states]
            sent = len(lock.pending)
            emit(lock, received)
            if leak == "held":
                for st, tr in zip(states, fired_before):
                    if st.tr != tr:
                        st.held_z += 1
            else:
                lock.pending[sent:] = [(r, cl, Mass(mass.y, mass.z + 1))
                                       for r, cl, mass in lock.pending[sent:]]

        check = sim._LockStep.check_conservation
        balanced = []

        def compared(lock):
            try:
                lock.check_conservation_scan()
                balanced.append(True)
            except ProtocolError:
                balanced.append(False)
            check(lock)

        def caught_first_time(run):
            balanced.clear()
            with pytest.raises(ProtocolError,
                               match="mass conservation violated"):
                run()
            assert balanced[-1] is False and all(balanced[:-1])

        monkeypatch.setattr(sim._LockStep, "emit", leaky)
        monkeypatch.setattr(sim._LockStep, "check_conservation", compared)
        run_both_runners(seed, caught_first_time)

    @pytest.mark.parametrize("when", ["early", "last"])
    @pytest.mark.parametrize("seed", range(4))
    def test_corrupt_pair_that_received_nothing_is_caught_by_round_close(
            self, when, seed):
        # "last" corrupts on the step that closes the first clustering
        # round (the last step of plain averaging): no later check re-reads
        # the pair, so only the whole-state check at the close can see it.
        g, values, orders = random_consensus_case(seed)
        clean = run_consensus(g, values, orders=orders)
        # run_consensus counts from step 0; the engine's counter starts at 1
        step = clean.steps + 1 if when == "last" else 3
        opened = corrupt_one_held_pair(step, lambda: run_consensus(
            g, values, orders=orders))
        assert opened == 1

        g, obs, cents, orders = random_kmeans_case(seed)
        clean = run_kmeans(g, obs, cents, orders=orders)
        step = clean.rounds[1].steps if when == "last" else 3
        opened = corrupt_one_held_pair(step, lambda: run_kmeans(
            g, obs, cents, orders=orders))
        assert opened == 1


def corrupt_one_held_pair(step, run):
    """Run ``run`` with one unit added to the held counter of a node that
    received nothing at ``step`` of the first round; it must raise.
    Returns how many rounds had opened by then."""
    deliver = sim._LockStep.deliver
    init = sim._LockStep.__init__
    opened = []

    def opening(lock, *args):
        init(lock, *args)
        opened.append(lock)

    def corrupting(lock):
        received = deliver(lock)
        if lock is opened[0] and lock.steps == step:
            j = next(j for j in range(len(lock.instances))
                     if all(r != j for r, _ in received))
            lock.instances[j][0].held_z += 1
        return received

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim._LockStep, "__init__", opening)
        patch.setattr(sim._LockStep, "deliver", corrupting)
        with pytest.raises(ProtocolError, match="mass conservation violated"):
            run()
    return len(opened)


class TestEmitOnlyWhenTriggered:
    """The engine evaluates the trigger inline: on every step of both
    runners, the logged (sender, label) sends must be, in order, exactly
    the received pairs whose ``ConsensusState.trigger`` holds before
    ``emit``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_emit_finds_its_trigger_holding(self, monkeypatch, seed):
        emit = sim._LockStep.emit
        sends = []

        def checked(lock, received):
            due = [(j, cl) for j, cl in received
                   if lock.instances[j][cl].trigger()]
            logged = len(lock.log)
            emit(lock, received)
            assert [(sender, cl) for _, sender, _, cl, _, _
                    in lock.log[logged:]] == due
            sends.extend(due)

        def emits(run):
            sends.clear()
            run()
            assert sends

        monkeypatch.setattr(sim._LockStep, "emit", checked)
        run_both_runners(seed, emits, log_messages=True)


class TestPollingReceivedPairs:
    @pytest.mark.parametrize("seed", range(8))
    def test_polling_every_label_of_a_receiver_changes_nothing(self, seed):
        # The engine polls only the received pairs; the reference polls all
        # k labels of every node.
        g, obs, cents, orders = random_kmeans_case(seed, k_max=6)
        trace = run_kmeans(g, obs, cents, orders=orders, log_messages=True)
        log, centroid_sets, round_steps = reference_kmeans(g, obs, cents,
                                                           orders)
        assert trace.message_log == log
        assert (trace.T, trace.C_t) == (len(round_steps), sum(round_steps))
        assert [r.steps for r in trace.rounds[1:]] == round_steps
        assert [r.centroids for r in trace.rounds] == centroid_sets
        assert trace.mass_messages == len(log)
        assert trace.terminated


def reference_stop_rule(g, values, orders):
    """``run_consensus``'s loop on the same engine, with its stop rule
    recomputed over every node at every step.  Returns (steps, S_t)."""
    n = g.n
    total = [sum(col) for col in zip(*values)]
    targets = [orders.targets(j) for j in range(n)]
    lock = sim._LockStep(values, targets, 1, [0] * n, sim._MessageStats(),
                         None, -1)
    lock.emit(list(lock.held))
    states = [row[0] for row in lock.instances]

    def carries_average(y, z):
        return all(yi * n == ti * z for yi, ti in zip(y, total))

    def estimates_exact():
        return all(st.stored_z and carries_average(st.stored_y, st.stored_z)
                   for st in states)

    def masses_settled():
        masses = [(st.held_y, st.held_z) for st in states]
        masses += [(mass.y, mass.z) for _, _, mass in lock.pending]
        return all(carries_average(y, z) for y, z in masses)

    step = 0
    first_stable = 0 if estimates_exact() else None
    while first_stable is None or not masses_settled():
        step += 1
        lock.emit(lock.deliver())
        if not estimates_exact():
            first_stable = None
        elif first_stable is None:
            first_stable = step
    return step, first_stable


def held_mass_case(seed):
    """Small graphs with values in -1..1, where a run can reach a step at
    which every estimate is exact but a held mass is not."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    p = rng.choice([0.0, 0.0, 0.1])
    values = [(rng.randint(-1, 1),) for _ in range(n)]
    g = generate_random_digraph(n, p, seed)
    return g, values, assign_edge_orders(g, seed if seed % 2 else None)


def stop_rule_cases():
    """Inputs on which ``run_consensus``'s stop step is held to the
    whole-state rule: 200 random cases, the ladders and the 8-node
    counterexample, whose runs overshoot the step bound, all-equal values,
    and the five ``held_mass_case`` seeds in 0..5999 whose runs reach a
    step with every estimate exact and a held mass off the average."""
    cases = [random_consensus_case(seed) for seed in range(200)]
    graphs = [(ladder_digraph(n), [(i % 3,) for i in range(n)])
              for n in range(6, 13)]
    graphs += [eight_node_counterexample(),
               (cycle_digraph(5), [(7, -2)] * 5)]
    cases += [(g, values, assign_edge_orders(g)) for g, values in graphs]
    return cases + [held_mass_case(seed)
                    for seed in (1473, 2330, 2431, 3095, 5716)]


class TestStopRuleCounts:
    @pytest.mark.parametrize("part", range(12))
    def test_counts_match_a_whole_state_stop_rule(self, part):
        # every twelfth case, from ``part`` on
        for g, values, orders in stop_rule_cases()[part::12]:
            trace = run_consensus(g, values, orders=orders)
            expected = reference_stop_rule(g, values, orders)
            assert (trace.steps, trace.S_t) == expected
            if len(set(values)) == 1:
                assert expected == (0, 0)

    def test_a_held_mass_off_the_average_keeps_the_run_going(self):
        # On this 8-cycle every estimate is exact at step 5 and every
        # message in flight carries the average, but one held mass does
        # not; it moves later and estimates part again until step 21.
        g = Digraph(8, [(0, 1), (1, 4), (4, 5), (5, 2), (2, 6), (6, 3),
                        (3, 7), (7, 0)])
        values = [(1,), (0,), (-1,), (-1,), (-1,), (1,), (0,), (1,)]
        orders = assign_edge_orders(g)
        trace = run_consensus(g, values, orders=orders)
        assert (trace.steps, trace.S_t) == (21, 21) == \
            reference_stop_rule(g, values, orders)


class TestReportedGuarantees:
    def test_bound_ok_is_false_when_a_run_overshoots(self, over_step_bound):
        trace = run_consensus(cycle_digraph(3), [(5,), (0,), (0,)])
        assert trace.S_t > trace.step_bound
        assert trace.bound_ok is False
        trace = run_kmeans(cycle_digraph(4), [(i,) for i in range(4)],
                           [fv(0), fv(3)])
        assert trace.C_t > trace.step_bound
        assert trace.bound_ok is False

    def test_all_bounds_ok_is_false_when_one_seed_overshoots(self,
                                                             monkeypatch):
        cfg = ExperimentConfig(n=10, k=2, dim=2, region=((0, 15), (0, 15)),
                               extra_edge_probability=0.2)
        run = sim.run_experiment

        def seed_one_over_bound(config, **kwargs):
            trace = run(config, **kwargs)
            trace.bound_ok = config != config_for_seed(cfg, 1)
            return trace

        monkeypatch.setattr(sim, "run_experiment", seed_one_over_bound)
        result = sweep(cfg, 3)
        assert [row["bound_ok"] for row in result.per_seed] == \
               [True, False, True]
        assert result.all_bounds_ok is False

    def test_a_send_at_the_stop_step_is_not_silent(self, monkeypatch):
        deliver = sim._LockStep.deliver

        def deliver_and_chatter(self):
            # a zero mass from node 0 to node 1, logged and counted as the
            # engine logs a send; it changes no held pair and fires no
            # trigger
            receivers = deliver(self)
            step = self.step_base + self.steps
            self.pending.append((1, 0, Mass((0,), 0)))
            self.messages += 1
            self.stats.last_step = step
            self.log.append((step, 0, 1, 0, 0, (0,)))
            return receivers

        monkeypatch.setattr(sim._LockStep, "deliver", deliver_and_chatter)
        trace = run_kmeans(cycle_digraph(4), [(i,) for i in range(4)],
                           [fv(0), fv(3)], log_messages=True)
        assert trace.terminated
        assert max(row[0] for row in trace.message_log) == trace.C_t
        assert trace.silent_after_stop is False


def check_verdicts_by_flood(monkeypatch, g, window):
    """Make every window verdict of the following clustering runs on ``g``
    equal the node-by-node flood over every node's snapshot.  Each node's
    snapshot is rebuilt from the held pairs the verdict receives, and the
    whole per-node list must equal the nodes' own snapshots, which
    ``held_snapshot_values`` reads from each node's instances (when a round
    opens, they hold the injected ``x_j/1`` under each node's label).  The
    verdict must also equal the max/min fold over that list, agreed values
    in the same (nums, den) form.  Returns the list the checked verdicts are
    appended to."""
    in_nbrs = [g.in_neighbors(j) for j in range(g.n)]
    window_verdict = sim._window_verdict
    init = sim._LockStep.__init__
    rounds, verdicts = [], []

    def opened(lock, *args):
        init(lock, *args)
        rounds.append(lock)

    def checked(k, held):
        values = []
        for row in rounds[-1].instances:
            node = NodeKMeansState((), row[0].targets)
            node.instances = row
            values.append(node.held_snapshot_values())
        every = [snapshot(v) for v in values]
        rebuilt = [[None] * k for _ in values]
        for (j, cl), (*y, z) in held.items():
            rebuilt[j][cl] = FractionVector(y, z).reduced()
        assert list(map(snapshot, rebuilt)) == every
        verdict = window_verdict(k, held)
        fold = window_check(extrema_merge(every[0], every[1:]))
        assert fold == verdict
        assert agreed_pairs(fold) == agreed_pairs(verdict)
        assert flood_verdict(in_nbrs, every, window) == verdict
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(sim._LockStep, "__init__", opened)
    monkeypatch.setattr(sim, "_window_verdict", checked)
    return verdicts


@pytest.mark.parametrize("other", [
    generate_random_digraph(8, 0.3, 2),     # same nodes, other edges
    generate_random_digraph(5, 0.3, 1),     # fewer nodes
], ids=["other-graph", "smaller-graph"])
@pytest.mark.parametrize("runner", ["consensus", "kmeans"])
def test_edge_orders_of_another_graph_rejected(other, runner):
    g = generate_random_digraph(8, 0.3, 1)
    obs = [(i % 3, i) for i in range(8)]
    orders = assign_edge_orders(other)
    with pytest.raises(ValueError,
                       match="^edge orders do not match the graph$"):
        if runner == "consensus":
            run_consensus(g, obs, orders=orders)
        else:
            run_kmeans(g, obs, [fv(0, 0), fv(2, 7)], orders=orders)


class TestVectorInputRules:
    @pytest.mark.parametrize("values, message", [
        ([(1,), (2,), (3,)], "one vector per node is required"),
        ([(1,), (2, 3), (4,), (5,)], "vectors must share one dimension")])
    @pytest.mark.parametrize("runner", ["consensus", "kmeans"])
    def test_rejected_by_both_runners(self, runner, values, message):
        g = cycle_digraph(4)
        with pytest.raises(ValueError) as exc:
            if runner == "consensus":
                run_consensus(g, values)
            else:
                run_kmeans(g, values, [fv(0)])
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [0.5, True, fractions.Fraction(1, 2)])
    @pytest.mark.parametrize("where", ["consensus", "kmeans",
                                       "centroid numerator",
                                       "centroid denominator"])
    def test_non_integers_are_rejected(self, where, bad):
        g = cycle_digraph(4)
        values = [(1,), (2,), (3,), (4,)]
        centroids = [fv(0)]
        what = "coordinates"
        if where.startswith("centroid"):
            centroids = [FractionVector((bad,)) if where.endswith("numerator")
                         else FractionVector((1,), bad)]
            what = "centroid numerators and denominators"
        else:
            values[1] = (bad,)
        with pytest.raises(ValueError) as exc:
            if where == "consensus":
                run_consensus(g, values)
            else:
                run_kmeans(g, values, centroids)
        assert str(exc.value) == f"{what} must be integers, not {bad!r}"


class TestRunKMeans:
    def test_single_cluster_needs_two_calculations(self):
        g = generate_random_digraph(5, 0.2, seed=8)
        obs = [(2,), (4,), (6,), (8,), (10,)]
        trace = run_kmeans(g, obs, [fv(0)])
        assert trace.T == 2
        assert trace.terminated
        assert trace.rounds[-1].centroids[0] == fv(6)

    def test_ladder_overshoot_is_reported(self):
        g = ladder_digraph(16)
        obs = [(i % 5, 7 * i % 4) for i in range(16)]
        cents = [fv(0, 0), fv(4, 3)]
        trace = run_kmeans(g, obs, cents)
        assert (trace.T, trace.C_t, trace.step_bound) == (4, 96034, 57660)
        assert trace.bound_ok is False
        assert trace.terminated
        assert check_equivalence(trace, lloyd_reference(obs, cents)).passed

    def test_eight_node_overshoot_is_reported(self):
        g, obs = eight_node_counterexample()
        trace = run_kmeans(g, obs, [fv(0), fv(2)])
        assert (trace.T, trace.C_t) == (2, 14338)
        assert [r.steps for r in trace.rounds] == [0, 7169, 7169]
        assert trace.step_bound == 12558
        assert trace.bound_ok is False

    def test_empty_cluster_carries_centroid(self):
        g = generate_random_digraph(4, 0.5, seed=3)
        trace = run_kmeans(g, [(7, 7)] * 4, [fv(7, 7), fv(9, 9)])
        assert trace.T == 2
        assert trace.rounds[-1].centroids[1] == fv(9, 9)
        assert trace.terminated

    def test_objective_monotone_and_bound_checked(self):
        g = generate_random_digraph(12, 0.2, seed=21)
        rng = random.Random(4)
        obs = [tuple(rng.randint(0, 40) for _ in range(2)) for _ in range(12)]
        trace = run_kmeans(g, obs, [fv(1, 1), fv(30, 30), fv(40, 0)])
        values = [r.objective for r in trace.rounds]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert trace.C_t <= trace.step_bound
        assert trace.bound_ok

    def test_silence_after_termination(self):
        g = generate_random_digraph(8, 0.3, seed=13)
        rng = random.Random(5)
        obs = [tuple(rng.randint(0, 20) for _ in range(2)) for _ in range(8)]
        trace = run_kmeans(g, obs, [fv(0, 0), fv(20, 20)], log_messages=True)
        assert trace.terminated
        assert trace.silent_after_stop
        assert max(row[0] for row in trace.message_log) < trace.C_t

    def test_no_message_on_a_round_closing_step(self):
        g = generate_random_digraph(12, 0.2, seed=21)
        rng = random.Random(4)
        obs = [tuple(rng.randint(0, 40) for _ in range(2)) for _ in range(12)]
        trace = run_kmeans(g, obs, [fv(1, 1), fv(30, 30), fv(40, 0)],
                           log_messages=True)
        closing = set(itertools.accumulate(r.steps for r in trace.rounds[1:]))
        logged = {row[0] for row in trace.message_log}
        assert len(closing) == trace.T >= 2
        assert not closing & logged
        # the next round's initial transmissions leave right after a close
        assert {step + 1 for step in closing if step < trace.C_t} <= logged

    def test_deterministic_repetition(self):
        g = generate_random_digraph(10, 0.25, seed=2)
        rng = random.Random(11)
        obs = [tuple(rng.randint(-10, 10) for _ in range(2)) for _ in range(10)]
        cents = [fv(-5, -5), fv(5, 5)]
        a = run_kmeans(g, obs, cents, log_messages=True)
        b = run_kmeans(g, obs, cents, log_messages=True)
        assert a.message_log == b.message_log
        assert a.C_t == b.C_t
        assert [str(c) for r in a.rounds for c in r.centroids] == \
               [str(c) for r in b.rounds for c in r.centroids]

    def test_max_rounds_reports_unterminated(self):
        g = generate_random_digraph(6, 0.3, seed=9)
        obs = [(0, 0), (1, 0), (9, 9), (10, 9), (0, 9), (9, 0)]
        trace = run_kmeans(g, obs, [fv(2, 2), fv(8, 8)], max_rounds=1)
        assert not trace.terminated
        assert trace.T == 1

    @pytest.mark.parametrize("d_bound", ["auto", 5])
    def test_rejects_disconnected_graph(self, d_bound):
        # ``diameter`` is the only connectivity check a clustering run makes
        g = Digraph(4, [(1, 0), (2, 1), (3, 2)])
        with pytest.raises(ValueError, match="not strongly connected"):
            run_kmeans(g, [(i,) for i in range(4)], [fv(0)], d_bound=d_bound)

    def test_d_bound_below_diameter_rejected(self):
        g = cycle_digraph(6)     # diameter 5
        with pytest.raises(ValueError, match="below the true diameter"):
            run_kmeans(g, [(i,) for i in range(6)], [fv(0)], d_bound=2)

    @pytest.mark.parametrize("d_bound", [None, 3.7, "3", True])
    def test_d_bound_must_be_auto_or_an_integer(self, d_bound):
        g = cycle_digraph(4)     # diameter 3
        with pytest.raises(ValueError) as exc:
            run_kmeans(g, [(i,) for i in range(4)], [fv(0)], d_bound=d_bound)
        assert str(exc.value) \
            == f"d_bound must be 'auto' or an integer, not {d_bound!r}"

    def test_centroid_dimension_must_match_the_observations(self):
        g = cycle_digraph(4)
        with pytest.raises(ValueError) as exc:
            run_kmeans(g, [(i, 0) for i in range(4)], [fv(0)])
        assert str(exc.value) \
            == "centroid dimension does not match the observations"

    def test_d_bound_above_diameter_is_allowed(self):
        g = cycle_digraph(5)
        trace = run_kmeans(g, [(i,) for i in range(5)], [fv(0)], d_bound=9)
        assert trace.terminated
        assert trace.rounds[-1].centroids[0] == fv(2)

    def test_rejects_too_many_clusters(self):
        g = cycle_digraph(4)
        with pytest.raises(ValueError, match="1 <= k < n"):
            run_kmeans(g, [(i,) for i in range(4)], [fv(i) for i in range(4)])

    def test_rejects_zero_dimensional_observations(self):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            run_kmeans(cycle_digraph(5), [()] * 5, [FractionVector(())])

    def test_rejects_zero_rounds(self):
        g = cycle_digraph(4)
        with pytest.raises(ValueError,
                           match="max_rounds must be a positive integer"):
            run_kmeans(g, [(i,) for i in range(4)], [fv(0)], max_rounds=0)

    def test_matches_lloyd_on_random_instances(self, monkeypatch):
        # Differential fuzz against the centralized oracle: canonical and
        # seeded edge orders, d_bound at and above the diameter, coordinates
        # near 0 and near +-10^12, an equidistant tie and an empty cluster.
        # Every window's verdict must equal the fold and the node-by-node
        # flood.
        rng = random.Random(14)
        instances = [
            # (0, 0) is equidistant from both initial centroids
            (generate_random_digraph(5, 0.3, seed=17),
             [(0, 0), (2, 0), (2, 1), (-2, 0), (-2, 1)], [(1, 0), (-1, 0)]),
            # the second cluster never gets a member
            (generate_random_digraph(4, 0.5, seed=3),
             [(7, 7)] * 4, [(7, 7), (9, 9)]),
        ]
        for _ in range(10):
            n = rng.randint(5, 25)
            k = rng.choice([2, 3])
            g = generate_random_digraph(n, rng.choice([0.1, 0.3]),
                                        seed=rng.randint(0, 10 ** 6))
            obs = [tuple(rng.randint(-15, 15) for _ in range(2))
                   for _ in range(n)]
            cents = [tuple(rng.randint(-15, 15) for _ in range(2))
                     for _ in range(k)]
            instances.append((g, obs, cents))

        for index, (g, obs, cents) in enumerate(instances):
            shift = (0, 10 ** 12, -10 ** 12)[index % 3]
            obs = [tuple(v + shift for v in x) for x in obs]
            cents = [fv(*(v + shift for v in c)) for c in cents]
            window = diameter(g) + 2 * (index % 2)
            orders = assign_edge_orders(g, seed=index if index % 4 else None)
            with monkeypatch.context() as patch:
                verdicts = check_verdicts_by_flood(patch, g, window)
                trace = run_kmeans(g, obs, cents, d_bound=window,
                                   orders=orders)
            report = check_equivalence(trace, lloyd_reference(obs, cents))
            assert report.passed, (index, report.detail)
            assert trace.terminated
            assert len(verdicts) >= trace.T

    @pytest.mark.parametrize("extra_rounds", [0, 2])
    def test_window_verdicts_match_reference_flood(self, monkeypatch,
                                                   extra_rounds):
        # Every window the run certifies by ratio equality must get the same
        # verdict from the node-by-node flood over the same snapshots.
        g = generate_random_digraph(14, 0.15, seed=31)
        rng = random.Random(32)
        obs = [tuple(rng.randint(-20, 20) for _ in range(2)) for _ in range(14)]
        cents = [fv(-10, -10), fv(0, 10), fv(10, -10)]
        window = diameter(g) + extra_rounds
        verdicts = check_verdicts_by_flood(monkeypatch, g, window)
        trace = run_kmeans(g, obs, cents, d_bound=window)
        assert trace.terminated
        assert len(verdicts) > trace.T     # some windows did not certify


def assert_rounds_match_their_centroids(trace, obs):
    """Every round's objective is ``distance_objective`` recomputed from
    that round's centroids, and the final assignments are the nearest of
    the final centroids."""
    for r in trace.rounds:
        labels = [assign_cluster(x, r.centroids) for x in obs]
        expected = distance_objective(obs, labels, r.centroids)
        assert (r.objective, str(r.objective)) == (expected, str(expected))
    final = trace.rounds[-1].centroids
    assert trace.final_assignments == [assign_cluster(x, final) for x in obs]


class TestRepeatedCentroids:
    """A round whose centroids equal the previous round's reuses its
    assignments and objective; the tests recompute both."""

    def test_canonical_targets_are_the_canonical_orders(self):
        rng = random.Random(41)
        for _ in range(40):
            g = generate_random_digraph(rng.randint(3, 30), rng.random(),
                                        seed=rng.randint(0, 10 ** 6))
            orders = assign_edge_orders(g)
            assert sim._edge_targets(g, None) == \
                [orders.targets(j) for j in range(g.n)]

    @pytest.mark.parametrize("seed", range(20))
    def test_terminated_fixed_point_and_cut_runs(self, seed):
        g, obs, cents, orders = random_kmeans_case(seed)
        full = run_kmeans(g, obs, cents, orders=orders)
        assert full.terminated
        assert full.rounds[-1].centroids == full.rounds[-2].centroids
        assert_rounds_match_their_centroids(full, obs)
        # the fixed point, each centroid over a non-reduced denominator
        fixed = [FractionVector([v * 3 for v in c.nums], c.den * 3)
                 for c in full.rounds[-1].centroids]
        for max_rounds in (1, 2):
            # every round repeats its centroids; only round 2 may terminate
            trace = run_kmeans(g, obs, fixed, max_rounds=max_rounds,
                               orders=orders)
            assert (trace.T, trace.terminated) == (max_rounds, max_rounds == 2)
            assert all(r.centroids == tuple(fixed) for r in trace.rounds)
            assert_rounds_match_their_centroids(trace, obs)
        for max_rounds in range(1, full.T):
            trace = run_kmeans(g, obs, cents, max_rounds=max_rounds,
                               orders=orders)
            assert (trace.T, trace.terminated) == (max_rounds, False)
            assert trace.rounds == full.rounds[:max_rounds + 1]
            assert_rounds_match_their_centroids(trace, obs)


class TestDistanceObjective:
    def test_pair_around_centroid(self):
        value = distance_objective([(0, 0), (2, 0)], [0, 0], [fv(1, 0)])
        assert value == Fraction(2, 1)
        assert str(value) == "2/1"

    def test_zero_when_observations_sit_on_centroids(self):
        value = distance_objective([(3, 3), (3, 3)], [0, 0], [fv(3, 3)])
        assert value == Fraction(0, 1)

    def test_two_clusters(self):
        value = distance_objective([(0,), (2,), (10,)], [0, 0, 1],
                                   [fv(1), fv(10)])
        assert value == Fraction(2, 1)

    def test_fractional_centroid(self):
        value = distance_objective([(3,)], [0], [fv(7, den=2)])
        assert value == Fraction(1, 4)
        value = distance_objective([(3,), (0,)], [0, 1],
                                   [fv(7, den=2), fv(1, den=3)])
        assert str(value) == "13/36"

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 3)),
                    min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 6)),
                    min_size=4, max_size=4))
    def test_matches_stdlib_sum(self, members, cents):
        observations = [(x,) for x, _ in members]
        labels = [label for _, label in members]
        centroids = [fv(num, den=den) for num, den in cents]
        expected = sum((x - fractions.Fraction(*cents[label])) ** 2
                       for x, label in members)
        value = distance_objective(observations, labels, centroids)
        assert isinstance(value, Fraction) and value == expected


class TestExperimentsAndSweep:
    def test_run_experiment_is_deterministic(self):
        cfg = ExperimentConfig(n=12, k=2, dim=2, region=((0, 20), (0, 20)),
                               extra_edge_probability=0.2,
                               graph_seed=4, observation_seed=5, centroid_seed=6)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.T == b.T and a.C_t == b.C_t
        assert [str(c) for c in a.rounds[-1].centroids] == \
               [str(c) for c in b.rounds[-1].centroids]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=2).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, k=10).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(dim=3).validate()     # region has 2 intervals
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            ExperimentConfig(extra_edge_probability=2).validate()

    def test_config_rejects_zero_dimensions(self):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            ExperimentConfig(dim=0, region=()).validate()

    def test_config_rejects_an_empty_region_interval(self):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(region=((0, 50), (5, 4))).validate()
        assert str(exc.value) == "region intervals must be nonempty"

    @pytest.mark.parametrize("d_bound", [None, 3.7, "3", True])
    def test_config_d_bound_is_checked_before_any_seed_runs(
            self, d_bound, monkeypatch):
        message = f"d_bound must be 'auto' or an integer, not {d_bound!r}"
        cfg = ExperimentConfig(n=10, d_bound=d_bound)
        with pytest.raises(ValueError) as exc:
            cfg.validate()
        assert str(exc.value) == message

        def no_graph(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(sim, "generate_random_digraph", no_graph)
        with pytest.raises(ValueError) as exc:
            sweep(cfg, 2)
        assert str(exc.value) == message

    def test_parallel_sweep_error_names_the_lowest_failing_seed(self):
        # Both seeds' graphs are wider than d_bound (diameters 7 and 8).  A
        # pool may finish seed 1 first, yet both sweeps must report seed 0.
        cfg = ExperimentConfig(n=40, k=3, extra_edge_probability=0.05,
                               graph_seed=4, d_bound=6)
        for workers in (None, 2):
            with pytest.raises(ValueError) as exc:
                sweep(cfg, 2, workers=workers)
            assert str(exc.value) == \
                "sweep seed 0: diameter bound 6 is below the true diameter 7"

    def test_seed_out_of_rounds_is_a_row(self):
        cfg = ExperimentConfig(n=10, k=2, extra_edge_probability=0.2,
                               max_rounds=1)
        rows = sweep(cfg, 3).per_seed
        assert [(row["seed"], row["T"], row["terminated"]) for row in rows] \
            == [(0, 1, False), (1, 1, False), (2, 1, False)]
        assert rows == sweep(cfg, 3, workers=2).per_seed

    def test_sweep_needs_a_seed(self):
        with pytest.raises(ValueError) as exc:
            sweep(ExperimentConfig(n=10), 0)
        assert str(exc.value) == "num_seeds must be positive"

    def test_pool_is_never_larger_than_the_seed_count(self, monkeypatch):
        import multiprocessing
        sizes = []

        class SerialPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, jobs):
                return map(func, jobs)

        class Context:
            Pool = SerialPool

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method: Context)
        cfg = ExperimentConfig(n=10, k=2, extra_edge_probability=0.2)
        serial = sweep(cfg, 2)
        assert sweep(cfg, 2, workers=8).per_seed == serial.per_seed
        assert sizes == [2]
        assert sweep(cfg, 1, workers=8).per_seed == serial.per_seed[:1]
        assert sizes == [2]     # one seed runs in this process

    def test_small_sweep_aggregates(self):
        cfg = ExperimentConfig(n=10, k=2, dim=2, region=((0, 15), (0, 15)),
                               extra_edge_probability=0.2)
        result = sweep(cfg, 5)
        assert len(result.per_seed) == 5
        assert sum(count for _, count in result.histogram) == 5
        assert result.t_min <= result.t_mean <= result.t_max
        assert all(row["bound_ok"] for row in result.per_seed)
        assert all(row["objective_monotone"] for row in result.per_seed)
        again = sweep(cfg, 5)
        assert again.per_seed == result.per_seed

    def test_sweep_runs_are_independent_of_batch_position(self):
        from quantkmeans.sim import config_for_seed
        cfg = ExperimentConfig(n=10, k=2, dim=2, region=((0, 15), (0, 15)),
                               extra_edge_probability=0.2)
        solo = run_experiment(config_for_seed(cfg, 3))
        batch = sweep(cfg, 5)
        assert batch.per_seed[3]["T"] == solo.T
        assert batch.per_seed[3]["C_t"] == solo.C_t
