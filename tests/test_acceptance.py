"""Acceptance suite: one test per criterion, each printing a pass line,
and one clustering and one averaging run pinned at the paper's 1000 nodes.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report.  The heavier fixtures (the 200-graph averaging batch, the 50-instance
clustering batch, and the 100-seed sweep) are shared across criteria.
"""

import json
import random

import pytest

from quantkmeans.cli import main as cli_main
from quantkmeans.coordination import ClusterExtrema, snapshot
from quantkmeans.exactmath import FractionVector
from quantkmeans.graph import diameter, generate_random_digraph
from quantkmeans.oracle import brute_average, check_equivalence, lloyd_reference
from quantkmeans.sim import (ExperimentConfig, ProtocolError,
                             generate_centroids, generate_observations,
                             run_consensus, run_experiment, run_kmeans, sweep)

from conftest import flood

SWEEP_CONFIG = ExperimentConfig(
    n=100, k=3, dim=2, region=((0, 50), (0, 50)),
    extra_edge_probability=0.05,
    graph_seed=11, observation_seed=12, centroid_seed=13)
SWEEP_SEEDS = 100

# Published reference points (seed-dependent, recorded for comparison only):
# a 100-node run stopped after T = 10 calculations, and sweep averages over
# 1000-node networks were 17.39 / 20.79 / 25.49 for k = 3 / 6 / 12, with T
# observed between 5 and 56.
REFERENCE_SINGLE_RUN_T = 10
REFERENCE_MEAN_T = {3: 17.39, 6: 20.79, 12: 25.49}
REFERENCE_T_RANGE = (5, 56)


@pytest.fixture(scope="module")
def consensus_batch():
    """200 random strongly connected digraphs, n in [4, 15], d in {1, 2, 3},
    integer states in [-50, 50]."""
    rng = random.Random(1001)
    runs = []
    for index in range(200):
        n = rng.randint(4, 15)
        d = (index % 3) + 1
        g = generate_random_digraph(n, rng.choice([0.0, 0.05, 0.15, 0.35]),
                                    seed=rng.randint(0, 10 ** 9))
        values = [tuple(rng.randint(-50, 50) for _ in range(d))
                  for _ in range(n)]
        runs.append((g, values, run_consensus(g, values)))
    return runs


def _tie_instance():
    g = generate_random_digraph(5, 0.3, seed=17)
    observations = [(0, 0), (2, 0), (2, 1), (-2, 0), (-2, 1)]
    centroids = [FractionVector((1, 0)), FractionVector((-1, 0))]
    return g, observations, centroids


def _empty_cluster_instance():
    g = generate_random_digraph(4, 0.5, seed=3)
    observations = [(7, 7)] * 4
    centroids = [FractionVector((7, 7)), FractionVector((9, 9))]
    return g, observations, centroids


@pytest.fixture(scope="module")
def kmeans_batch():
    """50 random clustering instances (n <= 40, k in {2, 3, 4}, d = 2) plus a
    constructed assignment-tie instance and an empty-cluster instance."""
    rng = random.Random(2002)
    instances = [_tie_instance(), _empty_cluster_instance()]
    for _ in range(50):
        n = rng.randint(6, 40)
        k = rng.choice([2, 3, 4])
        g = generate_random_digraph(n, rng.choice([0.05, 0.1, 0.2]),
                                    seed=rng.randint(0, 10 ** 9))
        observations = [tuple(rng.randint(-25, 25) for _ in range(2))
                        for _ in range(n)]
        centroids = [FractionVector((rng.randint(-25, 25),
                                     rng.randint(-25, 25)))
                     for _ in range(k)]
        instances.append((g, observations, centroids))
    runs = []
    for g, observations, centroids in instances:
        trace = run_kmeans(g, observations, centroids, max_rounds=100)
        runs.append((g, observations, centroids, trace))
    return runs


@pytest.fixture(scope="module")
def sweep_result():
    return sweep(SWEEP_CONFIG, SWEEP_SEEDS)


def test_criterion_1_exact_quantized_average(consensus_batch):
    for g, values, trace in consensus_batch:
        average = brute_average(values)
        assert all(e == average for e in trace.estimates), \
            "an estimate differs from the brute-force average"
        assert trace.S_t <= trace.step_bound
    print(f"\n[criterion 1] PASS: {len(consensus_batch)} runs reached the "
          f"exact average with S_t <= n*m^2 on every run")


def test_criterion_2_mass_conservation(consensus_batch, delivery_leak):
    # run_consensus verifies exact conservation of (y, z) over node-held plus
    # in-flight mass at every step and raises on the first violation; traces
    # only exist because every step balanced.  The check itself must catch
    # one counter unit gained on delivery.
    g, values, _ = consensus_batch[0]
    with pytest.raises(ProtocolError, match="mass conservation violated"):
        run_consensus(g, values)
    print(f"\n[criterion 2] PASS: exact (y, z) conservation held at every "
          f"step of all {len(consensus_batch)} runs, and a one-unit leak "
          f"is caught")


def test_criterion_3_extrema_flood_in_diameter_rounds():
    # One or two dimensions; on some graphs about 30% of the nodes hold no
    # value, and those adopt the extrema of the nodes that do.
    rng = random.Random(3003)
    checked = 0
    for _ in range(100):
        n = rng.randint(4, 50)
        g = generate_random_digraph(n, rng.choice([0.0, 0.05, 0.15, 0.4]),
                                    seed=rng.randint(0, 10 ** 9))
        dim, absent = rng.choice([1, 2]), rng.choice([0.0, 0.3])
        values = [None if rng.random() < absent else
                  tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(dim))
                  for _ in range(n)]
        values[0] = values[0] or (1,) * dim
        present = [v for v in values if v is not None]
        states = [snapshot([v and FractionVector(v)]) for v in values]
        upper, lower = (FractionVector(tuple(map(f, zip(*present))))
                        for f in (max, min))
        assert flood(g, states, diameter(g)) \
            == [(ClusterExtrema(upper, lower),)] * n
        checked += 1
    print(f"\n[criterion 3] PASS: global extrema reached after exactly D "
          f"merge rounds on {checked} graphs")


def test_criterion_4_distributed_equals_centralized(kmeans_batch):
    for g, observations, centroids, trace in kmeans_batch:
        reference = lloyd_reference(observations, centroids, max_rounds=100)
        report = check_equivalence(trace, reference)
        assert report.passed, report.detail
        assert trace.T == reference.T
    print(f"\n[criterion 4] PASS: {len(kmeans_batch)} instances (incl. tie "
          f"and empty-cluster cases) match the centralized reference exactly")


def test_criterion_5_objective_monotonicity(kmeans_batch, sweep_result):
    for _, _, _, trace in kmeans_batch:
        values = [r.objective for r in trace.rounds]
        assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(row["objective_monotone"] for row in sweep_result.per_seed)
    print(f"\n[criterion 5] PASS: F(T) non-increasing (exact) on "
          f"{len(kmeans_batch)} desk runs and {len(sweep_result.per_seed)} "
          f"sweep runs")


def test_criterion_6_step_bound_compliance(sweep_result):
    for row in sweep_result.per_seed:
        assert row["bound_ok"]
        assert row["C_t"] <= row["step_bound"]
    print(f"\n[criterion 6] PASS: C_t <= T*(D + n*m^2) on all "
          f"{len(sweep_result.per_seed)} sweep runs")


def test_criterion_7_transmission_stopping(kmeans_batch):
    for _, _, _, trace in kmeans_batch:
        assert trace.terminated
        assert trace.silent_after_stop
    # Re-run a few instances with full message logs: no message may be sent
    # at or after the step at which the flags were raised.
    for g, observations, centroids, _ in kmeans_batch[:5]:
        logged = run_kmeans(g, observations, centroids, max_rounds=100,
                            log_messages=True)
        last_send = max(row[0] for row in logged.message_log)
        assert last_send < logged.C_t
    print(f"\n[criterion 7] PASS: the bus is silent after the flag step in "
          f"all {len(kmeans_batch)} runs (verified from message logs on 5)")


def test_criterion_8_desk_scale_experiment(tmp_path, sweep_result):
    out = tmp_path / "fig"
    rc = cli_main(["kmeans", "--n", "100", "--k", "3",
                   "--extra-edge-probability", "0.05", "--region", "0:50",
                   "--seed", "11", "--out-dir", str(out)])
    assert rc == 0
    summary = json.loads((out / "kmeans_summary.json").read_text())
    assert summary["terminated"] is True
    assert summary["T"] >= 1
    fcurve = (out / "fcurve.csv").read_text()
    trajectories = (out / "trajectories.csv").read_text()
    assert len(fcurve.splitlines()) >= summary["T"] + 2
    assert len(trajectories.splitlines()) >= 3 * summary["T"] + 2
    assert sweep_result.t_min >= 1
    print(f"\n[criterion 8] PASS: single 100-node run terminated at "
          f"T={summary['T']} with F/trajectory data; sweep T in "
          f"[{sweep_result.t_min}, {sweep_result.t_max}], mean "
          f"{sweep_result.t_mean:.2f} (published references, other seeds: "
          f"single run T={REFERENCE_SINGLE_RUN_T}; means {REFERENCE_MEAN_T} "
          f"at 1000 nodes; observed range {REFERENCE_T_RANGE})")


def test_criterion_9_byte_identical_reruns(tmp_path):
    args = ["kmeans", "--n", "40", "--k", "3", "--extra-edge-probability",
            "0.1", "--region", "0:50", "--seed", "21", "--max-rounds", "100"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(dir_a)]) == 0
    assert cli_main(args + ["--out-dir", str(dir_b)]) == 0
    names = ["kmeans_summary.json", "rounds.csv", "fcurve.csv",
             "trajectories.csv", "assignments.csv"]
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    graph_a, graph_b = tmp_path / "ga.txt", tmp_path / "gb.txt"
    for graph in (graph_a, graph_b):
        assert cli_main(["gen-graph", "--n", "60", "--extra-edge-probability",
                         "0.08", "--seed", "9", "-o", str(graph)]) == 0
    assert graph_a.read_bytes() == graph_b.read_bytes()
    print(f"\n[criterion 9] PASS: repeated runs produced byte-identical "
          f"artifacts ({len(names) + 1} files compared)")


def test_paper_scale_clustering_run():
    config = ExperimentConfig(n=1000, k=3, extra_edge_probability=0.005)
    trace = run_experiment(config)
    assert (trace.T, trace.C_t, trace.mass_messages,
            trace.mass_payload_bits) == (13, 91637, 326291, 11072289)
    assert trace.terminated and trace.bound_ok and trace.silent_after_stop
    reference = lloyd_reference(generate_observations(config),
                                generate_centroids(config))
    report = check_equivalence(trace, reference)
    assert report.passed, report.detail
    print(f"\n[paper scale] PASS: 1000 nodes, k=3: T={trace.T}, "
          f"C_t={trace.C_t}, equal to the centralized reference")


def test_paper_scale_averaging_run():
    g = generate_random_digraph(1000, 0.005, 1)
    rng = random.Random(6)
    values = [(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
              for _ in range(g.n)]
    trace = run_consensus(g, values)
    assert (g.m, trace.S_t, trace.messages) == (5987, 28824, 31166)
    assert trace.bound_ok
    assert all(e == brute_average(values) for e in trace.estimates)
    print(f"\n[paper scale] PASS: 1000-node averaging reached the exact "
          f"average at S_t={trace.S_t}")
