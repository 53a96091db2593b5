import random

import pytest

from quantkmeans.exactmath import FractionVector
from quantkmeans.graph import generate_random_digraph
from quantkmeans.kmeans import assign_cluster
from quantkmeans.oracle import (brute_average, check_equivalence,
                                lloyd_reference)
from quantkmeans.sim import distance_objective, run_kmeans


def fv(*nums, den=1):
    return FractionVector(tuple(nums), den)


class TestBruteAverage:
    def test_scalars(self):
        value = brute_average([(2,), (4,), (6,)])
        assert value.nums == (12,) and value.den == 3

    def test_vectors(self):
        assert brute_average([(1, 2), (3, 4), (5, 6)]) == fv(3, 4)

    def test_singleton(self):
        assert brute_average([(7,)]) == fv(7)

    def test_zero_sum_keeps_count_denominator(self):
        value = brute_average([(-5,), (5,)])
        assert value.nums == (0,) and value.den == 2
        assert value == fv(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            brute_average([])


class TestLloyd:
    def test_hand_case_two_tight_clusters(self):
        result = lloyd_reference([(0,), (2,), (10,), (12,)], [fv(1), fv(11)])
        assert result.T == 2
        assert result.terminated
        assert result.centroid_sets[-1][0] == fv(1)
        assert result.centroid_sets[-1][1] == fv(11)

    def test_single_cluster_is_plain_averaging(self):
        result = lloyd_reference([(1,), (2,), (6,)], [fv(0)])
        assert result.T == 2
        assert result.centroid_sets[-1][0] == fv(3)

    def test_empty_initial_centroids_rejected(self):
        with pytest.raises(ValueError, match="at least one centroid"):
            lloyd_reference([(1,), (2,)], [])

    def test_objective_is_monotone(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(5, 30)
            k = rng.choice([2, 3, 4])
            obs = [tuple(rng.randint(-30, 30) for _ in range(2)) for _ in range(n)]
            cents = [fv(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(k)]
            result = lloyd_reference(obs, cents)
            assert result.terminated
            sets = result.centroid_sets
            values = [
                distance_objective(
                    obs, [assign_cluster(x, before) for x in obs], after)
                for before, after in zip(sets, sets[1:])
            ]
            assert all(b <= a for a, b in zip(values, values[1:]))


class TestEquivalence:
    def _tie_instance(self):
        g = generate_random_digraph(5, 0.3, seed=17)
        obs = [(0, 0), (2, 0), (2, 1), (-2, 0), (-2, 1)]
        cents = [fv(1, 0), fv(-1, 0)]   # (0, 0) is equidistant to both
        return g, obs, cents

    def test_identical_runs_pass(self):
        g, obs, cents = self._tie_instance()
        trace = run_kmeans(g, obs, cents)
        report = check_equivalence(trace, lloyd_reference(obs, cents))
        assert report.passed

    def test_flipped_tie_break_fails_at_the_tie_round(self):
        g, obs, cents = self._tie_instance()
        trace = run_kmeans(g, obs, cents)
        flipped = lloyd_reference(obs, cents, tie_break="high")
        report = check_equivalence(trace, flipped)
        assert not report.passed
        # (0, 0) joins cluster 0 under the low rule, cluster 1 under the high
        assert report.detail == ("round 1 cluster 0: distributed 4/3 1/3 vs "
                                 "reference 4/2 1/2")

    def test_calculation_count_mismatch_is_reported(self):
        g, obs, cents = self._tie_instance()
        trace = run_kmeans(g, obs, cents, max_rounds=1)
        report = check_equivalence(trace, lloyd_reference(obs, cents))
        assert not report.passed
        assert report.detail == ("calculation counts differ: distributed "
                                 "T=1, reference T=2")

    def test_empty_cluster_instance_passes_with_carry_over(self):
        g = generate_random_digraph(4, 0.5, seed=3)
        obs = [(7, 7)] * 4
        cents = [fv(7, 7), fv(9, 9)]
        trace = run_kmeans(g, obs, cents)
        report = check_equivalence(trace, lloyd_reference(obs, cents))
        assert report.passed
        assert trace.rounds[-1].centroids[1] == fv(9, 9)
