import fractions

import pytest
from hypothesis import given, strategies as st

from quantkmeans.consensus import Mass
from quantkmeans.exactmath import FractionVector
from quantkmeans.kmeans import (NodeKMeansState, assign_cluster,
                                finalize_round, parse_centroids,
                                parse_observations)

from conftest import fv


class TestAssign:
    def test_nearest_centroid(self):
        assert assign_cluster((0, 0), [fv(1, 0), fv(0, 2)]) == 0

    def test_tie_goes_to_smallest_index(self):
        assert assign_cluster((0, 0), [fv(1, 0), fv(0, 1)]) == 0

    def test_exact_fraction_distances(self):
        # distances 1/4 vs 1
        assert assign_cluster((3,), [fv(7, den=2), fv(2)]) == 0

    def test_high_tie_break_flips_only_ties(self):
        assert assign_cluster((0, 0), [fv(1, 0), fv(0, 1)], tie_break="high") == 1
        assert assign_cluster((0, 0), [fv(1, 0), fv(0, 2)], tie_break="high") == 0

    @pytest.mark.parametrize("tie_break", ["low", "high"])
    @given(data=st.data())
    def test_matches_stdlib_argmin(self, tie_break, data):
        # small coordinates over mixed denominators make exact ties common
        dim = data.draw(st.integers(1, 3))
        coords = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
        x = tuple(data.draw(coords))
        centroids = data.draw(st.lists(
            st.builds(FractionVector, coords, st.integers(1, 4)),
            min_size=1, max_size=5))
        dists = [sum((xi - fractions.Fraction(ci, c.den)) ** 2
                     for xi, ci in zip(x, c.nums)) for c in centroids]
        nearest = [i for i, d in enumerate(dists) if d == min(dists)]
        expected = nearest[0] if tie_break == "low" else nearest[-1]
        assert assign_cluster(x, centroids, tie_break) == expected


def injected(node):
    """Each instance's (value, counter) mass after ``begin_round``: the
    member's leaves on the initial transmission and stays stored; the
    others hold and store nothing."""
    assert all(st.held_z == 0 and not any(st.held_y) for st in node.instances)
    return [(st.stored_y, st.stored_z) for st in node.instances]


class TestInitRound:
    def test_member_label_gets_the_observation(self):
        node = NodeKMeansState((5,), (7, 8))
        assert node.begin_round(3, 1) == [(1, 7, Mass((5,), 1))]
        assert injected(node) == [((0,), 0), ((5,), 1), ((0,), 0)]

    def test_single_cluster(self):
        node = NodeKMeansState((1, 2), (4,))
        assert node.begin_round(1, 0) == [(0, 4, Mass((1, 2), 1))]
        assert injected(node) == [((1, 2), 1)]

    def test_exactly_one_unit_counter(self):
        for lam in range(3):
            node = NodeKMeansState((4, 4), (1,))
            assert len(node.begin_round(3, lam)) == 1
            assert sum(z for _, z in injected(node)) == 1


class TestFinalize:
    def test_unchanged_centroids_terminate(self):
        previous = (fv(3, 4), fv(1, 1))
        updated, done = finalize_round((fv(3, 4), fv(1, 1)), previous)
        assert done
        assert updated == previous

    def test_changed_centroid_continues(self):
        previous = (fv(3, 4),)
        updated, done = finalize_round((fv(7, 8, den=2),), previous)
        assert not done
        assert updated[0] == fv(7, 8, den=2)

    def test_empty_cluster_carries_previous(self):
        previous = (fv(1), fv(9, 9))
        updated, done = finalize_round((fv(1), None), previous)
        assert updated[1] == fv(9, 9)
        assert done

    def test_value_based_termination(self):
        previous = (fv(4),)
        updated, done = finalize_round((fv(12, den=3),), previous)
        assert done


class TestFiles:
    def test_observation_round_trip(self):
        text = "1 -2\n  3\t4 \n\n0 0\n"
        assert parse_observations(text) == [(1, -2), (3, 4), (0, 0)]

    def test_centroid_parse_mixed_tokens(self):
        rows = parse_centroids("1/2 3\n-4 5/5\n3/-4 0\n")
        assert rows[0] == fv(1, 6, den=2)
        assert rows[1] == fv(-4, 1)
        assert rows[2] == fv(-3, 0, den=4)

    def test_centroid_round_trip(self):
        # the ``num/den`` text every artifact writes a centroid in
        text = "1/2 3/1\n-4/1 1/1\n-1/3 5/2\n"
        rows = parse_centroids(text)
        assert rows == [fv(1, 6, den=2), fv(-4, 1), fv(-2, 15, den=6)]
        assert "".join(f"{c}\n" for c in rows) == text


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: assign_cluster((0,), [fv(0)], tie_break="mid"),
                 "tie_break must be 'low' or 'high'", id="tie-break"),
    pytest.param(lambda: NodeKMeansState((5,), (1,)).begin_round(3, 3),
                 "cluster index 3 out of range for k=3", id="label-above-k"),
    pytest.param(lambda: NodeKMeansState((5,), (1,)).begin_round(3, -1),
                 "cluster index -1 out of range for k=3", id="negative-label"),
    pytest.param(lambda: finalize_round((fv(1),), (fv(1), fv(2))),
                 "verdict length does not match the centroid count",
                 id="verdict-length"),
    pytest.param(lambda: parse_observations("1 2\n3.5 1\n"),
                 "line 2: observations must be integers",
                 id="non-integer-observation"),
    pytest.param(lambda: parse_observations("1 2\n3\n"),
                 "line 2: expected 2 coordinates", id="short-observation"),
    pytest.param(lambda: parse_observations("\n"), "no observations found",
                 id="no-observations"),
    # fractions.Fraction would read the decimal and exponent forms
    *(pytest.param(lambda text=text: parse_centroids(text),
                   "line 1: bad centroid coordinate",
                   id="centroid-" + text.strip())
      for text in ("x y\n", "1.5\n", "1e3\n", "1/0\n", "3/\n", "/2\n")),
])
def test_bad_input_is_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
