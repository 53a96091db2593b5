import pytest
from hypothesis import given, strategies as st

from quantkmeans.consensus import ConsensusState, Mass
from quantkmeans.exactmath import FractionVector


def make_state(held, stored, targets=(1, 2)):
    held_y, held_z = held
    stored_y, stored_z = stored
    state = ConsensusState(len(held_y), targets)
    state.held_y, state.held_z = tuple(held_y), held_z
    state.stored_y, state.stored_z = tuple(stored_y), stored_z
    return state


class TestInit:
    def test_member_transmits_to_order_zero(self):
        state, msg = ConsensusState.create((5,), 1, targets=(3, 7))
        assert msg == (3, Mass((5,), 1))
        assert state.estimate == FractionVector((5,), 1)
        assert state.held_z == 0 and state.held_y == (0,)
        assert state.tr == 1 and state.e == 1

    def test_single_out_neighbor_wraps_pointer(self):
        state, msg = ConsensusState.create((2, 4), 1, targets=(9,))
        assert msg == (9, Mass((2, 4), 1))
        assert state.e == 0

    def test_non_member_is_silent_with_no_estimate(self):
        state, msg = ConsensusState.create((0, 0), 0, targets=(1,))
        assert msg is None
        assert state.estimate is None
        assert state.tr == 0

    def test_rejects_bad_counter(self):
        with pytest.raises(ValueError):
            ConsensusState.create((1,), 2, targets=(1,))

    def test_rejects_nonzero_value_with_zero_counter(self):
        with pytest.raises(ValueError):
            ConsensusState.create((1,), 0, targets=(1,))


class TestAbsorb:
    def test_single_arrival(self):
        state = make_state(((0,), 0), ((0,), 0))
        state.absorb([Mass((5,), 1)])
        assert (state.held_y, state.held_z) == ((5,), 1)

    def test_multiple_arrivals_sum_componentwise(self):
        state = make_state(((2,), 1), ((0,), 0))
        state.absorb([Mass((3,), 1), Mass((4,), 2)])
        assert (state.held_y, state.held_z) == ((9,), 4)

    def test_empty_arrivals_leave_state_unchanged(self):
        state = make_state(((2,), 1), ((9,), 3))
        state.absorb([])
        assert (state.held_y, state.held_z) == ((2,), 1)

    def test_dimension_mismatch(self):
        state = make_state(((0, 0), 0), ((0, 0), 0))
        with pytest.raises(ValueError):
            state.absorb([Mass((1,), 1)])


class TestTrigger:
    def test_larger_counter_fires(self):
        assert make_state(((0,), 3), ((9,), 2)).trigger()

    def test_smaller_counter_holds(self):
        assert not make_state(((9,), 1), ((0,), 2)).trigger()

    def test_tied_counter_scans_dimensions(self):
        # first dimension ties, second is strictly smaller: hold
        assert not make_state(((5, 1), 2), ((5, 3), 2)).trigger()
        # first dimension strictly larger: fire
        assert make_state(((6, 0), 2), ((5, 9), 2)).trigger()

    def test_full_equality_fires(self):
        assert make_state(((5, 3), 2), ((5, 3), 2)).trigger()

    def test_zero_mass_never_fires(self):
        assert not make_state(((0, 0), 0), ((0, 0), 0)).trigger()

    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                    min_size=1, max_size=3),
           st.integers(0, 5), st.integers(0, 5))
    def test_trigger_is_lexicographic_compare(self, pairs, hz, sz):
        held_y = tuple(p[0] for p in pairs)
        stored_y = tuple(p[1] for p in pairs)
        state = make_state((held_y, hz), (stored_y, sz))
        if hz == 0 and not any(held_y):
            expected = False
        else:
            expected = (hz, held_y) >= (sz, stored_y)
        assert state.trigger() == expected


class TestEmit:
    def test_emit_updates_stored_and_estimate(self):
        state = make_state(((12,), 3), ((4,), 2), targets=(8, 9))
        state.e, state.tr = 1, 1
        target, mass = state.emit()
        assert target == 9
        assert mass == Mass((12,), 3)
        assert state.estimate == FractionVector((4,), 1)   # 12/3 reduced value
        assert state.held_z == 0 and state.held_y == (0,)
        assert state.e == 0

    def test_vector_estimate(self):
        state = make_state(((9, 12), 3), ((0, 0), 0), targets=(1,))
        state.emit()
        assert state.estimate == FractionVector((3, 4), 1)

    def test_round_robin_cycles_destinations(self):
        state = make_state(((1,), 1), ((0,), 0), targets=(4, 5, 6))
        seen = []
        for _ in range(3):
            target, _ = state.emit()
            seen.append(target)
            state.held_y, state.held_z = (1,), 5   # keep the trigger firing
        assert seen == [4, 5, 6]


class TestNodeStep:
    def test_idle_node_stays_silent(self):
        state = make_state(((0,), 0), ((5,), 2))
        assert state.node_step([]) is None

    def test_relay_fires_on_first_arrival(self):
        state, msg = ConsensusState.create((0,), 0, targets=(4,))
        assert msg is None
        out = state.node_step([Mass((7,), 2)])
        assert out == (4, Mass((7,), 2))
        assert state.estimate == FractionVector((7,), 2)

    def test_at_most_one_message_per_step(self):
        state = make_state(((3,), 2), ((1,), 1), targets=(4, 5))
        out = state.node_step([Mass((1,), 1), Mass((2,), 2)])
        assert out is not None and isinstance(out, tuple)
        # everything held was shipped in that single message
        assert out[1] == Mass((6,), 5)
        assert state.node_step([]) is None
