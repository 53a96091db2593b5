import fractions

import pytest
from hypothesis import given, strategies as st

from quantkmeans.exactmath import Fraction, FractionVector, sq_dist_exact

# stdlib fractions serve as the independent arithmetic oracle throughout


def as_std(f: Fraction) -> fractions.Fraction:
    return fractions.Fraction(f.numerator, f.denominator)


nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(lambda v: v != 0)
anyint = st.integers(min_value=-10**6, max_value=10**6)


class TestFraction:
    def test_is_the_stdlib_fraction(self):
        assert issubclass(Fraction, fractions.Fraction)
        assert Fraction(6, 4) == fractions.Fraction(3, 2)

    def test_negative_denominator_is_normalized(self):
        f = Fraction(1, -2)
        assert f.denominator == 2 and f.numerator == -1
        assert str(f) == "-1/2"

    @pytest.mark.parametrize("build, message", [
        (Fraction, "Fraction(1, 0)"),
        (lambda num, den: FractionVector((num,), den),
         "fraction denominator must be nonzero")], ids=["scalar", "vector"])
    def test_zero_denominator_rejected(self, build, message):
        with pytest.raises(ZeroDivisionError) as exc:
            build(1, 0)
        assert str(exc.value) == message

    def test_str_is_reduced_canonical(self):
        assert str(Fraction(12, 3)) == "4/1"
        assert str(Fraction(-6, 4)) == "-3/2"

    def test_parse(self):
        # centroid tokens: "num/den" or a plain integer, read by int() alone
        from quantkmeans.kmeans import _parse_coordinate
        assert Fraction(*_parse_coordinate("7/2")) == Fraction(7, 2)
        assert Fraction(*_parse_coordinate("-3")) == Fraction(-3, 1)
        assert str(Fraction(*_parse_coordinate("3/-4"))) == "-3/4"

    @given(anyint, nonzero)
    def test_reduce_preserves_value_and_is_coprime(self, a, b):
        from math import gcd
        f = Fraction(a, b)
        assert as_std(f) == fractions.Fraction(a, b)
        assert gcd(f.numerator, f.denominator) == 1
        assert f.denominator > 0
        assert str(f) == f"{f.numerator}/{f.denominator}"


class TestFractionVector:
    def test_value_equality(self):
        assert FractionVector((9, 12), 3) == FractionVector((3, 4), 1)
        assert FractionVector((1,), 2) != FractionVector((1,), 3)

    def test_reduced(self):
        v = FractionVector((6, 9), 12).reduced()
        assert v.nums == (2, 3) and v.den == 4

    def test_components(self):
        v = FractionVector((9, 12), 3)
        assert v.components()[0] == Fraction(3, 1)
        assert str(v.components()[0]) == "3/1"
        assert str(v) == "3/1 4/1"

    def test_elementwise_extrema(self):
        a = FractionVector((1, 5), 1)
        b = FractionVector((2, 3), 1)
        assert a.elementwise_max(b) == FractionVector((2, 5), 1)
        assert a.elementwise_min(b) == FractionVector((1, 3), 1)

    def test_elementwise_returns_dominating_input(self):
        a = FractionVector((5, 5), 1)
        b = FractionVector((1, 2), 1)
        assert a.elementwise_max(b) == a
        assert a.elementwise_min(b) == b

    @given(st.lists(st.tuples(anyint, anyint), min_size=1, max_size=4),
           nonzero, nonzero)
    def test_elementwise_matches_stdlib(self, pairs, da, db):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        a, b = FractionVector(xs, da), FractionVector(ys, db)
        top = a.elementwise_max(b)
        bot = a.elementwise_min(b)
        for i in range(len(pairs)):
            fa = fractions.Fraction(a.nums[i], a.den)
            fb = fractions.Fraction(b.nums[i], b.den)
            assert as_std(top.components()[i]) == max(fa, fb)
            assert as_std(bot.components()[i]) == min(fa, fb)


class TestSquaredDistance:
    def test_examples(self):
        # numerators over c.den ** 2
        assert sq_dist_exact((0, 0), FractionVector((1, 0), 1)) == 1
        assert sq_dist_exact((2, 2), FractionVector((1, 1), 1)) == 2
        assert sq_dist_exact((3,), FractionVector((7,), 2)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sq_dist_exact((1, 2), FractionVector((1,), 1))

    @given(st.lists(st.tuples(anyint, anyint), min_size=1, max_size=3))
    def test_symmetric_for_integer_points(self, pairs):
        x = tuple(p[0] for p in pairs)
        c = tuple(p[1] for p in pairs)
        forward = sq_dist_exact(x, FractionVector(c, 1))
        backward = sq_dist_exact(c, FractionVector(x, 1))
        assert forward == backward

    @given(st.lists(st.tuples(anyint, anyint), min_size=1, max_size=3))
    def test_zero_iff_equal(self, pairs):
        x = tuple(p[0] for p in pairs)
        c = tuple(p[1] for p in pairs)
        dist = sq_dist_exact(x, FractionVector(c, 1))
        assert (dist == 0) == (x == c)

    @given(st.lists(st.tuples(anyint, anyint), min_size=1, max_size=3), nonzero)
    def test_matches_stdlib(self, pairs, den):
        x = tuple(p[0] for p in pairs)
        c = FractionVector(tuple(p[1] for p in pairs), den)
        expected = sum(
            (fractions.Fraction(xi) - fractions.Fraction(ci, c.den)) ** 2
            for xi, ci in zip(x, c.nums))
        assert fractions.Fraction(sq_dist_exact(x, c), c.den ** 2) == expected
