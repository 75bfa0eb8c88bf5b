import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zetacomb.exactalg import PiNumber

PI = PiNumber.pi_power(1)
TWO_PI = PiNumber.pi_power(1, 2)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=200)


def same_grade(j):
    return rationals.map(lambda q: PiNumber.pi_power(j, q))


class TestPiNumber:
    def test_zero_coefficients_are_dropped(self):
        # a zero coefficient leaves no grade behind: zero of any grade is zero
        assert PiNumber.pi_power(3, 0) == PiNumber.zero()
        assert PiNumber.pi_power(3, 0) == PiNumber.pi_power(5, Fraction(0))
        assert PiNumber.pi_power(2, 1) != PiNumber.pi_power(3, 1)
        assert PI - PI == PiNumber.zero()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiNumber.pi_power(-1)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            PiNumber.pi_power(0, 0.5)

    def test_constructors(self):
        assert PiNumber.pi_power(0, Fraction(2, 3)).coefficient(0) == Fraction(2, 3)
        assert PiNumber.pi_power(4).coefficient(4) == 1
        assert PiNumber.zero().coefficient(0) == 0

    def test_coefficient_lookup(self):
        v = PiNumber.pi_power(3, Fraction(-7))
        assert v.coefficient(3) == Fraction(-7)
        assert v.coefficient(1) == 0
        assert v.coefficient(0) == 0

    def test_arithmetic_examples(self):
        third_pi2 = PiNumber.pi_power(2, Fraction(1, 3))
        assert PI + PI == TWO_PI
        assert TWO_PI - PI == PI
        assert third_pi2 + third_pi2 + third_pi2 == PiNumber.pi_power(2)
        assert -PI == PiNumber.pi_power(1, -1)
        assert PiNumber.zero() - third_pi2 == PiNumber.pi_power(2, Fraction(-1, 3))

    def test_mixed_grade_addition_rejected(self):
        with pytest.raises(ValueError):
            PI + PiNumber.pi_power(2)
        with pytest.raises(ValueError):
            PiNumber.pi_power(0, 1) - PI

    def test_to_float_projection(self):
        assert PI.to_float() == math.pi
        assert TWO_PI.to_float() == 2 * math.pi
        assert PiNumber.zero().to_float() == 0.0
        zeta2 = PiNumber.pi_power(2, Fraction(1, 6))
        assert math.isclose(zeta2.to_float(), math.pi**2 / 6, rel_tol=1e-15)

    def test_str_rendering(self):
        assert str(PiNumber.zero()) == "0"
        assert str(PiNumber.pi_power(5, 0)) == "0"
        assert str(PiNumber.pi_power(2, Fraction(1, 6))) == "1/6 π^2"
        assert str(PI) == "1 π"
        assert str(PiNumber.pi_power(0, Fraction(-1, 3))) == "-1/3"

    def test_hash_consistency(self):
        assert hash(PI + PI) == hash(TWO_PI)
        assert len({PI, TWO_PI, PI + PI}) == 2
        assert hash(PiNumber.pi_power(7, 0)) == hash(PiNumber.zero())

    @given(st.integers(0, 6).flatmap(lambda j: st.tuples(same_grade(j), same_grade(j))))
    def test_add_sub_round_trip(self, pair):
        a, b = pair
        assert (a + b) - b == a
        assert a + PiNumber.zero() == a
        assert PiNumber.zero() + a == a
