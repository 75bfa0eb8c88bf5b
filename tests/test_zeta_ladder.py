import functools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zetacomb import zeta_ladder
from zetacomb.exactalg import PiNumber
from zetacomb.zeta_ladder import (
    LadderState,
    ZetaValue,
    bernoulli_number,
    bernoulli_oracle,
    ladder_init,
    ladder_states,
    ladder_step,
    zeta_even,
)

ZERO = PiNumber.zero()
TWO_PI = PiNumber.pi_power(1, 2)


def reference_step(state):
    """One rung in plain Fraction arithmetic: the reference the integer rung must equal."""
    n = state.order + 1
    integral = [c / i for i, c in enumerate(state.coeffs, 1)]  # t**1 .. t**(n-1)
    integral_mean = sum(c * 2**i / (i + 1) for i, c in enumerate(integral, 1))
    target = Fraction(2**n, (n + 1) * math.factorial(n))
    return LadderState(order=n, coeffs=(target - integral_mean, *integral))


@functools.cache
def akiyama_tanigawa(n):
    """B_0..B_n by the Akiyama-Tanigawa algorithm, a route independent of both
    the ladder and the tangent numbers; it yields B_1 = +1/2, flipped here."""
    a, table = [], []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        table.append(a[0])
    table[1] = -table[1]
    return table


class TestLadder:
    def test_init_state(self):
        s = ladder_init()
        assert s.order == 1
        assert s.coeffs == (1,)
        assert s.q(TWO_PI) == PiNumber.pi_power(1)  # Q_1 is the constant pi
        assert s.p(TWO_PI) == TWO_PI

    def test_first_step_gives_pi_x_minus_pi2_over_3(self):
        s = ladder_step(ladder_init())
        assert s.order == 2
        assert s.coeffs == (Fraction(-1, 3), 1)
        assert str(s) == "(-1/3 π^2) + (1 π)·x"

    def test_evaluation_is_exact(self):
        # pi*x - pi^2/3 at x = 2pi is 5pi^2/3; x^2/2 there is 2pi^2
        s = ladder_states(2)[-1]
        assert s.q(TWO_PI) == PiNumber.pi_power(2, Fraction(5, 3))
        assert s.q(ZERO) == PiNumber.pi_power(2, Fraction(-1, 3))
        assert s.p(TWO_PI) == PiNumber.pi_power(2, 2)

    @given(st.integers(1, 12), st.fractions(min_value=-4, max_value=4, max_denominator=50))
    def test_evaluation_matches_term_sum(self, order, t):
        # Q_k(t*pi) = sum_i c_i pi^(k-i) (t*pi)^i = pi^k * sum_i c_i t^i
        s = ladder_states(order)[-1]
        expected = sum(c * t**i for i, c in enumerate(s.coeffs))
        assert s.q(PiNumber.pi_power(1, t)) == PiNumber.pi_power(order, expected)
        assert s.p(PiNumber.pi_power(1, t)) == PiNumber.pi_power(order, t**order / math.factorial(order))

    def test_mean_matching_at_every_order(self):
        # the defining property of each constant: mean(Q_k) = mean(P_k) over
        # (0, 2pi), i.e. mean(q_k) = mean(t^k / k!) over t in (0, 2)
        for s in ladder_states(12):
            mean_q = sum(c * Fraction(2**i, i + 1) for i, c in enumerate(s.coeffs))
            mean_p = Fraction(2**s.order, (s.order + 1) * math.factorial(s.order))
            assert mean_q == mean_p

    def test_integer_rung_equals_fraction_reference(self):
        zeta_ladder._reset_cache()
        expected = ladder_init()
        for s in ladder_states(200):
            assert s == expected
            expected = reference_step(expected)

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=97), min_size=1, max_size=9))
    def test_step_from_any_state_equals_fraction_reference(self, coeffs):
        state = LadderState(order=len(coeffs), coeffs=tuple(coeffs))
        assert ladder_step(state) == reference_step(state)

    def test_states_are_cached_and_prefix_stable(self):
        long = ladder_states(8)
        short = ladder_states(3)
        assert short == long[:3]
        assert ladder_states(8) == long

    def test_states_validation(self):
        with pytest.raises(ValueError):
            ladder_states(0)

    def test_concurrent_access_is_consistent(self):
        results = []

        def worker():
            results.append(ladder_states(25))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_evaluation_rejects_other_grades(self):
        s = ladder_states(3)[-1]
        with pytest.raises(ValueError):
            s.q(PiNumber.pi_power(0, 1))
        with pytest.raises(ValueError):
            s.p(PiNumber.pi_power(2, 1))

    def test_state_is_immutable(self):
        s = ladder_init()
        with pytest.raises(AttributeError):
            s.order = 5

    def test_period_end_matches_origin(self):
        # Q_k - P_k is the oscillatory remainder, periodic with period 2pi,
        # so its values at 0 and 2pi must agree exactly at every order >= 2.
        for s in ladder_states(12)[1:]:
            at_zero = s.q(ZERO) - s.p(ZERO)
            at_period = s.q(TWO_PI) - s.p(TWO_PI)
            assert at_zero == at_period

    def test_odd_orders_vanish_at_origin(self):
        # sine series at x=0; holds for every odd order from 3 on
        for s in ladder_states(29):
            if s.order >= 3 and s.order % 2 == 1:
                assert s.q(ZERO) - s.p(ZERO) == ZERO


class TestZetaEven:
    def test_basel(self):
        z = zeta_even(2)
        assert z.two_k == 2
        assert z.value == PiNumber.pi_power(2, Fraction(1, 6))
        assert z.coefficient == Fraction(1, 6)

    def test_higher_orders(self):
        assert zeta_even(4).value == PiNumber.pi_power(4, Fraction(1, 90))
        assert zeta_even(6).value == PiNumber.pi_power(6, Fraction(1, 945))
        assert zeta_even(8).value == PiNumber.pi_power(8, Fraction(1, 9450))
        assert zeta_even(10).value == PiNumber.pi_power(10, Fraction(1, 93555))

    def test_domain_validation(self):
        for bad in (0, -2, 3, 7, 2.0, "2"):
            with pytest.raises(ValueError):
                zeta_even(bad)

    def test_values_below_the_top_rung(self):
        # zeta(2k) is read from the shared rung wherever it stands, here at order 40.
        zeta_ladder._reset_cache()
        zeta_even(40)
        state = ladder_init()
        for order in range(2, 41):
            state = reference_step(state)
            if order % 2 == 0:
                k = order // 2
                assert zeta_even(order).coefficient == (-1) ** k * state.coeffs[0] / 2

    def test_coefficients_decrease(self):
        coeffs = [zeta_even(two_k).coefficient for two_k in range(2, 22, 2)]
        assert all(c > 0 for c in coeffs)
        assert all(a > b for a, b in zip(coeffs, coeffs[1:]))

    def test_float_projection_against_direct_summation(self):
        # partial sum of 1/n^2 to 10^6 terms; remainder is just under 1e-6
        n_terms = 10**6
        partial = math.fsum(1.0 / (n * n) for n in range(1, n_terms + 1))
        assert abs(zeta_even(2).to_float() - partial) < 1.0 / n_terms

    def test_str_rendering(self):
        assert str(zeta_even(2)) == "1/6 π^2"

    def test_value_invariant_enforced(self):
        with pytest.raises(ValueError):
            ZetaValue(2, PiNumber.pi_power(3, Fraction(1, 6)))  # wrong power
        with pytest.raises(ValueError):
            ZetaValue(2, PiNumber.pi_power(2, Fraction(-1, 6)))  # negative
        with pytest.raises(ValueError):
            ZetaValue(2, PiNumber.zero())


class TestBernoulliOracle:
    def test_bernoulli_numbers(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(3) == 0
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_oracle_values(self):
        assert bernoulli_oracle(2).value == PiNumber.pi_power(2, Fraction(1, 6))
        assert bernoulli_oracle(4).value == PiNumber.pi_power(4, Fraction(1, 90))

    def test_oracle_domain_validation(self):
        for bad in (0, -4, 5):
            with pytest.raises(ValueError):
                bernoulli_oracle(bad)

    def test_ladder_matches_oracle_bit_identically(self):
        for two_k in range(2, 202, 2):
            assert zeta_even(two_k).value == bernoulli_oracle(two_k).value

    def test_bernoulli_numbers_equal_akiyama_tanigawa(self):
        zeta_ladder._reset_cache()
        assert [bernoulli_number(m) for m in range(401)] == akiyama_tanigawa(400)
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert all(bernoulli_number(m) == 0 for m in range(3, 401, 2))

    def test_tangent_table_grows_by_doubling(self, monkeypatch):
        # A run of rows rebuilds the table a logarithmic number of times.
        zeta_ladder._reset_cache()
        sizes = []
        build = zeta_ladder._tangent_numbers

        def counting(n):
            sizes.append(n)
            return build(n)

        monkeypatch.setattr(zeta_ladder, "_tangent_numbers", counting)
        for two_k in range(2, 402, 2):
            bernoulli_oracle(two_k)
        assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        bernoulli_number(6)
        assert len(sizes) == 9

    def test_oracle_leaves_the_ladder_alone(self):
        zeta_ladder._reset_cache()
        bernoulli_oracle(120)
        assert zeta_ladder._top.order == 1
        zeta_even(10)
        zeta_ladder._reset_cache()
        assert zeta_ladder._top.order == 1
        assert zeta_ladder._tangent == []

    def test_concurrent_table_growth_is_consistent(self):
        # Each thread that finds the table short rebuilds it under the lock;
        # the targets span several doublings, so the threads race to grow it.
        zeta_ladder._reset_cache()
        targets = [400, 7, 45, 1, 260, 23, 138, 12, 66, 3]
        results = [None] * len(targets)

        def worker(i):
            results[i] = bernoulli_number(targets[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(targets))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [akiyama_tanigawa(400)[m] for m in targets]
        assert [bernoulli_number(m) for m in range(401)] == akiyama_tanigawa(400)
