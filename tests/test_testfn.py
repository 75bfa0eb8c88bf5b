import math
import random
import re

import mpmath
import pytest
from hypothesis import given, strategies as st

from zetacomb.testfn import TestFunction as SmoothFunction
from zetacomb.testfn import (
    bump_plateau,
    gaussian_bump,
    phi_tilde,
    sigma_eval,
)

HALF_PI = math.pi / 2

# frozen 50-digit-quadrature value of exp(-4/3)
EXP_M43 = 0.26359713811572677


def fd_derivative(f, x, h=1e-4):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestBumpPlateau:
    def test_plateau_is_exactly_one(self):
        beta = bump_plateau(math.pi, 1.5 * math.pi)
        for i in range(201):
            x = -math.pi + i * (2 * math.pi / 200)
            assert beta(x) == 1.0

    def test_vanishes_outside(self):
        beta = bump_plateau(math.pi, 1.5 * math.pi)
        assert beta(2 * math.pi) == 0.0
        assert beta(1.5 * math.pi) == 0.0
        assert beta(-40.0) == 0.0

    def test_shoulder_values(self):
        beta = bump_plateau(math.pi, 1.5 * math.pi)
        mid = beta(1.25 * math.pi)
        assert 0.0 < mid < 1.0
        # the smooth step is symmetric about the shoulder midpoint
        assert abs(mid - 0.5) < 1e-12
        assert beta(1.25 * math.pi) == beta(-1.25 * math.pi)

    def test_shoulder_is_monotone(self):
        beta = bump_plateau(1.0, 2.0)
        xs = [1.0 + i * 0.01 for i in range(101)]
        vals = [beta(x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            bump_plateau(2.0, 1.0)
        with pytest.raises(ValueError):
            bump_plateau(1.0, 1.0)
        with pytest.raises(ValueError):
            bump_plateau(0.0, 1.0)

    def test_support_field(self):
        beta = bump_plateau(1.0, 2.5)
        assert beta.support == (-2.5, 2.5)


class TestSigma:
    def test_value_at_zero(self):
        assert sigma_eval(0.0) == 1.0

    def test_value_at_pi(self):
        # (pi/2)/sin(pi/2) = pi/2
        assert abs(sigma_eval(math.pi) - HALF_PI) < 1e-15

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -1e-310, 2.0**-1022, 2.0**-27])
    def test_rounds_to_one_near_zero(self, x):
        # 1 + x^2/24 + ... rounds to 1.0, and x never divides
        assert sigma_eval(x) == 1.0

    @given(
        st.one_of(
            st.floats(math.log(1e-300), math.log(0.5)).map(math.exp),
            st.floats(0.5, 1.5 * math.pi),
        ),
        st.booleans(),
    )
    def test_within_two_ulp_of_mpmath(self, r, negative):
        # sigma >= 1 has no zeros, so relative ulps measure it soundly
        x = -r if negative else r
        with mpmath.workdps(40):
            half = mpmath.mpf(x) / 2
            true = half / mpmath.sin(half)
            assert abs(sigma_eval(x) - true) <= 2 * math.ulp(float(true))

    def test_even(self):
        for x in (0.1, 0.45, 1.0, 4.0):
            assert sigma_eval(x) == sigma_eval(-x)

    def test_domain(self):
        edge = 1.5 * math.pi
        assert sigma_eval(edge) > 1.0
        for x in (edge + 1e-9, -5.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape("sigma is defined on |x| <= 3*pi/2")):
                sigma_eval(x)


class TestGaussianBump:
    def test_center_value(self):
        g = gaussian_bump(0.0, 1.0)
        assert g(0.0) == math.exp(-1.0)

    def test_boundary_is_exact_zero(self):
        g = gaussian_bump(0.0, 1.0)
        assert g(1.0) == 0.0
        assert g(-1.0) == 0.0
        assert g(1.0 + 1e-12) == 0.0

    def test_half_radius_value(self):
        g = gaussian_bump(0.0, 1.0)
        assert math.isclose(g(0.5), EXP_M43, rel_tol=1e-15)

    def test_translation(self):
        g = gaussian_bump(3.0, 2.0)
        assert g(3.0) == math.exp(-1.0)
        assert g.support == (1.0, 5.0)
        assert g(1.0) == 0.0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            gaussian_bump(0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_bump(0.0, -1.0)


class TestPhiTilde:
    def test_value_at_zero_is_preserved(self):
        g = gaussian_bump(0.0, 1.0)
        assert phi_tilde(g)(0.0) == g(0.0)

    def test_vanishes_with_beta(self):
        g = gaussian_bump(0.0, 5.0)
        with pytest.raises(ValueError):
            phi_tilde(g)  # support sticks out past 3pi/2
        g = gaussian_bump(0.0, 1.5 * math.pi)
        assert phi_tilde(g)(1.5 * math.pi) == 0.0

    def test_plateau_region_is_plain_product(self):
        g = gaussian_bump(0.0, 1.5)
        pt = phi_tilde(g)
        # beta = 1 for |x| <= pi, so only sigma and phi remain
        assert pt(1.0) == sigma_eval(1.0) * g(1.0)

    def test_support_carried_over(self):
        g = gaussian_bump(0.5, 1.0)
        assert phi_tilde(g).support == g.support


class TestSupportDiscipline:
    def functions(self):
        return [
            bump_plateau(math.pi, 1.5 * math.pi),
            bump_plateau(0.3, 0.7),
            gaussian_bump(0.0, 1.0),
            gaussian_bump(-2.0, 0.25),
            phi_tilde(gaussian_bump(0.0, 1.0)),
        ]

    def test_exact_zero_outside_support(self):
        rng = random.Random(11)
        for f in self.functions():
            lo, hi = f.support
            width = hi - lo
            hits = 0
            while hits < 1000:
                x = rng.uniform(lo - 5 * width, hi + 5 * width)
                if lo <= x <= hi:
                    continue
                assert f(x) == 0.0
                hits += 1

    def test_first_derivative_bounded_across_boundary(self):
        # centered differences with step 1e-4; smooth construction means
        # no jump in the derivative estimate at the support edge
        for f in self.functions():
            for edge in f.support:
                inside = fd_derivative(f, edge - 2e-4)
                outside = fd_derivative(f, edge + 2e-4)
                assert abs(inside - outside) < 1e-3
                assert abs(fd_derivative(f, edge)) < 1e-3


class TestTestFunctionType:
    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            SmoothFunction(evaluator=lambda x: 0.0, support=(1.0, 1.0), label="bad")

    def test_callable_delegates(self):
        tf = SmoothFunction(evaluator=lambda x: 2 * x, support=(-1.0, 1.0), label="lin")
        assert tf(0.25) == 0.5
