"""A reported error estimate is never smaller than the true error.

The true values come from mpmath at 30 digits, by routes the library does
not take: the sinc rows from mpmath's Si, the gauss-bump kernel integrals
from a trapezoid sum in s = atanh(u), u = (x - center)/radius, where the
bump exp(-1/(1 - u^2)) becomes exp(-cosh(s)^2).  The plateau bump is 1 on
the whole window, so its kernel action is exactly 2*pi.
"""

import math
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from zetacomb import kernels
from zetacomb.actions import _mode_trapezoid, deltaN_action
from zetacomb.quad import integrate_adaptive, sinc_table
from zetacomb.testfn import bump_plateau, gaussian_bump

DPS = 30
# exp(-cosh(s)^2) < 1e-43 past |s| = 3, so the bump's tails are dropped.
S_MAX = 3

PLATEAU = bump_plateau(math.pi, 1.5 * math.pi)

orders = st.integers(0, 2000)
tolerances = st.floats(-12.0, -8.0).map(lambda e: 10.0**e)


def gauss_kernel_integral(N, center, radius):
    """Integral of sin((N+1/2)x)/sin(x/2) * gaussian_bump(center, radius)(x) over its support.

    In s = atanh((x - center)/radius) the integrand is
    r*sin((N+1/2)x)/sin(x/2) * exp(-cosh(s)^2)/cosh(s)^2: analytic in the
    strip |Im s| < 1/2, where it grows at most like exp(0.55*(N+1/2)*r), and
    decaying doubly exponentially.  The trapezoid rule with step
    h = 2*pi/(1.5*(N+1/2)*r + 140) then errs by about
    exp(-2*pi*(1/2)/h + 0.55*(N+1/2)*r) < exp(-70).
    """
    with mpmath.workdps(DPS):
        c, r, nu = mpf(center), mpf(radius), N + mpf(1) / 2
        h = 2 * mpmath.pi / (mpf("1.5") * nu * r + 140)
        total = mpf(0)
        for j in range(-int(S_MAX / h), int(S_MAX / h) + 1):
            e = mpmath.exp(j * h)
            ch = (e + 1 / e) / 2
            x = c + r * (e - 1 / e) / (2 * ch)
            kernel = mpmath.sin(nu * x) / mpmath.sin(x / 2) if x else 2 * nu
            total += kernel * mpmath.exp(-ch * ch) / (ch * ch)
        return total * h * r


def true_error(value, exact):
    with mpmath.workdps(DPS):
        return abs(mpf(value) - exact)


def action_result(phi, N, tol):
    """The QuadResult behind deltaN_action(phi, N, tol), by its own call."""
    results = []

    def spy(*args, **kwargs):
        results.append(integrate_adaptive(*args, **kwargs))
        return results[-1]

    with mock.patch.object(kernels, "integrate_adaptive", spy):
        value = deltaN_action(phi, N, tol)
    (result,) = results
    assert result.value == value
    return result


class TestKernelActionEstimates:
    @settings(max_examples=12)
    @given(orders, st.floats(-1.5, 1.5), st.floats(0.1, 1.6), tolerances)
    def test_gauss(self, N, center, radius, tol):
        # The support stays inside the window, so the whole bump is integrated.
        result = action_result(gaussian_bump(center, radius), N, tol)
        exact = gauss_kernel_integral(N, center, radius)
        assert true_error(result.value, exact) <= result.error_estimate <= tol

    @settings(max_examples=20)
    @given(orders, tolerances)
    def test_plateau(self, N, tol):
        result = action_result(PLATEAU, N, tol)
        assert true_error(result.value, 2 * mpmath.pi) <= result.error_estimate <= tol

    @pytest.mark.parametrize(
        "N", [6956, 9359, 9594, 10280, 13548, 14066, 14649, 14905, 15524, 15528, 15530, 15995]
    )
    def test_plateau_at_tight_tolerance(self, N):
        # Seeded from the clipped support edge, out of phase with the kernel,
        # these orders reported estimates below their true errors (N = 9359:
        # error 1.76e-12 against an estimate of 9.96e-13).
        result = action_result(PLATEAU, N, 1e-12)
        assert abs(result.value - 2 * math.pi) <= result.error_estimate <= 1e-12


class TestSincTableEstimates:
    @settings(max_examples=10)
    @given(st.integers(0, 400), tolerances)
    def test_rows(self, n_max, tol):
        rows = sinc_table(n_max, tol)
        with mpmath.workdps(DPS):
            for N, row in enumerate(rows):
                exact = 2 * mpmath.si((N + mpf(1) / 2) * mpmath.pi)
                assert true_error(row.value, exact) <= row.error_estimate <= tol


class TestModeTrapezoidEstimates:
    @settings(max_examples=12)
    @given(orders, st.floats(-2.5, 2.5), st.floats(0.1, 3.5), tolerances)
    def test_gauss(self, N, center, radius, tol):
        # The order-N kernel is 2*pi-periodic, so the sum over one period of
        # the periodized bump is the kernel integral over the whole support.
        value, estimate, _ = _mode_trapezoid(gaussian_bump(center, radius), N, tol)
        exact = gauss_kernel_integral(N, center, radius)
        assert true_error(value, exact) <= estimate <= tol
