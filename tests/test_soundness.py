"""A reported error estimate is never smaller than the true error.

The true values come from mpmath at 30 digits, by routes the library does
not take: the sinc rows from mpmath's Si, the gauss-bump kernel integrals
from a trapezoid sum in s = atanh(u), u = (x - center)/radius, where the
bump exp(-1/(1 - u^2)) becomes exp(-cosh(s)^2).  The plateau bump is 1 on
the whole window, so its kernel action is exactly 2*pi.
"""

import functools
import math
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from zetacomb import actions, kernels
from zetacomb.actions import _mode_trapezoid, deltaN_action
from zetacomb.quad import QuadratureError, sinc_table
from zetacomb.testfn import bump_plateau, gaussian_bump

DPS = 30
# exp(-cosh(s)^2) < 1e-43 past |s| = 3, so the bump's tails are dropped.
S_MAX = 3

PLATEAU = bump_plateau(math.pi, 1.5 * math.pi)

orders = st.integers(0, 2000)
tolerances = st.floats(-12.0, -8.0).map(lambda e: 10.0**e)
# Orders up to 20000: most of the window lies past the cut, in FCC panels.
large_orders = st.integers(16, 20_000)
tight_tolerances = st.sampled_from([1e-13, 1e-12])


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
        results.append(kernels._kernel_integral(*args, **kwargs))
        return results[-1]

    with mock.patch.object(actions, "_kernel_integral", spy):
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


def action_outcome(phi, N, tol):
    """(value, estimate, met) of deltaN_action's kernel integral: from its
    QuadResult, or from the QuadratureError of a tol it cannot meet."""
    try:
        result = action_result(phi, N, tol)
    except QuadratureError as exc:
        return exc.value, exc.error_estimate, False
    return result.value, result.error_estimate, True


class TestKernelActionEstimatesAtLargeOrders:
    @settings(max_examples=4)
    @given(large_orders, st.floats(-1.5, 1.5), st.floats(0.1, 1.6), tight_tolerances)
    @example(738, -2.110940629683294, 0.9223134589209607, 1.2117678099774653e-11)
    @example(3022, 0.3220969326067826, 0.7583321735892217, 1.2921791910530627e-11)
    def test_gauss(self, N, center, radius, tol):
        # With |I24 - I12| alone as the FCC estimate, the two examples read
        # low by 4.5x and 2.1x; the tail term of the coefficients covers them.
        value, estimate, met = action_outcome(gaussian_bump(center, radius), N, tol)
        assert true_error(value, gauss_kernel_integral(N, center, radius)) <= estimate
        assert estimate <= tol or not met

    @settings(max_examples=20)
    @given(large_orders, tight_tolerances)
    def test_plateau(self, N, tol):
        value, estimate, met = action_outcome(PLATEAU, N, tol)
        assert true_error(value, 2 * mpmath.pi) <= estimate
        assert estimate <= tol or not met

    @pytest.mark.parametrize("edge", [1.3, 2.05])
    def test_support_edge_past_the_cut(self, edge):
        # The bump's left edge at edge*cut, cut = 8 periods: inside the span
        # [cut, 2*cut] of the first FCC panel, where the clipped panel is too
        # narrow for FCC, and at the left end of an FCC panel [edge*cut, 4*cut].
        N = 1000
        lo = edge * 8 * (2 * math.pi / (N + 0.5))
        center, radius = lo + 1.5, 1.5
        result = action_result(gaussian_bump(center, radius), N, 1e-12)
        exact = gauss_kernel_integral(N, center, radius)
        assert true_error(result.value, exact) <= result.error_estimate <= 1e-12


@functools.lru_cache(maxsize=None)
def centred_gauss_kernel_integral(N):
    return gauss_kernel_integral(N, 0.0, 1.2)


class TestEvenWeightGrid:
    """Even weights over their whole support, on both sides of the cut."""

    WEIGHTS = {
        "one": (lambda x: 1.0, math.pi, lambda N: 2 * mpmath.pi),
        "plateau": (PLATEAU.evaluator, math.pi, lambda N: 2 * mpmath.pi),
        "gauss": (gaussian_bump(0.0, 1.2).evaluator, 1.2, centred_gauss_kernel_integral),
    }

    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13])
    @pytest.mark.parametrize("N", [0, 1, 37, 500, 5000])
    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_estimate_bounds_the_true_error(self, name, N, tol):
        # Met or refused, the estimate bounds the true error.  Only 1e-13
        # may be refused: it is at the rounding floor of these integrals.
        weight, b, exact = self.WEIGHTS[name]
        try:
            result = kernels._kernel_integral(N, weight, -b, b, tol)
        except QuadratureError as exc:
            assert tol < 1e-12
            value, estimate = exc.value, exc.error_estimate
            assert estimate > tol
        else:
            value, estimate = result.value, result.error_estimate
            assert estimate <= tol
        assert true_error(value, exact(N)) <= estimate


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
