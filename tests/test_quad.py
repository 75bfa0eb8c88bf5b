import math
import random
import struct
import sys
import time
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from zetacomb import quad
from zetacomb.kernels import _windowed_compact, dirichlet_compact
from zetacomb.quad import (
    DEFAULT_PANEL_BUDGET,
    QuadResult,
    QuadratureError,
    integrate_adaptive,
    sinc_table,
    sinc_truncated,
)
from zetacomb.testfn import gaussian_bump

from test_actions import sigma_route

TWO_PI = 2 * math.pi

# frozen 50-digit oracle values of 2*Si((N+1/2)*pi)
SINC_N0 = 2.7415243363089770
SINC_N1 = 3.2167455079080215

# frozen 50-digit quadrature of the unit mollifier integral
MOLLIFIER_INTEGRAL = 0.4439938161680794


class TestIntegrateAdaptive:
    def test_constant(self):
        r = integrate_adaptive(lambda x: 1.0, -math.pi, math.pi, 1e-12)
        assert abs(r.value - TWO_PI) <= 1e-12
        assert r.error_estimate <= 1e-12
        assert r.panels_used == 1

    def test_quadratic_is_exact(self):
        r = integrate_adaptive(lambda x: x * x, 0.0, TWO_PI, 1e-12)
        assert abs(r.value - TWO_PI**3 / 3) <= 1e-12

    def test_oscillatory_kernel_normalization(self):
        r = integrate_adaptive(
            lambda x: dirichlet_compact(50, x) if abs(x) < math.pi else 0.0,
            -math.pi,
            math.pi,
            1e-10,
            osc_freq=50.5,
        )
        assert abs(r.value - TWO_PI) <= 1e-9
        assert r.error_estimate <= 1e-10

    def test_polynomial_exactness_through_degree_13(self):
        for d in range(14):
            exact = (2.0 ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
            r = integrate_adaptive(lambda x, d=d: x**d, -1.0, 2.0, 1e-6)
            assert r.panels_used == 1
            assert abs(r.value - exact) <= 1e-14 * abs(exact)

    def test_tolerance_honesty_on_random_smooth_integrands(self):
        rng = random.Random(2024)
        tol = 1e-10
        for i in range(20):
            a = rng.uniform(-3.0, 0.0)
            b = a + rng.uniform(0.5, 4.0)
            kind = i % 4
            if kind == 0:
                c = [rng.uniform(-2, 2) for _ in range(5)]
                f = lambda x, c=c: sum(cj * x**j for j, cj in enumerate(c))
                F = lambda x, c=c: sum(cj * x ** (j + 1) / (j + 1) for j, cj in enumerate(c))
            elif kind == 1:
                A, w = rng.uniform(0.5, 2), rng.uniform(1, 6)
                f = lambda x, A=A, w=w: A * math.sin(w * x)
                F = lambda x, A=A, w=w: -A / w * math.cos(w * x)
            elif kind == 2:
                A, c = rng.uniform(0.5, 2), rng.uniform(0.3, 1.2)
                f = lambda x, A=A, c=c: A * math.exp(c * x)
                F = lambda x, A=A, c=c: A / c * math.exp(c * x)
            else:
                s = 0.5 - a  # keeps x + s >= 0.5 on [a, b]
                f = lambda x, s=s: 1.0 / (x + s)
                F = lambda x, s=s: math.log(x + s)
            r = integrate_adaptive(f, a, b, tol)
            assert abs(r.value - (F(b) - F(a))) <= 10 * tol
            assert r.error_estimate <= tol

    def test_mollifier_integral(self):
        g = gaussian_bump(0.0, 1.0)
        r = integrate_adaptive(g.evaluator, -1.0, 1.0, 1e-12)
        assert abs(r.value - MOLLIFIER_INTEGRAL) <= 1e-12

    def test_oscillation_hint_seeds_panels(self):
        r = integrate_adaptive(
            lambda x: math.sin(40.0 * x), 0.0, TWO_PI, 1e-10, osc_freq=40.0
        )
        assert abs(r.value) <= 1e-10  # whole periods integrate to zero
        assert r.panels_used >= 40

    def test_determinism_is_bitwise(self):
        def f(x):
            return dirichlet_compact(50, x) if abs(x) < math.pi else 0.0

        r1 = integrate_adaptive(f, -math.pi, math.pi, 1e-10, osc_freq=50.5)
        r2 = integrate_adaptive(f, -math.pi, math.pi, 1e-10, osc_freq=50.5)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.panels_used == r2.panels_used

    def test_budget_exhaustion_reports_best_value(self, monkeypatch):
        monkeypatch.setattr(quad, "DEFAULT_PANEL_BUDGET", 9)
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda x: math.sin(50.0 * x), 0.0, 10.0, 1e-13)
        err = info.value
        assert math.isfinite(err.value)
        assert err.error_estimate > 1e-13
        assert 1 <= err.panels_used <= 9
        assert f"estimate {err.error_estimate:.3e}, and a bisection passes DEFAULT_PANEL_BUDGET = 9" in str(err)

    def test_unreachable_tolerance_fails_fast(self):
        # 50*eps*integral|f| is about 7e-14 here: no bisection gets below it
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda x: 1.0, -math.pi, math.pi, 1e-300)
        assert time.perf_counter() - start < 1.0
        assert info.value.panels_used == 1
        assert abs(info.value.value - TWO_PI) <= 1e-12
        assert "after 1 panels: the rounding floor 6.9" in str(info.value)
        assert str(info.value).endswith(" is above tol = 1.000e-300")

    def test_nan_integrand_fails_at_once(self):
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda x: math.nan, 0.0, 1.0, 1e-10)
        assert info.value.panels_used == 1
        assert math.isnan(info.value.error_estimate)
        assert str(info.value).endswith("after 1 panels: the estimate is NaN")

    @pytest.mark.parametrize(
        "g, b, panels",
        [
            (math.exp, 1.0, 1),  # a seed node lands in the NaN window
            (lambda x: math.cos(40.0 * x), 2.0, 3),  # only the first bisection does
        ],
        ids=["seed", "bisection"],
    )
    def test_nan_on_a_subinterval_fails(self, g, b, panels):
        def f(x):
            return math.nan if 0.70 <= x <= 0.71 else g(x)

        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(f, 0.0, b, 1e-10)
        assert info.value.panels_used == panels
        assert math.isnan(info.value.error_estimate)
        assert str(info.value).endswith(f"after {panels} panels: the estimate is NaN")

    def test_seed_grid_past_budget_is_not_attempted(self, monkeypatch):
        calls = []
        start = time.perf_counter()
        for b, osc_freq, budget in (
            (TWO_PI, 1e11, DEFAULT_PANEL_BUDGET),  # the period lattice
            (TWO_PI, 40.0, 39),
            (40 * TWO_PI, 0.0, 39),  # the even grid
        ):
            monkeypatch.setattr(quad, "DEFAULT_PANEL_BUDGET", budget)
            with pytest.raises(ValueError, match=f"DEFAULT_PANEL_BUDGET = {budget} "):
                integrate_adaptive(lambda x: calls.append(x) or 0.0, 0.0, b, 1e-10, osc_freq=osc_freq)
        assert time.perf_counter() - start < 1.0
        assert calls == []

    def test_seed_edges_sit_on_the_period_lattice(self):
        N = 37
        period = 4 * math.pi / (2 * N + 1)
        _, edges = seeded(-0.9, 1.5, N + 0.5, lambda x: _windowed_compact(N, x))
        inner = edges[1:-1]
        assert edges[0] == -0.9 and edges[-1] == 1.5
        # every k*period inside (-0.9, 1.5), the peak at 0 among them
        first = math.ceil(-0.9 / period)
        assert inner == [k * period for k in range(first, first + len(inner))]
        assert 0.0 in inner
        assert -0.9 < inner[0] and inner[0] - period < -0.9
        assert inner[-1] < 1.5 < inner[-1] + period

    def test_kernel_integral_needs_little_refinement(self):
        # Lattice panels meet the kernel in phase: at N = 5000 the run
        # bisects about 3% of its 5,002 seed panels (an edge-anchored grid
        # took 14,543 panels).
        N = 5000
        r = integrate_adaptive(
            lambda x: _windowed_compact(N, x), -math.pi, math.pi, 1e-10, osc_freq=N + 0.5
        )
        assert abs(r.value - TWO_PI) <= r.error_estimate <= 1e-10
        assert r.panels_used <= 5500

    def test_non_finite_frequency(self):
        calls = []
        for osc_freq, message in ((math.inf, "frequency inf .*DEFAULT_PANEL_BUDGET"), (math.nan, "osc_freq")):
            with pytest.raises(ValueError, match=message):
                integrate_adaptive(lambda x: calls.append(x) or x, 0.0, 1.0, 1e-9, osc_freq=osc_freq)
        assert calls == []

    def test_preconditions(self):
        f = lambda x: x
        with pytest.raises(ValueError):
            integrate_adaptive(f, 1.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            integrate_adaptive(f, 2.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            integrate_adaptive(f, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_adaptive(f, 0.0, 1.0, 1e-9, osc_freq=-1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: the G7/K15 estimate reads 19x below the true error on the unbisected "
        "seed panel that ends on the bump's support edge",
    )
    def test_sigma_route_on_the_half_period_shift_estimate_holds(self):
        # The kernel action of gauss(0.593, 0.854) at N = 5 through sigma,
        # on v = u + pi/2.  It takes 12 panels and reports 4.40e-9 for a
        # true error of 8.29e-8.  The reference is the action over the
        # support, by mpmath.quad at 30 digits: the integral of
        # sin(w*x)/sin(x/2) * phi(x), split at 0.
        reference = 0.833231311634924532943927444917
        phi = gaussian_bump(0.5929596616230168, 0.8544144718944535)
        r = sigma_route(phi, 5, *phi.support, 1e-8, math.pi / 2)
        assert abs(r.value - reference) <= r.error_estimate


def loop_panel(f, a, b):
    """The G7/K15 panel in QUADPACK's loop form: the reference for quad._kronrod_panel."""
    xgk, wgk, wg = quad._XGK, quad._WGK, quad._WG
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = fc * wg[3]
    resk = fc * wgk[7]
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(3):
        jtw = 2 * j + 1
        absc = hlgth * xgk[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg += wg[j] * fsum
        resk += wgk[jtw] * fsum
        resabs += wgk[jtw] * (abs(fval1) + abs(fval2))
    for j in range(4):
        jtwm1 = 2 * j
        absc = hlgth * xgk[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk += wgk[jtwm1] * fsum
        resabs += wgk[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = wgk[7] * abs(fc - reskh)
    for j in range(7):
        resasc += wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    floor = 0.0
    if resabs > sys.float_info.min / (50.0 * sys.float_info.epsilon):
        floor = sys.float_info.epsilon * 50.0 * resabs
        abserr = max(floor, abserr)
    return result, abserr, floor


def bits(triple):
    return struct.pack("<3d", *triple)


# Below sys.float_info.min / (50*eps), about 2e-294, resabs gets no rounding floor.
TINY = 1e-296

GAUSS = gaussian_bump(0.3, 1.2)

INTEGRANDS = {
    "kernel*gauss": lambda x: _windowed_compact(37, x) * GAUSS(x),
    "constant": lambda x: 2.5,
    "zero": lambda x: 0.0,
    "tiny": lambda x: TINY * math.cos(x),
    "nan": lambda x: math.nan if x > 0.0 else 1.0,
}


class TestKronrodPanel:
    @given(
        st.sampled_from(sorted(INTEGRANDS)),
        st.floats(-3.0, 2.0),
        st.integers(-300, 0),
        st.floats(1.0, 9.99),
    )
    def test_equals_the_loop_form(self, name, offset, exponent, mantissa):
        # widths from 1e-300 to 10, at offsets on the width's own scale
        f = INTEGRANDS[name]
        width = mantissa * 10.0**exponent
        a = offset * width
        b = a + width
        assume(a < b)
        assert bits(quad._kronrod_panel(f, a, b)) == bits(loop_panel(f, a, b))

    @given(st.sampled_from(sorted(INTEGRANDS)), st.floats(1e-300, 4.0), st.floats(1e-300, 4.0))
    def test_equals_the_loop_form_across_zero(self, name, left, right):
        f = INTEGRANDS[name]
        assert bits(quad._kronrod_panel(f, -left, right)) == bits(loop_panel(f, -left, right))

    def test_branches_are_reached(self):
        # zero: resasc == 0; tiny: no rounding floor; nan: NaN throughout
        assert quad._kronrod_panel(INTEGRANDS["zero"], -1.0, 2.0) == (0.0, 0.0, 0.0)
        value, error, floor = quad._kronrod_panel(INTEGRANDS["tiny"], -1.0, 2.0)
        assert value != 0.0 and floor == 0.0
        assert all(map(math.isnan, quad._kronrod_panel(INTEGRANDS["nan"], -1.0, 2.0)[:2]))


def poly_exp_integral(coeffs, alpha, a, b):
    """The integral of sum_m coeffs[m]*t**m * exp(i*alpha*t) over [a, b], at 60
    digits, from the exact antiderivatives of t**m * exp(i*alpha*t)."""
    with mpmath.workdps(60):
        ia = mpmath.mpc(0, alpha)

        def antiderivative(t):
            t = mpmath.mpf(t)
            total = 0
            for m, c in enumerate(coeffs):
                falling = 1  # m!/(m-j)!
                for j in range(m + 1):
                    total += c * (-1) ** j * falling * t ** (m - j) / ia ** (j + 1)
                    falling *= m - j
            return mpmath.exp(ia * t) * total

        return antiderivative(b) - antiderivative(a)


def exact_moment(k, alpha):
    """The integral of T_k(t)*exp(i*alpha*t) over [-1, 1], real part for even k
    and imaginary part for odd k: T_k's integer monomial coefficients, a
    route that shares nothing with the recurrence."""
    with mpmath.workdps(60):
        coeffs = [int(mpmath.nint(c)) for c in mpmath.taylor(lambda t: mpmath.chebyt(k, t), 0, k)]
        value = poly_exp_integral(coeffs, alpha, -1, 1)
        return float(value.real if k % 2 == 0 else value.imag)


class TestFccPanel:
    @pytest.mark.parametrize("alpha", [24.0, 100.0, 3000.7, 1e6])
    def test_moments_match_mpmath(self, alpha):
        got = quad._fcc_moments(alpha)
        assert len(got) == 25
        for k, moment in enumerate(got):
            assert abs(moment - exact_moment(k, alpha)) <= 1e-15, k

    def test_clenshaw_curtis_weights(self):
        # They integrate the Chebyshev polynomials up to degree 24 exactly.
        ts = [1.0, *quad._FCC_T]
        weights = [*quad._CC_W, *reversed(quad._CC_W), quad._CC_W_MID]
        nodes = [*ts, *(-t for t in reversed(ts)), 0.0]
        for k in range(0, 25, 2):
            exact = 2.0 / (1 - k * k)
            got = math.fsum(w * math.cos(k * math.acos(t)) for w, t in zip(weights, nodes))
            assert abs(got - exact) <= 1e-14

    @pytest.mark.parametrize("w, a, b", [(100.0, 1.0, 2.0), (1000.5, -2.5, -0.3), (24.0, -1.0, 1.0)])
    def test_exact_for_low_degree(self, w, a, b):
        # g of degree 12 is interpolated exactly at both degrees, so the value
        # is the integral itself and the estimate is the rounding floor.
        coeffs = [1, 1, -3, 0, 0, 0, 0, mpmath.mpf(0.5), 0, 0, 0, 0, -mpmath.mpf(0.01)]

        def g(x):
            return 1.0 + x - 3.0 * x**2 + 0.5 * x**7 - 0.01 * x**12

        value, error, floor = quad._fcc_panel(g, w, a, b)
        exact = poly_exp_integral(coeffs, w, a, b).imag
        assert abs(value - float(exact)) <= 1e-14
        assert error == floor > 0

    def test_estimate_covers_a_panel_that_needs_bisection(self):
        # The bump's edge inside the panel: the interpolant is poor, and the
        # estimate says so.
        g = gaussian_bump(0.0, 1.0).evaluator
        value, error, _ = quad._fcc_panel(g, 200.0, 0.5, 1.5)
        with mpmath.workdps(30):
            exact = mpmath.quad(lambda x: mpmath.sin(200 * x) * mpmath.exp(-1 / (1 - x * x)),
                                mpmath.linspace(0.5, 1, 60))
        assert abs(value - float(exact)) <= error
        assert error > 1e-12


def seeded(a, b, osc_freq, f=lambda x: 0.0):
    """integrate_adaptive's result on [a, b] at osc_freq, and the seed edges
    it hands to _refine."""
    seeds = []
    refine = quad._refine

    def spy(panel, edges, tol):
        seeds.append(edges)
        return refine(panel, edges, tol)

    with mock.patch.object(quad, "_refine", spy):
        result = integrate_adaptive(f, a, b, 1e-10, osc_freq=osc_freq)
    (edges,) = seeds
    return result, edges


class TestLattice:
    @given(st.floats(-1e6, 1e6), st.floats(1e-3, 300.0), st.floats(1e-2, 10.0))
    def test_exactly_the_points_strictly_inside(self, a, periods, spacing):
        osc_freq = TWO_PI / spacing
        period = TWO_PI / osc_freq
        b = a + periods * period
        assume(a < b)
        _, edges = seeded(a, b, osc_freq)
        inner = edges[1:-1]
        assert edges[0] == a and edges[-1] == b
        if inner:
            first = round(inner[0] / period)
            assert inner == [k * period for k in range(first, first + len(inner))]
            assert all(a < x < b for x in inner)
            assert not a < (first - 1) * period < b
            assert not a < (first + len(inner)) * period < b
        else:
            near = range(math.floor(a / period) - 2, math.ceil(b / period) + 3)
            assert not any(a < k * period < b for k in near)

    def test_ends_that_are_lattice_points_are_not_repeated(self):
        period = TWO_PI / 40
        assert seeded(0.0, 40 * period, 40.0)[1] == [k * period for k in range(41)]
        assert seeded(-3 * period, 3 * period, 40.0)[1] == [k * period for k in range(-3, 4)]

    @pytest.mark.parametrize("osc_freq, inner", [(5e-324, []), (1e-308, []), (2.5e-308, []), (1e-300, [0.0])])
    def test_a_frequency_whose_period_overflows_seeds_the_interval(self, osc_freq, inner):
        # Where 2*pi/w overflows to inf the lattice has no finite point
        # inside, and 0 * inf is NaN, which no seed edge may be; at 1e-300
        # the period is finite and 0 is its one point inside.
        result, edges = seeded(-1.0, 1.0, osc_freq, lambda x: 1.0)
        assert result.value == 2.0
        assert edges == [-1.0, *inner, 1.0]
        assert all(map(math.isfinite, edges))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 388, 100_000])
    def test_sinc_edges_are_the_half_periods(self, monkeypatch, n_max):
        seeds = []

        def spy(panel, edges, tol):
            seeds.append(edges)
            return QuadResult(1.0, 0.0, 1), []

        monkeypatch.setattr(quad, "_refine", spy)
        sinc_table(n_max, 1e-10)
        (edges,) = seeds
        top = (n_max + 0.5) * math.pi
        # every half-period (k + 1/2)*pi strictly inside (0, top), each once
        inner = [(k + 0.5) * math.pi for k in range(-1, n_max + 2)]
        assert edges == [0.0, *(x for x in inner if 0.0 < x < top), top]


class TestQuadResult:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1e-3, 5)
        with pytest.raises(ValueError):
            QuadResult(1.0, 0.0, 0)
        with pytest.raises(ValueError):
            QuadResult(1.0, math.nan, 1)
        r = QuadResult(1.0, 0.0, 1)
        assert r.error_estimate == 0.0


class TestSincTruncated:
    def test_frozen_oracle_values(self):
        assert abs(sinc_truncated(0, 1e-12).value - SINC_N0) <= 1e-12
        assert abs(sinc_truncated(1, 1e-12).value - SINC_N1) <= 1e-12

    def test_alternation_around_pi(self):
        values = [sinc_truncated(N, 1e-11).value for N in range(11)]
        for N, v in enumerate(values):
            # odd truncations land above pi, even ones below
            assert (v - math.pi > 0) == (N % 2 == 1)

    def test_envelope_decreases(self):
        errors = [abs(sinc_truncated(N, 1e-11).value - math.pi) for N in range(1, 11)]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_alternating_tail_bound(self):
        for N in (1, 2, 5, 10, 50):
            v = sinc_truncated(N, 1e-11).value
            assert abs(v - math.pi) <= 2.0 / ((N + 0.5) * math.pi)

    def test_determinism_is_bitwise(self):
        r1 = sinc_truncated(7, 1e-10)
        r2 = sinc_truncated(7, 1e-10)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate

    def test_validation(self):
        with pytest.raises(ValueError):
            sinc_truncated(-1, 1e-9)
        with pytest.raises(ValueError):
            sinc_truncated(1.5, 1e-9)
        with pytest.raises(ValueError):
            sinc_truncated(3, -1e-9)
        with pytest.raises(ValueError):
            sinc_truncated(True, 1e-9)


def sinc_references(n_max):
    """2*integral of sin(x)/x over [0, (N+1/2)pi] for N = 0..n_max, from a
    fixed 30-point Gauss-Legendre rule on each half-period."""
    t, w = np.polynomial.legendre.leggauss(30)
    edges = [0.0] + [(N + 0.5) * math.pi for N in range(n_max + 1)]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        x = 0.5 * (a + b) + 0.5 * (b - a) * t
        pieces.append(0.5 * (b - a) * math.fsum((w * np.sin(x) / x).tolist()))
    return [2.0 * math.fsum(pieces[: N + 1]) for N in range(n_max + 1)]


class TestSincTable:
    @pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-12, 2e-13])
    def test_rows_within_their_estimates(self, tol):
        rows = sinc_table(400, tol)
        assert len(rows) == 401
        for row, reference in zip(rows, sinc_references(400)):
            assert abs(row.value - reference) <= row.error_estimate <= tol
            # resabs >= |value| on every panel, so the doubled floors cover this
            assert row.error_estimate >= 0.99 * 50 * sys.float_info.epsilon * row.value

    def test_prefix_rows_after_bisection(self, monkeypatch):
        # |sin x| has a kink inside every seed panel past the first, so those
        # panels are bisected; the half-range integral to (N+1/2)pi is 1 + 2N.
        calls = []

        def kinked(x):
            calls.append(x)
            return abs(math.sin(x))

        monkeypatch.setattr(quad, "_sinc", kinked)
        rows = sinc_table(20, 1e-9)
        assert 15 * rows[-1].panels_used == len(calls)
        for N, row in enumerate(rows):
            assert abs(row.value - (2 + 4 * N)) <= row.error_estimate <= 1e-9
        used = [row.panels_used for row in rows]
        assert all(b >= a + 3 for a, b in zip(used, used[1:]))

    def test_rows_share_one_budget(self):
        # All panels refine against tol/2.  The half-range rounding floor at
        # n_max = 400 is about 6.2e-14, above 5e-14, so the last row could not
        # keep its doubled estimate within 1e-13.
        with pytest.raises(QuadratureError):
            sinc_table(400, 1e-13)

    def test_running_sum_is_exact(self):
        # The rows' running sum in units of 2**-1074, rounded by one
        # int/int division, is the correctly rounded sum math.fsum gives.
        rng = random.Random(5)
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(2000)]
        values += [5e-324, 1.0, 2.0**-53, -(2.0**-1074), 1e300, 3.5e-320, -1e300, -1.0]
        total = 0
        for i, v in enumerate(values, start=1):
            total += quad._fixed(v)
            assert total / (1 << 1074) == math.fsum(values[:i])

    def test_one_pass_panel_count(self):
        rows = sinc_table(388, 1e-11)
        assert rows[-1].panels_used <= 2 * 389
        assert [row.panels_used for row in rows] == sorted(row.panels_used for row in rows)

    def test_unreachable_tolerance_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            sinc_table(3, 1e-300)
        assert time.perf_counter() - start < 1.0
        assert info.value.panels_used == 4
        # the best value is the whole table's last row, doubled like the rows
        assert abs(info.value.value - sinc_references(3)[3]) <= 1e-12
        # so are the floors; the tolerance is the caller's
        assert str(info.value).endswith(
            f"the rounding floor {info.value.error_estimate:.3e} is above tol = 1.000e-300"
        )

    def test_seed_grid_past_budget_is_not_attempted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(quad, "_sinc", lambda x: calls.append(x) or 1.0)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"n_max = {10**11} .*DEFAULT_PANEL_BUDGET = {DEFAULT_PANEL_BUDGET}"):
            sinc_table(10**11, 1e-10)
        assert time.perf_counter() - start < 1.0
        assert calls == []
