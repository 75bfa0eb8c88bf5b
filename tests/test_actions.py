import functools
import math
import random
import re
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zetacomb.actions as actions
import zetacomb.cli as cli
import zetacomb.kernels as kernels
import zetacomb.quad as quad
from zetacomb.actions import (
    MODE_SAMPLE_CAP,
    _dirichlet_periodic,
    _fourier_partial_sums,
    _mode_trapezoid,
    _trapezoid_terms,
    delta0_comb_action,
    delta0_partial_action,
    delta1_closed,
    delta2_closed,
    deltaN_action,
    fourier_partial_delta1,
    fourier_partial_delta2,
)
from zetacomb.kernels import SERIES_WORK_CAP, _exact_row_sums, _trig_series, dirichlet_sum
from zetacomb.quad import QuadratureError, integrate_adaptive
from zetacomb.testfn import bump_plateau, gaussian_bump, phi_tilde

from test_kernels import fsum_sum_form

TWO_PI = 2 * math.pi
PI2 = math.pi**2

# frozen 50-digit values
MOLLIFIER_INTEGRAL = 0.4439938161680794
TWO_PI_OVER_E = 2.3114546995818435


def plateau():
    return bump_plateau(math.pi, 1.5 * math.pi)


class TestCombAction:
    def test_plateau_sees_only_the_origin(self):
        assert delta0_comb_action(plateau()) == TWO_PI

    def test_gaussian_at_origin(self):
        v = delta0_comb_action(gaussian_bump(0.0, 1.0))
        assert math.isclose(v, TWO_PI_OVER_E, rel_tol=1e-15)

    def test_three_lattice_points(self):
        wide = gaussian_bump(TWO_PI, 7.0)
        expected = TWO_PI * (wide(0.0) + wide(TWO_PI) + wide(2 * TWO_PI))
        assert delta0_comb_action(wide) == expected

    def test_no_lattice_point_in_support(self):
        assert delta0_comb_action(gaussian_bump(11 * math.pi, 1.0)) == 0.0

    def test_support_past_the_cap_is_refused_before_phi_runs(self):
        # about 3.2e8 lattice points
        wide = gaussian_bump(0.0, 1e9)._replace(evaluator=mock.Mock(return_value=0.0))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than MODE_SAMPLE_CAP = {MODE_SAMPLE_CAP}"):
            delta0_comb_action(wide)
        assert time.perf_counter() - start < 1.0
        wide.evaluator.assert_not_called()

    def test_the_cap_counts_lattice_points(self, monkeypatch):
        monkeypatch.setattr(actions, "MODE_SAMPLE_CAP", 3)
        three = gaussian_bump(TWO_PI, 7.0)  # 0, 2*pi and 4*pi
        assert delta0_comb_action(three) == TWO_PI * math.fsum(three(TWO_PI * n) for n in range(3))
        with pytest.raises(ValueError, match="needs 4 samples of phi, more than MODE_SAMPLE_CAP = 3"):
            delta0_comb_action(gaussian_bump(3 * math.pi, 10.0))  # 0 to 6*pi


class TestPartialAction:
    def test_order_zero_is_plain_integral(self):
        v = delta0_partial_action(gaussian_bump(0.0, 1.0), 0, 1e-10)
        assert abs(v - MOLLIFIER_INTEGRAL) <= 1e-9

    def test_plateau_converges_to_two_pi(self):
        v = delta0_partial_action(plateau(), 100, 1e-10)
        assert abs(v - TWO_PI) < 1e-8

    def test_comb_equivalence_for_gaussian(self):
        g = gaussian_bump(0.0, 1.0)
        diff = abs(delta0_partial_action(g, 100, 1e-10) - delta0_comb_action(g))
        assert diff < 1e-4

    def test_empty_lattice_decays_to_zero(self):
        shifted = gaussian_bump(11 * math.pi, 1.0)
        coarse = delta0_partial_action(shifted, 20, 1e-10)
        fine = delta0_partial_action(shifted, 100, 1e-10)
        assert abs(fine) < 1e-5
        assert abs(fine) < abs(coarse)

    def test_validation(self):
        g = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError):
            delta0_partial_action(g, -1, 1e-10)
        with pytest.raises(ValueError):
            delta0_partial_action(g, 5, 0.0)
        with pytest.raises(ValueError):
            delta0_partial_action(g, True, 1e-10)


def adaptive_mode_sum(phi, N):
    """Oracle for the mode route: c_0 + 2*sum Re(c_n), one adaptive
    quadrature per mode, each at a tolerance just above its roundoff floor."""
    lo, hi = phi.support
    f = phi.evaluator
    mode_tol = 100 * sys.float_info.epsilon * (hi - lo)
    parts = [integrate_adaptive(f, lo, hi, mode_tol).value]
    for n in range(1, N + 1):
        parts.append(2.0 * integrate_adaptive(
            lambda x, n=n: math.cos(n * x) * f(x), lo, hi, mode_tol, osc_freq=float(n)
        ).value)
    return math.fsum(parts)


MODE_PHIS = {
    "gauss(0.3,0.5)": gaussian_bump(0.3, 0.5),
    "gauss(-0.7,1.2)": gaussian_bump(-0.7, 1.2),
    "gauss(0.9,3)": gaussian_bump(0.9, 3.0),
    "gauss(-0.4,7)": gaussian_bump(-0.4, 7.0),
    "plateau": plateau(),
}


class TestModeTrapezoid:
    @pytest.mark.parametrize("N", [0, 1, 37, 239])
    @pytest.mark.parametrize("name", list(MODE_PHIS))
    def test_matches_per_mode_oracle(self, name, N):
        phi = MODE_PHIS[name]
        tol = 1e-12
        value, estimate, M = _mode_trapezoid(phi, N, tol)
        oracle = adaptive_mode_sum(phi, N)
        assert abs(value - oracle) <= tol
        assert estimate <= tol
        # The real error is measured against the same sum on 16 times the
        # nodes, itself checked against the oracle: at N = 239 on the wide
        # supports the oracle's own error (node rounding, amplified by n)
        # reaches a few 1e-13, above some of the estimates it would test.
        fine_M = 16 * M
        fine = 2 * math.pi / fine_M * math.fsum(
            _trapezoid_terms(phi, N, fine_M, odd_only=False)
        )
        assert abs(fine - oracle) <= tol
        assert estimate >= abs(value - fine)

    def test_never_uses_adaptive_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(kernels, "_kernel_integral", forbidden)
        for name in ("integrate_adaptive", "_refine", "_fcc_panel"):
            monkeypatch.setattr(quad, name, forbidden)
        v = delta0_partial_action(gaussian_bump(0.0, 1.0), 200, 1e-10)
        assert abs(v - TWO_PI_OVER_E) < 1e-6

    def test_starts_above_the_lattice_node_count(self):
        # on 2N+1 nodes the kernel vanishes except at x = 0, which would
        # turn the sum into the lattice route
        for N in (0, 5, 100):
            _, _, M = _mode_trapezoid(gaussian_bump(0.0, 1.0), N, 1e-10)
            assert M >= 4 * N + 4

    def test_narrow_support_is_resolved(self):
        # this bump falls between the nodes of the 8- and 16-node grids,
        # where both sums and their difference would read 0
        v = delta0_partial_action(gaussian_bump(2.16, 0.15), 0, 1e-10)
        assert abs(v - 0.15 * MOLLIFIER_INTEGRAL) <= 1e-9

    def test_periodic_kernel_at_nodes(self):
        M = 64
        for N in (0, 1, 7, 40):
            assert _dirichlet_periodic(N, 0, M) == 2 * N + 1
            assert _dirichlet_periodic(N, -M // 2, M) == (-1) ** N
            for m in range(1, M // 2):
                value = _dirichlet_periodic(N, m, M)
                assert value == _dirichlet_periodic(N, -m, M)
                x = 2 * math.pi * m / M
                assert abs(value - dirichlet_sum(N, x)) <= 1e-12 * (2 * N + 1)

    def test_unreachable_tolerance_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            delta0_partial_action(gaussian_bump(0.0, 1.0), 5, 1e-300)
        assert time.perf_counter() - start < 1.0
        assert info.value.error_estimate > 1e-300
        # The mode route has no panels: its failure counts the nodes M and
        # names the cause, the floor that the first comparison already passes.
        message = str(info.value)
        assert f"after {info.value.panels_used} nodes: the rounding floor " in message
        assert message.endswith(" is above tol = 1.000e-300")
        assert "panel" not in message

    def test_nan_estimate_stops_at_once(self):
        # phi is NaN on its support, so the first comparison is NaN: the run
        # stops there, as quad._refine does, and does not double to the cap.
        nan_phi = gaussian_bump(0.0, 1.0)._replace(evaluator=lambda x: math.nan)
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            delta0_partial_action(nan_phi, 5, 1e-10)
        assert time.perf_counter() - start < 0.05
        assert info.value.panels_used == 64
        assert str(info.value).endswith("after 64 nodes: the estimate is NaN")

    @pytest.mark.parametrize(
        "value, N, cause",
        [
            (math.inf, 5, "the estimate is NaN"),  # terms of both signs of inf
            (-1e308, 5, "the estimate is NaN"),  # terms past the float range, of both signs
            (1.5e307, 0, "the estimate is NaN"),  # every term is phi: their sum passes the float range
            (1e300, 5, "the rounding floor 1.031e+287 is above tol = 1.000e-10"),
        ],
    )
    def test_unsummable_terms_are_a_quadrature_error(self, value, N, cause):
        # math.fsum raises at an inf - inf and at a running sum past the
        # float range; the mode sum takes the plain float sum there, NaN or
        # inf, and refuses as deltaN_action does, naming the cause in
        # quad._refine's order.
        phi = gaussian_bump(0.0, 1.0)._replace(evaluator=lambda x: value)
        with pytest.raises(QuadratureError) as info:
            delta0_partial_action(phi, N, 1e-10)
        assert str(info.value).endswith(f"after {info.value.panels_used} nodes: {cause}")

    def test_cap_on_the_next_doubling_is_named(self, monkeypatch):
        # N = 5 starts at M = 32 nodes on a support inside one period and
        # wide enough for 16 nodes of them, so a cap of 32 samples lets the
        # first sum run and refuses the doubling.
        monkeypatch.setattr(actions, "MODE_SAMPLE_CAP", 32)
        with pytest.raises(QuadratureError) as info:
            delta0_partial_action(gaussian_bump(0.0, 3.0), 5, 1e-10)
        assert info.value.panels_used == 32
        assert info.value.error_estimate > 1e-10
        assert str(info.value) == (
            f"mode sum tolerance not reached after 32 nodes: estimate {info.value.error_estimate:.3e},"
            " and the next doubling passes MODE_SAMPLE_CAP = 32 samples of phi"
        )

    def test_sample_cap_fails_fast(self):
        calls = []
        bump = gaussian_bump(0.0, 1.0)
        spy = bump._replace(evaluator=lambda x: calls.append(x) or bump.evaluator(x))
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            delta0_partial_action(spy, MODE_SAMPLE_CAP // 4, 1e-10)
        assert time.perf_counter() - start < 1.0
        assert calls == []
        # The mode route has no panels; the message names its own limit.
        assert f"MODE_SAMPLE_CAP = {MODE_SAMPLE_CAP}" in str(info.value)
        assert "panels" not in str(info.value)


class TestCoefficientDecay:
    def test_modes_decay_faster_than_any_tested_power(self):
        # smoothness shows up as rapid decay of the cosine modes; fit the
        # constant on n <= 100 (the n^k-weighted peak sits well inside)
        # and check the bound continues to hold out to n = 200
        g = gaussian_bump(0.0, 1.0)
        mags = []
        for n in range(1, 201):
            r = integrate_adaptive(
                lambda x, n=n: math.cos(n * x) * g(x), -1.0, 1.0, 1e-12,
                osc_freq=float(n),
            )
            mags.append(abs(r.value))
        for k in (2, 4):
            fitted = 1.5 * max(m * n**k for n, m in zip(range(1, 101), mags[:100]))
            for n, m in enumerate(mags, start=1):
                assert m <= fitted / n**k


def sigma_route(phi, N, lo, hi, tol):
    """The kernel action over [lo, hi] inside the window, computed through sigma.

    There D_N(x)*phi(x) = 2*sin(w*x)/x * phi_tilde(x) with w = N + 1/2, and
    u = w*x turns the action into the integral of 2*sin(u)/u * phi_tilde(u/w)
    over [w*lo, w*hi].  It runs on v = u + pi, so its seed edges v = 2*pi*k
    fall on u = (2k+1)*pi, off the action's lattice u = 2*pi*k; on v = u the
    two runs would bisect the same panels.
    """
    w = N + 0.5
    pt = phi_tilde(phi)

    def f(v):
        u = v - math.pi
        return 2.0 * pt(u / w) if u == 0.0 else 2.0 * math.sin(u) / u * pt(u / w)

    return integrate_adaptive(f, lo * w + math.pi, hi * w + math.pi, tol, osc_freq=1.0)


class TestDeltaNAction:
    @given(
        st.floats(0.05, 1.5),
        st.floats(-1.0, 1.0),
        st.integers(0, 2000),
        st.sampled_from([1e-8, 1e-10, 1e-12]),
    )
    def test_agrees_with_the_sigma_route(self, radius, s, N, tol):
        # different integrand, variable and seed lattice, and no 1/sin(x/2)
        phi = gaussian_bump(s * (math.pi - radius), radius)
        lo = max(-math.pi, phi.support[0])
        hi = min(math.pi, phi.support[1])
        action = kernels._kernel_integral(N, phi.evaluator, lo, hi, tol)
        sigma = sigma_route(phi, N, lo, hi, tol)
        assert abs(action.value - sigma.value) <= action.error_estimate + sigma.error_estimate

    @settings(max_examples=60)
    @given(
        st.floats(0.05, 3.0),
        st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
        st.one_of(st.integers(1, 50), st.integers(51, 20_000)),
        st.sampled_from([1e-10, 1e-12]),
    )
    def test_agrees_with_the_mode_route(self, radius, s, N, tol):
        # With the support inside the window, the kernel action and the
        # partial action are one integral of D_N * phi over [-pi, pi], by
        # independent code: adaptive G7/K15 on the compact form, and the
        # periodic trapezoid on the integer-reduced kernel.
        phi = gaussian_bump(s * (math.pi - radius), radius)
        lo = max(-math.pi, phi.support[0])
        hi = min(math.pi, phi.support[1])
        action = kernels._kernel_integral(N, phi.evaluator, lo, hi, tol)
        partial, estimate, _ = _mode_trapezoid(phi, N, tol)
        assert abs(action.value - partial) <= action.error_estimate + estimate

    def test_order_zero_is_plain_integral(self):
        v = deltaN_action(gaussian_bump(0.0, 1.0), 0, 1e-10)
        assert abs(v - MOLLIFIER_INTEGRAL) <= 1e-9

    def test_gaussian_converges_to_value_at_zero(self):
        g = gaussian_bump(0.0, 1.0)
        err_50 = abs(deltaN_action(g, 50, 1e-10) - TWO_PI_OVER_E)
        err_500 = abs(deltaN_action(g, 500, 1e-10) - TWO_PI_OVER_E)
        assert err_50 < 1e-3
        assert err_500 < 1e-9
        assert err_500 < err_50

    def test_plateau_action_is_exactly_normalized(self):
        # the plateau is 1 on the whole window, so every order gives 2*pi
        for N in (0, 7, 50):
            assert abs(deltaN_action(plateau(), N, 1e-10) - TWO_PI) <= 1e-9

    def test_support_away_from_zero_decays(self):
        away = gaussian_bump(2.5, 0.5)
        v_50 = deltaN_action(away, 50, 1e-10)
        v_500 = deltaN_action(away, 500, 1e-10)
        assert abs(v_500) < 1e-6
        assert abs(v_500) < abs(v_50)

    def test_support_outside_window_gives_zero(self):
        assert deltaN_action(gaussian_bump(10.0, 1.0), 50, 1e-10) == 0.0

    def test_validation(self):
        g = gaussian_bump(0.0, 1.0)
        with pytest.raises(ValueError):
            deltaN_action(g, -1, 1e-10)
        with pytest.raises(ValueError):
            deltaN_action(g, 5, -1e-10)
        with pytest.raises(ValueError):
            deltaN_action(g, True, 1e-10)

    def test_order_past_the_float_range_is_not_attempted(self):
        calls = []
        bump = gaussian_bump(0.0, 1.0)
        spy = bump._replace(evaluator=lambda x: calls.append(x) or bump.evaluator(x))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("N must be < 2**52, where N + 1/2 is a float")):
            deltaN_action(spy, 10**320, 1e-10)
        assert time.perf_counter() - start < 1.0
        assert calls == []


# Orders far past the reach of the mode route (MODE_SAMPLE_CAP) and the
# sigma route: there the reference is the limit 2*pi*phi(0) itself, which
# these weights reach to rounding long before N = 10**5.
LIMIT_PHIS = {"gauss(0.3, 1.2)": gaussian_bump(0.3, 1.2), "gauss(0, 1)": gaussian_bump(0.0, 1.0), "plateau": plateau()}
LARGE_ORDERS = [10**7, 10**9, 10**12, 2**51]


def clipped_kernel_integral(phi, N, tol):
    """The QuadResult of deltaN_action(phi, N, tol)."""
    lo = max(-math.pi, phi.support[0])
    hi = min(math.pi, phi.support[1])
    return kernels._kernel_integral(N, phi.evaluator, lo, hi, tol)


class TestActionAtEveryFloatOrder:
    @pytest.mark.parametrize(
        "name, N, tol",
        [
            (name, N, tol)
            for name in LIMIT_PHIS
            for N in LARGE_ORDERS
            for tol in (1e-10, 1e-12)
            if not (name == "plateau" and tol == 1e-12 and N >= 2**47)
        ],
    )
    def test_meets_the_limit(self, name, N, tol):
        phi = LIMIT_PHIS[name]
        result = clipped_kernel_integral(phi, N, tol)
        assert abs(result.value - 2 * math.pi * phi(0.0)) <= result.error_estimate <= tol
        assert result.value == deltaN_action(phi, N, tol)

    @pytest.mark.parametrize("N", [2**47, 2**51])
    def test_plateau_floor_passes_1e_12_from_2_47(self, N):
        # The panels' summed rounding floors, about 1.4e-14 per FCC panel,
        # pass 1e-12 here, though the true error is about 1e-15.
        with pytest.raises(QuadratureError):
            clipped_kernel_integral(plateau(), N, 1e-12)
        assert clipped_kernel_integral(plateau(), 2**46, 1e-12).error_estimate <= 1e-12

    @pytest.mark.parametrize("N", ["2000000", "1000000000000"])
    def test_cli_runs_past_the_old_lattice_budget(self, capsys, N):
        # Both exited 2 while the kernel's period lattice on the support had
        # to fit DEFAULT_PANEL_BUDGET.
        start = time.perf_counter()
        assert cli.run(["action", "--n-list", N, "--format", "csv"]) == 0
        assert time.perf_counter() - start < 1.0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == N
        assert float(row[3]) <= 1e-14


class TestFourierDelta1:
    def test_zero_at_origin(self):
        for N in (1, 10, 1000):
            assert fourier_partial_delta1(N, 0.0) == 0.0

    def test_single_term_at_pi(self):
        # pi + 2*sin(pi) is pi up to the rounding of sin(pi)
        assert abs(fourier_partial_delta1(1, math.pi) - math.pi) < 1e-15

    def test_plateau_value_away_from_lattice(self):
        assert abs(fourier_partial_delta1(10**5, math.pi) - math.pi) < 1e-4
        for x in (0.3, 1.0, 5.0, TWO_PI - 0.3):
            assert abs(fourier_partial_delta1(10**5, x) - math.pi) < 1e-4

    def test_antisymmetry_is_bitwise(self):
        rng = random.Random(3)
        for _ in range(25):
            x = rng.uniform(0.0, 10.0)
            assert fourier_partial_delta1(1000, -x) == -fourier_partial_delta1(1000, x)

    def test_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            fourier_partial_delta1(0, 1.0)
        # Past the work cap on one point: refused before numpy is imported.
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match="work cap"):
            fourier_partial_delta1(SERIES_WORK_CAP + 1, 1.0)
        with pytest.raises(ValueError):
            fourier_partial_delta1(True, 1.0)

    def test_terms_past_the_float_range_are_refused(self):
        # n*|x| overflows for n near 10, or x is nan: refused, not summed into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e308, -1e308, math.inf):
                with pytest.raises(ValueError, match="float range"):
                    fourier_partial_delta1(10, x)
            with pytest.raises(ValueError, match="nan is not a number"):
                fourier_partial_delta1(10, math.nan)
            assert fourier_partial_delta1(10, 1e300) == 1e300  # the sine terms vanish beside x


class TestFourierDelta2:
    def test_square_past_the_float_range_is_refused(self):
        # n*|x| stays finite here, but x**2/2 does not: refused, not summed
        # into inf.  A nan x is refused too, as not a number.
        for x in (1e200, -1e200, 1.9e154):
            with pytest.raises(ValueError, match="float range"):
                fourier_partial_delta2(10, x)
        with pytest.raises(ValueError, match="nan is not a number"):
            fourier_partial_delta2(10, math.nan)
        assert math.isfinite(fourier_partial_delta2(10, 1.8e154))

    def test_single_term_at_origin(self):
        assert fourier_partial_delta2(1, 0.0) == -2.0

    def test_limit_at_origin(self):
        assert abs(fourier_partial_delta2(10**5, 0.0) - (-PI2 / 3)) < 2e-5

    def test_limit_at_pi(self):
        assert abs(fourier_partial_delta2(10**5, math.pi) - 2 * PI2 / 3) < 2e-5

    def test_evenness_is_bitwise(self):
        rng = random.Random(5)
        for _ in range(25):
            x = rng.uniform(0.0, 10.0)
            assert fourier_partial_delta2(1000, -x) == fourier_partial_delta2(1000, x)

    def test_tail_bound_on_wide_grid(self):
        # absolute convergence: tail below 2*sum_{n>N} 1/n^2 < 2/N everywhere
        for N in (10, 100, 1000):
            bound = 2.0 / N
            for i in range(201):
                x = -4 * math.pi + i * (8 * math.pi / 200)
                assert abs(fourier_partial_delta2(N, x) - delta2_closed(x)) <= bound

    def test_oscillatory_part_is_periodic(self):
        N = 500
        for i in range(41):
            x = -TWO_PI + i * (2 * TWO_PI / 40)
            osc_here = fourier_partial_delta2(N, x) - 0.5 * x * x
            shifted = x + TWO_PI
            osc_there = fourier_partial_delta2(N, shifted) - 0.5 * shifted * shifted
            assert abs(osc_here - osc_there) < 1e-12

    def test_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            fourier_partial_delta2(0, 1.0)
        # Past the work cap on one point: refused before numpy is imported.
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match="work cap"):
            fourier_partial_delta2(SERIES_WORK_CAP + 1, 1.0)
        with pytest.raises(ValueError):
            fourier_partial_delta2(True, 1.0)


def fsum_rows(terms):
    return [math.fsum(row) for row in terms.tolist()]


def series_terms(order, rs, n0, n1):
    """The rows of terms the series engine reduces, one per r, for n = n0..n1."""
    n = np.arange(n0, n1 + 1, dtype=np.float64)
    nr = np.multiply.outer(np.asarray(rs, dtype=np.float64), n)
    if order == 0:
        return 2.0 * np.cos(nr)
    return 2.0 * np.sin(nr) / n if order == 1 else np.cos(nr) / (n * n)


@functools.cache  # several tests ask for the same large-N rows
def fsum_partial(order, N, x):
    """The partial sum with its series rounded once, math.fsum of all N terms.

    Order 0 is the kernel's sum form 1 + 2*sum cos(n*x), unwindowed.
    """
    r = abs(x)
    series = math.fsum(series_terms(order, [r], 1, N)[0].tolist())
    if order == 0:
        return math.fsum((1.0, series))
    if order == 2:
        return math.fsum((0.5 * r * r, -2.0 * series))
    if x == 0.0:
        return 0.0
    core = math.fsum((r, series))
    return core if x > 0 else -core


class TestExactRowSums:
    """math.fsum of a row's extracted partials equals math.fsum of the row, bit for bit."""

    def check(self, terms):
        expected = fsum_rows(terms)
        got = [math.fsum(partials) for partials in _exact_row_sums(terms.copy(), np.empty_like(terms))]
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in expected]
        assert got == expected

    def test_series_terms(self):
        rng = np.random.default_rng(11)
        rs = rng.uniform(0.0, 4 * math.pi, 40)
        for order in (0, 1, 2):
            for n0, n1 in ((1, 1), (1, 2), (1, 1000), (77, 4096), (1000, 6000)):
                self.check(series_terms(order, rs, n0, n1))

    def test_exponents_spread_over_400_binades(self):
        rng = np.random.default_rng(12)
        for cols in (1, 2, 3, 1023, 1025):
            terms = rng.uniform(-1.0, 1.0, (20, cols)) * 2.0 ** rng.integers(-200, 201, (20, cols))
            self.check(terms)

    def test_heavy_cancellation(self):
        rng = np.random.default_rng(13)
        big = rng.uniform(-1.0, 1.0, (10, 500)) * 2.0 ** rng.integers(0, 60, (10, 500))
        small = rng.uniform(-1.0, 1.0, (10, 500)) * 2.0**-40
        # Each row is big, small and -big shuffled: the sum is the small part alone.
        terms = np.concatenate([big, small, -big], axis=1)
        for row in terms:
            rng.shuffle(row)
        self.check(terms)
        self.check(np.array([[1e16, 1.0, -1e16, 1.0, 1e-30], [2.0**53, 1.0, 1.0, -(2.0**53), 0.5]]))

    def test_subnormals(self):
        rng = np.random.default_rng(14)
        tiny = rng.integers(-(2**20), 2**20, (8, 300)) * 5e-324
        self.check(tiny)
        mixed = np.concatenate([tiny, rng.uniform(-1e-300, 1e-300, (8, 300))], axis=1)
        self.check(mixed)
        self.check(np.array([[5e-324, 5e-324, -5e-324], [2.2250738585072014e-308, -5e-324, 0.0]]))

    def test_all_zero_rows(self):
        self.check(np.zeros((3, 17)))
        self.check(np.array([[0.0, -0.0], [-0.0, -0.0], [1.0, -1.0]]))
        # The order-1 row at x = 0: sin(0) = 0 in every term.
        self.check(series_terms(1, [0.0, 1.0, 0.0], 1, 5000))



ORACLE_XS = [-9.5, -math.pi, -1e-3, 0.0, 2.5e-7, 1.0, 3.0, 12.25]
LONG_ROW_XS = [-math.pi, -2.0, 0.0, 2.5e-7, 0.7, 5.0, 12.25]
ROUTE_LIMITS = (0, 10**18)  # every grid on the numpy blocks, every grid on math.fsum


def route(set_attribute, limit):
    """Set the scalar limit of _trig_series to limit."""
    set_attribute(kernels, "_SCALAR_TERMS", limit)


def test_terms_alone_pick_the_route_with_numpy_loaded(monkeypatch):
    # This module imports numpy, and still every grid of at most
    # _SCALAR_TERMS terms, N times the rows, takes math.fsum, as in a
    # process without numpy, and one term more takes the blocks.
    assert sys.modules.get("numpy") is not None
    limit = kernels._SCALAR_TERMS
    shapes = []
    extract = kernels._exact_row_sums

    def spy(terms, q):
        shapes.append(terms.shape)
        return extract(terms, q)

    monkeypatch.setattr(kernels, "_exact_row_sums", spy)
    xs = [0.3, 1.0, 2.5, 5.9]
    assert [fourier_partial_delta1(10**5, x) for x in xs] == [fsum_partial(1, 10**5, x) for x in xs]
    assert _fourier_partial_sums(1, limit // 4, xs) == [fsum_partial(1, limit // 4, x) for x in xs]
    assert dirichlet_sum(limit, 0.5) == fsum_sum_form(limit, 0.5)
    assert shapes == []
    N = (limit + 1) // 3
    assert 3 * N == limit + 1
    assert _fourier_partial_sums(1, N, xs[:3]) == [fsum_partial(1, N, x) for x in xs[:3]]
    assert shapes
    shapes.clear()
    assert dirichlet_sum(limit + 1, 0.5) == fsum_sum_form(limit + 1, 0.5)
    assert shapes


def partial_sums(order, N, xs):
    """_fourier_partial_sums, or at order 0 the kernel's sum form from the same engine."""
    if order:
        return _fourier_partial_sums(order, N, xs)
    return _trig_series(0, N, xs)


class TestBatchedPartialSums:
    @pytest.fixture(autouse=True)
    def block_route(self, monkeypatch):
        # Most grids here sit far below the scalar limits; limits of 0 send
        # them through the numpy blocks, which these tests are about.
        route(monkeypatch.setattr, 0)

    def test_rows_equal_the_fsum_oracle(self, monkeypatch):
        for order in (0, 1, 2):
            for N in (1, 2, 999, 30000):
                expected = [fsum_partial(order, N, x) for x in ORACLE_XS]
                for limit in ROUTE_LIMITS:
                    route(monkeypatch.setattr, limit)
                    assert partial_sums(order, N, ORACLE_XS) == expected

    @pytest.mark.parametrize(
        "N", [(1 << 19) - 1, 1 << 19, (1 << 19) + 1, (1 << 19) + (1 << 18) + 3, (1 << 20) + 1]
    )
    def test_long_rows_round_once(self, N, monkeypatch):
        # Past _BLOCK orders, each row is split into column blocks, the
        # last one short; the series is still math.fsum of all N terms, on
        # both sides of 2**19 orders.
        for order in (0, 1, 2):
            expected = [fsum_partial(order, N, x) for x in LONG_ROW_XS]
            for workers in (1, 2):
                monkeypatch.setattr(kernels, "_worker_count", lambda: workers)
                assert partial_sums(order, N, LONG_ROW_XS) == expected

    @pytest.mark.parametrize(
        "block, N",
        [
            (1, 2), (1, 3), (1, 5),
            (7, 3), (7, 8), (7, 999),
            (4096, (1 << 16) - 1), (4096, (1 << 16) + 1), (4096, (1 << 19) + (1 << 18) + 3),
            (kernels._BLOCK, kernels._BLOCK - 1), (kernels._BLOCK, kernels._BLOCK + 1),
        ],
    )
    def test_block_split_keeps_the_bits(self, block, N, monkeypatch):
        # Each series is rounded once, however the blocks cut its row: one
        # element per block, 7 elements (3 orders make blocks of 2,
        # 2 and 1 rows), 4096, and the default.  Tiny blocks take one job
        # per few elements, so they run at small N only.
        xs = [-math.pi, 0.0, 2.5e-7, 12.25]
        monkeypatch.setattr(kernels, "_BLOCK", block)
        for order in (0, 1, 2):
            expected = [fsum_partial(order, N, x) for x in xs]
            for workers in (1, 2):
                monkeypatch.setattr(kernels, "_worker_count", lambda: workers)
                assert partial_sums(order, N, xs) == expected

    def test_rows_over_half_a_block_are_split(self, monkeypatch):
        # 40 orders fill only 40 of a 64-element block, one row each: ten
        # blocks.  Halved, three rows of 20 fit, so 10 rows take 4 * 2.
        calls = []
        extract = kernels._exact_row_sums

        def count(terms, scratch):
            calls.append(terms.shape)
            return extract(terms, scratch)

        monkeypatch.setattr(kernels, "_BLOCK", 64)
        monkeypatch.setattr(kernels, "_exact_row_sums", count)
        xs = [0.3 * i - 1.0 for i in range(10)]
        assert _fourier_partial_sums(1, 40, xs) == [fsum_partial(1, 40, x) for x in xs]
        assert sorted(calls) == [(1, 20)] * 2 + [(3, 20)] * 6

    def test_short_last_row_block_on_one_and_two_workers(self, monkeypatch):
        # 1000 orders make blocks of 65 rows, so 529 rows end on a block
        # of 9, the last row among them.
        rng = random.Random(5)
        xs = [-math.pi, 0.0, 2.5e-7, 12.25] + [rng.uniform(-20.0, 20.0) for _ in range(524)]
        xs.append(1e6)
        for order in (0, 1, 2):
            expected = [fsum_partial(order, 1000, x) for x in xs]
            for workers in (1, 2):
                monkeypatch.setattr(kernels, "_worker_count", lambda: workers)
                assert partial_sums(order, 1000, xs) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_floating_point_event(self, workers, monkeypatch):
        # The worker threads run under numpy's default errstate, not the
        # caller's; that is sound only while no block raises any event.  On
        # one worker every block runs here, under the strictest setting.
        monkeypatch.setattr(kernels, "_worker_count", lambda: workers)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for order in (0, 1, 2):
                for N in (1, 2, 999, 30000):
                    partial_sums(order, N, ORACLE_XS)
                partial_sums(order, (1 << 19) + 1, LONG_ROW_XS)

    def test_one_bad_x_refuses_the_grid(self, monkeypatch):
        # Every x is checked, nan too (which max() would skip), before any
        # block is reduced: a reduction of a nan row would never end, so
        # here it fails at once instead.
        monkeypatch.setattr(kernels, "_exact_row_sums", None)
        for order, bad in ((1, math.nan), (1, -1e307), (1, math.inf), (2, math.nan), (2, 1e200)):
            reason = "is not a number" if math.isnan(bad) else "is past the float range"
            with pytest.raises(ValueError, match=re.escape(f"|x| = {abs(bad)} {reason}")):
                _fourier_partial_sums(order, 100, [0.5, -2.0, bad, 3.0])

    def test_failing_block_reaches_the_caller_after_the_workers_stop(self, monkeypatch):
        calls = []
        lock = threading.Lock()
        extract = kernels._exact_row_sums

        def fail_on_third_call(terms, scratch):
            with lock:
                calls.append(None)
                third = len(calls) == 3
            if third:
                raise RuntimeError("third block")
            return extract(terms, scratch)

        monkeypatch.setattr(kernels, "_exact_row_sums", fail_on_third_call)
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "_worker_count", lambda: workers)
            calls.clear()
            before = threading.active_count()
            with pytest.raises(RuntimeError, match="third block"):
                _fourier_partial_sums(1, 1 << 19, [0.5, 1.0, 1.5, 2.0])
            assert threading.active_count() == before
            # A worker may finish the block in hand, but takes no new one.
            assert len(calls) <= 3 + workers - 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("N", [(1 << 19) + (1 << 18), 1 << 20])
    def test_working_set(self, N, order, workers, monkeypatch):
        # Per worker the terms, scratch and orders of one block, plus the
        # shared index and 64 KiB for the rows' partials: no array the size
        # of a row, and none made per block.
        monkeypatch.setattr(kernels, "_worker_count", lambda: workers)
        xs = [-3.0, -1.0, 0.5, 2.0, 4.0]
        tracemalloc.start()
        try:
            partial_sums(order, N, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (3 * workers + 1) * kernels._BLOCK * 8 + (1 << 16)

    def test_work_cap(self, monkeypatch):
        # N times the number of points may reach the cap but not pass it.
        monkeypatch.setattr(kernels, "SERIES_WORK_CAP", 1000)
        xs = [-1.0, 0.0, 0.5, 2.0]
        assert len(_fourier_partial_sums(1, 250, xs)) == 4
        for order, N in ((1, 251), (2, 251)):
            with pytest.raises(ValueError, match="work cap"):
                _fourier_partial_sums(order, N, xs)

    def test_work_cap_refuses_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="work cap"):
            _fourier_partial_sums(1, SERIES_WORK_CAP // 4 + 1, [0.5, 1.0, 1.5, 2.0])
        assert time.perf_counter() - start < 1.0

    def test_work_cap_keeps_the_divisors_exact(self):
        # The cap bounds N on one point, so every n*n is an integer below
        # 2**53, exact in a float.
        assert SERIES_WORK_CAP**2 < 2**53

    @given(
        st.sampled_from([0, 1, 2]),
        st.integers(1, 3000),
        st.lists(st.floats(-20.0, 20.0), max_size=20),
    )
    def test_tiny_blocks_equal_the_oracle(self, order, N, xs):
        # Blocks of 64 elements cut every row into many column ranges and
        # share the rows out in bands; each row is still the oracle's, and
        # math.fsum of terms from math.sin and math.cos gives it too.
        expected = [fsum_partial(order, N, x) for x in xs]
        for limit in ROUTE_LIMITS:
            for workers in (1, 2):
                with mock.patch.object(kernels, "_SCALAR_TERMS", limit), \
                        mock.patch.object(kernels, "_BLOCK", 64), \
                        mock.patch.object(kernels, "_worker_count", lambda: workers):
                    assert partial_sums(order, N, xs) == expected

    def test_one_row_wrappers(self):
        xs = [-4.0 + 0.37 * i for i in range(23)]
        assert _fourier_partial_sums(1, 700, xs) == [fourier_partial_delta1(700, x) for x in xs]
        assert _fourier_partial_sums(2, 700, xs) == [fourier_partial_delta2(700, x) for x in xs]


class TestClosedForms:
    def test_delta1_plateau_values(self):
        assert delta1_closed(math.pi) == math.pi
        assert delta1_closed(-math.pi) == -math.pi
        for i in range(1, 40):
            x = i * TWO_PI / 40
            assert delta1_closed(x) == math.pi
            assert delta1_closed(-x) == -math.pi

    def test_delta1_lattice_values(self):
        assert delta1_closed(0.0) == 0.0
        assert delta1_closed(TWO_PI) == TWO_PI
        assert delta1_closed(-TWO_PI) == -TWO_PI

    def test_delta1_antisymmetry_off_lattice(self):
        rng = random.Random(9)
        for _ in range(50):
            x = rng.uniform(0.01, 30.0)
            assert delta1_closed(-x) == -delta1_closed(x)

    def test_delta2_key_values(self):
        assert delta2_closed(0.0) == -PI2 / 3
        assert abs(delta2_closed(math.pi) - 2 * PI2 / 3) < 1e-12
        assert abs(delta2_closed(TWO_PI) - 5 * PI2 / 3) < 1e-12

    def test_delta2_matches_partial_sum_near_lattice(self):
        x = TWO_PI - 1e-6
        diff = abs(fourier_partial_delta2(10**5, x) - delta2_closed(x))
        assert diff <= 2.0 / 10**5

    def test_delta2_continuity_at_lattice_points(self):
        for k in range(-2, 3):
            left = delta2_closed(k * TWO_PI - 1e-8)
            right = delta2_closed(k * TWO_PI + 1e-8)
            assert abs(left - right) <= 1e-6
