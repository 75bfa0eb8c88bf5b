import functools
import math
import random
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zetacomb.actions as actions
import zetacomb.kernels as kernels
import zetacomb.quad as quad
from zetacomb.actions import (
    FOURIER_N_CAP,
    FOURIER_WORK_CAP,
    MODE_SAMPLE_CAP,
    _dirichlet_periodic,
    _exact_row_sums,
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
from zetacomb.kernels import dirichlet_sum
from zetacomb.quad import QuadratureError, integrate_adaptive
from zetacomb.testfn import bump_plateau, gaussian_bump, phi_tilde

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

        monkeypatch.setattr(kernels, "integrate_adaptive", forbidden)
        monkeypatch.setattr(quad, "integrate_adaptive", forbidden)
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

    def test_sample_cap_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            delta0_partial_action(gaussian_bump(0.0, 1.0), MODE_SAMPLE_CAP // 4, 1e-10)
        assert time.perf_counter() - start < 1.0
        assert info.value.panels_used == 0
        # The mode route has no panels; the message names its own limit.
        assert "MODE_SAMPLE_CAP" in str(info.value)
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
        with pytest.raises(QuadratureError) as info:
            deltaN_action(gaussian_bump(0.0, 1.0), 10**320, 1e-10)
        assert info.value.panels_used == 0


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

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_partial_delta1(0, 1.0)
        with pytest.raises(ValueError):
            fourier_partial_delta1(FOURIER_N_CAP + 1, 1.0)
        with pytest.raises(ValueError):
            fourier_partial_delta1(True, 1.0)

    def test_terms_past_the_float_range_are_refused(self):
        # n*|x| overflows for n near 10: refused, not summed into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e308, -1e308, math.inf):
                with pytest.raises(ValueError, match="float range"):
                    fourier_partial_delta1(10, x)
            assert fourier_partial_delta1(10, 1e300) == 1e300  # the sine terms vanish beside x


class TestFourierDelta2:
    def test_square_past_the_float_range_is_refused(self):
        # n*|x| stays finite here, but x**2/2 does not: refused, not summed into inf
        for x in (1e200, -1e200, 1.9e154):
            with pytest.raises(ValueError, match="float range"):
                fourier_partial_delta2(10, x)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_partial_delta2(0, 1.0)
        with pytest.raises(ValueError):
            fourier_partial_delta2(FOURIER_N_CAP + 1, 1.0)
        with pytest.raises(ValueError):
            fourier_partial_delta2(True, 1.0)


def fsum_rows(terms):
    return [math.fsum(row) for row in terms.tolist()]


def series_terms(order, rs, n0, n1):
    """The rows of terms the partial sums reduce, one per r, for n = n0..n1."""
    n = np.arange(n0, n1 + 1, dtype=np.float64)
    nr = np.multiply.outer(np.asarray(rs, dtype=np.float64), n)
    return 2.0 * np.sin(nr) / n if order == 1 else np.cos(nr) / (n * n)


@functools.cache  # several tests ask for the same large-N rows
def chunked_fsum_partial(order, N, x):
    """The partial sum as chunks of actions._CHUNK terms, each rounded by math.fsum."""
    r = abs(x)
    parts = [
        math.fsum(series_terms(order, [r], n0, min(N, n0 + actions._CHUNK - 1))[0].tolist())
        for n0 in range(1, N + 1, actions._CHUNK)
    ]
    if order == 2:
        return math.fsum((0.5 * r * r, -2.0 * math.fsum(parts)))
    if x == 0.0:
        return 0.0
    core = math.fsum((r, math.fsum(parts)))
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
        for order in (1, 2):
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

    def test_rows_past_the_float_range_go_to_fsum(self):
        terms = np.array([[1e308, -1e308, 5.0], [1.7e308, 1.0, 0.0], [math.nan, 1.0, 2.0], [1.0, 2.0, 3.5]])
        got = [math.fsum(partials) for partials in _exact_row_sums(terms.copy(), np.empty_like(terms))]
        assert got[:2] == [5.0, 1.7e308] and math.isnan(got[2]) and got[3] == 6.5
        with pytest.raises(OverflowError):
            math.fsum(_exact_row_sums(np.array([[1e308, 1e308, -1e308]]), np.empty((1, 3)))[0])


class TestBatchedPartialSums:
    def test_rows_equal_the_chunked_fsum_oracle(self):
        xs = [-9.5, -math.pi, -1e-3, 0.0, 2.5e-7, 1.0, 3.0, 12.25]
        for order in (1, 2):
            for N in (1, 2, 999, 30000):
                expected = [chunked_fsum_partial(order, N, x) for x in xs]
                assert _fourier_partial_sums(order, N, xs) == expected

    @pytest.mark.parametrize(
        "N", [(1 << 19) - 1, 1 << 19, (1 << 19) + 1, (1 << 19) + (1 << 18) + 3]
    )
    def test_chunk_boundary(self, N, monkeypatch):
        # Past _BLOCK orders, each row of a chunk is split into column
        # blocks, the last one short; the bits must not move.
        xs = [-math.pi, -2.0, 0.0, 2.5e-7, 0.7, 5.0, 12.25]
        for order in (1, 2):
            expected = [chunked_fsum_partial(order, N, x) for x in xs]
            for workers in (1, 2):
                monkeypatch.setattr(actions, "_worker_count", lambda: workers)
                assert _fourier_partial_sums(order, N, xs) == expected

    @pytest.mark.parametrize(
        "block, N",
        [
            (1, 2), (1, 3), (1, 5),
            (7, 3), (7, 8), (7, 999),
            (4096, (1 << 16) - 1), (4096, (1 << 16) + 1), (4096, (1 << 19) + (1 << 18) + 3),
            (actions._BLOCK, actions._BLOCK - 1), (actions._BLOCK, actions._BLOCK + 1),
        ],
    )
    def test_block_split_keeps_the_bits(self, block, N, monkeypatch):
        # The chunk sums are rounded once per chunk, however the blocks cut
        # it: one element per block, 7 elements (3 orders make blocks of 2,
        # 2 and 1 rows), 4096, and the default.  Tiny blocks take one job
        # per few elements, so they run at small N only.  The last row's
        # n*|x| overflows, and its sum is nan on every split.
        xs = [-math.pi, 0.0, 2.5e-7, 12.25, 1.5e308]
        monkeypatch.setattr(actions, "_BLOCK", block)
        for order in (1, 2):
            expected = [chunked_fsum_partial(order, N, x) for x in xs[:-1]]
            for workers in (1, 2):
                monkeypatch.setattr(actions, "_worker_count", lambda: workers)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _fourier_partial_sums(order, N, xs)
                assert got[:-1] == expected
                assert math.isnan(got[-1])

    def test_rows_over_half_a_block_are_split(self, monkeypatch):
        # 40 orders fill only 40 of a 64-element block, one row each: ten
        # blocks.  Halved, three rows of 20 fit, so 10 rows take 4 * 2.
        calls = []
        extract = actions._exact_row_sums

        def count(terms, scratch):
            calls.append(terms.shape)
            return extract(terms, scratch)

        monkeypatch.setattr(actions, "_BLOCK", 64)
        monkeypatch.setattr(actions, "_exact_row_sums", count)
        xs = [0.3 * i - 1.0 for i in range(10)]
        assert _fourier_partial_sums(1, 40, xs) == [chunked_fsum_partial(1, 40, x) for x in xs]
        assert sorted(calls) == [(1, 20)] * 2 + [(3, 20)] * 6

    def test_short_last_row_block_on_one_and_two_workers(self, monkeypatch):
        # 1000 orders make blocks of 65 rows, so 529 rows end on a block
        # of 9; the last row's sum is nan.
        rng = random.Random(5)
        xs = [-math.pi, 0.0, 2.5e-7, 12.25] + [rng.uniform(-20.0, 20.0) for _ in range(524)]
        xs.append(1.5e308)
        for order in (1, 2):
            expected = [chunked_fsum_partial(order, 1000, x) for x in xs[:-1]]
            for workers in (1, 2):
                monkeypatch.setattr(actions, "_worker_count", lambda: workers)
                # Both workers run under the caller's errstate.
                with np.errstate(over="raise", invalid="raise"):
                    with pytest.raises(FloatingPointError):
                        _fourier_partial_sums(order, 1000, xs)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _fourier_partial_sums(order, 1000, xs)
                assert got[:-1] == expected
                assert math.isnan(got[-1])

    def test_failing_block_reaches_the_caller_after_the_workers_stop(self, monkeypatch):
        calls = []
        lock = threading.Lock()
        extract = actions._exact_row_sums

        def fail_on_third_call(terms, scratch):
            with lock:
                calls.append(None)
                third = len(calls) == 3
            if third:
                raise RuntimeError("third block")
            return extract(terms, scratch)

        monkeypatch.setattr(actions, "_exact_row_sums", fail_on_third_call)
        for workers in (1, 2):
            monkeypatch.setattr(actions, "_worker_count", lambda: workers)
            calls.clear()
            before = threading.active_count()
            with pytest.raises(RuntimeError, match="third block"):
                _fourier_partial_sums(1, 1 << 19, [0.5, 1.0, 1.5, 2.0])
            assert threading.active_count() == before
            # A worker may finish the block in hand, but takes no new one.
            assert len(calls) <= 3 + workers - 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("N", [(1 << 19) + (1 << 18), 1 << 20])
    def test_working_set(self, N, order, workers, monkeypatch):
        # Per worker the terms, scratch and orders of one block, plus the
        # shared index and 64 KiB for the rows' partials: no array the size
        # of a chunk, and none made per block or per chunk.
        monkeypatch.setattr(actions, "_worker_count", lambda: workers)
        xs = [-3.0, -1.0, 0.5, 2.0, 4.0]
        tracemalloc.start()
        try:
            _fourier_partial_sums(order, N, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (3 * workers + 1) * actions._BLOCK * 8 + (1 << 16)

    def test_work_cap(self, monkeypatch):
        # N times the number of points may reach the cap but not pass it.
        monkeypatch.setattr(actions, "FOURIER_WORK_CAP", 1000)
        xs = [-1.0, 0.0, 0.5, 2.0]
        assert len(_fourier_partial_sums(1, 250, xs)) == 4
        for order, N in ((1, 251), (2, 251)):
            with pytest.raises(ValueError, match="work cap"):
                _fourier_partial_sums(order, N, xs)

    def test_work_cap_refuses_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="work cap"):
            _fourier_partial_sums(1, FOURIER_N_CAP, [0.5 * i for i in range(FOURIER_WORK_CAP // FOURIER_N_CAP + 1)])
        assert time.perf_counter() - start < 1.0

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
