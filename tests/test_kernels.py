import math
import random
import re
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from zetacomb.actions import deltaN_action
import zetacomb.kernels as kernels
from zetacomb.kernels import (
    EPS_SING,
    SAMPLES_CAP,
    SERIES_WORK_CAP,
    SampleTable,
    dirichlet_compact,
    dirichlet_sum,
    kernel_normalization,
    kernel_samples,
)
from zetacomb import quad
from zetacomb.quad import integrate_adaptive
from zetacomb.testfn import bump_plateau, gaussian_bump

TWO_PI = 2 * math.pi


def simpson_normalization(N, points=20001):
    """Fixed-step Simpson, independent of the adaptive code.

    Samples the raw cosine sum rather than the windowed kernel: the window
    only changes the two endpoint values, which are measure zero for the
    integral but would poison Simpson's endpoint weights.
    """
    h = TWO_PI / (points - 1)
    total = 0.0
    for i in range(points):
        x = -math.pi + i * h
        w = 1 if i in (0, points - 1) else (4 if i % 2 else 2)
        total += w * (1.0 + 2.0 * math.fsum(math.cos(n * x) for n in range(1, N + 1)))
    return total * h / 3


def fsum_sum_form(N, x):
    """The windowed sum form on |x|: 1 plus the math.fsum of the N doubled cosines."""
    r = abs(x)
    if r >= math.pi:
        return 0.0
    return math.fsum((1.0, math.fsum(2.0 * math.cos(n * r) for n in range(1, N + 1))))


class TestDirichletSum:
    def test_peak_is_exact(self):
        for N in (0, 1, 5, 50, 1000, 10**4):
            assert dirichlet_sum(N, 0.0) == 2 * N + 1

    def test_simple_values(self):
        assert abs(dirichlet_sum(1, math.pi / 2) - 1.0) < 1e-15
        for x in (-3.0, -1.0, 0.5, 3.1):
            assert dirichlet_sum(0, x) == 1.0

    def test_window_boundary_is_zero(self):
        for x in (math.pi, -math.pi, 4.0, -100.0):
            assert dirichlet_sum(50, x) == 0.0

    def test_symmetry_to_the_last_bit(self):
        rng = random.Random(7)
        xs = [rng.uniform(0, math.pi) for _ in range(40)]
        for N in (5, 50, 10**4):
            for x in xs[: 40 if N < 10**4 else 5]:
                assert dirichlet_sum(N, x) == dirichlet_sum(N, -x)

    def test_order_validation(self):
        for bad in (-1, 1.5, "3", True):
            with pytest.raises(ValueError):
                dirichlet_sum(bad, 0.0)

    def test_is_the_fsum_oracle_without_numpy(self, monkeypatch):
        # Up to the scalar limit one x takes math.fsum, and numpy stays unloaded.
        monkeypatch.setitem(sys.modules, "numpy", None)
        for N, x in ((1, 0.5), (2000, -2.25), (2000, 0.0), (30000, 1e-3), (kernels._SCALAR_TERMS, 0.5)):
            assert dirichlet_sum(N, x) == fsum_sum_form(N, x)

    def test_is_the_fsum_oracle_on_the_numpy_blocks(self, monkeypatch):
        # Past the limit, set to 0 here, and past the real one, the one row
        # is summed on the numpy blocks, with the same bits.
        def refuse(*args):
            raise AssertionError("a row past the limit took the scalar route")

        past = kernels._SCALAR_TERMS + 1
        monkeypatch.setattr(kernels, "_series_row", refuse)
        monkeypatch.setattr(kernels, "_SCALAR_TERMS", 0)
        for N, x in ((1, 0.5), (2000, -2.25), (2000, 0.0), (30000, 1e-3), (past, 0.5), (past, -2.25), (2 * past, 1e-3)):
            assert dirichlet_sum(N, x) == fsum_sum_form(N, x)

    def test_work_cap(self):
        # Inside the window the one series is priced as _trig_series prices
        # it, and refused before its first term; outside it sums nothing.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="work cap"):
            dirichlet_sum(SERIES_WORK_CAP + 1, 0.5)
        assert time.perf_counter() - start < 0.25
        assert dirichlet_sum(SERIES_WORK_CAP + 1, 4.0) == 0.0


class TestDirichletCompact:
    def test_matches_closed_value(self):
        # sin(3pi/4)/sin(pi/4) = 1
        assert abs(dirichlet_compact(1, math.pi / 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("N", [0, 1, 50, 10**7])
    def test_peak_value_at_zero_and_subnormal_x(self, N):
        for x in (0.0, -0.0, 5e-324, -1e-310, 2.0**-1022):
            assert dirichlet_compact(N, x) == 2 * N + 1

    @given(
        N=st.integers(0, 10**7),
        r=st.one_of(
            st.floats(-300.0, math.log10(EPS_SING)).map(lambda e: 10.0**e),
            st.floats(1e-8, EPS_SING, exclude_max=True),
            st.floats(EPS_SING, math.pi, exclude_max=True),
        ).filter(lambda r: 0.0 < r < math.pi),
    )
    def test_within_two_eps_on_the_kernel_scale(self, N, r):
        # On the kernel's scale 2N+1: relative to the value itself the error
        # is unbounded, since (N+1/2)*r can sit on a zero of the kernel.
        with mpmath.workdps(40):
            mr = mpmath.mpf(r)
            true = mpmath.sin((N + mpmath.mpf(1) / 2) * mr) / mpmath.sin(mr / 2)
            error = abs(mpmath.mpf(dirichlet_compact(N, r)) - true)
        assert error <= 2 * sys.float_info.epsilon * (2 * N + 1)

    def test_never_runs_the_sum_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the compact form ran the sum form's loop")

        monkeypatch.setattr(kernels, "_series_row", refuse)
        monkeypatch.setattr(kernels, "_trig_series", refuse)
        assert abs(dirichlet_compact(50, 1e-7) - 101.0) <= 1e-9
        assert abs(kernel_normalization(50, 1e-10) - TWO_PI) <= 1e-9
        plateau = bump_plateau(math.pi, 1.5 * math.pi)
        assert abs(deltaN_action(plateau, 50, 1e-10) - TWO_PI) <= 1e-9

    @pytest.mark.parametrize("x", [0.0, 1e-7, 0.5])
    def test_order_past_the_float_range_fails_at_once(self, x):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("N must be < 2**52")):
            dirichlet_compact(10**400, x)
        assert time.perf_counter() - start < 1.0

    def test_neighbouring_orders_below_2_52_differ(self):
        # From 2**52 on, N + 1/2 rounds, so 2**53 and 2**53 + 1 gave one value.
        N = 2**52 - 1
        assert dirichlet_compact(N, 0.1) != dirichlet_compact(N - 1, 0.1)

    def test_huge_order_near_zero_is_o1(self):
        start = time.perf_counter()
        value = dirichlet_compact(10**12, 1e-7)
        assert time.perf_counter() - start < 1.0
        assert abs(value) <= 2 * 10**12 + 1

    def test_agreement_with_sum_form(self):
        assert abs(dirichlet_compact(50, 0.1) - dirichlet_sum(50, 0.1)) < 1e-11

    def test_form_equivalence_on_dense_grid(self):
        N = 50
        budget = 1e-10 * (2 * N + 1)
        count = 10**4
        for i in range(count):
            x = -math.pi + (i + 0.5) * TWO_PI / count
            assert abs(dirichlet_sum(N, x) - dirichlet_compact(N, x)) <= budget

    def test_domain_error_outside_window(self):
        # A NaN x lies outside the window too, as dirichlet_sum refuses it.
        for x in (math.pi, -math.pi, 3.5, -math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape("compact form is defined on |x| < pi")):
                dirichlet_compact(5, x)


class TestKernelSamples:
    def test_fig_scale_table(self):
        table = kernel_samples(50, 2001)
        assert table.column_names == ("x", "sum_form", "compact_form")
        assert len(table.rows) == 2001
        values = [row[1][0] for row in table.rows]
        peak = max(values)
        peak_x = table.rows[values.index(peak)][0]
        assert peak == 101.0
        assert peak_x == 0.0

    def test_symmetric_range_is_bitwise_symmetric(self):
        table = kernel_samples(13, 501)
        rows = table.rows
        for (x1, v1), (x2, v2) in zip(rows, reversed(rows)):
            assert x1 == -x2
            assert v1 == v2

    def test_columns_agree(self):
        table = kernel_samples(50, 2001)
        budget = 1e-10 * 101
        for x, (s, c) in table.rows:
            assert abs(s - c) <= budget

    def test_order_zero_is_flat(self):
        table = kernel_samples(0, 101, -3.0, 3.0)
        assert all(values == (1.0, 1.0) for _, values in table.rows)

    def test_grid_endpoints_are_exact(self):
        table = kernel_samples(3, 11, -1.0, 0.5)
        assert table.rows[0][0] == -1.0
        assert table.rows[-1][0] == 0.5

    @pytest.mark.parametrize("N", [0, 1, 50, 2000])
    @pytest.mark.parametrize(
        "count, xmin, xmax",
        [
            (2001, -math.pi, math.pi),
            (5, -math.pi, math.pi),
            (400, -3.0, 3.0),
            (333, -math.pi, 0.7),
            (257, -1e-3, 2.5),
            (300, 0.1, math.pi),  # no |x| repeats
        ],
    )
    def test_both_routes_equal_the_fsum_oracle(self, monkeypatch, N, count, xmin, xmax):
        # A limit of 0 sends every order but 0 to the numpy blocks, a huge
        # one keeps every table on math.fsum.
        xs = [x for x, _ in kernel_samples(N, count, xmin, xmax).rows]
        expected = [fsum_sum_form(N, x) for x in xs]
        for limit in (0, 10**18):
            monkeypatch.setattr(kernels, "_SCALAR_TERMS", limit)
            assert [s for _, (s, _) in kernel_samples(N, count, xmin, xmax).rows] == expected

    def test_compact_column_is_the_compact_form(self):
        # The second grid lies inside the band |x| < EPS_SING around the peak.
        for N, args in ((37, (301,)), (7, (5, -1e-7, 1e-7))):
            for x, (_, c) in kernel_samples(N, *args).rows:
                assert c == (0.0 if abs(x) >= math.pi else dirichlet_compact(N, x))

    def test_work_cap(self, monkeypatch):
        # N times the distinct |x| inside the window may reach the cap but
        # not pass it.  On [-pi, pi], 2k + 1 samples hold k of them: 0 and
        # k - 1 more, as pi lies outside.
        monkeypatch.setattr(kernels, "SERIES_WORK_CAP", 1000)
        assert len(kernel_samples(1, 2001).rows) == 2001
        assert len(kernel_samples(10, 201).rows) == 201
        assert len(kernel_samples(1000, 3).rows) == 3
        # Without symmetry every sample is a distinct |x|, so half as many
        # samples reach the cap.
        assert len(kernel_samples(1, 1000, 0.0, 3.0).rows) == 1000
        for args in ((1, 2003), (1001, 3), (1, 1001, 0.0, 3.0)):
            with pytest.raises(ValueError, match="work cap"):
                kernel_samples(*args)
        # The window edges alone sum nothing, at any order.
        for N in (1001, 10**320):
            assert kernel_samples(N, 2).rows == ((-math.pi, (0.0, 0.0)), (math.pi, (0.0, 0.0)))

    def test_work_cap_refuses_at_once(self, monkeypatch):
        # Refused before numpy is imported or a block is reduced.
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(kernels, "_exact_row_sums", None)
        cases = (
            (1, SERIES_WORK_CAP + 1, (3,)),
            (1000, SERIES_WORK_CAP // 1000 + 1, (2001,)),
            (2048, 1 << 16, (2048, 0.0, 3.0)),  # 2**27 terms, no |x| shared
            (1, 10**320, (3,)),
        )
        for rows, N, args in cases:
            start = time.perf_counter()
            message = f"order {N} at {rows} rows is past the work cap: N * rows must be <= {SERIES_WORK_CAP}"
            with pytest.raises(ValueError, match=re.escape(message)):
                kernel_samples(N, *args)
            assert time.perf_counter() - start < 0.25

    def test_samples_cap(self, monkeypatch):
        monkeypatch.setattr(kernels, "SAMPLES_CAP", 1000)
        assert len(kernel_samples(0, 1000).rows) == 1000
        with pytest.raises(ValueError, match="SAMPLES_CAP"):
            kernel_samples(0, 1001)

    def test_samples_cap_refuses_before_allocating(self):
        # Order 1 charges one term per sample, well within the work cap,
        # so only the samples cap stands between this call and its grid.
        count = SAMPLES_CAP + 1
        assert count <= SERIES_WORK_CAP
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="SAMPLES_CAP"):
                kernel_samples(1, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            kernel_samples(5, 1)
        with pytest.raises(ValueError):
            kernel_samples(5, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_samples(5, 10, -4.0, 0.0)
        with pytest.raises(ValueError):
            kernel_samples(5, 10, 0.0, 3.2)


class TestTrigSeries:
    def test_numpy_sin_and_cos_are_libm(self):
        # The two routes of _trig_series give the same bits only while
        # numpy's sin and cos equal math's on the angles n*r they take:
        # n up to 2**26, r across the window and the wider Fourier grids.
        rng = np.random.default_rng(2026)
        size = 1 << 18
        n = np.floor(np.exp2(rng.uniform(0.0, 26.0, size)))
        r = rng.uniform(0.0, 4 * math.pi, size) * np.exp2(rng.integers(-40, 1, size))
        angles = n * r
        for wave, libm in ((np.sin, math.sin), (np.cos, math.cos)):
            got = wave(angles, out=np.empty(size))
            expected = np.array([libm(t) for t in angles.tolist()])
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_refuses_its_own_input(self, monkeypatch):
        # Past the cap, at a nan r, or at an r whose n*r is inf, the engine
        # refuses before it imports numpy or reduces a block: a nan or inf
        # term would never leave the extraction loop.
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(kernels, "_exact_row_sums", None)
        for order in (0, 1, 2):
            with pytest.raises(ValueError, match="work cap"):
                kernels._trig_series(order, SERIES_WORK_CAP // 2 + 1, [0.5, 1.0])
            for bad in (math.inf, 1e308):
                with pytest.raises(ValueError, match=re.escape(f"|x| = {bad} is past the float range")):
                    kernels._trig_series(order, 10, [0.5, bad, 1.0])
            with pytest.raises(ValueError, match=re.escape("|x| = nan is not a number")):
                kernels._trig_series(order, 10, [0.5, math.nan, 1.0])
        # No row, no term: nothing to refuse at any order.
        assert kernels._trig_series(0, 10**320, []) == []


class TestSampleTable:
    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError):
            SampleTable(("x", "v"), ((0.0, (1.0,)), (0.0, (1.0,))))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            SampleTable(("x", "a", "b"), ((0.0, (1.0,)),))


class TestNormalization:
    def test_constant_case(self):
        assert abs(kernel_normalization(0, 1e-12) - TWO_PI) < 1e-12

    def test_normalization_across_orders(self):
        for N in (0, 1, 5, 10, 50, 100):
            assert abs(kernel_normalization(N, 1e-10) - TWO_PI) <= 1e-9

    def test_against_simpson_oracle(self):
        adaptive = kernel_normalization(7, 1e-10)
        assert abs(adaptive - simpson_normalization(7)) < 1e-8

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            kernel_normalization(5, 0.0)

    def test_order_past_the_float_range_is_not_attempted(self, monkeypatch):
        calls = []
        for rule in ("_kronrod_panel", "_fcc_panel"):
            monkeypatch.setattr(quad, rule, lambda *args: calls.append(args) or (0.0, 0.0, 0.0))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape("N must be < 2**52, where N + 1/2 is a float")):
            kernel_normalization(10**320, 1e-10)
        assert time.perf_counter() - start < 1.0
        assert calls == []

    @pytest.mark.parametrize("N", [10**7, 10**9, 10**12, 2**51])
    def test_normalization_at_every_float_order(self, N):
        assert abs(kernel_normalization(N, 1e-10) - TWO_PI) <= 1e-10

    @pytest.mark.parametrize("N", [0, 1, 50, 5000])
    def test_is_the_plateau_action_to_the_bit(self, N):
        # The plateau is 1 on the whole window, and both integrals take the
        # one kernel-integral route over [-pi, pi].
        plateau = bump_plateau(math.pi, 1.5 * math.pi)
        assert kernel_normalization(N, 1e-10) == deltaN_action(plateau, N, 1e-10)


@pytest.mark.parametrize("N", [2**52, 10**320], ids=["2**52", "10**320"])
def test_orders_from_2_52_are_refused_alike(monkeypatch, N):
    # Past 2**52, N + 1/2 is the frequency of a neighbouring order: each
    # entry point refuses the order with one message, before any work.
    calls = []
    for rule in ("_kronrod_panel", "_fcc_panel"):
        monkeypatch.setattr(quad, rule, lambda *args: calls.append(args) or (0.0, 0.0, 0.0))
    bump = gaussian_bump(0.0, 1.0)
    spy = bump._replace(evaluator=lambda x: calls.append(x) or bump.evaluator(x))
    message = f"N must be < 2**52, where N + 1/2 is a float; got an N of {N.bit_length()} bits"
    start = time.perf_counter()
    for refused in (
        lambda: dirichlet_compact(N, 0.1),
        lambda: deltaN_action(spy, N, 1e-10),
        lambda: kernel_normalization(N, 1e-10),
    ):
        with pytest.raises(ValueError) as info:
            refused()
        assert str(info.value) == message
    assert time.perf_counter() - start < 1.0
    assert calls == []


def seed_edges(monkeypatch):
    """The edge lists quad._refine is called with, from now on."""
    calls = []
    refine = quad._refine

    def spy(panel, edges, tol):
        calls.append(edges)
        return refine(panel, edges, tol)

    monkeypatch.setattr(quad, "_refine", spy)
    return calls


def fcc_panels(monkeypatch):
    """The (a, b) of every FCC panel evaluated from now on."""
    calls = []
    fcc = quad._fcc_panel

    def spy(g, w, a, b):
        calls.append((a, b))
        return fcc(g, w, a, b)

    monkeypatch.setattr(quad, "_fcc_panel", spy)
    return calls


class TestKernelIntegral:
    PLATEAU = staticmethod(bump_plateau(math.pi, 1.5 * math.pi).evaluator)

    @pytest.mark.parametrize("N", [15, 16])
    def test_both_sides_of_the_cut(self, monkeypatch, N):
        # The cut, 8 periods from 0, lies past pi at N = 15 and is the last
        # seed edge inside the window at N = 16.  Either way the grid is the
        # whole period lattice, every panel is G7/K15, and the result is
        # integrate_adaptive's to the bit.
        edges = seed_edges(monkeypatch)
        result = kernels._kernel_integral(N, self.PLATEAU, -math.pi, math.pi, 1e-12)
        period = 2 * math.pi / (N + 0.5)
        assert (8 * period < math.pi) == (N == 16)
        lattice = [k * period for k in range(-8, 9) if abs(k * period) < math.pi]
        assert edges == [[-math.pi, *lattice, math.pi]]
        plain = integrate_adaptive(
            lambda x: kernels._windowed_compact(N, x) * self.PLATEAU(x),
            -math.pi, math.pi, 1e-12, osc_freq=N + 0.5,
        )
        assert result == plain

    @pytest.mark.parametrize("N, used", [(30, False), (31, True), (5000, True)])
    def test_fcc_only_where_the_panel_is_wide_enough(self, monkeypatch, N, used):
        # [cut, pi] first reaches w*h >= 24 at N = 31 on the whole window.
        panels = fcc_panels(monkeypatch)
        result = kernels._kernel_integral(N, self.PLATEAU, -math.pi, math.pi, 1e-12)
        assert abs(result.value - 2 * math.pi) <= result.error_estimate <= 1e-12
        assert bool(panels) == used
        assert all((N + 0.5) * (0.5 * (b - a)) >= quad._FCC_MIN_ALPHA for a, b in panels)

    def test_seeds_are_geometric_past_the_cut(self, monkeypatch):
        edges = seed_edges(monkeypatch)
        N = 5000
        kernels._kernel_integral(N, self.PLATEAU, -1.0, math.pi, 1e-10)
        period = 2 * math.pi / (N + 0.5)
        cut = 8 * period
        outward = [cut * 2**j for j in range(1, 12) if cut * 2**j < math.pi]
        assert edges == [[
            -1.0, *(-x for x in reversed(outward) if x < 1.0),
            *(k * period for k in range(-8, 9)), *outward, math.pi,
        ]]

    def test_seeds_stay_logarithmic_at_the_largest_orders(self, monkeypatch):
        # O(log N) edges: the 17 lattice points within the cut, the doublings
        # of the cut out to pi on each side, and the ends.
        edges = seed_edges(monkeypatch)
        N = 2**51
        kernels._kernel_integral(N, self.PLATEAU, -math.pi, math.pi, 1e-10)
        period = 2 * math.pi / (N + 0.5)
        cut = 8 * period
        outward = [cut * 2**j for j in range(1, 64) if cut * 2**j < math.pi]
        assert edges == [[
            -math.pi, *(-x for x in reversed(outward)),
            *(k * period for k in range(-8, 9)), *outward, math.pi,
        ]]
        assert len(edges[0]) <= 120

    def test_large_order_takes_few_panels(self):
        # 39,997 panels on the lattice-seeded route.
        phi = gaussian_bump(0.3, 1.2)
        result = kernels._kernel_integral(10**5, phi.evaluator, -0.9, 1.5, 1e-12)
        assert result.panels_used <= 300
        assert abs(result.value - 2 * math.pi * phi(0.0)) <= 1e-10

