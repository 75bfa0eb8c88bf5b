"""Distributional actions and Fourier partial sums.

The comb functional acts on a test function phi two ways that must agree:
the mode route sums the integrals c_0 + 2*sum Re(c_n) truncated at order
N, and the lattice route evaluates 2*pi*sum phi(2*pi*n) over the finitely
many lattice points inside the support.  Their agreement, and the
convergence of the windowed-kernel action to 2*pi*phi(0), are the two
numerical limit statements this module carries.  The windowed-kernel
action is the one kernel-integral route, kernels._kernel_integral, with
phi as its weight.

Every c_n is a Fourier coefficient of the 2*pi-periodization phi_per of
phi, so the truncated mode sum is the integral of phi_per times the
periodic order-N kernel over one period.  The mode route evaluates that
integral with one trapezoid sum, which converges exponentially for a
smooth periodic integrand, doubling its node count until successive sums
agree.  It never runs on M = 2N+1 nodes, where the sum would reduce to the
lattice sum, so the two routes stay independent.

The first and second antiderivative partial sums are compared against
floor/ceiling closed forms.  The order-1 series converges only pointwise
(with persistent overshoot near the lattice), so comparisons there stay
clear of lattice points; the order-2 series converges absolutely with
tail below 2/N, so it is compared everywhere.

The partial sums run over a whole x grid at once, in fixed-size chunks of
orders n.  Each chunk is a block of grid rows by n, and each row is reduced
exactly by error-free extraction (Rump, Ogita & Oishi, 2008): a few numpy
passes split the terms into partials whose sums carry no rounding, and
math.fsum of those partials is the correctly rounded chunk sum, the same
float math.fsum of the terms would give.  The chunk sums are then added
exactly in a fixed order, so results are deterministic and effectively
free of accumulation error; odd sums are computed on |x| and sign-flipped
so antisymmetry holds bit-for-bit.  numpy is imported only by the partial
sums (and the kernel's sample table), so the other routes and the command
line start without it.
"""

import math
import sys

from .kernels import _kernel_integral
from .quad import QuadratureError, _validate_order
from .testfn import TestFunction

__all__ = [
    "FOURIER_N_CAP",
    "FOURIER_WORK_CAP",
    "MODE_SAMPLE_CAP",
    "delta0_partial_action",
    "delta0_comb_action",
    "deltaN_action",
    "fourier_partial_delta1",
    "fourier_partial_delta2",
    "delta1_closed",
    "delta2_closed",
]

_TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 19

# Runtime guard for the partial sums; far beyond every stated comparison.
FOURIER_N_CAP = 10_000_000
# Most series terms one grid of partial sums may take (about 2.5 s): the
# order N times the number of grid points.
FOURIER_WORK_CAP = 1 << 26

# Most samples of phi one mode-route sum may take (about 2.5 s of Python):
# M nodes times the number of periods the support spans, at least one.  The
# sum starts at M >= 4N+4, so orders N >= 2**18 fail at once, and lower
# orders too when the support spans more than one period.
MODE_SAMPLE_CAP = 1 << 20
# The first comparison S_M vs S_{M/2} is trusted only if the coarse grid
# puts at least this many nodes inside a support narrower than 2*pi.
_MIN_SUPPORT_NODES = 8
_EPS = sys.float_info.epsilon


def _dirichlet_periodic(N: int, m: int, M: int) -> float:
    """The order-N kernel at x = 2*pi*m/M, |m| <= M/2, M a power of two.

    The periodic kernel sin((N+1/2)*x)/sin(x/2), with the numerator angle
    pi*((2N+1)*m mod 2M)/M reduced in integers, so large N costs no digits.
    Evaluated on |m|, so it is even bit-for-bit; at x = pi it is (-1)**N.
    """
    a = abs(m)
    if a == 0:
        return 2.0 * N + 1.0
    r = (2 * N + 1) * a % (2 * M)
    sign = 1.0
    if r >= M:
        r -= M
        sign = -1.0
    if 2 * r > M:
        r = M - r
    return sign * math.sin(math.pi * r / M) / math.sin(math.pi * a / M)


def _trapezoid_terms(phi: TestFunction, N: int, M: int, odd_only: bool) -> list:
    """Nonzero phi_per(x)*D_N(x) over the nodes x = 2*pi*m/M, -M/2 <= m < M/2.

    phi_per(x) is the sum of phi(x + 2*pi*k) over k; it is gathered by
    walking the grid 2*pi*i/M across the support of phi and folding each i
    onto its node m = i mod M, so no evaluation falls outside the support.
    With odd_only, only the nodes that are new since M/2 are visited.
    """
    lo, hi = phi.support
    f = phi.evaluator
    scale = M / _TWO_PI
    step = 2 if odd_only else 1
    first = math.floor(lo * scale)
    if odd_only and first % 2 == 0:
        first += 1
    half = M // 2
    per = {}
    for i in range(first, math.ceil(hi * scale) + 1, step):
        v = f(_TWO_PI * i / M)
        if v != 0.0:
            m = (i + half) % M - half
            per[m] = per.get(m, 0.0) + v
    return [v * _dirichlet_periodic(N, m, M) for m, v in per.items()]


def _mode_trapezoid(phi: TestFunction, N: int, tol: float) -> tuple[float, float, int]:
    """(value, error estimate, node count M) of the periodic trapezoid sum.

    S_M = (2*pi/M) * sum_j phi_per(x_j)*D_N(x_j) integrates phi_per*D_N
    over one period, which is the mode sum c_0 + 2*sum_{n<=N} Re(c_n).
    M starts at a power of two >= 4N+4 (at M = 2N+1 the sum would collapse
    onto the lattice points) that also puts several nodes of M/2 inside a
    narrow support, and doubles, reusing the old nodes, until the estimate
    max(|S_M - S_{M/2}|, 50*eps*(2*pi/M)*sum|terms|) is within tol.
    Raises QuadratureError at once when the roundoff floor exceeds tol or
    the samples of phi would pass MODE_SAMPLE_CAP.
    """
    periods = (phi.support[1] - phi.support[0]) / _TWO_PI
    # Samples of phi at M nodes: one per node and period the support spans.
    samples_per_node = max(periods, 1.0)
    M = 2 * _MIN_SUPPORT_NODES
    while M * samples_per_node <= MODE_SAMPLE_CAP and (
        M < 4 * N + 4 or M * periods < 2 * _MIN_SUPPORT_NODES
    ):
        M *= 2
    if M * samples_per_node > MODE_SAMPLE_CAP:
        raise QuadratureError(
            math.nan, math.inf, 0,
            f"mode sum not attempted: it would need more than "
            f"MODE_SAMPLE_CAP = {MODE_SAMPLE_CAP} samples of phi",
        )
    terms = _trapezoid_terms(phi, N, M // 2, odd_only=False)
    coarse = _TWO_PI / (M // 2) * math.fsum(terms)
    while True:
        terms += _trapezoid_terms(phi, N, M, odd_only=True)
        h = _TWO_PI / M
        value = h * math.fsum(terms)
        floor = 50.0 * _EPS * h * math.fsum(abs(t) for t in terms)
        estimate = max(abs(value - coarse), floor)
        if estimate <= tol:
            return value, estimate, M
        if floor > tol or 2 * M * samples_per_node > MODE_SAMPLE_CAP:
            raise QuadratureError(value, estimate, M)
        M *= 2
        coarse = value


def delta0_partial_action(phi: TestFunction, N: int, tol: float) -> float:
    """Symmetric partial action: c_0 + 2*sum_{n=1}^{N} Re(c_n).

    One periodic trapezoid sum of phi_per*D_N (see _mode_trapezoid), which
    converges exponentially in the node count for smooth phi.  Raises
    QuadratureError when tol is below the roundoff floor or the samples of
    phi would pass MODE_SAMPLE_CAP.
    """
    _validate_order(N)
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    return _mode_trapezoid(phi, N, tol)[0]


def delta0_comb_action(phi: TestFunction) -> float:
    """Lattice route: 2*pi * sum of phi(2*pi*n) over 2*pi*n in support(phi)."""
    lo, hi = phi.support
    n_lo = math.ceil(lo / _TWO_PI)
    n_hi = math.floor(hi / _TWO_PI)
    if n_lo > n_hi:
        return 0.0
    return _TWO_PI * math.fsum(phi(_TWO_PI * n) for n in range(n_lo, n_hi + 1))


def deltaN_action(phi: TestFunction, N: int, tol: float) -> float:
    """Action of the order-N windowed kernel: integral of delta_N * phi.

    The kernel integral (kernels._kernel_integral) over [-pi, pi] clipped
    to the support; converges to 2*pi*phi(0) as N grows.
    """
    _validate_order(N)
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    lo = max(-math.pi, phi.support[0])
    hi = min(math.pi, phi.support[1])
    if not lo < hi:
        return 0.0
    return _kernel_integral(N, phi.evaluator, lo, hi, tol).value


def _exact_row_sums(terms) -> list:
    """Correctly rounded sum of each row of a 2-D float array, as math.fsum gives.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, Part I", SIAM J. Sci. Comput. 31(1), 2008): with
    sigma = 2**k >= 2**M * max|row| and 2**M >= the row length, every
    q = (sigma + t) - sigma is a multiple of ulp(sigma)/2 no larger than
    sigma / 2**M, so the q of a row add up exactly in any order, and
    t - q is exact.  Each pass moves the top bits of every term into one
    exact partial; once the residue is all zero, math.fsum of the few
    partials is the correctly rounded row sum.  terms is overwritten.
    Rows that hold non-finite values, or whose sigma would overflow, are
    left to math.fsum.
    """
    import numpy as np

    lanes = 1 << max(1, (terms.shape[1] - 1).bit_length())  # a power of two >= cols, 2
    q = np.empty_like(terms)
    peak = np.abs(terms, out=q).max(axis=1)
    # sigma <= 2 * lanes * peak, so a row at or past 2**1023 / lanes (or nan)
    # goes to fsum.
    direct = {
        i: math.fsum(terms[i].tolist())
        for i in np.flatnonzero(~(peak < 2.0**1023 / lanes)).tolist()
    }
    for i in direct:
        terms[i] = 0.0
        peak[i] = 0.0
    partials = [[] for _ in peak]
    while peak.any():
        sigma = np.ldexp(float(lanes), np.frexp(peak)[1])[:, None]
        np.add(terms, sigma, out=q)
        q -= sigma
        terms -= q
        for row, part in zip(partials, q.sum(axis=1).tolist()):
            row.append(part)
        peak = np.abs(terms, out=q).max(axis=1)
    return [direct[i] if i in direct else math.fsum(row) for i, row in enumerate(partials)]


def _fourier_partial_sums(order: int, N: int, xs) -> list:
    """The order-1 or order-2 partial sums at every x of xs, as floats.

    The series terms 2*sin(n*|x|)/n or cos(n*|x|)/n**2 are summed in
    chunks of _CHUNK orders n.  Each chunk is evaluated in blocks of grid
    rows by n of at most _CHUNK elements and reduced exactly per row; the
    rounded chunk sums are then added exactly in chunk order, so every row
    is the same as summing its own chunks with math.fsum.  N * len(xs) may
    not pass FOURIER_WORK_CAP.
    """
    _validate_order(N, least=1, cap=FOURIER_N_CAP)
    if N * len(xs) > FOURIER_WORK_CAP:
        raise ValueError(
            f"order {N} at {len(xs)} points is past the work cap: "
            f"N * points must be <= {FOURIER_WORK_CAP}"
        )
    import numpy as np

    rs = [abs(x) for x in xs]
    chunk_sums = [[] for _ in rs]
    for n0 in range(1, N + 1, _CHUNK):
        n = np.arange(n0, min(N, n0 + _CHUNK - 1) + 1, dtype=np.float64)
        divisor = n if order == 1 else n * n
        height = max(1, _CHUNK // n.size)
        for i in range(0, len(rs), height):
            terms = np.multiply.outer(rs[i:i + height], n)
            if order == 1:
                np.sin(terms, out=terms)
                terms *= 2.0
            else:
                np.cos(terms, out=terms)
            terms /= divisor
            for row, value in zip(chunk_sums[i:i + height], _exact_row_sums(terms)):
                row.append(value)
    sums = []
    for x, r, row in zip(xs, rs, chunk_sums):
        series = math.fsum(row)
        if order == 2:
            sums.append(math.fsum((0.5 * r * r, -2.0 * series)))
        elif x == 0.0:
            sums.append(0.0)
        else:
            core = math.fsum((r, series))
            sums.append(core if x > 0 else -core)
    return sums


def fourier_partial_delta1(N: int, x: float) -> float:
    """x + 2*sum_{n=1}^{N} sin(n*x)/n.

    Odd in x by construction: the positive-axis value is computed and the
    sign flipped, so f(-x) == -f(x) to the last bit.
    """
    return _fourier_partial_sums(1, N, [x])[0]


def fourier_partial_delta2(N: int, x: float) -> float:
    """x**2/2 - 2*sum_{n=1}^{N} cos(n*x)/n**2, even in x bit-for-bit."""
    return _fourier_partial_sums(2, N, [x])[0]


def delta1_closed(x: float) -> float:
    """pi * (floor(x/2pi) + ceil(x/2pi)).

    Equals pi*sign(x) off the lattice within (-2pi, 2pi); at a lattice
    point 2*pi*n the floor and ceiling agree and the formula itself
    yields 2*pi*n, no special-casing.
    """
    u = x / _TWO_PI
    return math.pi * (math.floor(u) + math.ceil(u))


def delta2_closed(x: float) -> float:
    """pi*x*(floor(u)+ceil(u)) - 2*pi**2*ceil(u)*floor(u) - pi**2/3, u = x/2pi.

    Continuous everywhere, piecewise affine between lattice points.
    """
    u = x / _TWO_PI
    fl = math.floor(u)
    ce = math.ceil(u)
    return math.pi * x * (fl + ce) - 2.0 * math.pi**2 * (ce * fl) - math.pi**2 / 3.0
