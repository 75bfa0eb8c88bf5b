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

The partial sums run over a whole x grid at once: they are the whole
partial sums of kernels._trig_series at order 1 or 2, each series
correctly rounded and added to |x| (or x**2/2) by one more math.fsum, so
results are deterministic; odd sums are computed on |x| and sign-flipped
so antisymmetry holds bit-for-bit.  The engine refuses every x it cannot
sum before numpy loads; the closed forms refuse a NaN or infinite x.
"""

import math

from . import QuadratureError, _rounding_floor, _validate_order, _validate_tol
from .kernels import _frequency, _kernel_integral, _trig_series

__all__ = [
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

# Most samples of phi one mode-route sum may take (about 2.5 s of Python):
# M nodes times the number of periods the support spans, at least one.  The
# sum starts at M >= 4N+4, so orders N >= 2**18 are refused at once, and lower
# orders too when the support spans more than one period.
MODE_SAMPLE_CAP = 1 << 20
# The first comparison S_M vs S_{M/2} is trusted only if the coarse grid
# puts at least this many nodes inside a support narrower than 2*pi.
_MIN_SUPPORT_NODES = 8


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


def _trapezoid_terms(phi: "TestFunction", N: int, M: int, odd_only: bool) -> list:
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


def _float_sum(terms: list) -> float:
    """math.fsum(terms), or the plain float sum, NaN or inf, where it raises (inf - inf, overflow)."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return sum(terms)


def _mode_trapezoid(phi: "TestFunction", N: int, tol: float) -> tuple[float, float, int]:
    """(value, error estimate, node count M) of the periodic trapezoid sum.

    S_M = (2*pi/M) * sum_j phi_per(x_j)*D_N(x_j) integrates phi_per*D_N
    over one period, which is the mode sum c_0 + 2*sum_{n<=N} Re(c_n).
    M starts at a power of two >= 4N+4 (at M = 2N+1 the sum would collapse
    onto the lattice points) that also puts several nodes of M/2 inside a
    narrow support, and doubles, reusing the old nodes, until the estimate
    max(|S_M - S_{M/2}|, _rounding_floor((2*pi/M)*sum|terms|)) is within tol.
    Raises ValueError before sampling phi if the first sum would pass
    MODE_SAMPLE_CAP, and QuadratureError (panels_used = M), its message
    naming the cause, checked in quad._refine's order: a NaN estimate, the
    rounding floor above tol, or a next doubling that would pass the cap.
    Terms math.fsum cannot sum are summed by _float_sum, so they stop it too.
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
        raise ValueError(
            f"the mode sum at order {N} needs more than MODE_SAMPLE_CAP = {MODE_SAMPLE_CAP} samples of phi"
        )
    terms = _trapezoid_terms(phi, N, M // 2, odd_only=False)
    coarse = _TWO_PI / (M // 2) * _float_sum(terms)
    while True:
        terms += _trapezoid_terms(phi, N, M, odd_only=True)
        h = _TWO_PI / M
        value = h * _float_sum(terms)
        floor = _rounding_floor(h * _float_sum(list(map(abs, terms))))
        estimate = max(abs(value - coarse), floor)
        if estimate <= tol:
            return value, estimate, M
        if math.isnan(estimate):
            cause = "the estimate is NaN"
            break
        if floor > tol:
            cause = f"the rounding floor {floor:.3e} is above tol = {tol:.3e}"
            break
        if 2 * M * samples_per_node > MODE_SAMPLE_CAP:
            cause = f"estimate {estimate:.3e}, and the next doubling passes MODE_SAMPLE_CAP = {MODE_SAMPLE_CAP} samples of phi"
            break
        M *= 2
        coarse = value
    raise QuadratureError(value, estimate, M, f"mode sum tolerance not reached after {M} nodes: {cause}")


def delta0_partial_action(phi: "TestFunction", N: int, tol: float) -> float:
    """Symmetric partial action: c_0 + 2*sum_{n=1}^{N} Re(c_n).

    One periodic trapezoid sum of phi_per*D_N (see _mode_trapezoid), which
    converges exponentially in the node count for smooth phi.  Raises
    ValueError before any work past MODE_SAMPLE_CAP samples of phi, and
    QuadratureError when tol cannot be met, at once on a NaN estimate.
    """
    _validate_order(N)
    _validate_tol(tol)
    return _mode_trapezoid(phi, N, tol)[0]


def delta0_comb_action(phi: "TestFunction") -> float:
    """Lattice route: 2*pi * sum of phi(2*pi*n) over 2*pi*n in support(phi)."""
    lo, hi = phi.support
    n_lo = math.ceil(lo / _TWO_PI)
    n_hi = math.floor(hi / _TWO_PI)
    if n_lo > n_hi:
        return 0.0
    return _TWO_PI * math.fsum(phi(_TWO_PI * n) for n in range(n_lo, n_hi + 1))


def deltaN_action(phi: "TestFunction", N: int, tol: float) -> float:
    """Action of the order-N windowed kernel: integral of delta_N * phi.

    The kernel integral (kernels._kernel_integral) over [-pi, pi] clipped
    to the support, for N < 2**52 (kernels._frequency), else ValueError;
    converges to 2*pi*phi(0) as N grows.
    """
    _frequency(N)
    _validate_tol(tol)
    lo = max(-math.pi, phi.support[0])
    hi = min(math.pi, phi.support[1])
    if not lo < hi:
        return 0.0
    return _kernel_integral(N, phi.evaluator, lo, hi, tol).value


def _fourier_partial_sums(order: int, N: int, xs) -> list:
    """The order-1 or order-2 partial sums at every x of xs, as floats: the
    whole partial sums of kernels._trig_series, which refuses every input it
    cannot sum (ValueError, before numpy loads), at N >= 1."""
    _validate_order(N, least=1)
    return _trig_series(order, N, xs)


def fourier_partial_delta1(N: int, x: float) -> float:
    """x + 2*sum_{n=1}^{N} sin(n*x)/n.

    Odd in x by construction: the positive-axis value is computed and the
    sign flipped, so f(-x) == -f(x) to the last bit.  A NaN x is refused as
    not a number, an N*|x| past the float range as such (ValueError).
    """
    return _fourier_partial_sums(1, N, [x])[0]


def fourier_partial_delta2(N: int, x: float) -> float:
    """x**2/2 - 2*sum_{n=1}^{N} cos(n*x)/n**2, even in x bit-for-bit.

    A NaN x is refused as not a number, an x**2/2 or N*|x| past the float
    range as such (ValueError).
    """
    return _fourier_partial_sums(2, N, [x])[0]


def _floor_ceil(x: float) -> tuple[int, int]:
    """floor(u) and ceil(u), u = x/2pi; ValueError naming x if x is NaN or infinite."""
    if not math.isfinite(x):
        raise ValueError(f"the closed forms need a finite x, got x = {x}")
    u = x / _TWO_PI
    return math.floor(u), math.ceil(u)


def delta1_closed(x: float) -> float:
    """pi * (floor(x/2pi) + ceil(x/2pi)), for finite x (_floor_ceil).

    Equals pi*sign(x) off the lattice within (-2pi, 2pi); at a lattice
    point 2*pi*n the floor and ceiling agree and the formula itself
    yields 2*pi*n, no special-casing.
    """
    fl, ce = _floor_ceil(x)
    return math.pi * (fl + ce)


def delta2_closed(x: float) -> float:
    """pi*x*(floor(u)+ceil(u)) - 2*pi**2*ceil(u)*floor(u) - pi**2/3, u = x/2pi.

    Continuous everywhere, piecewise affine between lattice points.  For
    finite x (_floor_ceil); OverflowError where ceil(u)*floor(u) is past
    the float range.
    """
    fl, ce = _floor_ceil(x)
    return math.pi * x * (fl + ce) - 2.0 * math.pi**2 * (ce * fl) - math.pi**2 / 3.0
