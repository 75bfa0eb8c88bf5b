"""Deterministic adaptive quadrature and the truncated sinc integral.

Each panel is handled by the classic 7-point Gauss rule nested inside the
15-point Kronrod extension (the G7/K15 pair, with the standard QUADPACK
node and weight constants).  The Kronrod value is the panel result; the
Gauss/Kronrod discrepancy, sharpened the usual way by the scaled-deviation
heuristic, is the panel error estimate.  The rule is written out as
straight-line code that adds its terms in the order of QUADPACK's loops,
so it gives their bits without their interpreter overhead.

Refinement is globally adaptive: panels live in a priority queue keyed by
error estimate, the worst panel is bisected until the summed estimate
drops below the requested tolerance, and the final value is a fixed-order
(left-to-right) exact sum of panel results.  The loop, _refine, takes
the panel rule as an argument, so one heap, one budget and one floor rule
serve every rule; it makes every result and every QuadratureError, whose
message names the cause.  Everything is sequential and order-fixed, so
identical inputs give bit-identical outputs.  A run fails fast: a seed
grid past the panel budget is a ValueError before any panel runs, and a
NaN estimate, or rounding floors of the panels (zetacomb._rounding_floor,
which the mode sum shares) that add up to more than the tolerance, raise
QuadratureError at once.

Oscillatory integrands are handled by seeding: callers pass the highest
angular frequency w present, and the initial edges are the points of the
period lattice k*2*pi/w anchored at 0 that fall inside the interval, so
each seed panel spans one period.

The second panel rule is Filon-Clenshaw-Curtis for sin(w*x)*g(x) with g
smooth (QUADPACK's dqc25f): g is interpolated at 25 Chebyshev points and
the interpolant is integrated against sin(w*x) exactly, through the
modified Chebyshev moments of exp(i*alpha*t), alpha = w*h for a panel of
half-width h.  Its cost does not grow with w, but the forward moment
recurrence is stable only while alpha is at least the degree, 24; a
caller uses the rule on such panels only (kernels._kernel_integral, where
the kernel's 1/sin(x/2) goes into g away from 0).

The truncated sinc integrals for N = 0..n_max come from one G7/K15 run
(the breakpoint idea of QUADPACK's dqagp): the seed panels end on the
half-periods (k+1/2)*pi, so every row is a prefix sum of the accepted
panels and no row integrates again from 0.
"""

import heapq
import math
from collections import namedtuple
from collections.abc import Callable
from operator import mul

from . import QuadratureError, _rounding_floor, _validate_order, _validate_tol

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_adaptive",
    "sinc_table",
    "sinc_truncated",
]

# G7/K15 constants (QUADPACK dqk15).  Positive abscissae only; odd indices
# are the embedded Gauss nodes, wg[3] weights the midpoint.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.40584515137739717,
    0.20778495500789847,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

# The same constants one name each, for the straight-line panel.
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XGK[:7]
_WK0, _WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7 = _WGK
_WG0, _WG1, _WG2, _WG3 = _WG

# The FCC rule (QUADPACK dqc25f) on the Chebyshev points t_j = cos(j*pi/24),
# j = 0..24, of [-1, 1]: the degree-24 interpolant uses them all, the
# degree-12 one every second.  _FCC_T holds t_1..t_11; t_0 = 1 is the
# panel's right end, t_12 = 0 its centre, and t_{24-j} = -t_j.
_FCC_T = tuple(math.cos(j * math.pi / 24) for j in range(1, 12))
# The forward moment recurrence is stable while alpha = w*h is at least the
# degree (Dominguez, Graham & Smyshlyaev, IMA J. Numer. Anal. 31, 2011).
_FCC_MIN_ALPHA = 24.0


def _cos24(m: int) -> float:
    """cos(m*pi/24), its angle reduced below 2*pi in integers first."""
    return math.cos((m % 48) * math.pi / 24)


def _cheb_rows(n: int) -> tuple:
    """Rows that turn the folded samples of g into the Chebyshev coefficients
    of its degree-n interpolant on the points cos(j*pi/n), n = 24 or 12.

    With v_j = g(cos(j*pi/24)), s_j = v_j + v_{24-j}, d_j = v_j - v_{24-j}
    (j = 0..11) and the centre v_12, coefficient k is the dot product of
    even row k/2 with (s_0, .., s_11, v_12) taken every 24/n-th entry, or
    of odd row (k-1)/2 with (d_0, .., d_11) taken the same way: the DCT-I
    of the samples, halved at k = 0 and k = n.
    """
    step = 24 // n
    even, odd = [], []
    for k in range(n + 1):
        scale = (1.0 if 0 < k < n else 0.5) * 2.0 / n
        row = [0.5] + [_cos24(j * k) for j in range(step, 12, step)]
        if k % 2:
            odd.append(tuple(scale * c for c in row))
        else:
            even.append(tuple(scale * c for c in row + [_cos24(12 * k)]))
    return tuple(even), tuple(odd)


_CHEB24_EVEN, _CHEB24_ODD = _cheb_rows(24)
_CHEB12_EVEN, _CHEB12_ODD = _cheb_rows(12)

# Clenshaw-Curtis weights of the 25 points, w_0..w_11 (each weighting the
# pair t_j, -t_j) and the centre's; they price the panel's integral of |g|.
*_CC_W, _CC_W_MID = (
    (1.0 if j == 0 else 2.0) / 24 * (1.0 - math.fsum(
        (1.0 if k == 12 else 2.0) * _cos24(2 * k * j) / (4 * k * k - 1) for k in range(1, 13)
    ))
    for j in range(13)
)

DEFAULT_PANEL_BUDGET = 1_000_000


class QuadResult(namedtuple("QuadResult", "value error_estimate panels_used")):
    """An integral's value, its error estimate (never NaN) and the panels it took."""

    __slots__ = ()

    def __new__(cls, value: float, error_estimate: float, panels_used: int):
        if not error_estimate >= 0:
            raise ValueError("error_estimate must be >= 0")
        if panels_used < 1:
            raise ValueError("panels_used must be >= 1")
        return super().__new__(cls, value, error_estimate, panels_used)


def _kronrod_panel(f: Callable[[float], float], a: float, b: float):
    """One G7/K15 application on [a, b]; returns (value, error_estimate, floor).

    floor is _rounding_floor(resabs), which error_estimate never goes
    below (0, and no lift, when resabs is tiny or NaN).  Straight-line
    dqk15: node k sits at centr -+ hlgth*_XGK[k], and the sums run in
    QUADPACK's order, resg, resk and resabs over the Gauss pairs 1, 3, 5
    and then the Kronrod pairs 0, 2, 4, 6, resasc over the centre and then
    pairs 0 to 6, so the bits are those of the loop form.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    absc = hlgth * _X1
    f1l = f(centr - absc)
    f1r = f(centr + absc)
    absc = hlgth * _X3
    f3l = f(centr - absc)
    f3r = f(centr + absc)
    absc = hlgth * _X5
    f5l = f(centr - absc)
    f5r = f(centr + absc)
    absc = hlgth * _X0
    f0l = f(centr - absc)
    f0r = f(centr + absc)
    absc = hlgth * _X2
    f2l = f(centr - absc)
    f2r = f(centr + absc)
    absc = hlgth * _X4
    f4l = f(centr - absc)
    f4r = f(centr + absc)
    absc = hlgth * _X6
    f6l = f(centr - absc)
    f6r = f(centr + absc)
    s1 = f1l + f1r
    s3 = f3l + f3r
    s5 = f5l + f5r
    resk = fc * _WK7
    resg = fc * _WG3 + _WG0 * s1 + _WG1 * s3 + _WG2 * s5
    resabs = (
        abs(resk)
        + _WK1 * (abs(f1l) + abs(f1r))
        + _WK3 * (abs(f3l) + abs(f3r))
        + _WK5 * (abs(f5l) + abs(f5r))
        + _WK0 * (abs(f0l) + abs(f0r))
        + _WK2 * (abs(f2l) + abs(f2r))
        + _WK4 * (abs(f4l) + abs(f4r))
        + _WK6 * (abs(f6l) + abs(f6r))
    )
    resk = (
        resk + _WK1 * s1 + _WK3 * s3 + _WK5 * s5
        + _WK0 * (f0l + f0r) + _WK2 * (f2l + f2r) + _WK4 * (f4l + f4r) + _WK6 * (f6l + f6r)
    )
    reskh = resk * 0.5
    resasc = (
        _WK7 * abs(fc - reskh)
        + _WK0 * (abs(f0l - reskh) + abs(f0r - reskh))
        + _WK1 * (abs(f1l - reskh) + abs(f1r - reskh))
        + _WK2 * (abs(f2l - reskh) + abs(f2r - reskh))
        + _WK3 * (abs(f3l - reskh) + abs(f3r - reskh))
        + _WK4 * (abs(f4l - reskh) + abs(f4r - reskh))
        + _WK5 * (abs(f5l - reskh) + abs(f5r - reskh))
        + _WK6 * (abs(f6l - reskh) + abs(f6r - reskh))
    )
    result = resk * hlgth
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    floor = _rounding_floor(resabs)
    if floor:
        abserr = max(floor, abserr)
    return result, abserr, floor


def _fcc_moments(alpha: float) -> list:
    """The modified Chebyshev moments of exp(i*alpha*t) on [-1, 1], alpha >= 24.

    Entry k is the integral of T_k(t)*cos(alpha*t) for even k and of
    T_k(t)*sin(alpha*t) for odd k, k = 0..24 (the other part vanishes by
    parity).  Entries 0 to 2 are closed forms; the rest follow from the
    forward recurrence that integrating T_k = (T'_{k+1}/(k+1) -
    T'_{k-1}/(k-1))/2 by parts gives, stable for alpha >= the degree.
    """
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    inv = 1.0 / alpha
    m = [0.0] * 25
    m[0] = 2.0 * sa * inv
    m[1] = 2.0 * (sa - alpha * ca) * inv * inv
    m[2] = 2.0 * sa * inv + 8.0 * ca * inv * inv - 8.0 * sa * inv * inv * inv
    for k in range(2, 24):
        # From odd k, a cosine moment out of sine moments; from even k the
        # reverse, with the signs that i*alpha brings.
        if k % 2:
            drive = -2.0 * m[k] - 4.0 * sa / (k * k - 1)
        else:
            drive = 2.0 * m[k] + 4.0 * ca / (k * k - 1)
        m[k + 1] = (k + 1) * inv * drive + (k + 1) / (k - 1) * m[k - 1]
    return m


def _fcc_panel(g: Callable[[float], float], w: float, a: float, b: float):
    """One FCC application to sin(w*x)*g(x) on [a, b]; returns (value, error_estimate, floor).

    The rule needs w*(b-a)/2 >= _FCC_MIN_ALPHA.  g is sampled at the 25
    Chebyshev points of [a, b], the ends a and b exact; its degree-24 and
    degree-12 interpolants are integrated against sin(w*x) through
    _fcc_moments.  The estimate is the larger of their difference and
    2*h*(|c_22| + |c_23| + |c_24|), the last three coefficients of the
    degree-24 interpolant: the difference alone reads low on some panels.
    The rounding floor is _rounding_floor of the panel's integral of |g|
    scaled by 2/pi, the mean of |sin|, so that it prices the integral of
    |g*sin(w*x)|; error_estimate never goes below it.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    right = [g(b)]
    left = [g(a)]
    for t in _FCC_T:
        right.append(g(centr + hlgth * t))
        left.append(g(centr - hlgth * t))
    mid = g(centr)
    s = [r + l for r, l in zip(right, left)]
    s.append(mid)
    d = [r - l for r, l in zip(right, left)]
    s12 = s[::2]
    d12 = d[::2]
    even24 = [sum(map(mul, row, s)) for row in _CHEB24_EVEN]
    odd24 = [sum(map(mul, row, d)) for row in _CHEB24_ODD]
    even12 = [sum(map(mul, row, s12)) for row in _CHEB12_EVEN]
    odd12 = [sum(map(mul, row, d12)) for row in _CHEB12_ODD]
    mom = _fcc_moments(w * hlgth)
    phase = w * centr
    sc = math.sin(phase)
    cc = math.cos(phase)
    result = hlgth * (sc * sum(map(mul, even24, mom[::2])) + cc * sum(map(mul, odd24, mom[1::2])))
    coarse = hlgth * (sc * sum(map(mul, even12, mom[:13:2])) + cc * sum(map(mul, odd12, mom[1:12:2])))
    tail = 2.0 * hlgth * (abs(even24[11]) + abs(odd24[11]) + abs(even24[12]))
    abserr = max(abs(result - coarse), tail)
    resabs = hlgth * (
        _CC_W_MID * abs(mid)
        + sum(map(mul, _CC_W, map(abs, right)))
        + sum(map(mul, _CC_W, map(abs, left)))
    ) * (2.0 / math.pi)
    floor = _rounding_floor(resabs)
    if floor:
        abserr = max(floor, abserr)
    return result, abserr, floor


def _refine(panel: Callable, edges: list, tol: float):
    """Bisect the worst panel of the grid edges until the summed estimate is within tol.

    panel(lo, hi) is the panel rule: it returns (value, error, floor) for
    [lo, hi], as _kronrod_panel and _fcc_panel do.  Every panel run ends
    here: the accepted panels are sorted once and summed exactly from left
    to right.  Returns the QuadResult and the accepted panels as heap
    entries (-error, sequence number, left, right, value, floor), whose
    sequence numbers fix the pop order whatever the heap's layout.  Else
    raises QuadratureError with that sum and a message naming the cause: a
    NaN summed estimate or rounding floors of the panels that alone sum to
    more than tol (both at once, as no bisection brings them down), or a
    next bisection that would pass DEFAULT_PANEL_BUDGET (read at call time).
    """
    heap = []
    total_err = 0.0
    total_floor = 0.0
    for left, right in zip(edges, edges[1:]):
        value, err, floor = panel(left, right)
        heap.append((-err, len(heap), left, right, value, floor))
        total_err += err
        total_floor += floor
    heapq.heapify(heap)
    panels_used = len(heap)

    # Written so that a NaN estimate enters the loop and fails there.
    cause = None
    while not total_err <= tol:
        if math.isnan(total_err):
            cause = "the estimate is NaN"
        elif total_floor > tol:
            cause = f"the rounding floors of the panels sum to {total_floor:.3e}, above tol = {tol:.3e}"
        elif panels_used + 2 > DEFAULT_PANEL_BUDGET:
            cause = f"estimate {total_err:.3e}, and a bisection passes DEFAULT_PANEL_BUDGET = {DEFAULT_PANEL_BUDGET}"
        if cause:
            break
        neg_err, _, left, right, _, floor = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err of the popped panel
        total_floor -= floor
        mid = 0.5 * (left + right)
        for lo, hi in ((left, mid), (mid, right)):
            value, err, floor = panel(lo, hi)
            heapq.heappush(heap, (-err, panels_used, lo, hi, value, floor))
            total_err += err
            total_floor += floor
            panels_used += 1

    heap.sort(key=lambda e: e[2])
    value = math.fsum(entry[4] for entry in heap)
    if cause:
        raise QuadratureError(
            value, total_err, panels_used, f"quadrature tolerance not reached after {panels_used} panels: {cause}"
        )
    return QuadResult(value, total_err, panels_used), heap


def _past_budget(seeds: str) -> ValueError:
    """The refusal of seeds past the panel budget, raised before any panel runs."""
    return ValueError(f"{seeds} needs more than DEFAULT_PANEL_BUDGET = {DEFAULT_PANEL_BUDGET} seed panels")


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    osc_freq: float = 0.0,
) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    osc_freq is a seeding hint, not a detector: pass the highest angular
    frequency w in f (N + 1/2 for the order-N kernel) and the seed edges
    are a, the points k*2*pi/w of the period lattice anchored at 0 inside
    (a, b), and b, one period per panel; for the order-N kernel they are
    every second zero of sin((N+1/2)*x) and its peak at 0.  A w so small
    that 2*pi/w overflows has no such point, and seeds [a, b].  Pass 0 for
    smooth integrands, seeded on an even grid of panels at most 2*pi wide.
    Every panel is G7/K15.
    Raises ValueError, before any panel runs, when the seed grid alone
    would pass the panel budget, and QuadratureError, carrying the best
    value and estimate, if the budget runs out or tol lies below the
    rounding floor of the estimate.  kernels._kernel_integral does not
    come here, so this budget does not bound the kernel's orders.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    _validate_tol(tol)
    if not osc_freq >= 0:
        raise ValueError(f"osc_freq must be >= 0, got {osc_freq}")

    width = b - a
    if osc_freq == 0:
        seed_width = min(width, 2.0 * math.pi)
        if width / seed_width > DEFAULT_PANEL_BUDGET:
            raise _past_budget(f"the even seed grid on [{a}, {b}]")
        n_seed = math.ceil(width / seed_width)
        edges = [a + width * (i / n_seed) for i in range(n_seed)] + [b]
    else:
        period = 2.0 * math.pi / osc_freq
        seeds = f"the period lattice of frequency {osc_freq} on [{a}, {b}]"
        # Counted in periods first: an infinite or huge count builds no list.
        if width * osc_freq / (2.0 * math.pi) > DEFAULT_PANEL_BUDGET:
            raise _past_budget(seeds)
        # The points are filtered as computed, so rounding in a / period
        # cannot add or drop one, and a NaN point (0 * inf, where the
        # period overflows) fails the comparison.
        ks = range(math.floor(a / period) - 1, math.ceil(b / period) + 2)
        edges = [a, *(k * period for k in ks if a < k * period < b), b]
        if len(edges) - 1 > DEFAULT_PANEL_BUDGET:
            raise _past_budget(seeds)
    return _refine(lambda lo, hi: _kronrod_panel(f, lo, hi), edges, tol)[0]


def _sinc(x: float) -> float:
    if x == 0.0:
        return 1.0
    return math.sin(x) / x


def _fixed(x: float) -> int:
    """x in units of 2**-1074, exact for every finite float; a sum of them
    divided by 2**1074 is the correctly rounded sum, as math.fsum gives."""
    m, d = x.as_integer_ratio()
    return m << (1075 - d.bit_length())


def sinc_table(n_max: int, tol: float) -> list[QuadResult]:
    """Integral of sin(x)/x over [-(N+1/2)pi, (N+1/2)pi] for N = 0..n_max.

    The integrand is even, so [0, (n_max+1/2)pi] is integrated once and
    doubled; this keeps the x=0 removable point at a panel edge.  The seed
    grid has one panel per half-period, [0, pi/2] and then
    [(k-1/2)pi, (k+1/2)pi], so every upper limit is a panel edge, and all
    the doubled panels refine against one budget, tol (an even split over
    the half-periods would put the share of [0, pi/2] below its own
    rounding floor at large n_max).  Row N is the exact sum of the doubled
    panels left of (N+1/2)pi, its estimate their summed estimates (at most
    tol), and its panels_used the number of panels evaluated inside
    [0, (N+1/2)pi].  Returns one QuadResult per N; ValueError if the
    n_max + 1 seed panels pass the budget.
    """
    _validate_order(n_max)
    _validate_tol(tol)
    if n_max + 1 > DEFAULT_PANEL_BUDGET:
        raise _past_budget(f"n_max = {n_max}")
    top = (n_max + 0.5) * math.pi
    edges = [0.0] + [(N + 0.5) * math.pi for N in range(n_max)] + [top]

    def doubled(lo, hi):
        # Exact: the run is that of [0, top] against tol/2, every sum doubled.
        value, err, floor = _kronrod_panel(_sinc, lo, hi)
        return 2.0 * value, 2.0 * err, 2.0 * floor

    rows = []
    total = 0
    error = 0.0
    for accepted, (neg_err, _, _, right, value, _) in enumerate(_refine(doubled, edges, tol)[1], start=1):
        total += _fixed(value)
        error -= neg_err
        if right == edges[len(rows) + 1]:
            # Bisection trees over the N+1 seed panels with `accepted`
            # leaves hold 2*accepted - (N+1) evaluated panels.
            rows.append(QuadResult(total / (1 << 1074), error, 2 * accepted - (len(rows) + 1)))
    return rows


def sinc_truncated(N: int, tol: float) -> QuadResult:
    """Integral of sin(x)/x over [-(N+1/2)pi, (N+1/2)pi]: row N of sinc_table."""
    return sinc_table(N, tol)[N]
