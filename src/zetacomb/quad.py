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
(left-to-right) exact sum of panel results.  Everything is sequential and
order-fixed, so identical inputs give bit-identical outputs.  A run fails
fast: when the seed grid alone would pass the panel budget, or when the
rounding floors of the panels (50*eps times the integral of |f|) add up
to more than the tolerance, it raises at once instead of bisecting on.

A caller may declare the integrand even, f(-x) == f(x) bit for bit.  A
panel [-b, -a] then samples f at the negated nodes of [a, b] (midpoint
and half-width negate and repeat exactly in IEEE arithmetic), gets the
same values and adds them as the same terms commuted, so its result is
that of [a, b] to the bit and is reused.  On an interval [-b, b] seeded
on the period lattice every panel has its mirror: the lattice points
k*2*pi/w and the bisection midpoints 0.5*(a+b) negate exactly too.  Which
panels exist, the order they are bisected in and every bit of the result
are as without the declaration; only the integrand is called about half
as often.

Oscillatory integrands are handled by seeding: callers pass the highest
angular frequency w present, and the initial edges are the points of the
period lattice k*2*pi/w anchored at 0 that fall inside the interval, so
each seed panel spans one period.  For the order-N kernel,
w = N + 1/2, these edges are every second zero of sin((N+1/2)*x) plus the
peak at x = 0, so the rule meets the oscillation in phase from the start
instead of discovering it by bisection.

The truncated sinc integrals for N = 0..n_max come from one such run
(the breakpoint idea of QUADPACK's dqagp): the seed panels end on the
lattice of half-periods (k+1/2)*pi, so every row is a prefix sum of the
accepted panels and no row integrates again from 0.
"""

import heapq
import math
import sys
from collections import namedtuple
from collections.abc import Callable

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

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

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


class QuadratureError(RuntimeError):
    """Tolerance not reached: panel budget spent, or tol below the rounding floor.

    Carries the best value obtained so that callers can inspect how far
    off the run ended, rather than losing the work.  panels_used == 0 means
    the run was refused up front because it would need more than the budget.
    A route whose limit is not a panel budget passes its own message.
    """

    def __init__(self, value: float, error_estimate: float, panels_used: int, message: str | None = None):
        if message is None and panels_used == 0:
            message = "quadrature not attempted: it would need more panels than the budget"
        elif message is None:
            message = (
                f"quadrature tolerance not reached: estimate {error_estimate:.3e} "
                f"after {panels_used} panels"
            )
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.panels_used = panels_used


def _validate_order(N: int, least: int = 0) -> None:
    """Refuse an order N that is not an int (bool included) or is below least."""
    if isinstance(N, bool) or not isinstance(N, int) or N < least:
        kind = "non-negative" if least == 0 else "positive"
        raise ValueError(f"N must be a {kind} integer, got {N!r}")


def _kronrod_panel(f: Callable[[float], float], a: float, b: float):
    """One G7/K15 application on [a, b]; returns (value, error_estimate, floor).

    floor is the rounding floor 50*eps*resabs that error_estimate never
    goes below (0 when resabs is too small for it to apply).  Straight-line
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
    floor = 0.0
    if resabs > _UFLOW / (50.0 * _EPMACH):
        floor = _EPMACH * 50.0 * resabs
        abserr = max(floor, abserr)
    return result, abserr, floor


def _refine(f: Callable[[float], float], edges: list, tol: float, even: bool = False):
    """Bisect the worst panel of the grid edges until the summed estimate is within tol.

    Returns the accepted panels as (left, right, value, error) from left to
    right, the summed estimate and the number of panels evaluated.  Raises
    QuadratureError, carrying the best value, when the next bisection would
    pass DEFAULT_PANEL_BUDGET (read at call time), or at once when the
    rounding floors of the panels alone sum to more than tol, which no
    bisection can bring down, or when the summed estimate is NaN.

    even declares f(-x) == f(x) bit for bit.  With it and a grid from -b
    to b, the (value, error, floor) of a panel [a, b] is reused for the
    panel whose edges are exactly -b and -a (see the module docstring), so
    each mirror pair is computed once.  Panel counts, heap order and every
    bit stay as without the mark.
    """
    panel = _kronrod_panel
    if even and edges[0] == -edges[-1]:
        # Results keyed by the edges of the panel that will reuse them;
        # each is popped on use, so the dict holds the unmatched half.
        mirror = {}

        def panel(f, lo, hi):
            known = mirror.pop((lo, hi), None)
            if known is None:
                known = mirror[(-hi, -lo)] = _kronrod_panel(f, lo, hi)
            return known

    # Heap entries: (-error, sequence number, a, b, value, floor).  The
    # sequence numbers are unique, so the pop order is fixed whatever the
    # heap's layout.
    heap = []
    total_err = 0.0
    total_floor = 0.0
    for left, right in zip(edges, edges[1:]):
        value, err, floor = panel(f, left, right)
        heap.append((-err, len(heap), left, right, value, floor))
        total_err += err
        total_floor += floor
    heapq.heapify(heap)
    panels_used = len(heap)

    # Written so that a NaN estimate enters the loop and fails there: no
    # bisection can bring it below tol.
    while not total_err <= tol:
        if math.isnan(total_err) or total_floor > tol or panels_used + 2 > DEFAULT_PANEL_BUDGET:
            accepted = sorted(heap, key=lambda e: e[2])
            best = math.fsum(entry[4] for entry in accepted)
            raise QuadratureError(best, total_err, panels_used)
        neg_err, _, left, right, _, floor = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err of the popped panel
        total_floor -= floor
        mid = 0.5 * (left + right)
        for lo, hi in ((left, mid), (mid, right)):
            value, err, floor = panel(f, lo, hi)
            heapq.heappush(heap, (-err, panels_used, lo, hi, value, floor))
            total_err += err
            total_floor += floor
            panels_used += 1

    accepted = sorted(heap, key=lambda e: e[2])
    panels = [(left, right, value, -neg_err) for neg_err, _, left, right, value, _ in accepted]
    return panels, total_err, panels_used


def _lattice(a: float, b: float, period: float, shift: float = 0.0) -> range:
    """The integers k with a < (k + shift) * period < b, for period > 0.

    Seed edges go at (k + shift) * period, computed as written; the range
    counts them before any list is built.  Its ends are trimmed against
    those computed points, so rounding in a / period cannot add or drop one.
    """
    lo = math.floor(a / period - shift) - 1
    hi = math.ceil(b / period - shift) + 1
    while lo < hi and (lo + shift) * period <= a:
        lo += 1
    while hi >= lo and (hi + shift) * period >= b:
        hi -= 1
    return range(lo, hi + 1)


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    osc_freq: float = 0.0,
    even: bool = False,
) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    osc_freq is a seeding hint, not a detector: pass the highest angular
    frequency w in f (N + 1/2 for the order-N kernel) and the seed edges
    are a, the points k*2*pi/w of the period lattice anchored at 0 inside
    (a, b), and b, one period per panel; for the kernel they are every
    second zero of sin((N+1/2)*x) and its peak at 0.  Pass 0 for smooth
    integrands, seeded on an even grid of panels at most 2*pi wide.
    even is a promise, not a detector: pass True only when f(-x) == f(x)
    bit for bit.  On an interval [-b, b] each panel's mirror then reuses
    its result instead of sampling f again; the QuadResult is the same to
    the bit, panels_used included, as with even=False.
    Raises QuadratureError, carrying the best value and estimate, if the
    panel budget runs out or tol lies below the rounding floor of the
    estimate; with panels_used 0 when the seed grid alone would pass the
    budget.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not osc_freq >= 0:
        raise ValueError(f"osc_freq must be >= 0, got {osc_freq}")

    width = b - a
    if osc_freq == 0:
        seed_width = min(width, 2.0 * math.pi)
        if width / seed_width > DEFAULT_PANEL_BUDGET:
            raise QuadratureError(math.nan, math.inf, 0)
        n_seed = math.ceil(width / seed_width)
        edges = [a + width * (i / n_seed) for i in range(n_seed)] + [b]
    else:
        # width * w / 2pi periods need at least that many panels; checked
        # first so that an infinite or huge count never reaches the lattice.
        if not width * osc_freq / (2.0 * math.pi) <= DEFAULT_PANEL_BUDGET:
            raise QuadratureError(math.nan, math.inf, 0)
        period = 2.0 * math.pi / osc_freq
        ks = _lattice(a, b, period)
        if len(ks) + 1 > DEFAULT_PANEL_BUDGET:
            raise QuadratureError(math.nan, math.inf, 0)
        edges = [a] + [k * period for k in ks] + [b]
    panels, total_err, panels_used = _refine(f, edges, tol, even)
    value = math.fsum(panel[2] for panel in panels)
    return QuadResult(value=value, error_estimate=total_err, panels_used=panels_used)


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
    panels refine against one budget of tol/2 (an even split over the
    half-periods would put the share of [0, pi/2] below its own rounding
    floor at large n_max).  Row N is twice the exact
    sum of the panels left of (N+1/2)pi, its estimate twice their summed
    estimates (at most tol), and its panels_used the number of panels
    evaluated inside [0, (N+1/2)pi].  Returns one QuadResult per N.
    """
    _validate_order(n_max)
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if n_max + 1 > DEFAULT_PANEL_BUDGET:
        raise QuadratureError(math.nan, math.inf, 0)
    top = (n_max + 0.5) * math.pi
    edges = [0.0] + [(N + 0.5) * math.pi for N in _lattice(0.0, top, math.pi, 0.5)] + [top]
    try:
        panels, _, _ = _refine(_sinc, edges, 0.5 * tol)
    except QuadratureError as exc:
        raise QuadratureError(
            2.0 * exc.value, 2.0 * exc.error_estimate, exc.panels_used
        ) from None
    rows = []
    total = 0
    error = 0.0
    for accepted, (_, right, value, err) in enumerate(panels, start=1):
        total += _fixed(value)
        error += err
        if right == edges[len(rows) + 1]:
            # Bisection trees over the N+1 seed panels with `accepted`
            # leaves hold 2*accepted - (N+1) evaluated panels.
            rows.append(QuadResult(
                value=2.0 * (total / (1 << 1074)),
                error_estimate=2.0 * error,
                panels_used=2 * accepted - (len(rows) + 1),
            ))
    return rows


def sinc_truncated(N: int, tol: float) -> QuadResult:
    """Integral of sin(x)/x over [-(N+1/2)pi, (N+1/2)pi]: row N of sinc_table."""
    return sinc_table(N, tol)[N]
