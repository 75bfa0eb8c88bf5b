"""The truncated kernel delta_N on (-pi, pi): sum form, compact form,
sampling, and normalization.

delta_N is the symmetric exponential sum cut off at order N and windowed
to |x| < pi, so it evaluates as 1 + 2*sum_{n=1}^{N} cos(n*x) inside the
window and 0 at and beyond |x| = pi.  Summing the geometric series gives
the equivalent compact form sin((N+1/2)*x) / sin(x/2); the two are
computed by entirely separate code paths so that agreement between them
is evidence, not tautology.

The sum form is the accuracy reference: cosine-only evaluation on |x|
makes it even to the last bit, and Kahan compensation keeps the peak
value 2N+1 exact even for N in the tens of thousands.  The compact form
is the O(1) workhorse on the whole window, within 2*eps*(2N+1) of the
true value; it returns 2N+1 where (N+1/2)*|x| is below 2^-27, which is
the correctly rounded value there, so x = 0 never divides.

A sample table runs the sum form once per distinct |x| inside the
window, so a symmetric grid pays for half its points.  Up to
_SCALAR_LANE_STEPS lane-steps (N times the distinct |x|) that is the
scalar loop of dirichlet_sum, and numpy is never imported; past it, the
same loop runs once on an ndarray with one Kahan lane per |x|.  numpy's
float64 cos equals math.cos on every point tested, so each lane equals
the scalar loop bit for bit; the tests assert this on both routes.  numpy
is imported only there, so the scalar forms, small tables and the command
line start without it.

Every integral of delta_N against a weight f goes through one route,
_kernel_integral: the normalization takes f = 1 over the window, and the
kernel action in actions takes f = phi over the clipped support.  The
compact form reads only |x|, so it is even to the bit; with a weight its
caller declares even (f = 1, or an evaluator testfn marks even) on a
symmetric interval, the quadrature evaluates one panel of each mirror
pair and returns the bits it would return without the declaration.
"""

import math
from collections import namedtuple

from .quad import QuadResult, QuadratureError, _validate_order, integrate_adaptive

__all__ = [
    "EPS_SING",
    "KERNEL_WORK_CAP",
    "SAMPLES_CAP",
    "SampleTable",
    "dirichlet_sum",
    "dirichlet_compact",
    "kernel_samples",
    "kernel_normalization",
]

# The band around x = 0 that acceptance criterion 6 leaves out when it
# compares the two forms; no library code branches on it.
EPS_SING = 1e-6

# Most lane-steps one sample table may take (2.0-2.2 s spawned at N = 65536
# with 2048 samples, on 2 vCPUs): the order N times
# the sample count, where a count below _MIN_LANES is charged as _MIN_LANES,
# because each step of the batched sum costs a few numpy calls however few
# lanes it has, and N = 0 is charged as 1, because the table itself costs
# work per sample.
KERNEL_WORK_CAP = 1 << 27
_MIN_LANES = 256

# Most samples one table may hold: each is a row of Python floats, and a
# kernel table at the cap takes about 2.7 s and 106 MB (spawned at N = 1342,
# on 2 vCPUs).
SAMPLES_CAP = 100_000

# Most lane-steps, N times the distinct |x| inside the window, that a table
# sums with the scalar loop; above it numpy's lanes win even after paying
# for importing numpy (measured crossover near 1.1e6, spawned).
_SCALAR_LANE_STEPS = 10**6


class SampleTable(namedtuple("SampleTable", "column_names rows")):
    """Columns of values over a strictly increasing x grid."""

    __slots__ = ()

    def __new__(
        cls,
        column_names: tuple[str, ...],
        rows: tuple[tuple[float, tuple[float, ...]], ...],
    ):
        width = len(column_names) - 1
        prev = None
        for x, values in rows:
            if len(values) != width:
                raise ValueError(
                    f"row at x={x} has {len(values)} values, expected {width}"
                )
            if prev is not None and not x > prev:
                raise ValueError(f"x grid not strictly increasing at {x}")
            prev = x
        return super().__new__(cls, column_names, rows)


def _kahan_cos_sum(N: int, r, cos):
    """1 + 2*sum_{n=1}^{N} cos(n*r), Kahan-compensated.

    r is a float with cos = math.cos, or an ndarray with cos = numpy.cos,
    which runs the same steps in every lane at once.
    """
    total = 1.0
    comp = 0.0
    for n in range(1, N + 1):
        term = 2.0 * cos(n * r) - comp
        t = total + term
        comp = (t - total) - term
        total = t
    return total


def dirichlet_sum(N: int, x: float) -> float:
    """1 + 2*sum_{n=1}^{N} cos(n*x) for |x| < pi, else 0 (window boundary).

    Kahan-compensated, evaluated on |x| so the result is even bit-for-bit.
    """
    _validate_order(N)
    r = abs(x)
    if r >= math.pi:
        return 0.0
    return _kahan_cos_sum(N, r, math.cos)


def dirichlet_compact(N: int, x: float) -> float:
    """sin((N+1/2)*x) / sin(x/2), valid on |x| < pi; O(1) in N.

    The singularity at x=0 is removable: where (N+1/2)*|x| < 2^-27 the
    value is 2N+1.  Shares no code with dirichlet_sum.
    """
    _validate_order(N)
    if abs(x) >= math.pi:
        raise ValueError(f"compact form is defined on |x| < pi, got x={x}")
    return _windowed_compact(N, x)


def _windowed_compact(N: int, x: float) -> float:
    # The kernel as a plain function on all of R: 0 at and beyond |x|=pi.
    r = abs(x)
    if r >= math.pi:
        return 0.0
    u = (N + 0.5) * r
    if u < 2**-27:
        # The true value falls short of 2N+1 by about u^2/6 relative, under
        # half an ulp, so 2N+1 is its rounding; r = 0 or subnormal never divides.
        return float(2 * N + 1)
    return math.sin(u) / math.sin(0.5 * r)


def kernel_samples(N: int, count: int, xmin: float = -math.pi, xmax: float = math.pi) -> SampleTable:
    """Uniform grid table with columns x, sum-form value, compact-form value.

    The range must sit inside [-pi, pi].  At |x| >= pi both columns carry
    the windowed value 0.  A symmetric range (xmax == -xmin) produces a
    grid that is antisymmetric to the last bit, so table symmetry can be
    asserted exactly rather than approximately.  The sum form runs once
    per distinct |x| inside the window: the scalar loop while N times
    their number is at most _SCALAR_LANE_STEPS, else one numpy Kahan lane
    each.  count may not pass SAMPLES_CAP, nor max(N, 1) * max(count, 256)
    KERNEL_WORK_CAP.
    """
    _validate_order(N)
    if count < 2:
        raise ValueError(f"need at least 2 sample points, got {count}")
    if max(N, 1) * max(count, _MIN_LANES) > KERNEL_WORK_CAP:
        raise ValueError(
            f"order {N} at {count} samples is past the work cap: "
            f"max(N, 1) * max(samples, {_MIN_LANES}) must be <= {KERNEL_WORK_CAP}"
        )
    if count > SAMPLES_CAP:
        raise ValueError(f"need at most SAMPLES_CAP = {SAMPLES_CAP} sample points, got {count}")
    if not xmin < xmax:
        raise ValueError(f"need xmin < xmax, got [{xmin}, {xmax}]")
    if xmin < -math.pi or xmax > math.pi:
        raise ValueError(f"range [{xmin}, {xmax}] must lie inside [-pi, pi]")

    step = (xmax - xmin) / (count - 1)
    xs = [xmin + i * step for i in range(count - 1)] + [xmax]
    if xmax == -xmin:
        xs = [0.5 * (a - b) for a, b in zip(xs, reversed(xs))]

    rs = list(dict.fromkeys(r for r in map(abs, xs) if r < math.pi))
    if N * len(rs) <= _SCALAR_LANE_STEPS:
        sums = [_kahan_cos_sum(N, r, math.cos) for r in rs]
    else:
        import numpy as np

        sums = _kahan_cos_sum(N, np.array(rs), np.cos).tolist()
    by_r = dict(zip(rs, sums))
    rows = tuple((x, (by_r.get(abs(x), 0.0), _windowed_compact(N, x))) for x in xs)
    return SampleTable(column_names=("x", "sum_form", "compact_form"), rows=rows)


def _kernel_integral(N: int, f, lo: float, hi: float, tol: float, even: bool = False) -> QuadResult:
    """Integral of delta_N * f over [lo, hi]: the one kernel-integral route.

    Integrates the O(1) compact form times f with the oscillation hint
    N + 1/2.  even declares f even to the bit, which makes the integrand
    even (see integrate_adaptive).  An order past the float range raises
    QuadratureError with no panels used: its seed grid alone would pass
    any panel budget.
    """
    try:
        osc_freq = N + 0.5
    except OverflowError:
        raise QuadratureError(math.nan, math.inf, 0) from None
    return integrate_adaptive(
        lambda x: _windowed_compact(N, x) * f(x), lo, hi, tol, osc_freq=osc_freq, even=even
    )


def kernel_normalization(N: int, tol: float) -> float:
    """Integral of delta_N over [-pi, pi]; equals 2*pi for every N.

    Every Fourier mode but n=0 has zero mean over the full window, so the
    constant term alone survives.  The kernel integral with the weight 1
    (v * 1.0 == v, so this is the plain kernel's integral to the bit),
    which is even, so each mirror pair of panels is evaluated once.
    Quadrature failure propagates.
    """
    _validate_order(N)
    return _kernel_integral(N, lambda x: 1.0, -math.pi, math.pi, tol, even=True).value
