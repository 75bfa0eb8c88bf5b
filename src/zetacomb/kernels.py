"""The truncated kernel delta_N on (-pi, pi): sum form, compact form,
sampling, and normalization; and the trig-series engine that the sum form
shares with the Fourier partial sums.

delta_N is the symmetric exponential sum cut off at order N and windowed
to |x| < pi, so it evaluates as 1 + 2*sum_{n=1}^{N} cos(n*x) inside the
window and 0 at and beyond |x| = pi.  Summing the geometric series gives
the equivalent compact form sin((N+1/2)*x) / sin(x/2); the two are
computed by entirely separate code paths so that agreement between them
is evidence, not tautology.

The sum form is the accuracy reference: cosine-only evaluation on |x|
makes it even to the last bit, and its series is rounded once, so the
peak value 2N+1 is exact for every N.  The compact form is the O(1)
workhorse on the whole window, within 2*eps*(2N+1) of the true value; it
returns 2N+1 where (N+1/2)*|x| is below 2^-27, which is the correctly
rounded value there, so x = 0 never divides.

Integrated term by term, the comb's partial sum 1 + 2*sum cos(n*x) gives
the series x + 2*sum sin(n*x)/n and x**2/2 - 2*sum cos(n*x)/n**2 that
actions compares with closed forms.  _trig_series returns all three whole
partial sums, orders 0, 1 and 2, by one rule: each series is the
correctly rounded sum of its N terms, added to 1, |x| or x**2/2 by one
more math.fsum.  Up to _SCALAR_TERMS terms, N times the rows, the series
is math.fsum of terms from math.sin and math.cos, and numpy stays
unloaded; past it, error-free extraction (Rump, Ogita & Oishi, 2008)
over numpy blocks on up to two threads, with the same bits.  Before
numpy loads, the engine refuses every input it cannot sum.
dirichlet_sum is one row of it at order 0, and actions' Fourier partial
sums are its orders 1 and 2.  A sample table evaluates both forms once
per distinct |x| inside the window, so a symmetric grid pays for half
its points.

Every integral of delta_N against a weight f goes through one route,
_kernel_integral (f = 1 over the window for the normalization, f = phi
over the clipped support for the action in actions): G7/K15 within 8
periods of 0 and quad's Filon-Clenshaw-Curtis rule on geometric panels
beyond, so its work grows like log N, for every N < 2**52.  quad is
imported there, on first use, so a sample table never loads it.
"""

import math
import os
import threading
from collections import namedtuple

from . import _Record, _validate_order, _validate_tol

__all__ = [
    "EPS_SING",
    "SAMPLES_CAP",
    "SERIES_WORK_CAP",
    "SampleTable",
    "dirichlet_sum",
    "dirichlet_compact",
    "kernel_samples",
    "kernel_normalization",
]

# The band around x = 0 that acceptance criterion 6 leaves out when it
# compares the two forms; no library code branches on it.
EPS_SING = 1e-6

# Most terms one call of _trig_series may sum, N times the rows: about
# 1 s spawned on 2 vCPUs for a kernel table or a Fourier grid at the cap.
# It bounds N too, so every n*n is exact.
SERIES_WORK_CAP = 1 << 26

# Most samples one table may hold: each is a row of Python floats.  A
# kernel table at the cap with SERIES_WORK_CAP terms takes about 2.1 s and
# 110 MB spawned as text on 2 vCPUs (medians of 5, N = 1342 on [-pi, pi]
# and N = 671 on [0, 3]): about 1.4 s to build, 0.7 s to render.
SAMPLES_CAP = 100_000

# Most terms, N times the rows, that _trig_series sums with math.fsum,
# whatever the process has imported; above it the numpy blocks win even
# after paying for importing numpy (measured crossover 4.5e5 to 6e5 terms
# over the three orders, spawned, on 2 vCPUs).
_SCALAR_TERMS = 5 * 10**5

# The most elements one block of _trig_series may hold.  It does not set
# their bits; it keeps a block's arrays (512 KiB each) inside a core's L2
# cache, which the extraction sweeps 10 to 20 times per block.
_BLOCK = 1 << 16


class SampleTable(_Record, namedtuple("SampleTable", "column_names rows")):
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


def _exact_row_sums(terms, q) -> list:
    """Exact partials of each row of a 2-D float array: math.fsum of a row's
    partials is the correctly rounded row sum, the float math.fsum gives.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, Part I", SIAM J. Sci. Comput. 31(1), 2008): with one
    sigma = 2**k >= 2**M * max|t| over the whole block and 2**M >= the row
    length, every q = (sigma + t) - sigma is a multiple of ulp(sigma)/2 no
    larger than sigma / 2**M, so the q of each row add up exactly in any
    order, and t - q is exact.  Each pass moves the top bits of every term
    into one exact partial per row, until the residue is all zero; a row
    far below the block's peak gets zero partials until the peak comes
    down to it.  No bit depends on sigma being the block's and not each
    row's, only the passes a block of mixed rows takes, and a scalar sigma
    spares numpy a broadcast.  The partials of several arrays that split
    one row add up exactly too, so math.fsum over all of them is the row's
    correctly rounded sum.  terms is overwritten, and q, an array of the
    same shape, is scratch.  Every term must be finite with |t| <= 2, as
    series terms are; unchecked here, a nan or inf term would never leave
    the loop, so _trig_series refuses such an r first.
    """
    import numpy as np

    lanes = 1 << max(1, (terms.shape[1] - 1).bit_length())  # a power of two >= cols, 2
    partials = [[] for _ in range(terms.shape[0])]
    peak = float(np.abs(terms, out=q).max())
    while peak:
        sigma = math.ldexp(float(lanes), math.frexp(peak)[1])
        np.add(terms, sigma, out=q)
        q -= sigma
        terms -= q
        for row, part in zip(partials, q.sum(axis=1).tolist()):
            row.append(part)
        peak = float(np.abs(terms, out=q).max())
    return partials


def _worker_count() -> int:
    """Threads for _trig_series: the CPUs this process may run on, at most 2."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _map_on_workers(func, jobs: list, workers: int) -> list:
    """[func(job, worker) for job in jobs], shared out over `workers` threads.

    The caller's thread is one of them and workers - 1 threading.Threads
    are the rest.  Each thread takes the next job until none is left.
    Once a job has failed, no thread takes another, and the first failure
    is raised here after every thread has finished the job in hand, so no
    thread outlives the call.  worker numbers the thread that runs the
    job, 0 being the caller's, so that func can keep per-thread state.
    The threads run under numpy's default errstate, not the caller's.
    """
    results = [None] * len(jobs)
    pending = iter(range(len(jobs)))
    lock = threading.Lock()
    failures = []

    def work(worker):
        try:
            while True:
                with lock:
                    k = None if failures else next(pending, None)
                if k is None:
                    return
                results[k] = func(jobs[k], worker)
        except BaseException as exc:  # raised again in the caller's thread
            with lock:
                failures.append(exc)

    threads = [
        threading.Thread(target=work, args=(worker,))
        for worker in range(1, min(workers, len(jobs)))
    ]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results


def _series_row(order: int, N: int, r: float) -> float:
    """One series of _trig_series, math.fsum of terms from math.sin and math.cos."""
    ns = range(1, N + 1)
    if order == 0:
        return math.fsum(math.cos(n * r) for n in ns)
    if order == 1:
        return math.fsum(math.sin(n * r) / (n / 2) for n in ns)
    return math.fsum(math.cos(n * r) / (n * n) for n in ns)


def _whole_sums(order: int, xs, rs: list, series: list) -> list:
    """The whole partial sums of _trig_series from the series s at each x, r = |x|."""
    if order == 0:
        return [math.fsum((1.0, 2.0 * s)) for s in series]
    if order == 2:
        return [math.fsum((0.5 * r * r, -2.0 * s)) for r, s in zip(rs, series)]
    # Odd: the sum on |x| times the sign of x, which is exact, and 0.0 at x = +-0.
    return [math.fsum((r, s)) * math.copysign(1.0, x) if x else 0.0 for x, r, s in zip(xs, rs, series)]


def _trig_series(order: int, N: int, xs) -> list:
    """The order's whole partial sum at each x of xs, as floats.

    Let s be the sum over n = 1 .. N of cos(n*r), sin(n*r)/(n/2) or
    cos(n*r)/n**2 at r = |x|, correctly rounded as math.fsum of its N terms
    is.  Order 0, 1 or 2 returns math.fsum((1.0, 2.0*s)), the sign of x
    times math.fsum((r, s)) (0.0 at x = +-0), or math.fsum((x**2/2, -2.0*s)).
    First it raises ValueError past SERIES_WORK_CAP terms, at a NaN x (as
    not a number), at order 2 at an x**2/2 past the float range, or at an
    n*r past it, so every term is finite and every n*n exact.  While
    N * len(xs) is at most _SCALAR_TERMS each s is _series_row, whatever
    the process has imported, and numpy stays unloaded.  Past it the terms
    are cut into the fewest blocks of at most _BLOCK elements, each a few
    rows by one range of n, every row split into the same column ranges,
    run on up to _worker_count() threads (_map_on_workers) and reduced to
    exact partials per row, whose math.fsum is the row's s.  Each worker
    fills its blocks from three buffers of its own, terms, the
    extraction's scratch and the orders n of one block, and n comes from
    one shared, read-only index 0, 1, 2, ..., all made once per call.
    """
    if N * len(xs) > SERIES_WORK_CAP:
        raise ValueError(
            f"order {N} at {len(xs)} rows is past the work cap: N * rows must be <= {SERIES_WORK_CAP}"
        )
    rs = [abs(float(x)) for x in xs]
    for r in rs:  # each r, as max(rs) would skip a nan
        if math.isnan(r):
            raise ValueError(f"|x| = {r} is not a number")
        if order == 2 and 0.5 * r * r == math.inf:
            raise ValueError(f"x**2/2 at |x| = {r} is past the float range")
        if not math.isfinite(N * r):
            raise ValueError(f"n * |x| for n up to {N} at |x| = {r} is past the float range")
    if N * len(rs) <= _SCALAR_TERMS:
        return _whole_sums(order, xs, rs, [_series_row(order, N, r) for r in rs])
    import numpy as np

    # Rows cut into p column ranges of cols elements, height rows to a
    # block.  p runs from the least that fits a range in a block to twice
    # that: a range just over half a block would fill only half of one,
    # and blocks cost interpreter work each, which the two workers share.
    least = -(-N // _BLOCK)
    cols, height = min(
        ((-(-N // p), _BLOCK // -(-N // p)) for p in range(least, 2 * least + 1)),
        key=lambda shape: -(-len(rs) // shape[1]) * -(-N // shape[0]),
    )
    size = min(height, len(rs)) * cols  # of the largest block
    buffers = [(np.empty(size), np.empty(size), np.empty(cols)) for _ in range(_worker_count())]
    index = np.arange(cols, dtype=np.float64)
    wave = np.sin if order == 1 else np.cos
    jobs = [(i, c) for i in range(0, len(rs), height) for c in range(0, N, cols)]

    def block_partials(job, worker):
        i, c = job
        rows = rs[i:i + height]
        k = min(cols, N - c)
        *blocks, n = buffers[worker]
        terms, scratch = (b[:len(rows) * k].reshape(len(rows), k) for b in blocks)
        n = n[:k]
        # Integers below 2**53 add exactly, and for n <= 2**26 so do n/2
        # and n*n: the divisors are the floats of the exact values.
        np.add(index[:k], float(1 + c), out=n)
        np.multiply.outer(rows, n, out=terms)
        wave(terms, out=terms)
        if order:
            # 2*sin(t)/n is sin(t)/(n/2) to the bit: both round the same quotient.
            n *= 0.5 if order == 1 else n
            terms /= n
        return _exact_row_sums(terms, scratch)

    parts = [[] for _ in rs]
    for (i, _), block_rows in zip(jobs, _map_on_workers(block_partials, jobs, len(buffers))):
        for row, partials in zip(parts[i:i + height], block_rows):
            row.extend(partials)
    return _whole_sums(order, xs, rs, [math.fsum(row) for row in parts])


def dirichlet_sum(N: int, x: float) -> float:
    """1 + 2*sum_{n=1}^{N} cos(n*x) for |x| < pi, else 0 (window boundary).

    One row of _trig_series at order 0, its series rounded once, on either
    route, and even bit-for-bit, as the engine sums on |x|.  Inside the
    window N may not pass SERIES_WORK_CAP; a NaN x is refused as not a number.
    """
    _validate_order(N)
    if abs(x) >= math.pi:
        return 0.0
    return _trig_series(0, N, [x])[0]


def dirichlet_compact(N: int, x: float) -> float:
    """sin((N+1/2)*x) / sin(x/2), valid on |x| < pi; O(1) in N.

    The singularity at x=0 is removable: where (N+1/2)*|x| < 2^-27 the
    value is 2N+1.  Shares no code with dirichlet_sum.  N < 2**52 (_frequency).
    """
    _frequency(N)
    if not abs(x) < math.pi:
        raise ValueError(f"compact form is defined on |x| < pi, got x={x}")
    return _windowed_compact(N, x)


def _frequency(N: int) -> float:
    """w = N + 1/2, exact for every order N < 2**52; else ValueError, as past
    it w is a neighbouring order's, a swap the limit 2*pi*phi(0) cannot show."""
    _validate_order(N)
    if N >= 1 << 52:
        raise ValueError(f"N must be < 2**52, where N + 1/2 is a float; got an N of {N.bit_length()} bits")
    return N + 0.5


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


def _uniform_grid(xmin: float, xmax: float, count: int) -> list:
    """The count points xmin + i*step, i < count - 1, and then xmax itself;
    the grid of kernel_samples and of the cli's fourier table.  ValueError
    unless xmin < xmax (so at a NaN end) and xmax - xmin is finite."""
    if not xmin < xmax:
        raise ValueError(f"need xmin < xmax, got [{xmin}, {xmax}]")
    if not math.isfinite(xmax - xmin):
        raise ValueError(f"the span of [{xmin}, {xmax}] is past the float range")
    step = (xmax - xmin) / (count - 1)
    return [xmin + i * step for i in range(count - 1)] + [xmax]


def kernel_samples(N: int, count: int, xmin: float = -math.pi, xmax: float = math.pi) -> SampleTable:
    """Uniform grid table with columns x, sum-form value, compact-form value.

    The range must sit inside [-pi, pi].  At |x| >= pi both columns carry
    the windowed value 0.  A symmetric range (xmax == -xmin) produces a
    grid that is antisymmetric to the last bit, so table symmetry can be
    asserted exactly rather than approximately.  Both forms are evaluated
    once per distinct |x| inside the window, the sum form as _trig_series
    of order 0 over them all, the value dirichlet_sum gives at each, so N
    times the number of those |x| may not pass SERIES_WORK_CAP.  count may
    not pass SAMPLES_CAP, and must be an int (not a bool).
    """
    _validate_order(N)
    if isinstance(count, bool) or not isinstance(count, int) or count < 2:
        raise ValueError(f"need an integer number of sample points, at least 2, got {count!r}")
    if count > SAMPLES_CAP:
        raise ValueError(f"need at most SAMPLES_CAP = {SAMPLES_CAP} sample points, got {count}")
    xs = _uniform_grid(xmin, xmax, count)
    if xmin < -math.pi or xmax > math.pi:
        raise ValueError(f"range [{xmin}, {xmax}] must lie inside [-pi, pi]")

    if xmax == -xmin:
        xs = [0.5 * (a - b) for a, b in zip(xs, reversed(xs))]

    rs = list(dict.fromkeys(r for r in map(abs, xs) if r < math.pi))
    by_r = {r: (value, _windowed_compact(N, r)) for r, value in zip(rs, _trig_series(0, N, rs))}
    rows = tuple((x, by_r.get(abs(x), (0.0, 0.0))) for x in xs)
    return SampleTable(column_names=("x", "sum_form", "compact_form"), rows=rows)


def _kernel_integral(N: int, f, lo: float, hi: float, tol: float):
    """Integral of delta_N * f over [lo, hi] inside [-pi, pi]: the one kernel-integral route.

    The integrand is sin(w*x)*g(x) with w = N + 1/2 (_frequency: N < 2**52,
    else ValueError before any panel runs) and g(x) = f(x)/sin(x/2).  The
    seed edges are lo, hi, the period lattice k*2*pi/w for |k| <= 8, one
    period per panel where g is singular, and outward from cut = 8 periods,
    the first at which w*cut/2 >= quad._FCC_MIN_ALPHA, the geometric
    +-2*cut, +-4*cut, ...: O(log N) panels, 113 seed edges on [-pi, pi] at
    N = 2**51.  A panel of half-width h with w*h >= quad._FCC_MIN_ALPHA
    takes the FCC rule on g; any other takes G7/K15 on the O(1) compact
    form times f, under one heap, budget and floor rule: quad's _refine,
    which makes the result, or raises QuadratureError naming its cause.
    A window inside the cut, every N <= 15 on [-pi, pi], is all G7/K15 and
    gives integrate_adaptive's bits.
    """
    from . import quad

    w = _frequency(N)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    _validate_tol(tol)
    period = 2.0 * math.pi / w
    cuts = math.ceil(quad._FCC_MIN_ALPHA / math.pi)  # lattice points to the cut
    cut = cuts * period
    outward = []
    x = 2.0 * cut
    while x < max(-lo, hi):
        outward.append(x)
        x *= 2.0
    edges = [
        lo,
        *(-x for x in reversed(outward) if lo < -x < hi),
        *(k * period for k in range(-cuts, cuts + 1) if lo < k * period < hi),
        *(x for x in outward if lo < x < hi),
        hi,
    ]

    def product(x):
        return _windowed_compact(N, x) * f(x)

    def g(x):
        return f(x) / math.sin(0.5 * x)

    def panel(a, b):
        if w * (0.5 * (b - a)) >= quad._FCC_MIN_ALPHA:
            return quad._fcc_panel(g, w, a, b)
        return quad._kronrod_panel(product, a, b)

    return quad._refine(panel, edges, tol)[0]


def kernel_normalization(N: int, tol: float) -> float:
    """Integral of delta_N over [-pi, pi]; equals 2*pi for every N.

    Every Fourier mode but n=0 has zero mean over the full window, so the
    constant term alone survives.  The kernel integral with the weight 1
    (v * 1.0 == v, so this is the plain kernel's integral to the bit), for
    N < 2**52 (_frequency).  Quadrature failure propagates.
    """
    return _kernel_integral(N, lambda x: 1.0, -math.pi, math.pi, tol).value
