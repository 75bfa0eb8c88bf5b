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
actions compares with closed forms.  _trig_series sums all three, orders
0, 1 and 2, by one rule: each series is the correctly rounded sum of its
N terms.  Up to _SCALAR_TERMS terms that is math.fsum of terms from
math.sin and math.cos, and numpy stays unloaded; past it, error-free
extraction (Rump, Ogita & Oishi, 2008) over numpy blocks on up to two
threads.  numpy's sin and cos equal libm's on every argument tested, so
both routes give the same bits.  A sample table sums the kernel's series
once per distinct |x| inside the window, so a symmetric grid pays for
half its points.

Every integral of delta_N against a weight f goes through one route,
_kernel_integral: the normalization takes f = 1 over the window, and the
kernel action in actions takes f = phi over the clipped support.  The
compact form reads only |x|, so it is even to the bit; with a weight its
caller declares even (f = 1, or an evaluator testfn marks even) on a
symmetric interval, the quadrature evaluates one panel of each mirror
pair and returns the bits it would return without the declaration.
"""

import math
import os
import threading
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

# Most terms one sample table may take (1.0 s spawned at N = 65536 with
# 2048 samples and at N = 524288 with 256, 1.8 s at N = 65536 with 2048
# distinct |x|, on 2 vCPUs): the order N times the sample count, where
# N = 0 is charged as 1, because the table itself costs work per sample.
KERNEL_WORK_CAP = 1 << 27

# Most samples one table may hold: each is a row of Python floats, and a
# kernel table at the cap takes about 1.9 s and 110 MB (spawned at N = 1342,
# on 2 vCPUs).
SAMPLES_CAP = 100_000

# Most terms, N times the rows, that _trig_series sums with math.fsum;
# above it the numpy blocks win even after paying for importing numpy
# (measured crossover 4.5e5 to 6e5 terms over the three orders, spawned,
# on 2 vCPUs).
_SCALAR_TERMS = 5 * 10**5

# The most elements one block of _trig_series may hold.  It does not set
# their bits; it keeps a block's arrays (512 KiB each) inside a core's L2
# cache, which the extraction sweeps 10 to 20 times per block.
_BLOCK = 1 << 16


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


def _exact_row_sums(terms, q) -> list:
    """Exact partials of each row of a 2-D float array: math.fsum of a row's
    partials is the correctly rounded row sum, the float math.fsum gives.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, Part I", SIAM J. Sci. Comput. 31(1), 2008): with
    sigma = 2**k >= 2**M * max|row| and 2**M >= the row length, every
    q = (sigma + t) - sigma is a multiple of ulp(sigma)/2 no larger than
    sigma / 2**M, so the q of a row add up exactly in any order, and
    t - q is exact.  Each pass moves the top bits of every term into one
    exact partial, until the residue is all zero.  The partials of several
    arrays that split one row add up exactly too, so math.fsum over all of
    them is the row's correctly rounded sum.  terms is overwritten, and q,
    an array of the same shape, is scratch.  Every term must be finite with
    |t| <= 2, as series terms are; unchecked here, a nan or inf term would
    never leave the loop, so the callers of _trig_series refuse such an x
    first.
    """
    import numpy as np

    lanes = 1 << max(1, (terms.shape[1] - 1).bit_length())  # a power of two >= cols, 2
    peak = np.abs(terms, out=q).max(axis=1)
    partials = [[] for _ in peak]
    while peak.any():
        sigma = np.ldexp(float(lanes), np.frexp(peak)[1])[:, None]
        np.add(terms, sigma, out=q)
        q -= sigma
        terms -= q
        for row, part in zip(partials, q.sum(axis=1).tolist()):
            row.append(part)
        peak = np.abs(terms, out=q).max(axis=1)
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
    """One sum of _trig_series, math.fsum of terms from math.sin and math.cos."""
    r = float(r)
    ns = range(1, N + 1)
    if order == 0:
        # Doubling is exact, so the doubled sum is the sum of the doubled terms.
        return 2.0 * math.fsum(math.cos(n * r) for n in ns)
    if order == 1:
        return math.fsum(math.sin(n * r) / (n / 2) for n in ns)
    return math.fsum(math.cos(n * r) / (n * n) for n in ns)


def _trig_series(order: int, N: int, rs) -> list:
    """sum_{n=1}^{N} of the order's terms at each r >= 0 of rs, as floats.

    The terms are 2*cos(n*r) at order 0, sin(n*r)/(n/2) at order 1 and
    cos(n*r)/n**2 at order 2, and each sum is correctly rounded, the float
    math.fsum of its N terms gives.  While N * len(rs) is at most
    _SCALAR_TERMS each sum is _series_row, and numpy stays unloaded.  Past
    it the terms are cut into the fewest blocks of at most _BLOCK
    elements, each a few rows by one range of n: every row is split into
    the same column ranges.  The blocks run on up to _worker_count()
    threads (_map_on_workers), each reduced to exact partials per row, and
    math.fsum of all the partials a row gets is its sum.  Each worker
    fills its blocks from three buffers of its own, terms, the
    extraction's scratch and the orders n of one block, and n comes from
    one shared, read-only index 0, 1, 2, ..., all made once per call, so
    no block allocates a large array.  Every n*r must be finite, and
    N <= 2**26 keeps n*n exact: the callers' checks and caps see to both.
    """
    if N * len(rs) <= _SCALAR_TERMS:
        return [_series_row(order, N, r) for r in rs]
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
    scale = 2.0 if order == 0 else 1.0  # as in _series_row
    return [scale * math.fsum(row) for row in parts]


def dirichlet_sum(N: int, x: float) -> float:
    """1 + 2*sum_{n=1}^{N} cos(n*x) for |x| < pi, else 0 (window boundary).

    Its series rounded once by math.fsum, so numpy stays unloaded;
    evaluated on |x| so the result is even bit-for-bit.
    """
    _validate_order(N)
    r = abs(x)
    if r >= math.pi:
        return 0.0
    return math.fsum((1.0, _series_row(0, N, r)))


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
    asserted exactly rather than approximately.  The sum form is
    _trig_series of order 0 over the distinct |x| inside the window, the
    value dirichlet_sum gives at each.  count may not pass SAMPLES_CAP,
    nor max(N, 1) * count KERNEL_WORK_CAP.
    """
    _validate_order(N)
    if count < 2:
        raise ValueError(f"need at least 2 sample points, got {count}")
    if max(N, 1) * count > KERNEL_WORK_CAP:
        raise ValueError(
            f"order {N} at {count} samples is past the work cap: "
            f"max(N, 1) * samples must be <= {KERNEL_WORK_CAP}"
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
    by_r = {r: math.fsum((1.0, series)) for r, series in zip(rs, _trig_series(0, N, rs))}
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
