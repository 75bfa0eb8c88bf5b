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

The partial sums run over a whole x grid at once, in chunks of _CHUNK
orders n.  Each chunk is cut into blocks of grid rows by a range of n,
small enough that a block's arrays stay in a core's L2 cache, and each
block row is reduced by error-free extraction (Rump, Ogita & Oishi,
2008): a few numpy passes split the terms into partials whose sums carry
no rounding.  math.fsum of all the partials a row gets in a chunk is the
correctly rounded chunk sum, the same float math.fsum of the terms would
give, so the bits depend neither on the blocks nor on who computed them.
That lets the blocks run on two threads, the caller's and one more, where
the process may use two CPUs: numpy releases the interpreter lock inside
its array passes.  Each thread fills its block from buffers of its own,
made once per call.  The chunk sums are then added exactly in a fixed
order, so results are deterministic and effectively free of accumulation
error; odd sums are computed on |x| and sign-flipped so antisymmetry
holds bit-for-bit.  numpy is imported only by the partial sums (and the
kernel's sample table), so the other routes and the command line start
without it.
"""

import math
import os
import sys
import threading

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
# The partial sums round once per chunk of _CHUNK orders, so _CHUNK sets
# their bits.  _BLOCK, the most elements one block of a chunk may hold,
# does not: it keeps a block's arrays (512 KiB each) inside a core's L2
# cache, which the extraction sweeps 10 to 20 times per block.
_CHUNK = 1 << 19
_BLOCK = 1 << 16

# Runtime guard for the partial sums; far beyond every stated comparison.
FOURIER_N_CAP = 10_000_000
# Most series terms one grid of partial sums may take (0.9 to 1.2 s on
# two CPUs and 1.2 to 1.9 s on one, spawned, 2 vCPU x86-64): the order N
# times the number of grid points.
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
    an array of the same shape, is scratch.  A row that holds a non-finite
    value, or whose sigma would overflow, gets math.fsum of its terms as
    its one partial, which is exact only for a row that is not split (a
    nan row stays nan either way).
    """
    import numpy as np

    lanes = 1 << max(1, (terms.shape[1] - 1).bit_length())  # a power of two >= cols, 2
    peak = np.abs(terms, out=q).max(axis=1)
    partials = [[] for _ in peak]
    # sigma <= 2 * lanes * peak, so a row at or past 2**1023 / lanes (or nan)
    # goes to fsum.
    for i in np.flatnonzero(~(peak < 2.0**1023 / lanes)).tolist():
        partials[i].append(math.fsum(terms[i].tolist()))
        terms[i] = 0.0
        peak[i] = 0.0
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
    """Threads for the partial sums: the CPUs this process may run on, at most 2."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _map_on_workers(func, jobs: list, workers: int) -> list:
    """[func(job, worker) for job in jobs], shared out over `workers` threads.

    The caller's thread is one of them and workers - 1 threading.Threads
    are the rest, each in a copy of the caller's context, so settings kept
    there (numpy's errstate) hold on every thread.  Each thread takes the
    next job until none is left.  Once a job has failed, no thread takes
    another, and the first failure is raised here after every thread has
    finished the job in hand, so no thread outlives the call.  worker
    numbers the thread that runs the job, 0 being the caller's, so that
    func can keep per-thread state.
    """
    import contextvars  # loaded with numpy; the command line starts without it

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
        threading.Thread(target=contextvars.copy_context().run, args=(work, worker))
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


def _chunk_sums(order: int, rs: list, n0: int, width: int, buffers, index) -> list:
    """math.fsum of each row's series terms over the orders n0 .. n0 + width - 1.

    The chunk is cut into the fewest blocks of at most _BLOCK elements,
    each a few grid rows by one range of n: every row is split into the
    same column ranges.  The blocks run on the workers (_map_on_workers),
    each reduced to exact partials per row, and math.fsum of all the
    partials a row gets is its correctly rounded chunk sum.  That is one
    value whatever the blocks and workers, so the bits depend on neither.
    buffers holds one triple of block buffers per worker (terms, the
    extraction's scratch, and the orders n of one block), reused from
    block to block; index is the shared, read-only 0, 1, 2, ... of a
    block's width, from which each block fills its orders, so no block
    allocates a large array.
    """
    import numpy as np

    # Rows cut into p column ranges of cols elements, height rows to a
    # block.  p runs from the least that fits a range in a block to twice
    # that: a range just over half a block would fill only half of one,
    # and blocks cost interpreter work each, which the two workers share.
    least = -(-width // _BLOCK)
    cols, height = min(
        ((-(-width // p), _BLOCK // -(-width // p)) for p in range(least, 2 * least + 1)),
        key=lambda shape: -(-len(rs) // shape[1]) * -(-width // shape[0]),
    )
    wave = np.sin if order == 1 else np.cos
    jobs = [(i, c) for i in range(0, len(rs), height) for c in range(0, width, cols)]

    def block_partials(job, worker):
        i, c = job
        rows = rs[i:i + height]
        k = min(cols, width - c)
        *blocks, n = buffers[worker]
        terms, scratch = (b[:len(rows) * k].reshape(len(rows), k) for b in blocks)
        n = n[:k]
        # Integers below 2**53 add exactly, and for n <= FOURIER_N_CAP so do
        # n/2 and n*n: the divisors are the floats of the exact values.
        np.add(index[:k], float(n0 + c), out=n)
        np.multiply.outer(rows, n, out=terms)
        wave(terms, out=terms)
        # 2*sin(t)/n is sin(t)/(n/2) to the bit: both round the same quotient.
        n *= 0.5 if order == 1 else n
        terms /= n
        return _exact_row_sums(terms, scratch)

    parts = [[] for _ in rs]
    for (i, _), block_rows in zip(jobs, _map_on_workers(block_partials, jobs, len(buffers))):
        for row, partials in zip(parts[i:i + height], block_rows):
            row.extend(partials)
    return [math.fsum(partials) for partials in parts]


def _fourier_partial_sums(order: int, N: int, xs) -> list:
    """The order-1 or order-2 partial sums at every x of xs, as floats.

    The series terms 2*sin(n*|x|)/n or cos(n*|x|)/n**2 are summed in
    chunks of _CHUNK orders n, each on up to _worker_count() threads
    (_chunk_sums).  The rounded chunk sums are then added exactly in chunk
    order, so every row is the same as summing its own chunks with
    math.fsum.  The working set is three arrays of one block per worker,
    terms, scratch and orders, and one shared index, made once per call.
    N * len(xs) may not pass FOURIER_WORK_CAP.  A row whose n*|x|
    overflows comes out nan, under numpy's errstate; the one-row wrappers
    and the command line refuse such an x first.
    """
    _validate_order(N, least=1, cap=FOURIER_N_CAP)
    if N * len(xs) > FOURIER_WORK_CAP:
        raise ValueError(
            f"order {N} at {len(xs)} points is past the work cap: "
            f"N * points must be <= {FOURIER_WORK_CAP}"
        )
    import numpy as np

    rs = [abs(x) for x in xs]
    width = min(N, _BLOCK)  # of the widest block
    size = min(_BLOCK, len(rs) * width)  # of the largest block
    buffers = [(np.empty(size), np.empty(size), np.empty(width)) for _ in range(_worker_count())]
    index = np.arange(width, dtype=np.float64)
    chunk_sums = [[] for _ in rs]
    for n0 in range(1, N + 1, _CHUNK):
        chunk = _chunk_sums(order, rs, n0, min(N + 1 - n0, _CHUNK), buffers, index)
        for row, value in zip(chunk_sums, chunk):
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
    return _one_row(1, N, x)


def fourier_partial_delta2(N: int, x: float) -> float:
    """x**2/2 - 2*sum_{n=1}^{N} cos(n*x)/n**2, even in x bit-for-bit."""
    return _one_row(2, N, x)


def _one_row(order: int, N: int, x: float) -> float:
    """The partial sum at x, refused where a value leaves the float range:
    a term's argument n*|x|, which numpy would sum into nan, or order 2's
    x**2/2, which would make the sum inf."""
    _validate_order(N, least=1, cap=FOURIER_N_CAP)
    r = abs(x)
    if N * r == math.inf:
        raise ValueError(f"n * |x| for n up to {N} at x = {x} is past the float range")
    if order == 2 and 0.5 * r * r == math.inf:
        raise ValueError(f"x**2/2 at x = {x} is past the float range")
    return _fourier_partial_sums(order, N, [x])[0]


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
