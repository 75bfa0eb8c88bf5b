"""Exact zeta values at even integers via an antiderivative ladder.

The complex-exponential comb ``sum_n exp(i*n*x)`` vanishes on the open
interval I = (0, 2*pi), so each of its repeated antiderivatives is a
polynomial there.  Writing the k-th antiderivative as

    osc_k(x) + x**k / k!

where ``osc_k`` collects the termwise-antidifferentiated oscillatory modes
(amplitude ``2/n**k``), the polynomial closed form ``Q_k`` on I is pinned
down order by order: antidifferentiate ``Q_k`` and fix the new integration
constant so that the average of ``Q_{k+1}`` over (0, 2*pi) equals the
average of ``x**(k+1)/(k+1)!``, legitimate because every oscillatory mode
has exact zero mean over a full period.  The ladder starts from ``Q_1 = pi``
(the odd sawtooth ``2*sum sin(n*x)/n + x`` is constant pi on I).

Every rung is homogeneous: Q_k(x) = pi**k * q_k(x/pi) with q_k rational, so
the ladder steps the coefficients of q_k(t) and matches means over (0, 2).

At even order 2k the oscillatory part is ``(-1)**k * 2 * sum cos(n*x)/n**2k``,
continuous for 2k >= 2, so letting x -> 0 gives

    zeta(2k) = (-1)**k * (Q_2k(0) - P_2k(0)) / 2,       P_k(x) = x**k / k!

exactly, as a single positive rational multiple of pi**2k.  The classical
Bernoulli-number formula is provided as an independent cross-check oracle.

States are immutable; the ladder and Bernoulli caches are guarded by locks,
so the module is safe for concurrent use and always deterministic.
"""

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import PiNumber

__all__ = [
    "LadderState",
    "ZetaValue",
    "ladder_init",
    "ladder_step",
    "ladder_states",
    "zeta_even",
    "bernoulli_number",
    "bernoulli_oracle",
]

_ZERO = PiNumber.zero()


def _pi_multiple(x: PiNumber) -> Fraction:
    """The rational t with x = t * pi; x must be zero or a multiple of pi."""
    t = x.coefficient(1)
    if not t and x != _ZERO:
        raise ValueError(f"expected zero or a rational multiple of pi, got {x}")
    return t


@dataclass(frozen=True)
class LadderState:
    """Closed form of the order-k antiderivative on (0, 2*pi).

    ``coeffs`` are the rational coefficients of q_k(t), lowest power first,
    where Q_k(x) = pi**k * q_k(x/pi) equals the antiderivative on the
    interval.  ``q`` and ``p`` evaluate Q_k and the pure power part
    P_k(x) = x**k / k!, whose mean fixes the constant of q_k.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def q(self, x: PiNumber) -> PiNumber:
        """Q_k(x) exactly, for x zero or a rational multiple of pi."""
        t = _pi_multiple(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return PiNumber.pi_power(self.order, acc)

    def p(self, x: PiNumber) -> PiNumber:
        """P_k(x) = x**k / k! exactly, for x zero or a rational multiple of pi."""
        t = _pi_multiple(x)
        return PiNumber.pi_power(self.order, t**self.order / math.factorial(self.order))

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                power = "" if i == 0 else "·x" if i == 1 else f"·x^{i}"
                parts.append(f"({PiNumber.pi_power(self.order - i, c)}){power}")
        return " + ".join(parts) or "0"


@dataclass(frozen=True)
class ZetaValue:
    """zeta(two_k) as an exact positive rational multiple of pi**two_k."""

    two_k: int
    value: PiNumber

    def __post_init__(self):
        if self.value.coefficient(self.two_k) <= 0:
            raise ValueError(
                f"zeta({self.two_k}) must be a positive multiple of "
                f"pi^{self.two_k}, got {self.value!r}"
            )

    @property
    def coefficient(self) -> Fraction:
        """The rational r in zeta(two_k) = r * pi**two_k."""
        return self.value.coefficient(self.two_k)

    def to_float(self) -> float:
        return self.value.to_float()

    def __str__(self):
        return str(self.value)


def ladder_init() -> LadderState:
    """Order-1 state: Q_1 is the constant pi, so q_1(t) = 1."""
    return LadderState(order=1, coeffs=(Fraction(1),))


def ladder_step(state: LadderState) -> LadderState:
    """Advance one order: antidifferentiate, then fix the constant by means.

    The mean of t**i over (0, 2) is 2**i / (i+1), so mean(P_n) over (0, 2*pi)
    is pi**n * 2**n / ((n+1) * n!).  The new constant is the unique rational
    giving q_n that mean: antidifferentiation adds exactly one free constant.
    """
    n = state.order + 1
    integral = [c / i for i, c in enumerate(state.coeffs, 1)]  # t**1 .. t**(n-1)
    integral_mean = sum(c * 2**i / (i + 1) for i, c in enumerate(integral, 1))
    target = Fraction(2**n, (n + 1) * math.factorial(n))
    return LadderState(order=n, coeffs=(target - integral_mean, *integral))


_cache: list[LadderState] = []
_cache_lock = threading.Lock()


def ladder_states(order: int) -> tuple[LadderState, ...]:
    """States of orders 1..order, computed incrementally and cached."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    with _cache_lock:
        if not _cache:
            _cache.append(ladder_init())
        while len(_cache) < order:
            _cache.append(ladder_step(_cache[-1]))
        return tuple(_cache[:order])


def _reset_cache() -> None:
    with _cache_lock:
        _cache.clear()
    with _bernoulli_lock:
        del _bernoulli[1:]


def _require_even(two_k: int) -> None:
    if not isinstance(two_k, int) or two_k < 2 or two_k % 2:
        raise ValueError(f"argument must be an even integer >= 2, got {two_k!r}")


def zeta_even(two_k: int) -> ZetaValue:
    """Exact zeta(two_k) from the ladder: (-1)**k * (Q_2k(0) - P_2k(0)) / 2."""
    _require_even(two_k)
    state = ladder_states(two_k)[-1]
    endpoint = state.q(_ZERO) - state.p(_ZERO)
    coeff = endpoint.coefficient(two_k) * Fraction((-1) ** (two_k // 2), 2)
    return ZetaValue(two_k, PiNumber.pi_power(two_k, coeff))


_bernoulli: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli_number(m: int) -> Fraction:
    """B_m from the recurrence sum_{j<=m} C(m+1, j) * B_j = 0, B_0 = 1.

    This convention has B_1 = -1/2.  The table of B_0..B_m is kept and
    extended on demand.
    """
    if m < 0:
        raise ValueError(f"index must be >= 0, got {m}")
    with _bernoulli_lock:
        for n in range(len(_bernoulli), m + 1):
            acc = sum(Fraction(math.comb(n + 1, j)) * _bernoulli[j] for j in range(n))
            _bernoulli.append(-acc / (n + 1))
        return _bernoulli[m]


def bernoulli_oracle(two_k: int) -> ZetaValue:
    """zeta(two_k) by the classical closed form, independent of the ladder.

    zeta(2k) = (-1)**(k+1) * B_2k * (2*pi)**2k / (2 * (2k)!).
    """
    _require_even(two_k)
    k = two_k // 2
    coeff = (
        Fraction((-1) ** (k + 1))
        * bernoulli_number(two_k)
        * Fraction(2) ** two_k
        / (2 * math.factorial(two_k))
    )
    return ZetaValue(two_k, PiNumber.pi_power(two_k, coeff))
