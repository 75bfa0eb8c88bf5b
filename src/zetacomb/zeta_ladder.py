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
It steps them in integers: coefficient i is h_i / (i! * 2**i * D) over one
common denominator D, which turns antidifferentiation into a shift and
leaves one gcd per rung.

At even order 2k the oscillatory part is ``(-1)**k * 2 * sum cos(n*x)/n**2k``,
continuous for 2k >= 2, so letting x -> 0 gives

    zeta(2k) = (-1)**k * (Q_2k(0) - P_2k(0)) / 2,       P_k(x) = x**k / k!

exactly, as a single positive rational multiple of pi**2k.  The classical
Bernoulli-number formula is provided as an independent cross-check oracle;
its Bernoulli numbers come from tangent numbers, not from the recurrence
sum_j C(m+1, j) * B_j = 0, which is the ladder's mean matching in disguise.

States are immutable; the ladder and Bernoulli caches are guarded by locks,
so the module is safe for concurrent use and always deterministic.  An
order past ORDER_CAP = 400 is refused with a ValueError naming the cap
before any work: a rung of order n holds n integers of O(n log n) bits,
so with no cap zeta_even(2**52) would not return, and ladder_states(800)
takes 20 s or more.
"""

import math
import threading
from collections import namedtuple
from fractions import Fraction

from . import _Record, _validate_order
from .exactalg import PiNumber

__all__ = [
    "ORDER_CAP",
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

# The largest order that ladder_states, zeta_even, bernoulli_number and
# bernoulli_oracle accept.  ladder_states(ORDER_CAP), which builds every
# state up to it as Fractions, is the slowest call the cap accepts: 1.8 to
# 3.2 s in process on 2 vCPUs.  zeta_even and bernoulli_oracle at every
# even order up to it take about 0.1 s together.
ORDER_CAP = 400


def _validate_capped(value: int, name: str, least: int) -> None:
    """_validate_order, then refuse a value past ORDER_CAP, naming both."""
    _validate_order(value, name, least)
    if value > ORDER_CAP:
        raise ValueError(f"{name} must be <= ORDER_CAP = {ORDER_CAP}, got {value}")


def _pi_multiple(x: PiNumber) -> Fraction:
    """The rational t with x = t * pi; x must be zero or a multiple of pi."""
    t = x.coefficient(1)
    if not t and x != _ZERO:
        raise ValueError(f"expected zero or a rational multiple of pi, got {x}")
    return t


class LadderState(namedtuple("LadderState", "order coeffs")):
    """Closed form of the order-k antiderivative on (0, 2*pi).

    ``coeffs`` are the rational coefficients of q_k(t), lowest power first,
    where Q_k(x) = pi**k * q_k(x/pi) equals the antiderivative on the
    interval.  ``q`` and ``p`` evaluate Q_k and the pure power part
    P_k(x) = x**k / k!, whose mean fixes the constant of q_k.
    """

    __slots__ = ()

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


class ZetaValue(_Record, namedtuple("ZetaValue", "two_k value")):
    """zeta(two_k) as an exact positive rational multiple of pi**two_k."""

    __slots__ = ()

    def __new__(cls, two_k: int, value: PiNumber):
        if value.coefficient(two_k) <= 0:
            raise ValueError(
                f"zeta({two_k}) must be a positive multiple of "
                f"pi^{two_k}, got {value!r}"
            )
        return super().__new__(cls, two_k, value)

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


class _Rung:
    """q_n(t) = sum_i h[i] * t**i / (i! * 2**i * D) in integers h[i] and D.

    In this basis antidifferentiation is a shift: the antiderivative of
    t**i / (i! * 2**i) is 2 * t**(i+1) / ((i+1)! * 2**(i+1)).  The mean of a
    basis term over (0, 2) is 1 / (i+1)!, so mean matching is an integer sum
    over the common denominator D.  Coefficient i of q_n is the constant of
    q_(n-i) over i!, so one rung holds every lower order's constant too.
    """

    __slots__ = ("h", "D")

    def __init__(self, h: tuple[int, ...], D: int):
        self.h = h
        self.D = D

    @classmethod
    def from_coeffs(cls, coeffs) -> "_Rung":
        weights = [math.factorial(i) << i for i in range(len(coeffs))]
        D = math.lcm(*(Fraction(c * w).denominator for c, w in zip(coeffs, weights)))
        return cls(tuple((c * w * D).numerator for c, w in zip(coeffs, weights)), D)

    @property
    def order(self) -> int:
        return len(self.h)

    def step(self) -> "_Rung":
        """The next rung: antidifferentiate every term, then match the mean.

        At order m the shifted terms h[i] = 2 * h_old[i-1] have mean
        S / (m! * D) with S = sum_i h[i] * m! / (i+1)!, and mean(t**m / m!)
        is 2**m / (m+1)!, so the new constant is
        h[0] = (2**m * D - (m+1) * S) / (m+1)!.  When that is not an
        integer, every h and D grow by the missing factor.
        """
        m = self.order + 1
        half_s = 0
        for j, c in enumerate(self.h, 2):  # S / 2 by Horner over the old terms
            half_s = half_s * j + c
        num = (self.D << m) - 2 * (m + 1) * half_s
        den = math.factorial(m + 1)
        g = math.gcd(num, den)
        grow = den // g
        return _Rung((num // g, *(c * 2 * grow for c in self.h)), self.D * grow)

    def coeffs(self, n: int) -> tuple[Fraction, ...]:
        """The coefficients of q_n, for 1 <= n <= order."""
        top = self.order
        return tuple(
            Fraction(self.h[top - n + i], (math.factorial(i) << (top - n + i)) * self.D)
            for i in range(n)
        )


def ladder_step(state: LadderState) -> LadderState:
    """Advance one order: antidifferentiate, then fix the constant by means.

    The mean of t**i over (0, 2) is 2**i / (i+1), so mean(P_n) over (0, 2*pi)
    is pi**n * 2**n / ((n+1) * n!).  The new constant is the unique rational
    giving q_n that mean: antidifferentiation adds exactly one free constant.
    """
    n = state.order + 1
    return LadderState(order=n, coeffs=_Rung.from_coeffs(state.coeffs).step().coeffs(n))


_top = _Rung((1,), 1)  # q_1 = 1; replaced, never mutated, under _cache_lock
_cache_lock = threading.Lock()


def _top_rung(order: int) -> _Rung:
    """A rung of at least the given order, stepping the shared one up to it."""
    global _top
    with _cache_lock:
        while _top.order < order:
            _top = _top.step()
        return _top


def ladder_states(order: int) -> tuple[LadderState, ...]:
    """States of orders 1..order, built from the cached integer rung; order an
    int in [1, ORDER_CAP]."""
    _validate_capped(order, "order", 1)
    rung = _top_rung(order)
    return tuple(LadderState(order=n, coeffs=rung.coeffs(n)) for n in range(1, order + 1))


def _reset_cache() -> None:
    global _top
    with _cache_lock:
        _top = _Rung((1,), 1)
    with _bernoulli_lock:
        _tangent.clear()


def _require_even(two_k: int) -> None:
    _validate_capped(two_k, "two_k", 2)
    if two_k % 2:
        raise ValueError(f"two_k must be even, got {two_k}")


def zeta_even(two_k: int) -> ZetaValue:
    """Exact zeta(two_k) from the ladder: (-1)**k * (Q_2k(0) - P_2k(0)) / 2.

    P_2k(0) = 0, so this is (-1)**k * q_2k(0) / 2 times pi**2k.  two_k is
    an even int in [2, ORDER_CAP].
    """
    _require_even(two_k)
    rung = _top_rung(two_k)
    i = rung.order - two_k
    coeff = Fraction((-1) ** (two_k // 2) * rung.h[i], rung.D << (i + 1))
    return ZetaValue(two_k, PiNumber.pi_power(two_k, coeff))


# T_1, T_2, ...: tan(x) = sum_k T_k * x**(2k-1) / (2k-1)!
_tangent: list[int] = []
_bernoulli_lock = threading.Lock()


def _tangent_numbers(n: int) -> list[int]:
    """T_1..T_n by the integer recurrence of Brent & Harvey.

    "Fast computation of Bernoulli, Tangent and Secant numbers" (2013,
    arXiv:1108.0286), Algorithm TangentNumbers: O(n**2) small-integer
    multiplications, in place, with no division.
    """
    T = [1]
    for k in range(1, n):
        T.append(k * T[-1])
    for k in range(1, n):
        for j in range(k, n):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def bernoulli_number(m: int) -> Fraction:
    """B_m, with B_1 = -1/2; B_2k = (-1)**(k-1) * 2k * T_k / (4**k * (4**k - 1)).

    The tangent numbers T_k come from the derivatives of tan, a route that
    shares no arithmetic with the ladder's mean matching.  Their table is
    kept and, when too short, rebuilt at least twice as long.  m must be an
    int (not a bool) in [0, ORDER_CAP], else ValueError.
    """
    _validate_capped(m, "m", 0)
    if m < 2:
        return Fraction(1) if m == 0 else Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    k = m // 2
    with _bernoulli_lock:
        if len(_tangent) < k:
            _tangent[:] = _tangent_numbers(max(k, 2 * len(_tangent)))
        t = _tangent[k - 1]
    return Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1))


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
