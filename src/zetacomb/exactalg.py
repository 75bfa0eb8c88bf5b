"""Exact numbers ``q * pi**j`` with rational ``q``: every value the ladder
and the Bernoulli oracle produce is a rational multiple of one power of pi.

Floats appear only at the output boundary via :meth:`PiNumber.to_float`.
Values are immutable, so they can be shared freely between threads.
"""

from fractions import Fraction

__all__ = ["PiNumber"]

# Stored literal, 39 significant digits.  Float projection goes through this
# single constant so results do not depend on how the platform libm rounds.
_PI_LITERAL = "3.14159265358979323846264338327950288420"
_PI_RATIONAL = Fraction(_PI_LITERAL)


class PiNumber:
    """The exact value ``q * pi**j``: rational ``q``, integer grade ``j >= 0``
    (an ``int``, not a ``bool``).

    Zero compares and hashes equal at every grade.  Addition and subtraction
    are defined within one grade, and with zero of any grade; adding two
    nonzero values of different grades raises ``ValueError``.
    """

    __slots__ = ("_j", "_q")

    def __init__(self, j: int = 0, q=0):
        if isinstance(j, bool) or not isinstance(j, int) or j < 0:
            raise ValueError(f"pi-exponent must be a non-negative integer, got {j!r}")
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"expected an exact rational, got {type(q).__name__}")
        self._j = j
        self._q = Fraction(q)

    @classmethod
    def zero(cls) -> "PiNumber":
        return cls()

    @classmethod
    def pi_power(cls, j: int, coeff=1) -> "PiNumber":
        """``coeff * pi**j``."""
        return cls(j, coeff)

    def coefficient(self, j: int) -> Fraction:
        """The rational multiplying ``pi**j``; zero unless ``j`` is the grade."""
        return self._q if j == self._j else Fraction(0)

    def to_float(self) -> float:
        """Round to the nearest double, using the stored high-precision pi."""
        return float(self._q * _PI_RATIONAL**self._j)

    def __add__(self, other):
        if not isinstance(other, PiNumber):
            return NotImplemented
        if not other._q:
            return self
        if not self._q:
            return other
        if self._j != other._j:
            raise ValueError(f"cannot add a pi^{self._j} value to a pi^{other._j} value")
        return PiNumber(self._j, self._q + other._q)

    def __neg__(self):
        return PiNumber(self._j, -self._q)

    def __sub__(self, other):
        if not isinstance(other, PiNumber):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, PiNumber):
            return NotImplemented
        return self._q == other._q and (self._j == other._j or not self._q)

    def __hash__(self):
        return hash((self._j, self._q)) if self._q else hash(0)

    def __str__(self):
        if not self._q:
            return "0"
        if self._j == 0:
            return str(self._q)
        power = "π" if self._j == 1 else f"π^{self._j}"
        return f"{self._q} {power}"

    def __repr__(self):
        return f"PiNumber.pi_power({self._j}, {self._q!r})"
