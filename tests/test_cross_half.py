"""The exact half against the numerical half: the Fourier comparison's
float closed forms, delta1_closed and delta2_closed, against the ladder's
rungs Q_1 and Q_2, evaluated exactly.

On (0, 2*pi) the order-k antiderivative series is Q_k, and its power part
P_k(x) = x**k/k! is all that is not 2*pi-periodic, so at any x it is

    P_k(x) + (Q_k - P_k)(x - 2*pi*m),    m = floor(x / 2*pi).

This is evaluated in Fractions from ladder_states(2) and a 63-digit
rational pi.  m is the float form's own: a float x within an ulp of
2*pi*m may fall on either side of it, and at order 1 the sides differ by
2*pi.  Where x / float(2*pi) is an integer the float form takes the
midpoint of the two sides, and so does the reference.
"""

import math
import random
import sys
from fractions import Fraction

from zetacomb import delta1_closed, delta2_closed, ladder_states

PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")
TWO_PI = 2 * PI

# |closed(x) - exact(x)| <= BOUND * eps * max(pi, |x|)**k.  The measured
# worst over the points below, at seeds 1, 2 and 3, is 0.70 at order 1
# and 1.17 at order 2; on |x| <= 10**6 that is 9.2e-11 and 1.4e-4 absolute.
BOUND = 2.0


def rung_form(state):
    """(x, m) -> P_k(x) + (Q_k - P_k)(x - 2*pi*m) exactly, x a Fraction, for
    the rung of order k; Q_k(y) = pi**k * q_k(y/pi) = sum c_i pi**(k-i) y**i."""
    k = state.order
    coeffs = [c * PI ** (k - i) for i, c in enumerate(state.coeffs)]
    coeffs += [Fraction(0)] * (k + 1 - len(coeffs))
    coeffs[k] -= Fraction(1, math.factorial(k))

    def value(x, m):
        y = x - TWO_PI * m
        acc = coeffs[k]
        for c in reversed(coeffs[:k]):
            acc = acc * y + c
        return acc + x**k / math.factorial(k)

    return value


def reference(value, x: float) -> Fraction:
    u = x / (2.0 * math.pi)
    m = math.floor(u)
    if m == u:  # a lattice point of the float form: the midpoint of its sides
        return (value(Fraction(x), m) + value(Fraction(x), m - 1)) / 2
    return value(Fraction(x), m)


def points() -> list:
    """10,006 x: random ones on [-20, 20] and of magnitude 1e-3 to 1e6, the
    lattice points 2*pi*m for |m| <= 400, rounded from the exact value and
    as m * float(2*pi), with the two float neighbours of the first, and the
    200 floats each side of the order-2 form's zeros +-pi/3, pi/3 that of Q_2."""
    rng = random.Random(1)
    xs = [rng.uniform(-20.0, 20.0) for _ in range(3000)]
    xs += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0) for _ in range(3000)]
    for m in range(-400, 401):
        near = float(TWO_PI * m)
        xs += [near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf), m * (2.0 * math.pi)]
    for zero in (-math.pi / 3, math.pi / 3):
        x = zero
        for _ in range(200):
            x = math.nextafter(x, -math.inf)
        for _ in range(401):
            xs.append(x)
            x = math.nextafter(x, math.inf)
    return xs


def test_closed_forms_are_the_ladder_rungs():
    xs = points()
    assert len(xs) >= 10**4
    eps = sys.float_info.epsilon
    for state, closed in zip(ladder_states(2), (delta1_closed, delta2_closed)):
        value = rung_form(state)
        k = state.order
        for x in xs:
            error = abs(float(Fraction(closed(x)) - reference(value, x)))
            assert error <= BOUND * eps * max(math.pi, abs(x)) ** k, (k, x, error)
