"""Smooth compactly supported test functions.

Everything here is built from the exp(-1/t) mollifier family, so all
evaluators are C-infinity including at the support boundary, where every
one-sided derivative vanishes.  Evaluators return exactly 0.0 (not merely
something tiny) outside the declared support, which lets integrators clip
ranges with no boundary error at all.

The plateau bump is exactly 1 on its inner interval; the correction
factor sigma(x) = (x/2)/sin(x/2) turns an integral of the truncated
kernel against phi into the integral of a plain Fourier mode against the
modified function beta*sigma*phi, which shares phi's value at 0.
"""

import math
from collections import namedtuple
from collections.abc import Callable

__all__ = [
    "TestFunction",
    "bump_plateau",
    "sigma_eval",
    "gaussian_bump",
    "phi_tilde",
]

_SIGMA_DOMAIN = 1.5 * math.pi


class TestFunction(namedtuple("TestFunction", "evaluator support label")):
    """Smooth function vanishing identically outside [support[0], support[1]]."""

    __slots__ = ()

    def __new__(cls, evaluator: Callable[[float], float], support: tuple[float, float], label: str):
        if not support[0] < support[1]:
            raise ValueError(f"empty support interval {support}")
        return super().__new__(cls, evaluator, support, label)

    def __call__(self, x: float) -> float:
        return self.evaluator(x)


def _smooth_step(t: float) -> float:
    """h(t) = g(t)/(g(t)+g(1-t)) with g(t) = exp(-1/t) for t > 0, else 0.

    Monotone from h(0)=0 to h(1)=1, flat to all orders at both ends.
    """
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    g = math.exp(-1.0 / t)
    g1 = math.exp(-1.0 / (1.0 - t))
    return g / (g + g1)


def bump_plateau(inner: float, outer: float) -> TestFunction:
    """Even bump: exactly 1 on [-inner, inner], 0 outside (-outer, outer).

    The shoulder on each side is the smooth step traversed in (inner, outer).
    """
    if not 0 < inner < outer:
        raise ValueError(f"need 0 < inner < outer, got inner={inner}, outer={outer}")
    scale = outer - inner

    def evaluator(x: float) -> float:
        r = abs(x)
        if r <= inner:
            return 1.0
        if r >= outer:
            return 0.0
        return _smooth_step((outer - r) / scale)

    return TestFunction(
        evaluator=evaluator,
        support=(-outer, outer),
        label=f"plateau({inner:g},{outer:g})",
    )


# Even Taylor coefficients of (x/2)/sin(x/2); truncation below 1e-18 for
# |x| <= 0.6, so the branch switch at 0.5 costs nothing.
_SIGMA_SERIES = (
    1.0,
    1 / 24,
    7 / 5760,
    31 / 967680,
    127 / 154828800,
    73 / 3503554560,
    1414477 / 2678117105664000,
    8191 / 612141052723200,
    16931177 / 49950709902213120000,
)


def sigma_eval(x: float) -> float:
    """sigma(x) = (x/2)/sin(x/2), with sigma(0) = 1, on |x| <= 3*pi/2.

    Direct formula for |x| >= 0.5; below that sin(x/2) loses digits to
    cancellation against x/2, so a fixed even Taylor polynomial takes over.
    """
    if abs(x) > _SIGMA_DOMAIN:
        raise ValueError(f"sigma is defined on |x| <= 3*pi/2, got {x}")
    if abs(x) >= 0.5:
        return (0.5 * x) / math.sin(0.5 * x)
    x2 = x * x
    acc = 0.0
    for c in reversed(_SIGMA_SERIES):
        acc = acc * x2 + c
    return acc


def gaussian_bump(center: float, radius: float) -> TestFunction:
    """Standard mollifier exp(-1/(1-u^2)), u = (x-center)/radius.

    Peak value exp(-1) at the center; support [center-radius, center+radius].
    """
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")

    def evaluator(x: float) -> float:
        u = (x - center) / radius
        u2 = u * u
        if u2 >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - u2))

    return TestFunction(
        evaluator=evaluator,
        support=(center - radius, center + radius),
        label=f"gauss({center:g},{radius:g})",
    )


def phi_tilde(phi: TestFunction) -> TestFunction:
    """The product beta * sigma * phi with beta = bump_plateau(pi, 3*pi/2).

    Defined only for phi supported inside [-3*pi/2, 3*pi/2], where sigma is
    smooth; shares phi's value at 0 since beta(0) = sigma(0) = 1.
    """
    lo, hi = phi.support
    if lo < -_SIGMA_DOMAIN or hi > _SIGMA_DOMAIN:
        raise ValueError(
            f"support [{lo}, {hi}] must lie inside [-3*pi/2, 3*pi/2]"
        )
    beta = bump_plateau(math.pi, _SIGMA_DOMAIN)

    def evaluator(x: float) -> float:
        b = beta(x)
        if b == 0.0:
            return 0.0
        p = phi(x)
        if p == 0.0:
            return 0.0
        return b * sigma_eval(x) * p

    return TestFunction(
        evaluator=evaluator,
        support=phi.support,
        label=f"tilde({phi.label})",
    )
