"""Smooth compactly supported test functions.

Everything here is built from the exp(-1/t) mollifier family, so all
evaluators are C-infinity including at the support boundary, where every
one-sided derivative vanishes.  Evaluators return exactly 0.0 (not merely
something tiny) outside the declared support, which lets integrators clip
ranges with no boundary error at all.

The plateau bump beta = bump_plateau(pi, 3*pi/2) is exactly 1 on
[-pi, pi], where sin(x/2) = (x/2)/sigma(x) with sigma(x) = (x/2)/sin(x/2).
So the order-N kernel times phi is exactly 2*sin((N+1/2)*x)/x times
phi_tilde = beta*sigma*phi there, and u = (N+1/2)*x turns the kernel
action into the sinc integral of 2*sin(u)/u against phi_tilde(u/(N+1/2)),
which shares phi's value at 0.
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
        if not -math.inf < support[0] < support[1] < math.inf:
            raise ValueError(f"support {support} must be a non-empty interval with finite ends")
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
    A NaN or infinite inner or outer is refused with ValueError.
    """
    if not 0 < inner < outer < math.inf:
        raise ValueError(f"need 0 < inner < outer < inf, got inner={inner}, outer={outer}")
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


def sigma_eval(x: float) -> float:
    """sigma(x) = (x/2)/sin(x/2), with sigma(0) = 1, on |x| <= 3*pi/2.

    One formula: x/2 is exact and sin keeps its relative accuracy near 0.
    Below 2**-26 the true value 1 + x**2/24 + ... rounds to 1.0, which is
    returned, so x = 0 or a subnormal x never divides.
    """
    if not abs(x) <= _SIGMA_DOMAIN:
        raise ValueError(f"sigma is defined on |x| <= 3*pi/2, got {x}")
    if abs(x) < 2**-26:
        return 1.0
    return (0.5 * x) / math.sin(0.5 * x)


def gaussian_bump(center: float, radius: float) -> TestFunction:
    """Standard mollifier exp(-1/(1-u^2)), u = (x-center)/radius.

    Peak value exp(-1) at the center; support [center-radius, center+radius].
    A NaN or infinite center or radius is refused with ValueError.
    """
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be > 0 and finite, got {radius}")

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
        return b * sigma_eval(x) * phi(x)

    return TestFunction(
        evaluator=evaluator,
        support=phi.support,
        label=f"tilde({phi.label})",
    )
