"""Exact even zeta values from an antiderivative ladder, with a numerical
verification suite for the underlying kernel and comb identities.

The exact half: repeated antidifferentiation of the lattice comb on
(0, 2*pi), with integration constants fixed by period means, yields
polynomial closed forms whose endpoint values are zeta(2), zeta(4), ...
as exact rational multiples of powers of pi (cross-checked against the
Bernoulli closed form).

The numerical half: the truncated kernel in sum and compact forms, smooth
compactly supported test functions, deterministic adaptive quadrature,
distributional actions converging to 2*pi*phi(0), Fourier partial sums
against floor/ceiling closed forms, and the truncated sinc integral.
"""

import importlib
import math
import sys
from collections import namedtuple

__version__ = "0.1.0"

# Each submodule and the public names it defines.  `import zetacomb` loads
# none of them: a name's submodule is imported the first time the name is
# looked up (PEP 562), so the exact half never compiles the numerical half,
# nor the other way round.
_EXPORTS = {
    "exactalg": ("PiNumber",),
    "zeta_ladder": (
        "LadderState",
        "ZetaValue",
        "bernoulli_number",
        "bernoulli_oracle",
        "ladder_init",
        "ladder_states",
        "ladder_step",
        "zeta_even",
    ),
    "kernels": (
        "EPS_SING",
        "SampleTable",
        "dirichlet_compact",
        "dirichlet_sum",
        "kernel_normalization",
        "kernel_samples",
    ),
    "testfn": ("TestFunction", "bump_plateau", "gaussian_bump", "phi_tilde", "sigma_eval"),
    "quad": ("QuadResult", "QuadratureError", "integrate_adaptive", "sinc_table", "sinc_truncated"),
    "actions": (
        "delta0_comb_action",
        "delta0_partial_action",
        "delta1_closed",
        "delta2_closed",
        "deltaN_action",
        "fourier_partial_delta1",
        "fourier_partial_delta2",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}


# The checks, the floor, the stop rule, the error and the records below are
# defined here, not in a submodule, so that the submodules reach them
# without loading each other.


def _validate_order(value: int, name: str, least: int) -> None:
    """Refuse a value of the integer argument name that is not an int (bool
    included) or is below least, naming the value."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _validate_tol(tol: float) -> None:
    """Refuse a tolerance that is not finite and > 0 (nan included)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _rounding_floor(mass: float) -> float:
    """50*eps*mass, the least estimate of a run on an integral of |f| of mass;
    0.0 below sys.float_info.min / (50*eps) or at a NaN mass (QUADPACK, 1983).
    quad's panels and actions' mode sum take their floor from here."""
    eps = sys.float_info.epsilon
    return eps * 50.0 * mass if mass > sys.float_info.min / (50.0 * eps) else 0.0


class QuadratureError(RuntimeError):
    """Tolerance not reached after evaluating panels or nodes; its message
    (_stop_message) names the cause.  Carries the best value obtained so
    that callers can see how far off the run ended.  A run refused before
    its first panel raises ValueError instead.  quad re-exports this class
    and QuadResult, and the cli catches it without loading quad.
    """

    def __init__(self, value: float, error_estimate: float, panels_used: int, message: str):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.panels_used = panels_used


def _stop_message(run: str, count: int, units: str, estimate: float, floor: float, tol: float,
                  past_budget: bool, budget) -> str | None:
    """The stop rule of quad's panel runs and actions' mode sum, whose estimate
    is above tol: None while the run may refine on, else the QuadratureError
    message "<run> tolerance not reached after <count> <units>: <cause>".
    The causes, in order: a NaN estimate, a rounding floor above tol, and
    past_budget, a next step past the run's budget, named by budget()."""
    if math.isnan(estimate):
        cause = "the estimate is NaN"
    elif floor > tol:
        cause = f"the rounding floor {floor:.3e} is above tol = {tol:.3e}"
    elif past_budget:
        cause = f"estimate {estimate:.3e}, and {budget()}"
    else:
        return None
    return f"{run} tolerance not reached after {count} {units}: {cause}"


class _Record:
    """First base of a namedtuple record whose __new__ checks its fields:
    _make, and so _replace, builds through cls(*fields), so it checks them too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class QuadResult(_Record, namedtuple("QuadResult", "value error_estimate panels_used")):
    """An integral's value, its error estimate (never NaN) and its panels (a mode sum's nodes)."""

    __slots__ = ()

    def __new__(cls, value: float, error_estimate: float, panels_used: int):
        if not error_estimate >= 0:
            raise ValueError("error_estimate must be >= 0")
        if panels_used < 1:
            raise ValueError("panels_used must be >= 1")
        return super().__new__(cls, value, error_estimate, panels_used)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not yet imported
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
