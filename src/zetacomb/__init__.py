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
