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

from .exactalg import PiNumber
from .zeta_ladder import (
    LadderState,
    ZetaValue,
    bernoulli_number,
    bernoulli_oracle,
    ladder_init,
    ladder_states,
    ladder_step,
    zeta_even,
)
from .kernels import (
    EPS_SING,
    SampleTable,
    dirichlet_compact,
    dirichlet_sum,
    kernel_normalization,
    kernel_samples,
)
from .testfn import TestFunction, bump_plateau, gaussian_bump, phi_tilde, sigma_eval
from .quad import QuadResult, QuadratureError, integrate_adaptive, sinc_table, sinc_truncated
from .actions import (
    delta0_comb_action,
    delta0_partial_action,
    delta1_closed,
    delta2_closed,
    deltaN_action,
    fourier_partial_delta1,
    fourier_partial_delta2,
)

__version__ = "0.1.0"

__all__ = [
    "PiNumber",
    "LadderState",
    "ZetaValue",
    "bernoulli_number",
    "bernoulli_oracle",
    "ladder_init",
    "ladder_states",
    "ladder_step",
    "zeta_even",
    "EPS_SING",
    "SampleTable",
    "dirichlet_compact",
    "dirichlet_sum",
    "kernel_normalization",
    "kernel_samples",
    "TestFunction",
    "bump_plateau",
    "gaussian_bump",
    "phi_tilde",
    "sigma_eval",
    "QuadResult",
    "QuadratureError",
    "integrate_adaptive",
    "sinc_table",
    "sinc_truncated",
    "delta0_comb_action",
    "delta0_partial_action",
    "delta1_closed",
    "delta2_closed",
    "deltaN_action",
    "fourier_partial_delta1",
    "fourier_partial_delta2",
]
