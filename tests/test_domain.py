"""The domain contract of the public functions: a float parameter that is
NaN or infinite, or whose result would be, and an integer parameter that
is a bool or a float, is refused with a ValueError whose message names
the value, never answered with a wrong value or a bare TypeError or
OverflowError."""

import math

import pytest

from zetacomb import (
    PiNumber,
    bernoulli_number,
    bump_plateau,
    delta1_closed,
    delta2_closed,
    dirichlet_sum,
    fourier_partial_delta1,
    fourier_partial_delta2,
    gaussian_bump,
    kernel_samples,
    ladder_states,
)
from zetacomb.kernels import _uniform_grid

NAN, INF = math.nan, math.inf

# (function, arguments, a part of the message that names the bad value)
CASES = [
    (dirichlet_sum, (5, NAN), "|x| = nan is not a number"),
    (fourier_partial_delta1, (5, NAN), "|x| = nan is not a number"),
    (fourier_partial_delta2, (5, NAN), "|x| = nan is not a number"),
    *((closed, (x,), f"got x = {x}") for closed in (delta1_closed, delta2_closed) for x in (NAN, INF, -INF)),
    # finite x where the order-2 closed form's float value would be inf or
    # nan, or its floor(u)*ceil(u) past the float range
    *((delta2_closed, (x,), f"at x = {x} is past the float range") for x in (1.35e154, 1.9e154, -1.9e154, 1e300)),
    (bump_plateau, (1.0, INF), "outer=inf"),
    (gaussian_bump, (0.0, INF), "radius must be > 0 and finite, got inf"),
    (gaussian_bump, (NAN, 1.0), "center must be finite, got nan"),
    (gaussian_bump, (-INF, 1.0), "center must be finite, got -inf"),
    (gaussian_bump, (1e308, 1e308), "support (0.0, inf) must be a non-empty interval with finite ends"),
    (bernoulli_number, (True,), "got True"),
    (bernoulli_number, (2.0,), "got 2.0"),
    (ladder_states, (True,), "got True"),
    (ladder_states, (2.0,), "got 2.0"),
    (kernel_samples, (5, 2.0), "got 2.0"),
    # the grid of kernel and fourier: ends in order, and a finite span
    *(
        case
        for ends, names_it in (
            ((1.0, 1.0), "need xmin < xmax, got [1.0, 1.0]"),
            ((2.0, -2.0), "need xmin < xmax, got [2.0, -2.0]"),
            ((NAN, 1.0), "need xmin < xmax, got [nan, 1.0]"),
            ((-1.7e308, 1.7e308), "the span of [-1.7e+308, 1.7e+308] is past the float range"),
        )
        for case in ((kernel_samples, (5, 3, *ends), names_it), (_uniform_grid, (*ends, 3), names_it))
    ),
    (PiNumber.pi_power, (True, 1), "got True"),
]


@pytest.mark.parametrize(
    "function, args, names_it",
    CASES,
    ids=[f"{function.__name__}{args!r}" for function, args, _ in CASES],
)
def test_out_of_domain_argument_is_refused_by_name(function, args, names_it):
    with pytest.raises(ValueError) as info:
        function(*args)
    assert names_it in str(info.value)
