"""The domain contract of the public functions: a float parameter that is
NaN or infinite, or an integer parameter that is a bool or a float, is
refused with a ValueError whose message names the value, never answered
with a wrong value or a bare TypeError or OverflowError."""

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

NAN, INF = math.nan, math.inf

# (function, arguments, a part of the message that names the bad value)
CASES = [
    (dirichlet_sum, (5, NAN), "|x| = nan is not a number"),
    (fourier_partial_delta1, (5, NAN), "|x| = nan is not a number"),
    (fourier_partial_delta2, (5, NAN), "|x| = nan is not a number"),
    *((closed, (x,), f"got x = {x}") for closed in (delta1_closed, delta2_closed) for x in (NAN, INF, -INF)),
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
