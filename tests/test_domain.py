"""The domain contract of the public functions: a float parameter that is
NaN or infinite, or whose result would be, and an integer parameter that
is a bool or a float, is refused with a ValueError whose message names
the value, never answered with a wrong value or a bare TypeError or
OverflowError.  Work is bounded: every call returns, or refuses naming
the value or a limit, within 2 s.

The hand-picked cases below pin messages; the generated test after them
calls every public function with arguments drawn by parameter kind."""

import inspect
import math
import re
import signal
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import zetacomb
from zetacomb import (
    PiNumber,
    QuadratureError,
    bernoulli_number,
    bump_plateau,
    delta1_closed,
    delta2_closed,
    dirichlet_sum,
    fourier_partial_delta1,
    fourier_partial_delta2,
    gaussian_bump,
    kernel_samples,
    ladder_init,
    ladder_states,
    phi_tilde,
    zeta_even,
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
    # a span too narrow for distinct samples: the step rounds to 0
    (kernel_samples, (0, 3, -0.0, 5e-324), "[-0.0, 5e-324] holds no 3 distinct floats"),
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


# Arguments by parameter kind: the values at and past every edge of the
# domain, and a few ordinary ones, so that accepted calls run too.
INTS = st.sampled_from([True, False, -1, 0, 1, 2, 3, 12, 2**52, 10**400, 2.0])
FLOATS = st.sampled_from([NAN, INF, -INF, -0.0, 5e-324, 1e308, -1e308, 0.5, 1.0, -2.0, 3.0])
TOLS = st.sampled_from([1e-10, 1e-3, 1e-300, 5e-324, 0.0, -1.0, NAN, INF, 1e308])
# The shipped test functions at extreme parameters, and a bump whose
# evaluator returns nan, inf or -inf everywhere.
SHIPPED = [
    bump_plateau(math.pi, 1.5 * math.pi),
    bump_plateau(5e-324, 1e-323),
    bump_plateau(1.0, 1e308),
    gaussian_bump(0.0, 1.0),
    gaussian_bump(0.0, 5e-324),
    gaussian_bump(0.3, 7.0),
    gaussian_bump(-1e308, 1e307),
    gaussian_bump(1e300, 1e300),
    phi_tilde(gaussian_bump(0.0, 1.0)),
]
PHIS = st.sampled_from(
    SHIPPED + [gaussian_bump(0.0, 1.0)._replace(evaluator=lambda x, v=v: v) for v in (NAN, INF, -INF)]
)
BY_NAME = {
    "tol": TOLS,
    "phi": PHIS,
    "f": PHIS.map(lambda phi: phi.evaluator),
    "state": st.sampled_from([ladder_init(), *ladder_states(12)]),
}
BY_KIND = {int: INTS, float: FLOATS}

# Every public function; the record classes check their own fields
# (tests/test_records.py, and PiNumber in tests/test_exactalg.py).
FUNCTIONS = [f for f in (getattr(zetacomb, name) for name in zetacomb.__all__) if inspect.isfunction(f)]

# What a refusal may name besides an argument: a cap or budget, N < 2**52,
# the work cap, the float range or finiteness (as of a support computed
# from the arguments), the tolerance or a NaN estimate.
LIMIT = re.compile(r"[A-Z_]+(CAP|BUDGET) = |2\*\*52|work cap|float range|finite|tol = |NaN")


def calls():
    """(function, arguments), every parameter drawn by its name or kind."""
    return st.sampled_from(FUNCTIONS).flatmap(
        lambda function: st.tuples(
            st.just(function),
            st.tuples(*(
                BY_NAME[p.name] if p.name in BY_NAME else BY_KIND[p.annotation]
                for p in inspect.signature(function).parameters.values()
            )),
        )
    )


def texts(argument) -> list:
    """How a message may write the argument."""
    if isinstance(argument, zetacomb.TestFunction):
        return [str(argument.support), *map(str, argument.support)]
    if isinstance(argument, (int, float)):
        return [str(argument)]
    return []


def names(message: str, arguments: tuple) -> bool:
    """Whether message names one of the arguments, as a whole word, or a limit."""
    return LIMIT.search(message) is not None or any(
        re.search(rf"(?<![\w.]){re.escape(text)}(?![\w.])", message)
        for text in (text for argument in arguments for text in texts(argument))
    )


class _Overtime(Exception):
    pass


def _expire(signum, frame):
    raise _Overtime


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@settings(max_examples=1000)
@given(calls())
# The exact half's cap: each of these ran for seconds or more before it.
@example((zeta_even, (2**52,)))
@example((bernoulli_number, (10**400,)))
@example((ladder_states, (401,)))
def test_every_call_returns_or_refuses_by_name_within_two_seconds(call):
    function, arguments = call
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    start = time.perf_counter()
    try:
        function(*arguments)
    except (ValueError, QuadratureError) as exc:
        assert names(str(exc), arguments), f"{function.__name__}{arguments!r}: {exc}"
    except _Overtime:
        pytest.fail(f"{function.__name__}{arguments!r} ran past 2 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 2.0
