"""The package namespace: every public name resolves, on first use, to
the object its submodule defines."""

import importlib
import math
import subprocess
import sys

import pytest
from conftest import src_env

import zetacomb


def test_each_public_name_is_its_submodules_object():
    for module, names in zetacomb._EXPORTS.items():
        submodule = importlib.import_module(f"zetacomb.{module}")
        for name in names:
            assert getattr(zetacomb, name) is getattr(submodule, name), name


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from zetacomb import *", namespace)
    assert set(zetacomb.__all__) <= set(namespace)


def test_dir_covers_all_public_names():
    assert set(zetacomb.__all__) <= set(dir(zetacomb))


def test_bare_import_loads_no_submodule_and_still_resolves_one():
    code = (
        "import sys, zetacomb\n"
        "print(sorted(m for m in sys.modules if m.startswith('zetacomb.')))\n"
        "print(zetacomb.quad.__name__)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.split("\n")[:2] == ["[]", "zetacomb.quad"]


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        zetacomb.no_such_name


# QUADPACK's guard: below it 50*eps*mass would leave the normal floats.
GUARD = sys.float_info.min / (50.0 * sys.float_info.epsilon)
ABOVE = math.nextafter(GUARD, math.inf)


@pytest.mark.parametrize(
    "mass, floor",
    [
        (math.nextafter(GUARD, 0.0), 0.0),
        (GUARD, 0.0),
        (ABOVE, sys.float_info.epsilon * 50.0 * ABOVE),
        (1.0, 50.0 * 2.0**-52),
        (0.0, 0.0),
        (math.nan, 0.0),
    ],
    ids=["below", "at", "above", "one", "zero", "nan"],
)
def test_rounding_floor_applies_only_above_the_guard(mass, floor):
    assert zetacomb._rounding_floor(mass) == floor
    assert (floor > 0) == (mass > GUARD)


def test_stop_message_checks_nan_then_floor_then_budget():
    # The budget phrase is built only when the budget is the cause.
    built = []

    def stop(estimate, floor, past_budget):
        return zetacomb._stop_message(
            "run", 3, "steps", estimate, floor, 1e-10, past_budget, lambda: built.append(1) or "the budget"
        )

    prefix = "run tolerance not reached after 3 steps: "
    assert stop(math.nan, 1.0, True) == prefix + "the estimate is NaN"
    assert stop(1.0, 2e-10, True) == prefix + "the rounding floor 2.000e-10 is above tol = 1.000e-10"
    assert built == []
    assert stop(1.0, 0.0, True) == prefix + "estimate 1.000e+00, and the budget"
    assert stop(1.0, 1e-10, False) is None
    assert built == [1]
