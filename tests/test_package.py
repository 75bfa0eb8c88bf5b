"""The package namespace: every public name resolves, on first use, to
the object its submodule defines."""

import importlib
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
