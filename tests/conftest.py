"""Shared test settings.

Hypothesis runs derandomized, so every run draws the same examples, and
without deadlines, whose timing would flake on a slow or busy host.  The
example count stays at hypothesis's default of 100; tests whose examples
are expensive lower it with their own @settings.

`src_env` is for tests that run zetacomb in a fresh interpreter.
"""

import os
from pathlib import Path

from hypothesis import settings

import zetacomb

settings.register_profile("zetacomb", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("zetacomb")


def src_env(**overrides):
    """The environment with the imported zetacomb's source tree first on PYTHONPATH."""
    src = str(Path(zetacomb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(overrides)
    return env
