"""Shared test settings.

Hypothesis runs derandomized, so every run draws the same examples, and
without deadlines, whose timing would flake on a slow or busy host.  The
example count stays at hypothesis's default of 100; tests whose examples
are expensive lower it with their own @settings.
"""

from hypothesis import settings

settings.register_profile("zetacomb", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("zetacomb")
