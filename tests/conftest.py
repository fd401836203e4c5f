"""Hypothesis profiles for the test suite.

By default every ``@given`` test draws the same examples on every run
(``derandomized``), so a failure seen once is seen again.  To search
further, choose the random profile, which draws new examples each run:

    HYPOTHESIS_PROFILE=random python -m pytest -q

A test's own ``@settings`` (``max_examples``, ``deadline``) still apply
under either profile.
"""

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))
