"""Work-budget and environment configuration.

All tunables live in small named tuples (immutable, compared by value) so
they can be passed around, echoed into CLI reports, and overridden per call
without global state.
"""

from __future__ import annotations

import os
from collections import namedtuple


class FactorBudget(namedtuple("FactorBudget", "trial_limit rho_iterations",
                              defaults=(10**6, 2 * 10**6))):
    """Effort cap for integer factorization (trial division + Pollard rho)."""

    __slots__ = ()


class GroebnerBudget(namedtuple("GroebnerBudget", "max_reductions", defaults=(10**7,))):
    """Cap on Buchberger reduction steps; exceeding raises, never mis-answers."""

    __slots__ = ()


DEFAULT_FACTOR_BUDGET = FactorBudget()
DEFAULT_GB_BUDGET = GroebnerBudget()


def cache_dir() -> str | None:
    """The ICOTK_CACHE_DIR directory, or None if unset.

    icotk itself no longer reads it: Groebner bases are only held in memory.
    The benchmark's tracer still imports it to watch that directory.
    """
    return os.environ.get("ICOTK_CACHE_DIR") or None
