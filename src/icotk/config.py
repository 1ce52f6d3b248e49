"""Work-budget and environment configuration, and the --digits limit that
every command checks before it runs.

All tunables live in small named tuples (immutable, compared by value) so
they can be passed around, echoed into CLI reports, and overridden per call
without global state.
"""

from __future__ import annotations

import os
import sys
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


def check_digits(digits: int) -> None:
    """ValueError unless LogBound.render can print `digits` digits: str()
    prints its (digits + 1)-digit mantissa under the int string limit."""
    if digits < 0:
        raise ValueError(f"--digits must be >= 0, got {digits}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and digits + 1 > limit:
        raise ValueError(f"--digits must be <= {limit - 1} (int string limit), got {digits}")
