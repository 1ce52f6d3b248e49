"""Work-budget and environment configuration.

All tunables live in small frozen dataclasses so they can be passed around,
echoed into CLI reports, and overridden per call without global state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class FactorBudget:
    """Effort cap for integer factorization (trial division + Pollard rho)."""

    trial_limit: int = 10**6
    rho_iterations: int = 2 * 10**6


@dataclass(frozen=True)
class GroebnerBudget:
    """Cap on Buchberger reduction steps; exceeding raises, never mis-answers."""

    max_reductions: int = 10**7


DEFAULT_FACTOR_BUDGET = FactorBudget()
DEFAULT_GB_BUDGET = GroebnerBudget()


def cache_dir() -> str | None:
    """The ICOTK_CACHE_DIR directory, or None if unset.

    icotk itself no longer reads it: Groebner bases are only held in memory.
    The benchmark's tracer still imports it to watch that directory.
    """
    return os.environ.get("ICOTK_CACHE_DIR") or None


def default_threads() -> int:
    raw = os.environ.get("ICOTK_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)
