"""Exact log-scale height bounds.

The bounds produced here are astronomically large (think 10^(10^12)), so
they are never materialized as integers.  A bound B is stored through its
base-10 logarithm as an exact decomposition

    log10(B) = E + sum_k c_k * log10(m_k)

with E and the c_k rational and the m_k integers >= 2.  Decompositions are
canonicalized by splitting off all prime factors below a trial-division
limit; larger cofactors are kept as opaque atoms.  Equality means equality
of canonical decompositions; order comparisons fall back to directed
interval evaluation in Decimal with escalating precision, which terminates
whenever the two values actually differ.

Rendering is directed: the printed decimal is always >= the exact value
(every intermediate quantity is rounded toward the needed side, and the
final mantissa is rounded up).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, localcontext
from fractions import Fraction

from .algebra import _ints, _trial_division, int_radical
from .config import DEFAULT_FACTOR_BUDGET, FactorBudget

_TRIAL_LIMIT = 9_999  # the largest trial divisor


def _split_small(m: int) -> dict:
    """Factor out all primes <= _TRIAL_LIMIT; any remaining cofactor stays
    as a single (possibly composite) atom."""
    out, m = _trial_division(m, _TRIAL_LIMIT)
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def check_digits(digits: int) -> None:
    """ValueError unless LogBound.render can print `digits` digits: str()
    prints its (digits + 1)-digit mantissa under the int string limit."""
    if digits < 0:
        raise ValueError(f"--digits must be >= 0, got {digits}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and digits + 1 > limit:
        raise ValueError(f"--digits must be <= {limit - 1} (int string limit), got {digits}")


class LogBound:
    """log10 of a positive bound, as E + sum c_k*log10(m_k), kept exact.
    Each atom m_k is an int >= 1: anything else raises TypeError rather
    than being truncated."""

    __slots__ = ("E", "terms")

    def __init__(self, E=0, terms=()):
        self.E = Fraction(E)
        merged: dict = {}
        items = tuple(terms.items() if isinstance(terms, dict) else terms)
        _ints((m for m, _ in items), "log argument")
        for m, c in items:
            c = Fraction(c)
            if m < 1:
                raise ValueError("log arguments must be positive integers")
            if m == 1 or c == 0:
                continue
            for p, e in _split_small(m).items():
                merged[p] = merged.get(p, Fraction(0)) + c * e
        # pull the balanced power of ten 2^t*5^t into the exact part, so
        # e.g. (1000, 1) and E=3 are one and the same decomposition
        c2 = merged.get(2, Fraction(0))
        c5 = merged.get(5, Fraction(0))
        if c2 and c5 and (c2 > 0) == (c5 > 0):
            t = min(c2, c5) if c2 > 0 else max(c2, c5)
            self.E += t
            merged[2] = c2 - t
            merged[5] = c5 - t
        self.terms = tuple(
            sorted((m, c) for m, c in merged.items() if c != 0)
        )

    # -- arithmetic on decompositions (product/power rules for B) ----------

    def __add__(self, other: "LogBound") -> "LogBound":
        terms = list(self.terms) + list(other.terms)
        return LogBound(self.E + other.E, terms)

    def __eq__(self, other):
        if not isinstance(other, LogBound):
            return NotImplemented
        return self.E == other.E and self.terms == other.terms

    def __hash__(self):
        return hash((self.E, self.terms))

    # -- numeric enclosure --------------------------------------------------

    def _interval(self, prec: int):
        """Directed [lo, hi] enclosure of the value at prec digits.  Each
        operation for lo runs in a ROUND_FLOOR context and each one for hi
        in a ROUND_CEILING context.  Decimal.ln is correctly rounded
        half-even whatever the context says, so every logarithm is widened
        by one ulp on each side."""
        down = Context(prec=prec, rounding=ROUND_FLOOR)
        up = Context(prec=prec, rounding=ROUND_CEILING)
        lo = down.divide(self.E.numerator, self.E.denominator)
        hi = up.divide(self.E.numerator, self.E.denominator)
        if self.terms:
            ln10 = down.ln(10)
            ln10_lo, ln10_hi = down.next_minus(ln10), up.next_plus(ln10)
        for m, c in self.terms:
            ln_m = down.ln(m)
            l_lo = down.divide(down.next_minus(ln_m), ln10_hi)  # log10(m) > 0
            l_hi = up.divide(up.next_plus(ln_m), ln10_lo)
            c_lo = down.divide(c.numerator, c.denominator)
            c_hi = up.divide(c.numerator, c.denominator)
            if c > 0:
                lo = down.add(lo, down.multiply(c_lo, l_lo))
                hi = up.add(hi, up.multiply(c_hi, l_hi))
            else:
                lo = down.add(lo, down.multiply(c_lo, l_hi))
                hi = up.add(hi, up.multiply(c_hi, l_lo))
        return lo, hi

    def compare(self, other: "LogBound") -> int:
        """-1/0/+1 by exact value.  0 only for equal decompositions."""
        diff: dict = dict(self.terms)
        for m, c in other.terms:
            diff[m] = diff.get(m, Fraction(0)) - c
        diff = {m: c for m, c in diff.items() if c != 0}
        dE = self.E - other.E
        if not diff:
            return (dE > 0) - (dE < 0)
        probe = LogBound.__new__(LogBound)
        probe.E = dE
        probe.terms = tuple(sorted(diff.items()))
        # Escalate until the directed interval separates.  The ceiling only
        # bounds when we *refuse* (equal values written with distinct
        # uncanonicalized atoms); a refusal is never a wrong verdict, and
        # 2000 digits of agreement never happens for genuinely different
        # bounds built from these formulas.
        prec = 60
        while prec <= 2000:
            lo, hi = probe._interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
        raise ArithmeticError(
            "LogBound comparison precision exhausted "
            "(values may be equal with distinct large atoms)"
        )

    def __le__(self, other):
        return self.compare(other) <= 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    # -- rendering ------------------------------------------------------------

    def render(self, digits: int = 30) -> str:
        """Scientific-notation decimal with `digits` fractional digits,
        guaranteed >= the exact value (50 guard digits, final ceiling)."""
        check_digits(digits)
        size_hint = len(str(abs(self.E.numerator))) + sum(
            len(str(m)) for m, _ in self.terms
        )
        prec = digits + 50 + size_hint
        _, hi = self._interval(prec)
        if hi == 0:
            return "0E+0"
        exp = hi.adjusted()
        with localcontext() as ctx:
            ctx.prec = prec
            scaled = hi.scaleb(-exp + digits)
            mant_int = int(scaled.to_integral_value(rounding=ROUND_CEILING))
        sign = "-" if mant_int < 0 else ""
        mant_int = abs(mant_int)
        if mant_int >= 10 ** (digits + 1):
            mant_int //= 10
            exp += 1
        s = str(mant_int).rjust(digits + 1, "0")
        return f"{sign}{s[0]}.{s[1:]}E{exp:+d}"

    def __repr__(self):
        parts = [f"{self.E}"] if self.E else []
        for m, c in self.terms:
            parts.append(f"{c}*log10({m})")
        return "LogBound(" + (" + ".join(parts) if parts else "0") + ")"

    # -- constructors ----------------------------------------------------------

    @classmethod
    def of_log10(cls, value) -> "LogBound":
        """log10 of a positive integer or Fraction, exactly."""
        value = Fraction(value)
        if value <= 0:
            raise ValueError("log10 argument must be positive")
        return cls(0, [(value.numerator, 1), (value.denominator, -1)])

    @classmethod
    def sum_upper(cls, a: "LogBound", b: "LogBound") -> "LogBound":
        """Upper bound for log10(A + B): max(log A, log B) + log10(2).

        This is the documented weakening used when two bounds must be
        added at the B level without materializing either.
        """
        big = a if a.compare(b) >= 0 else b
        return big + cls(0, [(2, 1)])


# ---------------------------------------------------------------------------
# point heights
# ---------------------------------------------------------------------------


class PointHeight(namedtuple("PointHeight", "max_abs")):
    """Weil height of a normalized projective point: log of the largest
    absolute coordinate, kept as the integer itself."""

    __slots__ = ()

    @property
    def nat(self) -> float:
        return math.log(self.max_abs)

    @property
    def is_trivial(self) -> bool:
        return self.max_abs == 1


def point_height(point) -> PointHeight:
    m = max(abs(c) for c in _ints(point, "coordinate"))
    if m == 0:
        raise ValueError("zero vector has no height")
    return PointHeight(m)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

TAGS = ("ThmC", "ThmE/CorXf", "CorD", "CorF", "CorPullback")


class HeightCertificate(namedtuple("HeightCertificate", "tag bound inputs")):
    """A height bound with its tag (one of TAGS) and its inputs, as
    ((name, value), ...)."""

    __slots__ = ()

    def __new__(cls, tag, bound, inputs):
        if tag not in TAGS:
            raise ValueError(f"unknown certificate tag {tag!r}")
        return super().__new__(cls, tag, bound, inputs)

    def input(self, name: str):
        for k, v in self.inputs:
            if k == name:
                return v
        raise KeyError(name)


def bound_thmE(nu: int) -> HeightCertificate:
    """Height bound for points of non-degenerate ico curves:
    log10(B) = 10^12 + 24*log10(nu)."""
    (nu,) = _ints((nu,), "nu")
    if nu < 1:
        raise ValueError("nu >= 1 required")
    bound = LogBound(10**12, [(nu, 24)])
    return HeightCertificate("ThmE/CorXf", bound, (("nu", nu),))


def bound_corD(d: int, absF: int) -> HeightCertificate:
    """Effective Mordell for plane curves satisfying the tau criterion:
    log10(B) = kappa^2*d*log10(8) + kappa*log10(|F|), kappa = 8^8*d^2."""
    d, absF = _ints((d, absF), "bound input")
    if d < 1 or absF < 1:
        raise ValueError("d >= 1 and |F| >= 1 required")
    kappa = 8**8 * d * d
    bound = LogBound(0, [(8, kappa * kappa * d), (absF, kappa)])
    return HeightCertificate("CorD", bound, (("d", d), ("absF", absF), ("kappa", kappa)))


def bound_corF(a, budget: FactorBudget = DEFAULT_FACTOR_BUDGET) -> HeightCertificate:
    """Generalized-Fermat coefficient bound for five nonzero coefficients
    a_i: nu = rad(prod a_i), log10(B) = 10^12 + 24*log10(nu)."""
    coeffs = _ints(a, "coefficient")
    if len(coeffs) != 5:
        raise ValueError(f"five coefficients required, got {len(coeffs)}")
    if any(v == 0 for v in coeffs):
        raise ValueError("coefficients must be nonzero")
    prod = 1
    for v in coeffs:
        prod *= v
    nu = int_radical(prod, budget)
    bound = LogBound(10**12, [(nu, 24)])
    return HeightCertificate("CorF", bound, (("a", coeffs), ("nu", nu)))


def _parse_positive(hX):
    """log10 of h(X) as a LogBound, or None when h(X) is zero.  h(X) is an
    int, a Fraction or a scientific string like '3.5e100', whose value is
    never materialized; the exponent after 'e' must be an int."""
    if not isinstance(hX, str):
        value = Fraction(hX)
        return LogBound.of_log10(value) if value else None
    mant_s, e, exp_s = hX.strip().lower().partition("e")
    mant = Fraction(mant_s)
    exp = int(exp_s) if e else 0  # read first: "0eabc" is no zero
    if mant == 0:
        return None
    if mant < 0:
        raise ValueError("bound inputs must be positive")
    return LogBound(exp) + LogBound.of_log10(mant)


def bound_thmC(d_X: int, nu: int, h_X=0) -> HeightCertificate:
    """Height bound c*d_X*nu^24 + h(X) in log10 form; the sum is majorized
    by max + log10(2) unless h(X) = 0, in which case it is exact."""
    d_X, nu = _ints((d_X, nu), "bound input")
    if d_X < 1 or nu < 1:
        raise ValueError("d_X >= 1 and nu >= 1 required")
    bound = LogBound(10**12, [(d_X, 1), (nu, 24)])
    log_hX = _parse_positive(h_X)
    if log_hX is not None:
        bound = LogBound.sum_upper(bound, log_hX)
    return HeightCertificate(
        "ThmC", bound, (("d_X", d_X), ("nu", nu), ("h_X", h_X))
    )


def bound_pullback(d: int, absF: int) -> HeightCertificate:
    """Coefficient bound for the containing-model construction applied to
    a degree-d plane curve: |f~| <= u*|F|^v with u = 3^((86d)^5) and
    v = (258d)^2, reported as log10(u*|F|^v)."""
    d, absF = _ints((d, absF), "bound input")
    if d < 1 or absF < 1:
        raise ValueError("d >= 1 and |F| >= 1 required")
    u_exp = (86 * d) ** 5
    v = (258 * d) ** 2
    bound = LogBound(0, [(3, u_exp), (absF, v)])
    return HeightCertificate(
        "CorPullback", bound, (("d", d), ("absF", absF), ("v", v))
    )
