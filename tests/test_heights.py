"""Exact log-scale bounds: decomposition, ordering, rendering, certificates."""

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icotk.heights import (
    LogBound,
    PointHeight,
    bound_corD,
    bound_corF,
    bound_pullback,
    bound_thmC,
    bound_thmE,
    _split_small,
    point_height,
)


# -- LogBound arithmetic -------------------------------------------------------


def _split_small_by_every_odd_number(m):
    """Oracle: trial division by 2 and every odd d < 10 000."""
    out = {}
    d = 2
    while d < 10_000 and d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def test_split_small_equals_trial_division_by_every_odd_number():
    rng = random.Random(11)
    near = (9931, 9941, 9949, 9967, 9973, 10007, 10009, 10037)  # primes about the limit
    ms = list(range(1, 20_000)) + [rng.randrange(1, 10**30) for _ in range(300)]
    ms += [p * q for p in near for q in near] + [2**5 * 3 * p**3 for p in near]
    for m in ms:
        assert _split_small(m) == _split_small_by_every_odd_number(m), m


def test_canonical_decomposition_equality():
    # log10(8) + log10(2) == log10(16), both canonicalize to 4*log10(2)
    a = LogBound(0, [(8, 1), (2, 1)])
    b = LogBound(0, [(16, 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_exact_part_absorbs_powers_of_ten():
    assert LogBound(0, [(1000, 1)]) == LogBound(3, [])
    assert LogBound(2, [(10, 3)]) == LogBound(5, [])


def test_compare_mixed_terms():
    # 2*log10(3) < log10(10) = 1 < 2*log10(4)
    assert LogBound(0, [(3, 2)]) < LogBound(1, [])
    assert LogBound(1, []) < LogBound(0, [(4, 2)])
    assert LogBound(0, [(3, 2)]) <= LogBound(0, [(9, 1)])
    assert LogBound(0, [(3, 2)]) >= LogBound(0, [(9, 1)])


@given(
    st.integers(2, 10**6),
    st.integers(2, 10**6),
    st.integers(1, 40),
    st.integers(1, 40),
)
@settings(max_examples=120)
def test_compare_agrees_with_float_log(m1, m2, c1, c2):
    a = LogBound(0, [(m1, c1)])
    b = LogBound(0, [(m2, c2)])
    fa = c1 * math.log10(m1)
    fb = c2 * math.log10(m2)
    if abs(fa - fb) < 1e-6:
        return  # too close for float arithmetic to adjudicate
    assert (a < b) == (fa < fb)


@given(st.integers(1, 9999), st.integers(1, 9999))
def test_sum_is_monotone(m1, m2):
    # below the trial-division limit every atom splits into primes, so the
    # product rule holds on the nose
    a = LogBound(0, [(m1, 1)])
    s = a + LogBound(0, [(m2, 1)])
    assert s == LogBound(0, [(m1 * m2, 1)])
    assert s >= a


def test_fractional_coefficients():
    half = LogBound(0, [(2, Fraction(1, 2))])
    assert half + half == LogBound(0, [(2, 1)])
    assert half < LogBound(0, [(2, 1)])


def test_rendered_value_is_an_upper_bound():
    b = LogBound(0, [(3, 1)])
    s = b.render(12)
    mantissa, exp = s.split("E")
    val = Fraction(mantissa) * Fraction(10) ** int(exp)
    assert val > Fraction(4771212547196, 10**13)  # log10(3) = 0.47712125471966...
    assert val < Fraction(4771212548, 10**10)


def test_render_rejects_negative_digits():
    # a negative digit count would print 10^12 + 24*log10(2) as "0.E+13",
    # below the value
    b = LogBound(10**12, [(2, 24)])
    assert b.render(0) == "2.E+12"
    with pytest.raises(ValueError):
        b.render(-1)


def test_render_refuses_more_digits_than_an_int_prints():
    # the mantissa is an int of digits + 1 digits, which str() must print
    limit = sys.get_int_max_str_digits()
    assert LogBound(12).render(limit - 2) == "1.2" + "0" * (limit - 3) + "E+1"
    with pytest.raises(ValueError, match="--digits"):
        LogBound(12).render(limit)


def test_render_pure_integer():
    assert LogBound(10**12, []).render(30) == (
        "1.000000000000000000000000000000E+12"
    )


def test_render_carry():
    # log10(10^k - tiny) style carries: 2*log10(10) renders as 2 exactly
    assert LogBound(0, [(10, 2)]).render(6) == "2.000000E+0"


def test_of_log10_brackets():
    lb = LogBound.of_log10(630)
    assert LogBound(0, [(630, 1)]) == lb


def test_comparison_escalation_raises_on_equal_atoms():
    # two decompositions of the same value whose atoms exceed the trial
    # limit cannot be separated at any precision; the comparison refuses
    # rather than guessing
    p = 1_000_003 * 1_000_033  # composite atom beyond canonicalization
    a = LogBound(0, [(p, 2)])
    b = LogBound(0, [(p * p, 1)])
    if a.terms == b.terms:
        # canonicalization merged them; equality short-circuits, no raise
        assert a == b
    else:
        with pytest.raises(ArithmeticError):
            a < b  # noqa: B015  - evaluating the comparison is the test


def _value_300(bound):
    """The value of a LogBound to 300 digits, far past the 30 and 60 digit
    enclosures checked against it."""
    with localcontext() as ctx:
        ctx.prec = 300
        total = Decimal(bound.E.numerator) / Decimal(bound.E.denominator)
        ln10 = Decimal(10).ln()
        for m, c in bound.terms:
            total += Decimal(c.numerator) / Decimal(c.denominator) * Decimal(m).ln() / ln10
        return total


@given(
    st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=50).map(lambda f: f % 100)),
    st.lists(
        st.tuples(st.integers(2, 2999),
                  st.one_of(st.sampled_from([1, -1, 2, -3]),
                            st.fractions(max_denominator=9).filter(bool))),
        min_size=1, max_size=3,
    ),
    st.sampled_from([30, 60]),
)
@settings(max_examples=200)
def test_interval_encloses_the_value(E, terms, prec):
    bound = LogBound(E, terms)
    lo, hi = bound._interval(prec)
    assert lo <= _value_300(bound) <= hi


def test_interval_of_log10_3_encloses_it():
    # Decimal.ln rounds to nearest in any context: 30 digits of ln(3) and
    # ln(10) rounded "down" gave an upper end below log10(3)
    lo, hi = LogBound(0, [(3, 1)])._interval(30)
    assert lo <= _value_300(LogBound(0, [(3, 1)])) <= hi


def _log10_at_80_digits(m):
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(m).ln() / Decimal(10).ln()


def test_interval_widens_the_logarithm_of_ten():
    # at 3 digits ln(10) rounded to nearest alone gives lo = 2.40
    lo, hi = LogBound(0, [(251, 1)])._interval(3)
    assert lo <= _log10_at_80_digits(251) <= hi


def test_interval_widens_the_logarithm_of_m():
    # at 14 digits ln(22031) rounded to nearest alone gives lo = 4.3430342104792
    lo, hi = LogBound(0, [(22031, 1)])._interval(14)
    assert lo <= _log10_at_80_digits(22031) <= hi


def test_compare_sees_a_tiny_positive_difference():
    # E + log10(3) - log10(5) = 10^-70 up to 10^-300
    with localcontext() as ctx:
        ctx.prec = 300
        d = Decimal(3).ln() / Decimal(10).ln() - Decimal(5).ln() / Decimal(10).ln()
    E = -Fraction(d) + Fraction(1, 10**70)
    assert LogBound(E, [(3, 1), (5, -1)]).compare(LogBound(0)) == 1
    assert LogBound(-E, [(3, -1), (5, 1)]).compare(LogBound(0)) == -1


# -- point heights ---------------------------------------------------------------


def test_point_height_example():
    h = point_height((126, -140, 315, 630, -180))
    assert h.max_abs == 630
    assert h.nat == math.log(630)
    assert not h.is_trivial


@given(st.lists(st.integers(-1, 1), min_size=2, max_size=5))
def test_trivial_points_have_height_zero(coords):
    if not any(coords):
        return
    h = point_height(coords)
    assert h.is_trivial
    assert h.nat == 0.0


def test_point_height_rejects_zero_vector():
    with pytest.raises(ValueError):
        point_height((0, 0, 0))


# -- certificates ------------------------------------------------------------------


def test_thmE_certificate():
    cert = bound_thmE(1)
    assert cert.tag == "ThmE/CorXf"
    assert cert.bound == LogBound(10**12, [])
    cert2 = bound_thmE(2310)
    assert cert2.bound == LogBound(10**12, [(2310, 24)])
    assert cert2.input("nu") == 2310


def test_corD_certificate():
    cert = bound_corD(1, 1)
    kappa = 8**8
    assert cert.input("kappa") == kappa == 16777216
    assert cert.bound == LogBound(0, [(8, kappa * kappa)])


def test_corF_certificate():
    cert = bound_corF((1, 1, 1, 1, 2))
    assert cert.tag == "CorF"
    assert cert.input("nu") == 2
    assert cert.bound == LogBound(10**12, [(2, 24)])
    with pytest.raises(ValueError):
        bound_corF((1, 0, 1, 1, 1))


@pytest.mark.parametrize("a", [(), (2,), (1, 2), (1, 1, 1, 2), (1, 1, 1, 1, 1, 2)])
def test_corF_needs_five_coefficients(a):
    # the generalized-Fermat equation has five coefficients; with two the
    # certificate read nu = 2 for an equation that does not exist
    with pytest.raises(ValueError, match="five coefficients"):
        bound_corF(a)


def test_corF_radical_of_product():
    cert = bound_corF((2, 4, -8, 3, 9))
    # product 2*4*8*3*9, radical 6
    assert cert.input("nu") == 6


def test_thmC_with_zero_height():
    cert = bound_thmC(8, 2, 0)
    assert cert.bound == LogBound(10**12, [(8, 1), (2, 24)])


@pytest.mark.parametrize("h_X", [0, Fraction(0), "0", "-0", "0e5", " 0E100 ", "0/7"])
def test_thmC_zero_height_in_every_spelling_is_exact(h_X):
    assert bound_thmC(8, 2, h_X).bound == LogBound(10**12, [(8, 1), (2, 24)])


@pytest.mark.parametrize("h_X, match", [
    ("3.5e", "invalid literal for int"),  # the exponent after e is an int
    ("1e5e6", "invalid literal for int"),
    ("e5", "Invalid literal for Fraction"),
    ("abc", "Invalid literal for Fraction"),
    ("-1", "bound inputs must be positive"),
    (-1, "log10 argument must be positive"),
])
def test_thmC_refuses_malformed_or_negative_heights(h_X, match):
    with pytest.raises(ValueError, match=match):
        bound_thmC(1, 1, h_X)


def test_thmC_scientific_height_equals_its_rational_value():
    assert bound_thmC(1, 1, "3.5E100").bound == bound_thmC(1, 1, 35 * 10**99).bound
    assert bound_thmC(1, 1, "7e-3").bound == bound_thmC(1, 1, Fraction(7, 1000)).bound


@pytest.mark.parametrize("terms", [[(2.5, 1)], [("7", 1)], {2.5: 1}])
def test_log_atoms_are_ints_never_truncated(terms):
    # int() would read 2.5 as 2 and "7" as 7
    with pytest.raises(TypeError, match="log argument"):
        LogBound(0, terms)


def test_thmC_with_positive_height():
    cert = bound_thmC(1, 1, "1e6")
    # max(base, hX/log10(2)) <= base + hX/log10(2), certified upward
    assert cert.bound >= LogBound(10**12, [])


def test_pullback_certificate_scales_with_degree():
    c1 = bound_pullback(1, 2)
    c2 = bound_pullback(2, 2)
    assert c1.tag == c2.tag == "CorPullback"
    assert c1.bound < c2.bound
    assert c1.input("absF") == 2


@pytest.mark.parametrize("fn, args", [
    (bound_thmE, (1.9,)),  # int() would certify nu = 1
    (bound_thmE, (Fraction(3, 2),)),
    (bound_thmE, ("2",)),
    (point_height, ((2.9, 1),)),  # int() would report max_abs 2
    (point_height, ((0.5, 0.4),)),  # int() would call it a zero vector
    (point_height, ((Fraction(1, 2), 1),)),
    (bound_corD, (1.5, 1)),
    (bound_corD, (1, 2.5)),
    (bound_corF, ((1, 1, 1, 1, 2.5),)),
    (bound_thmC, (8.5, 2)),
    (bound_thmC, (8, 2.5)),
    (bound_pullback, (1, 2.5)),
    (bound_pullback, (Fraction(1), 2)),
])
def test_height_entry_points_refuse_non_integers(fn, args):
    # a truncated input would certify a bound or a height for another input
    with pytest.raises(TypeError):
        fn(*args)
