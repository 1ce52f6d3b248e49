"""Surface scanning, unit reduction, the Z locus, and the S-unit oracle."""

import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from icotk.errors import BudgetExceededError
from icotk.fermat import (
    FermatInstance,
    _complete_triple,
    _expand,
    _orbit,
    _orbits,
    _scan_chunk,
    _sigma24,
    _signed_divisors,
    _window,
    _z_orbit,
    scan_instance,
    scan_surface,
    sunit_bounded,
    unit_reduce,
    z_member,
    z_triviality_scan,
)
from icotk.ico_surface import ProjPoint, fixed_geometry


def test_sigma24_matches_symbolic():
    geo = fixed_geometry()
    rng = random.Random(3)
    for _ in range(40):
        x = tuple(rng.randint(-9, 9) for _ in range(5))
        assert _sigma24(x) == (geo.sigma2.evaluate(x), geo.sigma4.evaluate(x))


# -- the surface scan ----------------------------------------------------------


def test_scan_b1_is_the_coordinate_points():
    rep = scan_surface(1)
    assert len(rep.points) == 5
    assert all(sorted(p.coords) == [0, 0, 0, 0, 1] for p in rep.points)
    assert rep.is_trivial and len(rep.trivial) == 5


@pytest.fixture(scope="module")
def scan10():
    return scan_surface(10)


def test_scan_monotone_in_bound(scan10):
    small = set(scan_surface(4).points)
    big = set(scan10.points)
    assert small <= big


def test_scan_closed_under_permutation(scan10):
    pts = set(scan10.points)
    rng = random.Random(17)
    sample = rng.sample(sorted(pts, key=lambda p: p.coords), 60)
    for p in sample:
        for perm in itertools.permutations(range(5)):
            q = ProjPoint(tuple(p.coords[i] for i in perm))
            assert q in pts


def test_scan_points_are_primitive_surface_points(scan10):
    import math

    for p in scan10.points:
        assert _sigma24(p.coords) == (0, 0)
        g = 0
        for c in p.coords:
            g = math.gcd(g, c)
        assert g == 1


def test_scan_contains_the_example_orbit(scan10):
    # (1, 0, 0, -2, -2) requires B >= 2 (its pair has |x3 + x4| = 4 > 2*1^2)
    assert ProjPoint((1, 0, 0, -2, -2)) in set(scan_surface(2).points)
    assert ProjPoint((1, 0, 0, -2, -2)) not in set(scan_surface(1).points)


def test_scan_threads_agree():
    serial = scan_surface(8, threads=1)
    parallel = scan_surface(8, threads=3)
    assert serial.points == parallel.points


# scan_surface(30) computed by expanding every raw triple hit into all its
# permutations: its size and the first 16 hex digits of the sha256 of its
# JSON coordinate list
SCAN30_POINTS = 2675
SCAN30_DIGEST = "a414bfca8da6871d"


def test_scan_b30_is_pinned():
    serial = scan_surface(30, threads=1)
    coords = [list(p.coords) for p in serial.points]
    assert len(coords) == SCAN30_POINTS
    assert hashlib.sha256(json.dumps(coords).encode()).hexdigest()[:16] == SCAN30_DIGEST
    assert scan_surface(30, threads=2).points == serial.points


# scan_surface(200): its size and digest, computed as for SCAN30 above
SCAN200_POINTS = 24155
SCAN200_DIGEST = "4ab037e0a28c150c"


def test_scan_b200_is_pinned():
    coords = [list(p.coords) for p in scan_surface(200).points]
    assert len(coords) == SCAN200_POINTS
    assert hashlib.sha256(json.dumps(coords).encode()).hexdigest()[:16] == SCAN200_DIGEST


@functools.lru_cache(maxsize=None)
def _every_triple_hits(B):
    """The raw hits of every sorted triple in [-B, B]: the enumeration the
    divisor-driven scan replaces."""
    hits = []
    for a in range(-B, B + 1):
        for b in range(a, B + 1):
            for c in range(b, B + 1):
                for x3, x4 in _complete_triple(B, a, b, c):
                    if any((a, b, c, x3, x4)):
                        hits.append((a, b, c, x3, x4))
    return tuple(hits)


@pytest.mark.parametrize("B", [1, 2, 8, 30, 70])
def test_divisor_scan_finds_every_orbit_of_the_triple_loop(B):
    # the orbits agree for each smallest coordinate a on its own, not only
    # in the union, where another triple can stand in for a lost one: the
    # scan keeps the primitive hits with a + c >= 0, and the union holds
    # the orbits of every hit
    want = {a: set() for a in range(-B, B + 1)}
    every = set()
    for t5 in _every_triple_hits(B):
        a, _, c, _, _ = t5
        every.add(_orbit(t5))
        if a + c >= 0 and math.gcd(*t5) == 1:
            want[a].add(_orbit(t5))
    for a, orbits in want.items():
        assert _scan_chunk((B, [a])) == orbits, a
    assert _scan_chunk((B, list(range(-B, B + 1)))) == every


def _enumerated(B, a, b, c):
    """Whether the scan's windows hold the sorted triple (a, b, c)."""
    win = _window(a, B)
    return -B <= a <= b <= c <= B and b in win and c in (win if a else _window(b, B))


@pytest.mark.parametrize("B", [1, 2, 8, 30, 70])
def test_a_skipped_triple_has_its_mirror_in_the_windows(B):
    # the lemma of the fermat docstring: a hit (a, b, c) with a + c < 0 has
    # its mirror (-c, -b, -a) in the windows, and the mirror completes to
    # the negated point
    mirrored = 0
    for a, b, c, x3, x4 in _every_triple_hits(B):
        if a + c < 0:
            assert _enumerated(B, -c, -b, -a), (a, b, c)
            assert (-x4, -x3) in list(_complete_triple(B, -c, -b, -a)), (a, b, c, x3, x4)
            mirrored += 1
    assert mirrored >= B


@pytest.mark.parametrize("B", [2, 8, 30, 70])
def test_a_dropped_multiple_has_its_primitive_part_in_the_windows(B):
    # the lemma of the fermat docstring: a hit (a, b, c) with a + c >= 0
    # whose completion has gcd g > 1 has (a, b, c)/g in the windows, and it
    # completes to the completion divided by g
    dropped = 0
    for t5 in _every_triple_hits(B):
        g = math.gcd(*t5)
        if t5[0] + t5[2] >= 0 and g > 1:
            a, b, c, x3, x4 = (v // g for v in t5)
            assert _enumerated(B, a, b, c), t5
            pairs = [sorted(pair) for pair in _complete_triple(B, a, b, c)]
            assert sorted((x3, x4)) in pairs, t5
            dropped += 1
    assert dropped >= B


def test_a_triple_with_a_common_factor_can_complete_to_a_primitive_point():
    # why the scan drops multiples among the completions, not the triples
    # with gcd > 1: at B = 200 this orbit comes only from such triples
    t5 = (-126, 140, 180, -315, -630)
    assert math.gcd(*t5[:3]) == 2 and math.gcd(*t5) == 1
    assert (-315, -630) in _complete_triple(200, *t5[:3])
    assert _orbit(t5) in _scan_chunk((200, [t5[0]]))


def test_every_completed_triple_meets_the_divisor_condition():
    # the lemma of the fermat docstring, on every raw hit with D != 0
    checked = 0
    for a, b, c, _, _ in _every_triple_hits(30):
        if (a + b) * (a + c) * (b + c) == 0:
            continue
        assert a**4 % (a + b) == 0
        assert a**4 % (a + c) == 0
        assert b**4 % (b + c) == 0
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("x", [-60, -12, -7, -1, 1, 2, 16, 30])
def test_window_is_the_divisor_condition(x):
    B = 70
    want = [y for y in range(x, B + 1) if x + y and x**4 % (x + y) == 0]
    assert _window(x, B) == want


@given(st.integers(-300, 300).filter(bool), st.integers(1, 4))
def test_signed_divisors_are_the_divisors_of_the_power(m, k):
    n = abs(m) ** k
    want = [d for d in range(1, n + 1) if n % d == 0] if n < 10**4 else None
    got = _signed_divisors(m, k)
    assert len(got) == len(set(got))
    assert all(n % d == 0 for d in got)
    assert set(got) == {-d for d in got}
    if want is not None:
        assert sorted(d for d in got if d > 0) == want


@given(
    st.tuples(*[st.integers(-40, 40)] * 5).filter(any),
    st.permutations(range(5)),
    st.integers(-7, 7).filter(bool),
)
def test_orbit_is_one_tuple_per_orbit(t5, perm, k):
    rep = _orbit(t5)
    assert _orbit(tuple(t5[i] for i in perm)) == rep
    assert _orbit(tuple(-c for c in t5)) == rep
    assert _orbit(tuple(k * c for c in t5)) == rep
    assert list(rep) == sorted(rep) and math.gcd(*rep) == 1
    g = math.gcd(*t5)
    assert sorted(rep) in (sorted(c // g for c in t5), sorted(-c // g for c in t5))


@pytest.fixture
def made_points(monkeypatch):
    """The coordinates of every ProjPoint the fermat module builds, by the
    checking constructor or the trusted one."""
    import icotk.fermat as fermat

    made = []

    class CountingProjPoint(ProjPoint):
        def __init__(self, coords):
            made.append(coords)
            super().__init__(coords)

        @classmethod
        def _canonical(cls, coords):
            made.append(coords)
            return super()._canonical(coords)

    monkeypatch.setattr(fermat, "ProjPoint", CountingProjPoint)
    return made


def test_scan_builds_one_point_per_reported_point(made_points):
    rep = scan_surface(30, threads=1)
    assert len(rep.points) == SCAN30_POINTS
    assert made_points == [p.coords for p in rep.points]


def test_scan_rechecks_every_point_on_the_surface(monkeypatch):
    import icotk.fermat as fermat

    bad = (1, 0, 0, -2, -2)  # a point of scan_surface(2), sigma_2 = sigma_4 = 0
    sigma24 = fermat._sigma24
    seen = []

    def one_wrong(coords):
        seen.append(coords)
        return (1, 0) if coords == bad else sigma24(coords)

    monkeypatch.setattr(fermat, "_sigma24", one_wrong)
    with pytest.raises(AssertionError, match="off-surface"):
        scan_surface(8, threads=1)
    assert bad in seen


def test_trivial_and_nontrivial_split_the_points_in_order():
    rep = scan_surface(8)
    trivial, nontrivial = set(rep.trivial), set(rep.nontrivial)
    assert not trivial & nontrivial
    assert trivial | nontrivial == set(rep.points)
    assert list(rep.trivial) == [p for p in rep.points if p in trivial]
    assert list(rep.nontrivial) == [p for p in rep.points if p in nontrivial]
    assert all(max(map(abs, p.coords)) == 1 for p in rep.trivial)
    assert all(max(map(abs, p.coords)) > 1 for p in rep.nontrivial)
    assert len(rep.trivial) == 5 and not rep.is_trivial


def test_scan_rejects_bad_bound():
    with pytest.raises(ValueError):
        scan_surface(0)


@pytest.mark.parametrize("B", [2.5, 3.0, "3", None])
def test_scans_refuse_a_bound_that_is_not_an_int(B):
    # a float used to fail inside range(), a str at the comparison with 1
    for scan in (scan_surface, z_triviality_scan,
                 lambda B: scan_instance(FermatInstance((1, 1, 1, 1, 1), 1), B)):
        with pytest.raises(TypeError, match=r"B .* is not an int"):
            scan(B)


# -- instances -------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError):
        FermatInstance((1, 1, 0, 1, 1), 2)
    with pytest.raises(ValueError):
        FermatInstance((1, 1, 1, 1), 2)
    with pytest.raises(ValueError):
        FermatInstance((1, 1, 1, 1, 1), 0)
    # floats used to be truncated by int(c): the next .a was (1, 1, 1, 1, 1)
    with pytest.raises(TypeError):
        FermatInstance((1.5, 1, 1, 1, 1), 1)
    with pytest.raises(TypeError):
        FermatInstance((1, 1, 1, 1, 1), 1.0)


# floats used to be truncated by int(c): z_member((2.5, 2, 0)) was True and
# lhs((0.9, -1, 0, 0, 0)) was -1, its value at (0, -1, 0, 0, 0)
def test_z_member_rejects_non_int_coordinates():
    with pytest.raises(TypeError):
        z_member((2.5, 2, 0))
    with pytest.raises(TypeError):
        z_member((2, "2", 0))


def test_lhs_rejects_non_int_coordinates():
    inst = FermatInstance((1, 1, 1, 1, 1), 1)
    assert inst.lhs((0, -1, 0, 0, 0)) == -1
    with pytest.raises(TypeError):
        inst.lhs((0.9, -1, 0, 0, 0))
    with pytest.raises(TypeError):
        inst.lhs((Fraction(1, 2), 0, 0, 0, 0))


def test_scan_instance_filters():
    inst = FermatInstance((1, 1, 1, 1, 1), 1)  # sigma_1 = 0 plane section
    rep = scan_instance(inst, 6)
    surf = scan_surface(6)
    expected = [p for p in surf.points if sum(p.coords) == 0]
    assert list(rep.points) == expected
    assert all(inst.lhs(p.coords) == 0 for p in rep.points)


def test_scan_instance_split():
    # (1, 0, 0, -2, -2) and its orbit under permuting the last four
    # coordinates solve 4*x0 + x1 + x2 + x3 + x4 = 0; the only trivial
    # surface points are the coordinate points, which solve no instance
    rep = scan_instance(FermatInstance((4, 1, 1, 1, 1), 1), 8)
    assert [p.coords for p in rep.points] == [
        (1, -2, -2, 0, 0), (1, -2, 0, -2, 0), (1, -2, 0, 0, -2),
        (1, 0, -2, -2, 0), (1, 0, -2, 0, -2), (1, 0, 0, -2, -2),
    ]
    assert rep.trivial == ()
    assert rep.nontrivial == rep.points
    assert not rep.is_trivial


# -- filtered scans against expanding first ----------------------------------------


@functools.lru_cache(maxsize=None)
def _surface_points(B):
    return scan_surface(B).points


def _expand_then_filter(B, keep):
    """The filtered scans as they ran before they filtered orbits: every
    point of the surface scan up to B, then the filter on each point."""
    return tuple(p for p in _surface_points(B) if keep(p.coords))


def _nontrivial_z(coords):
    return any(abs(c) > 1 for c in coords) and z_member(coords)


# symmetric and asymmetric coefficients for n = 1, 2, 3, with and without
# points up to B = 70; (6, -8, -1, -2, 8), n = 1 is the seed-5 benchmark one
FILTER_INSTANCES = [
    ((1, 1, 1, 1, 1), 1), ((4, 1, 1, 1, 1), 1), ((6, -8, -1, -2, 8), 1),
    ((-2, 4, 9, -7, 4), 1), ((1, 1, 1, 1, 1), 2), ((8, 1, 1, -1, -1), 2),
    ((-5, 4, 4, -3, 2), 2), ((16, 1, 1, 1, 1), 3), ((-2, 8, 8, 3, -7), 3),
]


@pytest.mark.parametrize("B", [1, 2, 8, 30, 70])
def test_the_z_scan_equals_expanding_first(B):
    assert z_triviality_scan(B).points == _expand_then_filter(B, _nontrivial_z)


@pytest.mark.parametrize("B", [1, 2, 8, 30, 70])
def test_instance_scans_equal_expanding_first(B):
    for a, n in FILTER_INSTANCES:
        inst = FermatInstance(a, n)
        expected = _expand_then_filter(B, lambda c: inst.lhs(c) == 0)
        assert scan_instance(inst, B).points == expected, (a, n)


def _expand_by_projpoint(orbits, keep=None):
    """The expansion as it ran before it built canonical coordinates itself:
    each distinct permutation that passes keep through ProjPoint, duplicates
    dropped by coordinates, then sorted."""
    points = {}
    for orbit in orbits:
        for perm in filter(keep, set(itertools.permutations(orbit))):
            pt = ProjPoint(perm)
            points[pt.coords] = pt
    return tuple(map(points.__getitem__, sorted(points)))


@pytest.mark.parametrize("B", [1, 2, 8, 30, 70, 200])
def test_the_expansion_equals_canonicalizing_each_permutation(B):
    orbits = _orbits(B)
    points = _expand(orbits)
    assert points == _expand_by_projpoint(orbits)
    for p in points:
        q = ProjPoint(p.coords)
        assert type(p) is ProjPoint
        assert q == p and hash(q) == hash(p)


def test_the_expansion_refuses_a_non_primitive_orbit():
    with pytest.raises(AssertionError, match="non-primitive"):
        _expand([(-2, 0, 0, 0, 0)])


def test_filtered_expansions_equal_canonicalizing_each_permutation():
    orbits = _orbits(70)
    for a, n in FILTER_INSTANCES:
        inst = FermatInstance(a, n)

        def keep(c):
            return inst.lhs(c) == 0

        assert _expand(orbits, keep) == _expand_by_projpoint(orbits, keep), (a, n)


@given(st.tuples(*[st.integers(-3, 3)] * 5).filter(lambda t: math.gcd(*t) == 1))
@example((-2, -2, 0, 1, 1))  # its orbit's tuple ends in 1
@settings(max_examples=300)
def test_the_z_orbit_filter_is_the_point_filter(t):
    # the z-scan is empty at every tested bound, so only this test sees the
    # orbit filter give a different answer than the filter on the points
    assert _z_orbit(_orbit(t)) == _nontrivial_z(t)


def test_an_empty_z_scan_builds_no_point(made_points):
    assert z_triviality_scan(30).points == ()
    assert made_points == []


@pytest.mark.parametrize("a, n, count", [
    ((1, 1, 1, 1, 1), 1, 0), ((4, 1, 1, 1, 1), 1, 6), ((-2, 4, 9, -7, 4), 1, 10),
])
def test_an_instance_scan_builds_at_most_two_points_per_reported_point(
        made_points, a, n, count):
    rep = scan_instance(FermatInstance(a, n), 70)
    assert len(rep.points) == count
    assert len(made_points) <= 2 * count


# -- unit reduction ----------------------------------------------------------------


def test_unit_reduce_example():
    inst = FermatInstance((1, 1, -2, 1, 1), 1)
    ue = unit_reduce(inst, (1, 1, 1, 0, 0))
    assert ue.k == 2
    assert ue.u == (Fraction(1, 2), Fraction(1, 2))
    assert ue.S == (2,)
    assert not ue.degenerate
    assert ue.off_surface
    assert ue.support == (0, 1, 2)


def test_unit_reduce_rejects_non_solutions():
    inst = FermatInstance((1, 1, 1, 1, 1), 2)
    with pytest.raises(ValueError):
        unit_reduce(inst, (1, 1, 1, 0, 0))


def test_unit_reduce_degenerate_subsum():
    # u = (1/3, -1/3, 2/3, 1/3): the subsum u_0 + u_1 vanishes
    inst = FermatInstance((1, -1, 2, 1, -3), 1)
    ue = unit_reduce(inst, (1, 1, 1, 1, 1))
    assert ue.k == 4
    assert ue.u == (Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(1, 3))
    assert ue.S == (2, 3)
    assert ue.degenerate
    assert (0, 1) in ue.vanishing
    for sub in ue.vanishing:
        assert sum(ue.u[j] for j in sub) == 0


def test_unit_reduce_empty_S():
    inst = FermatInstance((1, 1, 1, 1, 1), 3)
    ue = unit_reduce(inst, (1, -1, 1, -1, 0))
    assert ue.S == ()
    assert sum(ue.u) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_reduce_on_scanned_points(n):
    # every scanned instance point reduces to a unit equation exactly
    inst = FermatInstance((1, 1, 1, 1, 1), n)
    rep = scan_instance(inst, 5)
    for p in rep.points:
        nz = sum(1 for c in p.coords if c)
        if nz < 2:
            continue
        ue = unit_reduce(inst, p)
        assert sum(ue.u) == 1
        assert not ue.off_surface


def test_unit_reduce_rejects_float_coordinates():
    # 1.5 used to be truncated, reducing (1, 1, 1, 0, 0) instead
    inst = FermatInstance((1, 1, -2, 1, 1), 1)
    with pytest.raises(TypeError):
        unit_reduce(inst, (1.5, 1, 1, 0, 0))


def test_unit_reduce_scaling_invariance():
    inst = FermatInstance((1, 1, -2, 1, 1), 1)
    a = unit_reduce(inst, (1, 1, 1, 0, 0))
    b = unit_reduce(inst, (7, 7, 7, 0, 0))
    assert a == b  # ProjPoint normalization happens first


# -- the Z locus ---------------------------------------------------------------------


def test_z_member_examples():
    assert z_member((2, 2, 1, 1, 0))
    assert z_member((1, 1, 1))
    assert z_member((1, -1, 0, 0, 0))
    assert not z_member((1, 0, 0, 0, 0))
    assert not z_member((2, 2, 1, 0, 0))
    assert z_member((0, 0, 0, 0, 0))


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
@settings(max_examples=500)
def test_z_member_definitions_agree(coords):
    # z_member asserts internally that the ratio form and the binomial
    # equations give the same answer
    z_member(coords)


def test_z_triviality_scan_empty():
    rep = z_triviality_scan(8)
    assert rep.is_trivial
    assert rep.points == ()
    assert rep.trivial == ()


# -- bounded S-unit oracle ------------------------------------------------------------


def test_sunit_k2_s2():
    got = sunit_bounded({2}, 2, 2)
    assert got == [
        (Fraction(-1), Fraction(2)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2), Fraction(-1)),
    ]


def test_sunit_empty_s():
    assert sunit_bounded(set(), 2, 3) == []


def test_sunit_k1():
    assert sunit_bounded({2, 3}, 1, 2) == [(Fraction(1),)]


def test_sunit_solutions_verify():
    for tup in sunit_bounded({2, 3}, 2, 2):
        assert sum(tup) == 1


def test_sunit_validation_and_budget():
    with pytest.raises(ValueError):
        sunit_bounded({4}, 2, 1)
    with pytest.raises(ValueError):
        sunit_bounded({2}, 0, 1)
    with pytest.raises(TypeError):  # (2.5, 3) was read as the primes {2, 3}
        sunit_bounded((2.5, 3), 2, 1)
    with pytest.raises(BudgetExceededError):
        sunit_bounded({2, 3, 5}, 4, 6, enumeration_cap=1000)


def test_sunit_cap_is_checked_before_enumerating(monkeypatch):
    import icotk.fermat as fermat

    class NoProduct:
        @staticmethod
        def product(*args, **kwargs):
            raise AssertionError("the unit box was enumerated before the cap check")

    monkeypatch.setattr(fermat, "itertools", NoProduct)
    # 2 * 5^2 = 50 units, 50^2 = 2500 pairs > 10
    with pytest.raises(BudgetExceededError, match="50\\^2"):
        sunit_bounded({2, 3}, 2, 2, enumeration_cap=10)
