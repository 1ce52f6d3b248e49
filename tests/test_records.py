"""The value records: immutable named tuples, equal and hashed by value,
with a keyword repr, their defaults and their checks."""

from fractions import Fraction

import pytest

from icotk.algebra import P4, Poly
from icotk.config import FactorBudget, GroebnerBudget
from icotk.fermat import FermatInstance, ScanReport, UnitEquation
from icotk.groebner import HilbertData, MonomialOrder
from icotk.heights import HeightCertificate, LogBound, PointHeight
from icotk.ico_models import IcoModel
from icotk.ico_surface import IdentityReport, QuadraticPoint
from icotk.plane_curves import ContainingModelReport, TauReport

_CERT = HeightCertificate("CorD", LogBound(0, [(2, 1)]), (("d", 1), ("absF", 1)))

# each record with the values of every field, in order
RECORDS = [
    (FactorBudget, (5, 7)),
    (GroebnerBudget, (5,)),
    (MonomialOrder, ("lex",)),
    (HilbertData, (3, ((0, 1), (2, -1)), (0, 2, -1, 0), 1, 2)),
    (PointHeight, (7,)),
    (HeightCertificate, _CERT),
    (QuadraticPoint, tuple(QuadraticPoint())),
    (IdentityReport, ("sampled", 3, None, (("a", True), ("b", False)))),
    (TauReport, ("fails", "curve-meets-Ctau-off-Ttau", "w", (), 1.5)),
    (ContainingModelReport, (IcoModel([Poly.monomial(P4, (2, 0, 0, 0, 0))]), 1, 2, 128,
                             True, LogBound(0), _CERT, True)),
    (FermatInstance, ((1, 2, -3, 4, 5), 3)),
    (ScanReport, (10, "three-two-split", (), 0.25)),
    (UnitEquation, (1, (Fraction(1),), (2, 3), False, (), True, (0, 4))),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, values):
    assert issubclass(cls, tuple) and cls.__slots__ == ()
    rec = cls(*values)
    assert len(cls._fields) == len(values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    twin = cls(**dict(zip(cls._fields, values)))
    assert twin == rec and hash(twin) == hash(rec)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(rec) == f"{cls.__name__}({fields})"


def test_record_defaults_and_repr():
    assert repr(GroebnerBudget(max_reductions=5)) == "GroebnerBudget(max_reductions=5)"
    assert GroebnerBudget() == GroebnerBudget(10**7)
    assert FactorBudget() == FactorBudget(10**6, 2 * 10**6)
    assert FactorBudget(rho_iterations=3).trial_limit == 10**6
    assert MonomialOrder() == MonomialOrder("grevlex")
    assert QuadraticPoint().minpoly == "t^2 - t - 1"
    assert GroebnerBudget(5) != GroebnerBudget(6)


def test_fermat_instance_checks_and_normalizes_its_fields():
    assert FermatInstance([1, 2, 3, 4, 5], 2).a == (1, 2, 3, 4, 5)
    assert FermatInstance(a=iter((1, 1, 1, 1, 1)), n=1).a == (1, 1, 1, 1, 1)
    with pytest.raises(TypeError, match=r"^coefficient 1.5 is not an int$"):
        FermatInstance((1.5, 1, 1, 1, 1), 0)
    with pytest.raises(TypeError, match=r"^exponent 2.0 is not an int$"):
        FermatInstance((1, 1, 1, 1), 2.0)
    for a in ((1, 1, 1, 1), (1, 1, 0, 1, 1), (1,) * 6):
        with pytest.raises(ValueError, match=r"^need five nonzero coefficients$"):
            FermatInstance(a, 0)
    with pytest.raises(ValueError, match=r"^exponent n >= 1 required$"):
        FermatInstance((1, 1, 1, 1, 1), 0)


def test_height_certificate_checks_its_tag():
    with pytest.raises(ValueError, match=r"^unknown certificate tag 'CorE'$"):
        HeightCertificate("CorE", LogBound(0), ())
    with pytest.raises(ValueError, match=r"^unknown certificate tag 'CorE'$"):
        HeightCertificate(tag="CorE", bound=LogBound(0), inputs=())
    assert _CERT.input("absF") == 1
