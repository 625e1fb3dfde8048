"""Records behave as frozen dataclasses: reprs, equality and hashing,
immutability, argument binding and the ``__post_init__`` checks."""

import copy
import pickle

import pytest

from fanokit.cox import AbelianQuotient, FiberCheck
from fanokit.errors import SchemaError
from fanokit.polygon import CyclicQuotient2D, Polygon, SingularityRecord
from fanokit.polyhedra import ConeV, HalfspaceSystem
from fanokit.scaffolding import ShapeVariety, Strut

Q = CyclicQuotient2D.normalised(5, 2)


@pytest.mark.parametrize("record, text", [
    # Literals a frozen dataclass prints for the same fields.
    (Q, "CyclicQuotient2D(r=5, a=2)"),
    (SingularityRecord(0, Q, 3, 1, 3, 0),
     "SingularityRecord(edge=0, quotient=CyclicQuotient2D(r=5, a=2), length=3, height=1, "
     "t_count=3, residue=0)"),
    (ConeV(2, ((1, 0), (0, 1))), "ConeV(dim=2, rays=((1, 0), (0, 1)), lineality=())"),
    (HalfspaceSystem(2, ((1, 0),), (0,)), "HalfspaceSystem(dim=2, normals=((1, 0),), bounds=(0,))"),
    (FiberCheck(True), "FiberCheck(verified=True, witness=None)"),
    (FiberCheck(False, ("x1", "z2")), "FiberCheck(verified=False, witness=('x1', 'z2'))"),
    (Strut("x1", [1, 0, 0, 0], [1]), "Strut(name='x1', divisor=(1, 0, 0, 0), chi=(1,))"),
    (AbelianQuotient(((3, (1, 2)),)), "AbelianQuotient(factors=((3, (1, 2)),))"),
])
def test_repr_matches_the_dataclass_repr(record, text):
    assert repr(record) == text


def test_equality_within_one_type_and_equal_hashes():
    assert CyclicQuotient2D(5, 2) == Q and hash(CyclicQuotient2D(5, 2)) == hash(Q)
    assert hash(Q) == hash((5, 2))
    assert Q != CyclicQuotient2D(5, 3)
    assert Q != (5, 2) and Q.__eq__((5, 2)) is NotImplemented
    # Same field values, different types.
    assert AbelianQuotient(((1, 0),)) != Polygon(((1, 0),))
    assert ConeV(2, ()) == ConeV(2, (), ()) == ConeV(dim=2, rays=())
    assert len({ConeV(2, ()), ConeV(2, (), ()), ConeV(2, ((1, 0),))}) == 2


def test_records_are_frozen():
    with pytest.raises(AttributeError, match="cannot assign to field 'r'"):
        Q.r = 7
    with pytest.raises(AttributeError, match="cannot delete field 'a'"):
        del Q.a
    with pytest.raises(AttributeError):
        Q.other = 1
    assert Q == CyclicQuotient2D(5, 2)


@pytest.mark.parametrize("args, kwargs", [
    ((2,), {}),                               # rays missing
    ((), {"rays": ()}),                       # dim missing
    ((2, (), (), ()), {}),                    # too many
    ((2, ()), {"lines": ()}),                 # unknown field
    ((2, ()), {"dim": 2}),                    # dim twice
])
def test_missing_unknown_or_repeated_fields_are_type_errors(args, kwargs):
    with pytest.raises(TypeError):
        ConeV(*args, **kwargs)


def test_keyword_and_default_binding():
    cone = ConeV(lineality=((1, 0),), dim=2, rays=())
    assert (cone.dim, cone.rays, cone.lineality) == (2, (), ((1, 0),))
    assert cone.lineality and not ConeV(2, ()).lineality


def test_post_init_checks_and_normalises():
    with pytest.raises(ValueError, match="zero normal"):
        HalfspaceSystem(2, ((1, 0), (0, 0)), (0, 0))
    with pytest.raises(SchemaError, match="must be positive"):
        ShapeVariety((1, 0))
    assert ShapeVariety(["2", 1]).dims == (2, 1)


def test_copy_and_pickle_round_trip():
    record = SingularityRecord(0, Q, 3, 1, 3, 0)
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert other == record and repr(other) == repr(record)
