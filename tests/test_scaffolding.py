import json
from importlib import resources
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fanokit.linalg
import fanokit.polyhedra
from fanokit.errors import FanokitError, NonSimplicial, SchemaError, Unbounded
from fanokit.linalg import det, dot, primitive
from fanokit.polyhedra import halfspaces, homogenized_cone, vertices
from fanokit.scaffolding import (
    NormalFan,
    Scaffolding,
    ShapeVariety,
    Strut,
    build_qs,
    normal_fan,
    scaffolding_from_json,
    theta_matrix,
    variable_names,
)

from test_linalg import rank

HEX = [(2, 1), (1, 2), (-1, 2), (-2, -1), (-1, -2), (1, -2)]

QS_NORMALS = (
    (-1, -1, 2),
    (-1, -1, -2),
    (1, -2, 1),
    (-2, 1, -1),
    (1, 0, 0),
    (0, 1, 0),
)

CONES = (
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (0, 3, 5),
    (0, 4, 5),
    (1, 2, 4),
    (1, 3, 5),
    (1, 4, 5),
)


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = []
    for p in points[1:]:
        diff = [a - b for a, b in zip(p, base)]
        den = lcm(*(c.denominator for c in diff)) if diff else 1
        rows.append(tuple(int(c * den) for c in diff))
    return rank(rows)


def affine_rank_normal_fan(hs):
    """Reference normal fan: Fraction vertices, and a facet wherever the
    vertices tight at an inequality have affine rank dim - 1."""
    verts = [tuple(v) for v in vertices(hs)]
    if not verts:
        raise SchemaError("polytope is empty")
    if _affine_rank(verts) < hs.dim:
        raise NonSimplicial("polytope is not full-dimensional")
    tight = [
        {i for i, (n, b) in enumerate(zip(hs.normals, hs.bounds)) if dot(n, v) == b}
        for v in verts
    ]
    facet_rows = [
        i
        for i in range(len(hs.normals))
        if _affine_rank([v for v, t in zip(verts, tight) if i in t]) == hs.dim - 1
    ]
    rays = [primitive(hs.normals[i]) for i in facet_rows]
    if len(set(rays)) != len(rays):
        raise NonSimplicial("two inequalities define the same facet")
    cones = set()
    for v, t in zip(verts, tight):
        tf = tuple(k for k, i in enumerate(facet_rows) if i in t)
        if len(tf) != hs.dim:
            raise NonSimplicial(f"vertex {v} lies on {len(tf)} facets")
        if det([rays[k] for k in tf]) == 0:
            raise NonSimplicial(f"facet normals at vertex {v} are dependent")
        cones.add(tf)
    return NormalFan(tuple(rays), tuple(sorted(cones)), tuple(facet_rows))


def fan_or_error(fn, hs):
    try:
        return fn(hs)
    except FanokitError as e:
        return type(e)


def hex_scaffolding(target=HEX):
    shape = ShapeVariety((1,))
    struts = (
        Strut("x1", (1, 1), (2,)),
        Strut("x2", (1, 1), (-2,)),
        Strut("y1", (-1, 2), (1,)),
        Strut("y2", (2, -1), (-1,)),
    )
    return Scaffolding(shape, 1, struts, target)


def square_scaffolding():
    shape = ShapeVariety((1,))
    struts = (
        Strut("x1", (1, 1), (1,)),
        Strut("x2", (1, 1), (-1,)),
    )
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    return Scaffolding(shape, 1, struts, square)


def test_shape_variety_basics():
    z = ShapeVariety((1,))
    assert z.nbar_rank == 1 and z.divisor_count == 2 and len(z.dims) == 1
    assert z.ray_map() == ((1,), (-1,))
    assert z.degrees((1, 1)) == (2,)
    assert sorted(z.moment_vertices((1, 1))) == [(-1,), (1,)]
    assert sorted(z.moment_vertices((-1, 2))) == [(1,), (2,)]

    p2 = ShapeVariety((2,))
    assert p2.ray_map() == ((1, 0), (0, 1), (-1, -1))
    assert sorted(p2.moment_vertices((1, 0, 0))) == [(-1, 0), (-1, 1), (0, 0)]
    with pytest.raises(SchemaError):
        ShapeVariety(())
    with pytest.raises(SchemaError):
        z.moment_vertices((-2, 1))

    both = ShapeVariety((1, 2))
    assert both.divisor_count == 5
    assert both.ray_map() == (
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (0, -1, -1),
    )
    assert len(both.moment_vertices((1, 1, 1, 0, 0))) == 6


def test_strut_validation():
    shape = ShapeVariety((1,))
    with pytest.raises(SchemaError):
        Scaffolding(shape, 1, (Strut("a", (1,), (0,)),))
    with pytest.raises(SchemaError):
        Scaffolding(shape, 1, (Strut("a", (1, 1), ()),))
    with pytest.raises(SchemaError):
        Scaffolding(shape, 1, (Strut("a", (-2, 1), (0,)),))  # not nef
    with pytest.raises(SchemaError):
        Scaffolding(
            shape, 1, (Strut("a", (1, 1), (0,)), Strut("a", (1, 1), (1,)))
        )


def test_build_qs_hexagon():
    qs = build_qs(hex_scaffolding())
    assert qs.dim == 3
    assert qs.normals == QS_NORMALS
    assert qs.bounds == (-1, -1, -1, -1, 0, 0)
    assert len(vertices(qs)) == 8


def test_build_qs_errors_and_square():
    shape = ShapeVariety((1,))
    with pytest.raises(SchemaError):
        build_qs(Scaffolding(shape, 1, ()))
    qs = build_qs(square_scaffolding())
    assert len(qs.normals) == 4
    assert qs.normals == ((-1, -1, 1), (-1, -1, -1), (1, 0, 0), (0, 1, 0))


def test_hull_checks():
    assert hex_scaffolding().hull_equals_target()
    assert square_scaffolding().hull_equals_target()
    assert not hex_scaffolding(target=[(1, 0), (0, 1), (-1, -1)]).hull_equals_target()
    with pytest.raises(SchemaError):
        hex_scaffolding(target=None).hull_equals_target()


def test_normal_fan_hexagon():
    fan = normal_fan(build_qs(hex_scaffolding()))
    assert fan.rays == QS_NORMALS
    assert fan.max_cones == CONES
    assert fan.facet_rows == (0, 1, 2, 3, 4, 5)


def test_normal_fan_takes_no_smith_form(monkeypatch):
    """Pointedness is read off the dual cone's candidate lines and full
    dimension off the tight sets."""
    calls, plain_snf = [], fanokit.linalg.snf
    monkeypatch.setattr("fanokit.linalg.snf", lambda M: calls.append(1) or plain_snf(M))
    assert normal_fan(build_qs(hex_scaffolding())).rays == QS_NORMALS
    assert len(calls) == 0


def test_qs_homogenized_cone_tries_35_lines_for_8_rays(monkeypatch):
    """t >= 0 and Q_S's six rows in dimension 4 cut out C(7, 3) = 35 lines,
    one candidate direction each; the rays are the 8 vertices."""
    seen, plain = [], fanokit.polyhedra._ray_candidates

    def counted(dim, normals):
        seen.append(len(lines := plain(dim, normals)))
        return lines

    monkeypatch.setattr("fanokit.polyhedra._ray_candidates", counted)
    rows, rays = homogenized_cone(build_qs(hex_scaffolding()))
    assert (len(rows), seen, len(rays)) == (6, [35], 8)


def test_normal_fan_cube():
    cube = halfspaces(
        3,
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [-1] * 6,
    )
    fan = normal_fan(cube)
    assert len(fan.rays) == 6
    assert len(fan.max_cones) == 8
    for cone in fan.max_cones:
        assert len(cone) == 3


def test_normal_fan_errors():
    # square pyramid: apex meets four facets
    pyramid = halfspaces(
        3,
        [(0, 0, 1), (1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)],
        [0, -1, -1, -1, -1],
    )
    with pytest.raises(NonSimplicial):
        normal_fan(pyramid)
    with pytest.raises(Unbounded):
        normal_fan(halfspaces(2, [(1, 0), (0, 1)], [0, 0]))
    # flat region: not full-dimensional
    flat = halfspaces(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 0, -1, -1])
    with pytest.raises(NonSimplicial):
        normal_fan(flat)


def test_redundant_inequality_dropped():
    square = halfspaces(
        2,
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)],
        [-1, -1, -1, -1, -3],
    )
    fan = normal_fan(square)
    assert fan.facet_rows == (0, 1, 2, 3)
    assert len(fan.max_cones) == 4
    # a facet of a segment is one vertex, of affine rank 0 like no vertex at all
    segment = halfspaces(1, [(1,), (-1,), (1,)], [-1, -1, -5])
    fan = normal_fan(segment)
    assert fan.facet_rows == (0, 1)
    assert fan.max_cones == ((0,), (1,))


@st.composite
def bounded_systems(draw):
    """A box plus up to four inequalities with small normals and bounds (some
    redundant, tight at vertices of the box, or cutting it empty or flat),
    in shuffled order.  Some boxes have a flat side, and some systems hold an
    inequality together with its negation, so lower-dimensional polytopes
    occur often."""
    dim = draw(st.integers(2, 4))
    flat = draw(st.sampled_from([None, *range(dim)]))
    rows = []
    for i in range(dim):
        e = tuple(int(j == i) for j in range(dim))
        lo = -draw(st.integers(0, 2))
        rows.append((e, lo))
        rows.append((tuple(-a for a in e), -lo if i == flat else -draw(st.integers(0, 2))))
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any))
        b = draw(st.fractions(-4, 2, max_denominator=2))
        rows.append((tuple(n), b))
        if draw(st.integers(0, 3)) == 0:
            rows.append((tuple(-a for a in n), -b))
    rows = draw(st.permutations(rows))
    return halfspaces(dim, [n for n, _ in rows], [b for _, b in rows])


@settings(max_examples=100, deadline=None)
@given(hs=bounded_systems())
def test_normal_fan_matches_the_affine_rank_reference(hs):
    """The maximal tight sets of the integer rays give the same fan, or the
    same exception type, as the affine ranks of the Fraction vertices."""
    expected = fan_or_error(affine_rank_normal_fan, hs)
    verts = vertices(hs)
    event("lower-dimensional" if verts and _affine_rank(verts) < hs.dim else "other")
    assert fan_or_error(normal_fan, hs) == expected


def test_normal_fan_of_every_fixture_matches_the_reference():
    fixtures = resources.files("fanokit").joinpath("fixtures")
    paper = json.loads(fixtures.joinpath("paper.json").read_text())["scaffolding"]
    scaffolding = json.loads(fixtures.joinpath("paper-scaffolding.json").read_text())
    for s in (hex_scaffolding(), square_scaffolding(),
              *map(scaffolding_from_json, (paper, scaffolding))):
        qs = build_qs(s)
        assert normal_fan(qs) == affine_rank_normal_fan(qs)


def test_theta_matrix():
    th = theta_matrix(hex_scaffolding())
    assert th == ((1, 0), (-1, 0), (0, 1))


def test_variable_names():
    assert variable_names(hex_scaffolding()) == ("x1", "x2", "y1", "y2", "z1", "z2")


def test_scaffolding_json():
    data = {
        "shape": {"projective_dims": [1]},
        "n_u_rank": 1,
        "struts": [
            {"name": "x1", "divisor": [1, 1], "chi": [2]},
            {"name": "x2", "divisor": [1, 1], "chi": [-2]},
            {"name": "y1", "divisor": [-1, 2], "chi": [1]},
            {"name": "y2", "divisor": [2, -1], "chi": [-1]},
        ],
        "target": HEX,
    }
    s = scaffolding_from_json(data)
    assert s == hex_scaffolding()
    assert build_qs(s).normals == QS_NORMALS

    for broken in [
        {},
        {"shape": {}, "n_u_rank": 1, "struts": data["struts"]},
        {"shape": {"projective_dims": [1]}, "struts": data["struts"]},
        {"shape": {"projective_dims": [1]}, "n_u_rank": 1, "struts": []},
        {
            "shape": {"projective_dims": [1]},
            "n_u_rank": 1,
            "struts": [{"name": "x1", "divisor": [1, 1]}],
        },
    ]:
        with pytest.raises(SchemaError):
            scaffolding_from_json(broken)
