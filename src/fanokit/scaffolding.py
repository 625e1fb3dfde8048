"""Shape varieties, struts, and the inversion polytope Q_S.

A scaffolding presents a Fano polygon as the convex hull of translated
moment polytopes of nef divisors on a shape variety Z (a product of
projective spaces).  build_qs turns a scaffolding into a halfspace system
whose normal fan carries the ambient toric variety of the construction;
normal_fan keeps facet normals in input-inequality order so strut labels
transfer to ray/variable names.  The facets are the inequalities whose sets
of tight vertices, read off the integer rays of the homogenized cone, are
nonempty and maximal (Ziegler, Lectures on Polytopes, 2.1).
"""

from __future__ import annotations

from itertools import product

from .errors import NonSimplicial, Record, SchemaError, json_int, json_ints, json_list
from .linalg import dot, primitive
from .polygon import convex_hull, validate_fano
from .polyhedra import halfspaces, homogenized_cone


class ShapeVariety(Record):
    """Product of projective spaces P^(d_1) x ... x P^(d_k)."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise SchemaError("shape factor dimensions must be positive")
        object.__setattr__(self, "dims", dims)

    @property
    def nbar_rank(self):
        return sum(self.dims)

    @property
    def divisor_count(self):
        return sum(d + 1 for d in self.dims)

    @property
    def variables(self):
        """Cox variable names of the invariant divisors: z1, z2, ..."""
        return tuple(f"z{i+1}" for i in range(self.divisor_count))

    def factor_slices(self):
        """Index range of each factor's divisors inside the divisor lattice."""
        out = []
        off = 0
        for d in self.dims:
            out.append(range(off, off + d + 1))
            off += d + 1
        return out

    def ray_map(self):
        """Divisor-sequence matrix: row per invariant divisor, pairing with N-bar.

        Per factor the rows are the standard basis vectors followed by minus
        their sum; the columns sum to zero, so the composition to the Picard
        group vanishes.
        """
        n = self.nbar_rank
        rows = []
        off = 0
        for d in self.dims:
            for i in range(d):
                rows.append(tuple(1 if j == off + i else 0 for j in range(n)))
            rows.append(tuple(-1 if off <= j < off + d else 0 for j in range(n)))
            off += d
        return tuple(rows)

    def degrees(self, divisor):
        """Per-factor total degree of a divisor given by its coefficient vector."""
        return tuple(sum(divisor[i] for i in sl) for sl in self.factor_slices())

    def moment_vertices(self, divisor):
        """Vertex set of the (lattice) moment polytope P_D in N-bar."""
        vsets = []
        off = 0
        for d in self.dims:
            a = divisor[off : off + d + 1]
            s = sum(a)
            if s < 0:
                raise SchemaError("divisor is not nef on the shape variety")
            base = tuple(-a[i] for i in range(d))
            vs = {base}
            for i in range(d):
                vs.add(tuple(base[j] + (s if j == i else 0) for j in range(d)))
            vsets.append(sorted(vs))
            off += d + 1
        return [tuple(c for part in combo for c in part) for combo in product(*vsets)]


class Strut(Record):
    """One (divisor, translation character) pair of a scaffolding."""

    name: str
    divisor: tuple
    chi: tuple

    def __post_init__(self):
        object.__setattr__(self, "divisor", tuple(int(a) for a in self.divisor))
        object.__setattr__(self, "chi", tuple(int(a) for a in self.chi))


class Scaffolding(Record):
    shape: ShapeVariety
    n_u_rank: int
    struts: tuple
    target: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "struts", tuple(self.struts))
        if self.n_u_rank < 0:
            raise SchemaError("n_u_rank must be nonnegative")
        names = [st.name for st in self.struts]
        if len(set(names)) != len(names):
            raise SchemaError("strut names must be unique")
        clash = sorted(set(self.shape.variables).intersection(names))
        if clash:
            raise SchemaError(f"strut names {clash} are taken by shape variables")
        for st in self.struts:
            if len(st.divisor) != self.shape.divisor_count:
                raise SchemaError(f"strut {st.name!r}: divisor length mismatch")
            if len(st.chi) != self.n_u_rank:
                raise SchemaError(f"strut {st.name!r}: chi length mismatch")
            if not any(st.divisor) and not any(st.chi):
                raise SchemaError(f"strut {st.name!r}: divisor and chi are all zero")
            if any(d < 0 for d in self.shape.degrees(st.divisor)):
                raise SchemaError("divisor is not nef on the shape variety")
        if self.target is not None:
            object.__setattr__(
                self, "target", tuple(tuple(int(c) for c in v) for v in self.target)
            )

    @property
    def ambient_rank(self):
        """Rank of N = N-bar + N_U, where the target polygon lives."""
        return self.shape.nbar_rank + self.n_u_rank

    def strut_points(self, strut):
        """Vertices of the translated moment polytope P_D + chi inside N."""
        return [v + strut.chi for v in self.shape.moment_vertices(strut.divisor)]

    def hull(self):
        """Convex hull of all strut segments, as a canonical vertex tuple."""
        if self.ambient_rank != 2:
            raise SchemaError("hull computation requires a rank-2 ambient lattice")
        pts = []
        for st in self.struts:
            pts.extend(self.strut_points(st))
        return convex_hull(pts)

    def hull_equals_target(self):
        if self.target is None:
            raise SchemaError("scaffolding has no target polygon")
        return self.hull() == validate_fano(self.target).vertices


def build_qs(s):
    """Halfspace system of Q_S in the dual of Div(Z) + N_U.

    One inequality <. , -D + chi> >= -1 per strut, then <. , E_i> >= 0 per
    shape divisor, in that order.
    """
    if not s.struts:
        raise SchemaError("scaffolding has no struts")
    nd = s.shape.divisor_count
    dim = nd + s.n_u_rank
    normals = []
    bounds = []
    for st in s.struts:
        normals.append(tuple(-a for a in st.divisor) + st.chi)
        bounds.append(-1)
    for i in range(nd):
        normals.append(tuple(1 if j == i else 0 for j in range(dim)))
        bounds.append(0)
    return halfspaces(dim, normals, bounds)


def theta_matrix(s):
    """The block map N -> Div(Z) + N_U: ray map on N-bar, identity on N_U."""
    nbar = s.shape.nbar_rank
    nu = s.n_u_rank
    rows = []
    for r in s.shape.ray_map():
        rows.append(r + (0,) * nu)
    for i in range(nu):
        rows.append((0,) * nbar + tuple(1 if j == i else 0 for j in range(nu)))
    return tuple(rows)


class NormalFan(Record):
    """Complete simplicial fan read off a full-dimensional polytope.

    ``rays`` are the primitive inner facet normals in input-inequality order;
    ``max_cones`` are sorted tuples of ray indices, one per vertex;
    ``facet_rows`` maps each ray back to its inequality index.
    """

    rays: tuple
    max_cones: tuple
    facet_rows: tuple


def normal_fan(hs):
    """Normal fan of a bounded full-dimensional polytope; simplicial or error.

    Every face lies in a facet and every facet is cut out by an inequality,
    so the facet rows are those whose nonempty sets of tight vertices are
    maximal.  An inequality tight at every vertex is an implicit equality
    (Schrijver, 8.2), and a vertex on dim facets is their intersection."""
    rows, verts = homogenized_cone(hs)
    if not verts:
        raise SchemaError("polytope is empty")
    tight = [frozenset(k for k, r in enumerate(verts) if dot(row, r) == 0) for row in rows]
    if any(len(t) == len(verts) for t in tight):
        raise NonSimplicial("polytope is not full-dimensional")
    facet_rows = [i for i, t in enumerate(tight) if t and not any(t < u for u in tight)]
    rays = [primitive(hs.normals[i]) for i in facet_rows]
    if len(set(rays)) != len(rays):
        raise NonSimplicial("two inequalities define the same facet")
    cones = set()
    for k, r in enumerate(verts):
        tf = tuple(j for j, i in enumerate(facet_rows) if k in tight[i])
        if len(tf) != hs.dim:
            raise NonSimplicial(
                f"vertex {r[:-1]}/{r[-1]} lies on {len(tf)} facets in dimension {hs.dim}"
            )
        cones.add(tf)
    return NormalFan(tuple(rays), tuple(sorted(cones)), tuple(facet_rows))


def scaffolding_from_json(data):
    """Read {"shape": {"projective_dims": [...]}, "n_u_rank": k, "struts": [...]}.

    Optional keys: "target" (polygon vertex list).  Unknown keys are left to
    the caller.
    """
    if not isinstance(data, dict):
        raise SchemaError("scaffolding JSON must be an object")
    shape_data = data.get("shape")
    if not isinstance(shape_data, dict) or "projective_dims" not in shape_data:
        raise SchemaError("scaffolding JSON needs shape.projective_dims")
    shape = ShapeVariety(json_ints(shape_data["projective_dims"], "projective_dims"))
    if "n_u_rank" not in data:
        raise SchemaError("scaffolding JSON needs n_u_rank")
    struts_data = data.get("struts")
    if not isinstance(struts_data, list) or not struts_data:
        raise SchemaError("scaffolding JSON needs a nonempty struts list")
    struts = []
    for item in struts_data:
        if not isinstance(item, dict) or not {"name", "divisor", "chi"} <= set(item):
            raise SchemaError("each strut needs name, divisor and chi")
        struts.append(
            Strut(
                str(item["name"]),
                json_ints(item["divisor"], "strut divisor"),
                json_ints(item["chi"], "strut chi"),
            )
        )
    target = data.get("target")
    if target is not None:
        target = [json_ints(v, "target vertex", 2) for v in json_list(target, "target")]
    return Scaffolding(shape, json_int(data["n_u_rank"], "n_u_rank"), tuple(struts), target)


def variable_names(s):
    """Cox variable names: strut names, then z1, z2, ... for shape divisors."""
    return tuple(st.name for st in s.struts) + s.shape.variables
