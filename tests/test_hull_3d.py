"""The 3D hull against a frozen copy of its earlier, helper-based version.

_reference_hull_3d below is the incremental hull as it was before face planes
were cached and the collinear prefilter ran on scalars: every visibility test
recomputes the face's cross product through the generic vector helpers, and
collinear points are grouped by gcd-reduced direction and ordered by squared
norm.  The current hull must give the same Polytope, repr for repr, on exact
and on float input.  Both fan each facet from its smallest vertex index, but
only the reference drops collinear middles from exact input first, so the
comparison also shows that exact input needs no such prefilter.  The current
hull inserts exact points through conflict lists, in an order of its own, and
takes a lone triangle as its own facet, so the comparison also shows that
neither can be seen in the result.

The property tests below pin the triangulation to the vertices and facets
alone, check that collinear middles, facet-interior and interior points leave
an exact hull unchanged, and that a float hull either succeeds or raises
DegeneratePolytope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalhull.decide import hull_steps
from fractalhull.errors import DegeneratePolytope
from fractalhull.hull import (
    Polytope,
    _affine_basis,
    _chain2d,
    _coord_scale,
    _rational,
    _tri_edges,
    convex_hull,
    lattice_cycle,
    lattice_hull,
    minkowski_polytope,
    minkowski_sum,
)
from fractalhull.ifs import lattice_images, validate_model
from fractalhull.linalg import dot, vec_add, vec_scale, vec_sub


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _plane_normal(pts):
    a, b, c = pts[0], pts[1], pts[2]
    return _cross3(vec_sub(b, a), vec_sub(c, a))


def _orient3(a, b, c, d):
    return dot(_cross3(vec_sub(b, a), vec_sub(c, a)), vec_sub(d, a))


def _direction_key(d, exact):
    if exact:
        g = math.gcd(*d)
        if g == 0:
            return None
        return tuple(c // g for c in d)
    n = math.sqrt(sum(float(c) ** 2 for c in d))
    if n == 0.0:
        return None
    return tuple(round(float(c) / n, 9) for c in d)


def _remove_collinear_middles(pts, exact):
    m = len(pts)
    if m <= 4:
        return pts
    removed = [False] * m
    for i in range(m):
        groups = {}
        for j in range(m):
            if j == i:
                continue
            d = vec_sub(pts[j], pts[i])
            key = _direction_key(d, exact)
            if key is None:
                continue
            size = sum(a * a for a in d)
            prev = groups.get(key)
            if prev is None or size > prev[0]:
                if prev is not None:
                    removed[prev[1]] = True
                groups[key] = (size, j)
            else:
                removed[j] = True
    return [p for p, gone in zip(pts, removed) if not gone]


def _plane_key(normal, anchor, exact, scale):
    if exact:
        g = math.gcd(*normal)
        prim = tuple(c // g for c in normal)
        return (prim, dot(prim, anchor))
    n = math.sqrt(sum(float(c) ** 2 for c in normal))
    unit = tuple(round(float(c) / n, 7) for c in normal)
    off = round(sum(u * float(a) for u, a in zip(unit, anchor)) / max(1.0, scale), 7)
    return (unit, off)


def _reference_hull_3d(pts, den=None, eps=0.0, scale=1.0):
    exact = den is not None
    pts = _remove_collinear_middles(pts, exact)
    m = len(pts)

    i0, i1 = 0, 1
    if exact:
        tol3 = 0
        i2 = next(
            i for i in range(2, m)
            if any(_cross3(vec_sub(pts[i1], pts[i0]), vec_sub(pts[i], pts[i0])))
        )
        i3 = next(
            i for i in range(2, m)
            if i != i2 and _orient3(pts[i0], pts[i1], pts[i2], pts[i]) != 0
        )
    else:
        tol2 = eps * scale**2
        tol3 = eps * scale**3
        i2 = next(
            i for i in range(2, m)
            if math.sqrt(sum(
                float(c) ** 2
                for c in _cross3(vec_sub(pts[i1], pts[i0]), vec_sub(pts[i], pts[i0]))
            )) > tol2
        )
        i3 = next(
            i for i in range(2, m)
            if i != i2 and abs(float(_orient3(pts[i0], pts[i1], pts[i2], pts[i]))) > tol3
        )

    faces = {}
    edge_map = {}

    def add_face(tri):
        faces[tri] = True
        for e in _tri_edges(tri):
            edge_map[e] = tri

    def remove_face(tri):
        del faces[tri]
        for e in _tri_edges(tri):
            del edge_map[e]

    tet = (i0, i1, i2, i3)
    for excl in range(4):
        tri = [tet[j] for j in range(4) if j != excl]
        if _orient3(pts[tri[0]], pts[tri[1]], pts[tri[2]], pts[tet[excl]]) > 0:
            tri[1], tri[2] = tri[2], tri[1]
        add_face(tuple(tri))

    used = set(tet)
    for idx in range(m):
        if idx in used:
            continue
        p = pts[idx]
        visible = [
            tri for tri in faces
            if _orient3(pts[tri[0]], pts[tri[1]], pts[tri[2]], p) > tol3
        ]
        if not visible:
            continue
        visible_set = set(visible)
        horizon = []
        for tri in visible:
            for (u, v) in _tri_edges(tri):
                if edge_map[(v, u)] not in visible_set:
                    horizon.append((u, v))
        for tri in visible:
            remove_face(tri)
        for (u, v) in horizon:
            add_face((u, v, idx))

    groups = {}
    for tri in faces:
        key = _plane_key(_plane_normal([pts[t] for t in tri]), pts[tri[0]], exact, scale)
        groups.setdefault(key, []).append(tri)

    facet_polys = []
    for key in sorted(groups, key=repr):
        tris = groups[key]
        ids = sorted({t for tri in tris for t in tri})
        a = pts[tris[0][0]]
        normal = _plane_normal([pts[t] for t in tris[0]])
        u = vec_sub(pts[tris[0][1]], a)
        w = _cross3(normal, u)
        coord_of = {}
        for t in ids:
            dp = vec_sub(pts[t], a)
            coord_of[(dot(dp, u), dot(dp, w))] = t
        eps_area = 0 if exact else eps * _coord_scale(list(coord_of)) ** 2
        cycle = _chain2d(list(coord_of), eps_area)
        poly = [coord_of[c] for c in cycle]
        facet_polys.append((key, poly))

    vertex_ids = sorted({t for _, poly in facet_polys for t in poly})
    if exact:
        vertices = tuple(_rational(pts[t], den) for t in vertex_ids)
    else:
        vertices = tuple(pts[t] for t in vertex_ids)
    index_of = {t: i for i, t in enumerate(vertex_ids)}

    triangles = []
    facets = []
    for key, poly in facet_polys:
        if exact:
            prim_normal, offset = key
            facets.append((tuple(Fraction(c) for c in prim_normal), Fraction(offset, den)))
        else:
            normal = _plane_normal([pts[t] for t in poly])
            facets.append((normal, dot(normal, pts[poly[0]])))
        mapped = [index_of[t] for t in poly]
        shift = mapped.index(min(mapped))
        mapped = mapped[shift:] + mapped[:shift]
        for i in range(1, len(mapped) - 1):
            tri = (mapped[0], mapped[i], mapped[i + 1])
            shift = tri.index(min(tri))
            triangles.append(tri[shift:] + tri[:shift])
    triangles.sort()
    if exact:
        facets.sort(key=repr)
    facets.sort(key=lambda f: (tuple(map(float, f[0])), float(f[1])))
    return Polytope(3, 3, vertices, tuple(triangles), tuple(facets))


@st.composite
def _lattice_sets(draw):
    """(distinct integer 3D points in lexicographic order, a denominator).

    Half the sets are random points in a box; the other half are subsets of a
    small grid mapped by a random integer matrix plus a shift, which gives
    collinear triples, coplanar faces at any slope, and interior and face
    points.
    """
    if draw(st.booleans()):
        coord = st.integers(-12, 12)
        pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=40))
    else:
        side = draw(st.integers(2, 5))
        grid = [(x, y, z) for x in range(side) for y in range(side) for z in range(side)]
        cells = draw(st.permutations(grid))[: draw(st.integers(4, 40))]
        entry = st.integers(-3, 3)
        rows = draw(st.tuples(*[st.tuples(entry, entry, entry)] * 3))
        shift = draw(st.tuples(entry, entry, entry))
        pts = [tuple(dot(row, g) + s for row, s in zip(rows, shift)) for g in cells]
    return sorted(set(pts)), draw(st.integers(1, 12))


@st.composite
def _summands(draw):
    """(p, q, den): two sorted integer point sets and a denominator.

    q is drawn on its own, or made from p: p itself, -p, or a subset of p,
    which put facets and edges of the two hulls on parallel planes and lines.
    """
    p, den = draw(_lattice_sets())
    how = draw(st.sampled_from(("independent", "same", "negated", "subset")))
    if how == "independent":
        q = draw(_lattice_sets())[0]
    elif how == "same":
        q = p
    elif how == "negated":
        q = sorted(tuple(-c for c in x) for x in p)
    else:
        q = sorted(set(draw(st.lists(st.sampled_from(p), min_size=1))))
    return p, q, den


def _fan_facets(poly, factor=1):
    """(normal, cycle) per facet of an exact solid, the normal times factor."""
    return [(tuple(factor * c for c in normal), c) for (normal, _), c in zip(poly.rows, poly.cycles)]


@given(_summands())
@settings(max_examples=300, deadline=None)
def test_minkowski_polytope_is_the_hull_of_all_sums(case):
    """The normal-fan overlay gives lattice_hull of every sum p_i + q_j, repr,
    rows and faces alike, and each vertex is the sum of the pair it names; a
    point p gives q shifted.  p's normals come as multiples, which the
    overlay reduces to primitive rows."""
    p_pts, q_pts, den = case
    p, q = lattice_hull(p_pts, 1), lattice_hull(q_pts, 1)
    assume(p.affine_dim == q.affine_dim == 3)
    (ps, _), (qs, _) = p.lattice, q.lattice
    for p_summand in ((ps, _fan_facets(p, 3)), (ps[:1], ())):
        sums = sorted({vec_add(x, y) for x in p_summand[0] for y in qs})
        poly, pairs = minkowski_polytope(p_summand, (qs, _fan_facets(q)), den)
        reference = lattice_hull(sums, den)
        assert repr(poly) == repr(reference)
        assert poly.lattice == reference.lattice and poly.rows == reference.rows
        assert poly.cycles == reference.cycles
        cut = den // poly.lattice[1]
        assert [tuple(c * cut for c in x) for x in poly.lattice[0]] == [
            vec_add(p_summand[0][i], qs[j]) for i, j in pairs
        ]


_KINDS = ("point", "segment", "polygon", "solid")


@st.composite
def _shaped(draw, n, kind):
    """Distinct integer points in dimension n, sorted, whose hull is of the given kind.

    A segment is a few points on a line; a polygon is random points in the
    plane or, in space, grid points mapped onto a random integer plane; a
    solid comes from _lattice_sets.
    """
    entry = st.integers(-4, 4)
    vec = st.tuples(*[entry] * n)
    a = draw(vec)
    if kind == "point":
        return [a]
    if kind == "segment":
        u = draw(vec)
        assume(any(u))
        steps = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=5, unique=True))
        return sorted(vec_add(a, vec_scale(k, u)) for k in steps)
    if kind == "solid":
        pts = draw(_lattice_sets())[0]
    elif n == 2:
        pts = sorted(set(draw(st.lists(vec, min_size=3, max_size=12))))
    else:
        u, v = draw(vec), draw(vec)
        assume(any(_cross3(u, v)))
        cells = draw(st.lists(st.tuples(entry, entry), min_size=3, max_size=12))
        pts = sorted({vec_add(a, vec_add(vec_scale(x, u), vec_scale(y, v))) for x, y in cells})
    assume(lattice_hull(pts, 1).affine_dim == (2 if kind == "polygon" else 3))
    return pts


@st.composite
def _minkowski_summands(draw):
    """(p points, s, w points, t): two summands of any shapes in dimension 1 to 3,
    each over its own denominator.  In space the three overlay pairs (a point
    or solid with a solid, a solid with a polygon) are drawn four times as
    often as the others, and a polygon w next to a solid p is half the time
    one of p's facets, negated or not, so that it lies parallel to facets of p."""
    n = draw(st.sampled_from((1, 2, 2, 3, 3, 3)))
    pairs = list(product(_KINDS[: n + 1], repeat=2))
    if n == 3:
        pairs += [("point", "solid"), ("solid", "solid"), ("solid", "polygon")] * 3
    p_kind, w_kind = draw(st.sampled_from(pairs))
    p = draw(_shaped(n, p_kind))
    if p_kind == "solid" and w_kind == "polygon" and draw(st.booleans()):
        solid = lattice_hull(p, 1)
        sign = draw(st.sampled_from((1, -1)))
        w = sorted(vec_scale(sign, solid.lattice[0][i]) for i in draw(st.sampled_from(solid.cycles)))
    else:
        w = draw(_shaped(n, w_kind))
    return p, draw(st.integers(1, 12)), w, draw(st.integers(1, 12))


@given(_minkowski_summands())
@settings(max_examples=400, deadline=None)
def test_minkowski_sum_is_the_hull_of_all_sums(case):
    """minkowski_sum of two exact hulls over their own scales is lattice_hull
    of every pairwise sum of their points over the lcm, repr, rows and cycles
    alike, and each vertex is the sum of the two summand vertices its pair
    names.  The shapes cover the edge merge of a point, segment or polygon
    with any of them in the plane; the overlay of a point or solid with a
    solid and of a solid with a polygon (two opposite facets) in space; and
    lattice_hull of the vertex sums for every other pair and on a line."""
    p_pts, s, w_pts, t = case
    p, w = lattice_hull(p_pts, s), lattice_hull(w_pts, t)
    poly, pairs = minkowski_sum(p, w)
    den = math.lcm(s, t)
    sums = {vec_add(vec_scale(den // s, x), vec_scale(den // t, z)) for x in p_pts for z in w_pts}
    reference = lattice_hull(sorted(sums), den)
    assert repr(poly) == repr(reference)
    assert poly.lattice == reference.lattice and poly.rows == reference.rows
    assert poly.cycles == reference.cycles
    assert len(pairs) == len(poly.lattice[0])
    assert list(poly.vertices) == [
        vec_add(_rational(p.lattice[0][i], p.lattice[1]), _rational(w.lattice[0][j], w.lattice[1]))
        for i, j in pairs
    ]


def _outcome(hull, *args, **kwargs):
    """repr of the hull, or the kind of failure when no seed tetrahedron exists."""
    try:
        return repr(hull(*args, **kwargs))
    except (StopIteration, DegeneratePolytope):
        return "no seed"


@given(_lattice_sets())
@settings(max_examples=150, deadline=None)
def test_3d_hull_matches_reference(case):
    points, den = case
    poly = lattice_hull(points, den)
    if poly.affine_dim == 3:
        assert repr(poly) == repr(_reference_hull_3d(points, den))
    # the same integer sets over a power of two are exact floats (dyadic)
    floats = sorted({tuple(c / (1 << den.bit_length()) for c in p) for p in points})
    scale = _coord_scale(floats)
    if len(_affine_basis(floats, 1e-9, scale)[1]) == 3:
        assert _outcome(convex_hull, floats, eps=1e-9) == _outcome(
            _reference_hull_3d, floats, eps=1e-9, scale=scale
        )


def _fanned_faces(poly):
    """The faces of an exact solid rebuilt from its rows alone.

    Each facet's vertices, projected along the largest entry k of its normal,
    give a counterclockwise lattice_cycle; it is reversed when that entry is
    negative, so it runs counterclockwise seen from outside, and then fanned
    from its smallest vertex index.
    """
    xs = poly.lattice[0]
    faces = []
    for normal, offset in poly.rows:
        k = max(range(3), key=lambda i: abs(normal[i]))
        flat = {
            (x[(k + 1) % 3], x[(k + 2) % 3]): i
            for i, x in enumerate(xs) if dot(normal, x) == offset
        }
        cycle = [flat[c] for c in lattice_cycle(list(flat))]
        if normal[k] < 0:
            cycle.reverse()
        s = cycle.index(min(cycle))
        cycle = cycle[s:] + cycle[:s]
        faces += [(cycle[0], cycle[i], cycle[i + 1]) for i in range(1, len(cycle) - 1)]
    return tuple(sorted(faces))


@given(_lattice_sets())
@settings(max_examples=150, deadline=None)
def test_faces_fan_each_facet_from_its_smallest_vertex(case):
    poly = lattice_hull(*case)
    if poly.affine_dim == 3:
        assert poly.faces == _fanned_faces(poly)


@given(_lattice_sets())
@settings(max_examples=100, deadline=None)
def test_midpoints_leave_the_exact_hull_unchanged(case):
    """The midpoints X_a + X_b over 2 den hold collinear middles, facet-interior
    and interior points; 2X over 2 den are the points themselves."""
    points, den = case
    mids = sorted({tuple(a + b for a, b in zip(x, y)) for x in points for y in points})
    assert repr(lattice_hull(mids, 2 * den)) == repr(lattice_hull(points, den))


@given(_lattice_sets(), st.integers(-24, 24), st.sampled_from((1e-9, 1e-6, 1e-4)))
@settings(max_examples=200, deadline=None)
def test_float_3d_hull_returns_or_raises_degenerate_polytope(case, power, eps):
    """Scaled dyadic sets meet tolerances that are too coarse or too fine for
    them; the float hull then raises DegeneratePolytope, never another error."""
    points, _ = case
    floats = [tuple(c * 2.0**power for c in p) for p in points]
    try:
        poly = convex_hull(floats, eps=eps)
    except DegeneratePolytope:
        return
    assert poly.ambient_dim == 3


def test_conflict_lists_on_the_candidates_of_a_k72_step():
    """The images T(v + d_j) of the 136 vertices v of step 8 of the k = 72
    model: 544 candidates of which 164 are vertices, so the conflict lists
    drop most points, in another order than the reference's input order."""
    model = validate_model(
        [[0, Fraction(-3, 4), 0], [Fraction(1, 4), Fraction(3, 4), 0], [0, 0, Fraction(-1, 3)]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [Fraction(1, 3), Fraction(2, 3), 1]],
    )
    _, poly = next(islice(hull_steps(model), 8, None))
    ys, zs, den = lattice_images(model, *poly.lattice)
    points = sorted({vec_add(y, z) for y in ys for z in zs})
    assert len(poly.vertices) == 136 and len(points) == 544
    assert repr(lattice_hull(points, den)) == repr(_reference_hull_3d(points, den))
