"""Convex hull construction, containment, facet normals, Hausdorff distance."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import naive_vertices_2d, naive_vertices_3d, rational_models
from fractalhull.decide import hull_steps
from fractalhull.errors import (
    DegeneratePolytope,
    DimensionMismatch,
    FractalHullError,
    ModeMismatch,
    UnsupportedDimension,
)
from fractalhull.hull import (
    FLOAT_SCALE_MAX,
    Polytope,
    _coord_scale,
    _dist_point_edge2,
    _dist_point_polytope,
    _dist_point_triangle,
    _containment,
    _edge2,
    _fvec,
    _triangle3,
    contains,
    convex_hull,
    facet_normals,
    hausdorff,
    lattice_hull,
    nested_hausdorff,
)
from fractalhull.ifs import validate_model
from fractalhull.linalg import to_lattice


def fr(*values):
    return tuple(F(v) for v in values)


def test_triangle():
    poly = convex_hull([fr(0, 0), fr(1, 0), fr(0, 1)])
    assert poly.affine_dim == 2
    assert poly.vertices == (fr(0, 0), fr(1, 0), fr(0, 1))  # CCW from lex-min


def test_collinear_1d():
    poly = convex_hull([fr(0), fr("1/8"), fr("1/4"), fr("3/8")])
    assert poly.affine_dim == 1
    assert poly.vertices == (fr(0), fr("3/8"))


def test_sierpinski_level2_vertices():
    # the 9 second-level points; two of them lie on the hypotenuse x + y = 3/4
    pts = [
        fr(0, 0), fr("1/2", 0), fr(0, "1/2"),
        fr("1/4", 0), fr("3/4", 0), fr("1/4", "1/2"),
        fr(0, "1/4"), fr("1/2", "1/4"), fr(0, "3/4"),
    ]
    poly = convex_hull(pts)
    assert poly.vertex_set == {fr(0, 0), fr("3/4", 0), fr(0, "3/4")}
    assert fr("1/2", "1/4") not in poly.vertex_set
    assert fr("1/4", "1/2") not in poly.vertex_set


def test_single_point_and_duplicates():
    poly = convex_hull([fr(1, 2), fr(1, 2), fr(1, 2)])
    assert poly.affine_dim == 0
    assert poly.vertices == (fr(1, 2),)


def test_contains_quadrilateral():
    poly = convex_hull([fr(0, 0), fr("3/4", 0), fr("1/4", "1/3"), fr(0, "4/9")])
    assert len(poly.vertices) == 4
    for v in poly.vertices:
        assert contains(poly, v)
    assert contains(poly, fr("1/2", "1/9"))
    assert not contains(poly, fr("3/4", "1/10"))


def test_facet_normals_unit_triangle():
    poly = convex_hull([fr(0, 0), fr(1, 0), fr(0, 1)])
    got = {(tuple(n), c) for n, c in facet_normals(poly)}
    assert got == {
        ((F(0), F(-1)), F(0)),
        ((F(-1), F(0)), F(0)),
        ((F(1), F(1)), F(1)),
    }


def test_facet_normals_unit_square():
    poly = convex_hull([fr(0, 0), fr(1, 0), fr(1, 1), fr(0, 1)])
    got = {(tuple(n), c) for n, c in facet_normals(poly)}
    assert got == {
        ((F(0), F(-1)), F(0)),
        ((F(1), F(0)), F(1)),
        ((F(0), F(1)), F(1)),
        ((F(-1), F(0)), F(0)),
    }


def test_facet_normals_degenerate():
    poly = convex_hull([fr(0, 0), fr(1, 0)])
    with pytest.raises(DegeneratePolytope):
        facet_normals(poly)


def test_hausdorff_identical():
    poly = convex_hull([fr(0, 0), fr(1, 0), fr(0, 1)])
    assert hausdorff(poly, poly) == 0.0


def test_hausdorff_segment_point():
    seg = convex_hull([fr(0, 0), fr(1, 0)])
    pt = convex_hull([fr(0, 0)])
    assert hausdorff(seg, pt) == 1.0


def test_hausdorff_sierpinski_steps():
    small = convex_hull([fr(0, 0), fr("1/2", 0), fr(0, "1/2")])
    big = convex_hull([fr(0, 0), fr("3/4", 0), fr(0, "3/4")])
    assert abs(hausdorff(small, big) - 0.25) < 1e-12


def test_idempotence():
    rng = random.Random(23)
    for _ in range(30):
        pts = [fr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(12)]
        poly = convex_hull(pts)
        again = convex_hull(poly.vertices)
        assert again.vertices == poly.vertices


def test_soundness_every_input_contained():
    rng = random.Random(29)
    for _ in range(30):
        pts = [
            (F(rng.randint(-8, 8), rng.randint(1, 3)), F(rng.randint(-8, 8), rng.randint(1, 3)))
            for _ in range(15)
        ]
        poly = convex_hull(pts)
        for p in pts:
            assert contains(poly, p)


def test_permutation_invariance_500_shuffles():
    rng = random.Random(31)
    for _case in range(10):
        pts = [
            (F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(30)
        ]
        reference = convex_hull(pts)
        for _shuffle in range(50):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert convex_hull(shuffled).vertices == reference.vertices


def test_oracle_equivalence_2d():
    """Vertex sets match a naive point-is-not-in-hull-of-others test exactly."""
    rng = random.Random(37)
    for _case in range(200):
        count = rng.randint(3, 20)
        pts = {
            (F(rng.randint(-6, 6), rng.randint(1, 2)), F(rng.randint(-6, 6), rng.randint(1, 2)))
            for _ in range(count)
        }
        poly = convex_hull(pts)
        assert poly.vertex_set == naive_vertices_2d(pts)


def test_monotonicity():
    rng = random.Random(41)
    for _ in range(40):
        pts = [fr(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(10)]
        extra = [fr(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(5)]
        inner = convex_hull(pts)
        outer = convex_hull(pts + extra)
        for v in inner.vertices:
            assert contains(outer, v)


# --- three-dimensional cases ---


def test_cube_with_interior_and_face_points():
    cube = [fr(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    extras = [
        fr("1/2", "1/2", "1/2"),     # center
        fr("1/2", "1/2", 0),         # face center
        fr("1/2", 0, 0),             # edge midpoint
        fr("1/3", "2/3", 1),         # interior of the top face
    ]
    poly = convex_hull(cube + extras)
    assert poly.affine_dim == 3
    assert poly.vertex_set == set(cube)
    assert len(poly.facets) == 6
    for p in cube + extras:
        assert contains(poly, p)
    assert not contains(poly, fr(2, 0, 0))
    assert not contains(poly, fr(1, 1, "9/8"))


def test_octahedron():
    pts = [
        fr(1, 0, 0), fr(-1, 0, 0), fr(0, 1, 0),
        fr(0, -1, 0), fr(0, 0, 1), fr(0, 0, -1),
    ]
    poly = convex_hull(pts + [fr(0, 0, 0)])
    assert poly.vertex_set == set(pts)
    assert len(poly.facets) == 8
    assert len(poly.faces) == 8


def test_coplanar_points_in_3d():
    pts = [fr(x, y, 1) for x in range(3) for y in range(3)]
    poly = convex_hull(pts)
    assert poly.ambient_dim == 3 and poly.affine_dim == 2
    assert poly.vertex_set == {fr(0, 0, 1), fr(2, 0, 1), fr(2, 2, 1), fr(0, 2, 1)}
    assert contains(poly, fr(1, 1, 1))
    assert not contains(poly, fr(1, 1, "3/2"))


@pytest.mark.parametrize("kind", [F, float])
def test_polygon_in_3d_runs_toward_the_smaller_neighbour(kind):
    """A polygon inside 3D runs from its smallest vertex toward the smaller
    of its two neighbours, whatever basis the input's first points give: the
    non-vertex (1, 2, 0) gives the diamond's points another basis."""
    diamond = [(0, 2, 0), (2, 0, 0), (4, 2, 0), (2, 4, 0)]
    want = tuple(tuple(map(kind, p)) for p in diamond)
    for extra in ([], [(1, 2, 0)]):
        poly = convex_hull([tuple(map(kind, p)) for p in diamond + extra])
        assert poly.affine_dim == 2 and poly.vertices == want
    assert convex_hull(want) == convex_hull(want + (tuple(map(kind, (1, 2, 0))),))


def test_collinear_points_in_3d_hull():
    # grid with many collinear triples along the edges of a tetrahedron
    base = [fr(0, 0, 0), fr(4, 0, 0), fr(0, 4, 0), fr(0, 0, 4)]
    edge_points = [fr(1, 0, 0), fr(2, 0, 0), fr(3, 0, 0), fr(0, 2, 0), fr(0, 0, 2), fr(2, 2, 0)]
    poly = convex_hull(base + edge_points)
    assert poly.vertex_set == set(base)


def test_oracle_equivalence_3d_small():
    rng = random.Random(43)
    for _case in range(25):
        count = rng.randint(5, 9)
        pts = {
            (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            for _ in range(count)
        }
        poly = convex_hull(pts)
        if poly.affine_dim < 3:
            continue
        assert poly.vertex_set == naive_vertices_3d(pts)


def test_hausdorff_3d():
    unit = convex_hull([fr(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    bigger = convex_hull([fr(2 * x, 2 * y, 2 * z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert abs(hausdorff(unit, bigger) - 3 ** 0.5) < 1e-12


def test_distance_to_a_flat_float_triangle():
    """Two corners coincide: the walk would divide 0/0 on the edge a-b."""
    a, c = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    assert _dist_point_triangle((0.5, 1.0, 0.0), *_triangle3(a, a, c)) == 1.0


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
def test_flat_float_polygon_in_3d_keeps_its_vertices(s):
    """The plane coordinates carry length**2 and length**4, so a small flat
    triangle once fell under a turn tolerance in mixed units and kept two
    vertices with affine_dim 2."""
    poly = convex_hull([(0.0, 0.0, 0.0), (s, 0.0, 0.0), (0.0, s, 0.0), (s / 4, s / 4, 0.0)], eps=1e-9)
    assert poly.affine_dim == 2 and len(poly.vertices) == 3


def test_flat_float_point_set_under_the_area_tolerance_is_degenerate():
    """Below unit size eps is absolute: the basis finds two directions whose
    heights exceed eps, but the triangle's area is under eps, so the turn
    test keeps two vertices.  That is a typed error, not a two-vertex polygon."""
    s = 1e-6
    with pytest.raises(DegeneratePolytope, match="keeps under three vertices"):
        convex_hull([(0.0, 0.0, 0.0), (s, 0.0, 0.0), (0.0, s, 0.0)], eps=1e-9)


@pytest.mark.parametrize("s", [1e-3, 1e-1, 1.0, 1e3])
def test_float_contains_on_a_flat_polygon_in_3d(s):
    """A unit-free turn tolerance: points outside the square s x s in the
    plane z = x + y are rejected at every scale s, points inside kept."""
    square = Polytope(3, 2, ((0.0, 0.0, 0.0), (0.0, s, s), (s, s, 2 * s), (s, 0.0, s)))
    assert contains(square, (s / 4, s / 4, s / 2), 1e-9)
    assert contains(square, (s * (1 + 1e-12), s / 2, s * (1.5 + 1e-12)), 1e-9)
    assert not contains(square, (2 * s, 2 * s, 4 * s), 1e-9)
    assert not contains(square, (-s / 10, s / 2, s * 0.4), 1e-9)


def test_hausdorff_of_solids_whose_floats_coincide():
    """(1 + e, 1 - e, 0) and (1 - e, 1 + e, 0) both round to (1, 1, 0), a vertex
    of both tetrahedra, whose float faces then have two equal corners."""
    e = F(1, 2**60)
    base = [fr(1, 1, 0), fr(3, 3, 0), fr(2, 2, 1)]
    p = convex_hull(base + [(1 + e, 1 - e, F(0))])
    q = convex_hull(base + [(1 - e, 1 + e, F(0))])
    assert p.affine_dim == q.affine_dim == 3 and p.vertices != q.vertices
    assert hausdorff(p, q) == hausdorff(q, p) == nested_hausdorff(p, q) == 0.0
    apex = convex_hull(base + [fr(2, 2, 2)])
    assert hausdorff(apex, p) == nested_hausdorff(p, apex) == 1.0


def _segment_distance(x, a, b):
    """The float point-segment distance as it ran before edge data was precomputed."""
    d = tuple(bb - aa for aa, bb in zip(a, b))
    dd = sum(c * c for c in d)
    if dd == 0.0:
        return math.dist(x, a)
    t = min(1.0, max(0.0, sum((xx - aa) * c for xx, aa, c in zip(x, a, d)) / dd))
    return math.dist(x, tuple(aa + t * c for aa, c in zip(a, d)))


def _triangle_distance(p, a, b, c):
    """The float point-triangle distance as it ran before triangle data was precomputed:
    the closest-point walk on corner tuples, a flat triangle measured by its edges."""
    try:
        ab = tuple(b[i] - a[i] for i in range(3))
        ac = tuple(c[i] - a[i] for i in range(3))
        ap = tuple(p[i] - a[i] for i in range(3))
        d1 = sum(ab[i] * ap[i] for i in range(3))
        d2 = sum(ac[i] * ap[i] for i in range(3))
        if d1 <= 0.0 and d2 <= 0.0:
            return math.dist(p, a)
        bp = tuple(p[i] - b[i] for i in range(3))
        d3 = sum(ab[i] * bp[i] for i in range(3))
        d4 = sum(ac[i] * bp[i] for i in range(3))
        if d3 >= 0.0 and d4 <= d3:
            return math.dist(p, b)
        vc = d1 * d4 - d3 * d2
        if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
            t = d1 / (d1 - d3)
            return math.dist(p, tuple(a[i] + t * ab[i] for i in range(3)))
        cp = tuple(p[i] - c[i] for i in range(3))
        d5 = sum(ab[i] * cp[i] for i in range(3))
        d6 = sum(ac[i] * cp[i] for i in range(3))
        if d6 >= 0.0 and d5 <= d6:
            return math.dist(p, c)
        vb = d5 * d2 - d1 * d6
        if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
            t = d2 / (d2 - d6)
            return math.dist(p, tuple(a[i] + t * ac[i] for i in range(3)))
        va = d3 * d6 - d5 * d4
        if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
            t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
            return math.dist(p, tuple(b[i] + t * (c[i] - b[i]) for i in range(3)))
        denom = 1.0 / (va + vb + vc)
        v = vb * denom
        w = vc * denom
        return math.dist(p, tuple(a[i] + ab[i] * v + ac[i] * w for i in range(3)))
    except ZeroDivisionError:
        return min(_segment_distance(p, u, v) for u, v in ((a, b), (b, c), (c, a)))


def _reference_pieces(poly, verts):
    """The pieces of _pieces, built independently, with the distances above."""
    if poly.affine_dim == 0:
        return math.dist, [verts[:1]]
    if poly.affine_dim == 1:
        return _segment_distance, [verts]
    if poly.ambient_dim == 2:
        return _segment_distance, list(zip(verts, verts[1:] + verts[:1]))
    faces = poly.faces or [(0, i, i + 1) for i in range(1, len(verts) - 1)]
    return _triangle_distance, [[verts[t] for t in face] for face in faces]


def _reference_hausdorff(p, q):
    """All pairs: every vertex through _dist_point_polytope, with Fraction contains()."""

    def dist(x, poly):
        inside = poly.facets is not None and contains(poly, x)
        pieces = _reference_pieces(poly, [_fvec(v) for v in poly.vertices])
        return _dist_point_polytope(_fvec(x), pieces, inside)

    return max(max(dist(v, q) for v in p.vertices), max(dist(v, p) for v in q.vertices))


def test_hausdorff_integer_containment_matches_fraction_contains():
    """The integer containment agrees with contains() and keeps every distance bit-identical."""
    rng = random.Random(53)
    for _case in range(120):
        dim = rng.choice((2, 3))

        def cloud():
            size = rng.choice((1, 2, 4, 8, 12))
            den = rng.randint(1, 9)
            return [tuple(F(rng.randint(-9, 9), den) for _ in range(dim)) for _ in range(size)]

        p = convex_hull(cloud())
        # q often contains some of p's vertices: grow p's points a little and add new ones
        q = convex_hull([tuple(F(5, 4) * c for c in v) for v in p.vertices] + cloud())
        assert hausdorff(p, q) == _reference_hausdorff(p, q)
        assert hausdorff(q, p) == _reference_hausdorff(q, p)
        for a, b in ((p, q), (q, p)):
            if b.facets is not None:
                inside = _containment(a, b)
                assert [inside(i) for i in range(len(a.vertices))] == [
                    contains(b, x) for x in a.vertices
                ]


@st.composite
def _polytopes(draw, dim, exact):
    """A point, a segment, a polygon (inside 3D too) or a solid; float ones on dyadic points."""
    dens = (1, 2, 3, 4, 8) if exact else (1, 2, 4, 8)
    coord = st.builds(F, st.integers(-9, 9), st.sampled_from(dens))
    base, *dirs = (tuple(draw(coord) for _ in range(dim)) for _ in range(dim + 1))
    span = draw(st.integers(0, dim))
    points = [base]
    for _ in range(draw(st.integers(1, 10))):
        coeffs = [draw(coord) for _ in range(span)]
        points.append(
            tuple(b + sum(c * d[i] for c, d in zip(coeffs, dirs)) for i, b in enumerate(base))
        )
    if exact:
        return convex_hull(points)
    return convex_hull([tuple(map(float, x)) for x in points], eps=1e-9)


@given(st.sampled_from((2, 3)), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_hausdorff_bound_and_skip_is_bit_identical(dim, exact, data):
    """Exact and float pairs, points, segments and polygons inside 3D among them."""
    p = data.draw(_polytopes(dim, exact))
    q = data.draw(_polytopes(dim, exact))
    # a bigger copy of p holds p, as consecutive hull steps do
    doubled = [tuple(2 * c for c in v) for v in p.vertices + q.vertices]
    grown = convex_hull(doubled, eps=0 if exact else 1e-9)
    for a, b in ((p, q), (q, p), (p, grown), (grown, p)):
        assert float.hex(hausdorff(a, b)) == float.hex(_reference_hausdorff(a, b))


@given(rational_models())
@settings(max_examples=100, deadline=None)
# steps that stay segments, in the plane and in space
@example(validate_model([[F(-1, 2), 0], [0, F(-1, 2)]], [[0, 0], [1, 2], [2, 4]]))
@example(validate_model([[F(1, 2), 0, 0], [0, F(1, 3), 0], [0, 0, F(1, 5)]], [[0, 0, 0], [1, 1, 1]]))
# a polygon inside 3D, then solids
@example(validate_model([[0, F(-1, 2), 0], [F(1, 2), 0, 0], [0, 0, F(1, 3)]],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
@example(validate_model([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
def test_hausdorff_bit_identical_on_nested_steps(model):
    """hausdorff on the first 6 steps, and the one-pass delta decide and iterate read."""
    assume(model.dim > 1)  # on a line hausdorff compares the interval ends directly
    polys = [poly for _ledger, poly in islice(hull_steps(model), 7)]
    for a, b in zip(polys, polys[1:]):
        delta = float.hex(nested_hausdorff(a, b))
        assert delta == float.hex(hausdorff(a, b)) == float.hex(_reference_hausdorff(a, b))
        assert float.hex(hausdorff(b, a)) == float.hex(_reference_hausdorff(b, a))


# magnitudes from 1e-300 to 1e300, signed zeros and small plain values
_coordinate = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.5, 9.5), st.integers(-300, 299)),
    st.floats(-4.0, 4.0),
)
_point2 = st.tuples(_coordinate, _coordinate)


@given(_point2, _point2, st.sampled_from(("free", "near", "zero")), _point2)
@settings(max_examples=1500, deadline=None)
@example((-0.0, -0.0), (0.0, 0.0), "free", (1.0, 1.0))  # both products -0.0: sum() gives 0.0
@example((-0.0, 1.0), (0.0, 0.0), "free", (1.0, -0.0))
@example((1.0, 2.0), (3.0, -0.0), "zero", (0.0, 0.0))
@example((1e300, -1e300), (-1e300, 1e300), "free", (1e300, 1e300))  # overflow to inf and nan
def test_planar_edge_distance_is_bit_identical(x, a, kind, other):
    """The scalar 2D kernel gives _segment_distance's float, zero-length edges included."""
    if kind == "zero":
        b = a
    elif kind == "near":
        b = (a[0] + other[0] * 1e-3, a[1] + other[1] * 1e-3)
    else:
        b = other
    assert float.hex(_dist_point_edge2(x, *_edge2(a, b))) == float.hex(_segment_distance(x, a, b))


_point3 = st.tuples(_coordinate, _coordinate, _coordinate)
# (s, t) of a + s (b - a) + t (c - a): with s and t from -1, 1/4 and 2 the point
# falls in each of the seven closest-feature regions of a right triangle
_WEIGHTS = (-1.0, 0.25, 2.0)


def _triangle_point(a, b, c, s, t, h):
    """a + s (b - a) + t (c - a) + h ((b - a) x (c - a))."""
    u = [bb - aa for aa, bb in zip(a, b)]
    v = [cc - aa for aa, cc in zip(a, c)]
    n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return tuple(aa + s * uu + t * vv + h * nn for aa, uu, vv, nn in zip(a, u, v, n))


def _assert_triangle_kernel(p, a, b, c):
    assert float.hex(_dist_point_triangle(p, *_triangle3(a, b, c))) == float.hex(
        _triangle_distance(p, a, b, c)
    )


def test_triangle_distance_in_every_region_and_on_flat_triangles():
    """The scalar kernel equals the walk in all seven regions of proper triangles,
    and on triangles with coincident or collinear corners (the ZeroDivisionError
    branch and the plain walk on a flat triangle)."""
    o, x, y, z = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    triangles = [
        (o, x, y),
        (x, y, z),
        ((0.1, -2.3, 0.7), (3.9, 0.2, -1.1), (-0.6, 1.7, 2.5)),
        (o, o, x),  # two corners coincide
        (x, o, o),
        (o, x, o),
        (x, x, x),  # all three coincide
        (o, x, (2.0, 0.0, 0.0)),  # collinear corners
        (o, (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)),
    ]
    for a, b, c in triangles:
        for s in _WEIGHTS:
            for t in _WEIGHTS:
                for h in (-0.5, 0.0, 1.0):
                    _assert_triangle_kernel(_triangle_point(a, b, c, s, t, h), a, b, c)
        _assert_triangle_kernel((0.3, 0.7, -0.4), a, b, c)


@given(
    _point3, _point3, _point3,
    st.sampled_from(("free", "a=b", "b=c", "c=a", "collinear")),
    st.one_of(st.sampled_from(_WEIGHTS), st.floats(-3.0, 3.0)),
    st.one_of(st.sampled_from(_WEIGHTS), st.floats(-3.0, 3.0)),
    st.floats(-2.0, 2.0),
    st.one_of(st.none(), _point3),
)
@settings(max_examples=600, deadline=None)
def test_triangle_distance_is_bit_identical(a, b, c, kind, s, t, h, free):
    """The scalar 3D kernel gives the frozen walk's float: points placed by their
    weights in every closest-feature region, or drawn freely, and triangles with
    coincident or collinear corners among them."""
    if kind == "a=b":
        b = a
    elif kind == "b=c":
        c = b
    elif kind == "c=a":
        a = c
    elif kind == "collinear":
        c = tuple(aa + 0.5 * (bb - aa) for aa, bb in zip(a, b))
    p = free if free is not None else _triangle_point(a, b, c, s, t, h)
    _assert_triangle_kernel(p, a, b, c)


def _reference_float_contains(poly, x, eps):
    """contains(poly, x, eps > 0) for a polytope with facets, everything computed per call."""
    scale = max(_coord_scale([x]), _coord_scale(poly.vertices), 1.0)
    for normal, offset in poly.facets:
        slack = eps * scale * math.sqrt(sum(float(c) ** 2 for c in normal))
        if float(sum(a * b for a, b in zip(normal, x))) > float(offset) + slack:
            return False
    return True


@given(st.sampled_from((2, 3)), st.booleans(), st.sampled_from((1e-9, 1e-4, 0.25)), st.data())
@settings(max_examples=150, deadline=None)
def test_float_contains_on_cached_data_is_bit_identical(dim, exact, eps, data):
    """Polygons and solids, float and exact, tested at points on, near and off the boundary."""
    coord = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 4, 8)))
    scale = data.draw(st.sampled_from((F(1, 8), F(1), F(64))))
    base = tuple(data.draw(coord) * scale for _ in range(dim))
    simplex = [base] + [tuple(c + scale * (i == j) for j, c in enumerate(base)) for i in range(dim)]
    extra = data.draw(st.lists(st.tuples(*[coord] * dim), max_size=8))
    points = simplex + [tuple(c * scale for c in p) for p in extra]
    poly = convex_hull(points) if exact else convex_hull([_fvec(p) for p in points], eps=1e-9)
    wobble = st.sampled_from((0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9, 1e-6, -1e-6, 0.5))
    tests = [_fvec(v) for v in poly.vertices]
    tests += [tuple(c * (1 + data.draw(wobble)) for c in v) for v in tests]
    tests += [tuple(sum(c) / len(tests) for c in zip(*tests))]
    for x in tests + tests:  # the second round reads the cached data
        assert contains(poly, x, eps) == _reference_float_contains(poly, x, eps)


def test_facet_validity_random():
    """Every facet inequality holds for every vertex, with equality on the facet."""
    rng = random.Random(47)
    for _case in range(20):
        dim = rng.choice((2, 3))
        pts = [tuple(F(rng.randint(-5, 5)) for _ in range(dim)) for _ in range(12)]
        poly = convex_hull(pts)
        if poly.affine_dim < dim:
            continue
        from fractalhull.linalg import dot

        for normal, offset in poly.facets:
            values = [dot(normal, v) for v in poly.vertices]
            assert all(v <= offset for v in values)
            assert sum(1 for v in values if v == offset) >= dim


def test_canonical_output_exact():
    """Vertex order, faces and facets are fixed functions of the point set."""
    tilted = convex_hull([
        fr(0, 0, 0), fr(1, 0, -1), fr(0, 1, -1), fr(1, 1, -2),
        fr("1/2", "1/2", -1), fr(2, "-1/2", "-3/2"),
    ])
    assert (tilted.affine_dim, tilted.faces, tilted.facets) == (2, None, None)
    assert tilted.vertices == (fr(0, 0, 0), fr(0, 1, -1), fr(1, 1, -2), fr(2, "-1/2", "-3/2"))

    pyramid = convex_hull([
        fr(0, 0, 0), fr(2, 0, 0), fr(2, 2, 0), fr(0, 2, 0), fr(1, 1, 0),
        fr(1, 1, "3/2"), fr("1/2", "1/2", "3/4"),
    ])
    assert pyramid.vertices == (
        fr(0, 0, 0), fr(0, 2, 0), fr(1, 1, "3/2"), fr(2, 0, 0), fr(2, 2, 0)
    )
    assert pyramid.faces == ((0, 1, 4), (0, 2, 1), (0, 3, 2), (0, 4, 3), (1, 2, 4), (2, 3, 4))
    assert pyramid.facets == (
        (fr(-3, 0, 2), F(0)), (fr(0, -3, 2), F(0)), (fr(0, 0, -1), F(0)),
        (fr(0, 3, 2), F(6)), (fr(3, 0, 2), F(6)),
    )

    polygon = convex_hull([fr(0, 0), fr("3/2", 0), fr(1, "2/3"), fr(0, 1), fr("1/2", "1/3")])
    assert polygon.vertices == (fr(0, 0), fr("3/2", 0), fr(1, "2/3"), fr(0, 1))
    assert polygon.facets == (
        (fr(0, "-3/2"), F(0)), (fr("2/3", "1/2"), F(1)),
        (fr("1/3", 1), F(1)), (fr(-1, 0), F(0)),
    )
    for poly in (tilted, pyramid, polygon):
        scalars = [c for v in poly.vertices for c in v]
        scalars += [c for normal, offset in poly.facets or () for c in normal + (offset,)]
        assert all(type(c) is F for c in scalars)


def _reference_facets(poly):
    """The Fraction facets of an exact poly, derived from its Fraction vertices and faces.

    This is how the hull derived them before it kept an integer form: an
    interval's two ends, a polygon's edge normals (b - a rotated) with
    offsets, and a solid's primitive integer plane normals with offsets,
    ordered by repr and then, stably, by their float values.
    """
    vs = poly.vertices
    if poly.affine_dim < poly.ambient_dim:
        return None
    if poly.ambient_dim == 1:
        return (((F(-1),), -vs[0][0]), ((F(1),), vs[1][0]))
    if poly.ambient_dim == 2:
        facets = []
        for a, b in zip(vs, vs[1:] + vs[:1]):
            normal = (b[1] - a[1], a[0] - b[0])
            facets.append((normal, normal[0] * a[0] + normal[1] * a[1]))
        return tuple(facets)
    planes = set()
    for i, j, k in poly.faces:
        u = [b - a for a, b in zip(vs[i], vs[j])]
        w = [c - a for a, c in zip(vs[i], vs[k])]
        cross = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        scale = math.lcm(*(c.denominator for c in cross))
        ints = [int(c * scale) for c in cross]
        normal = tuple(F(c // math.gcd(*ints)) for c in ints)
        planes.add((normal, sum(n * x for n, x in zip(normal, vs[i]))))
    facets = sorted(planes, key=repr)
    facets.sort(key=lambda f: (tuple(map(float, f[0])), float(f[1])))
    return tuple(facets)


def _assert_integer_form(poly):
    """poly keeps its integer form and reads its Fractions off it, equal to the reference."""
    assert "vertices" not in vars(poly) and "facets" not in vars(poly)
    xs, den = poly.lattice
    assert (list(xs), den) == to_lattice(poly.vertices)
    assert poly.facets == _reference_facets(poly)
    assert (poly.rows is None) == (poly.facets is None)


def test_integer_form_matches_fraction_derivation():
    """Rational clouds in dimensions 1 to 3, at every affine dimension, and step polytopes."""
    rng = random.Random(71)
    seen = set()
    for dim in (1, 2, 3):
        for span in range(dim + 1):
            for _case in range(40):
                den = rng.choice((1, 2, 3, 6, 7))

                def coord():
                    return F(rng.randint(-9, 9), den)

                base, *dirs = (tuple(coord() for _ in range(dim)) for _ in range(span + 1))
                points = [base]
                for _ in range(rng.randint(1, 12)):
                    coeffs = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in dirs]
                    points.append(tuple(
                        b + sum(c * d[i] for c, d in zip(coeffs, dirs)) for i, b in enumerate(base)
                    ))
                poly = convex_hull(points)
                seen.add((dim, poly.affine_dim))
                _assert_integer_form(poly)
    assert seen == {(dim, adim) for dim in (1, 2, 3) for adim in range(dim + 1)}
    models = [
        validate_model([[F(-2, 5)]], [[0], [1], [F(1, 3)]]),
        validate_model([[F(1, 2), F(-1, 2)], [F(1, 2), F(1, 2)]], [[0, 0], [1, 0], [F(1, 3), 2]]),
        # a polygon inside 3D: the digits and T keep the plane z = 0
        validate_model(
            [[F(1, 2), F(-1, 3), F(1, 5)], [F(1, 4), F(1, 2), 0], [0, 0, F(1, 3)]],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        ),
        validate_model(
            [[F(-1, 2), 0, 0], [0, F(-1, 2), 0], [0, 0, F(-1, 2)]],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ),
    ]
    for model, affine_dim in zip(models, (1, 2, 2, 3)):
        steps = [poly for _, poly in islice(hull_steps(model), 7)]
        assert steps[-1].affine_dim == affine_dim
        for poly in steps:
            _assert_integer_form(poly)


def test_facet_order_breaks_float_ties():
    """Facets whose keys agree as floats come in increasing integer-row order."""
    m = 2**60  # float(m) == float(m + 1)
    poly = convex_hull([
        fr(0, 1, 0), fr(0, -1, 0), fr(m, 1, 1), fr(m, -1, 1),
        fr(-m - 1, 1, -1), fr(-m - 1, -1, -1), fr(-3 * m, 0, 0),
    ])
    assert list(poly.rows) == sorted(poly.rows)
    assert poly.rows[-2:] == (((1, 0, -m - 1), 0), ((1, 0, -m), 0))
    assert poly.facets[-2:] == ((fr(1, 0, -m - 1), F(0)), (fr(1, 0, -m), F(0)))


def _float_key_order(facets):
    """Fraction facets sorted by their float keys (n, c), repr breaking a tie of keys.

    The order solids listed their facets in before they took integer-row order.
    """
    return tuple(sorted(facets, key=lambda f: (tuple(map(float, f[0])), float(f[1]), repr(f))))


@given(st.sampled_from((3, 2**12, 2**24)), st.sampled_from((1, 3, 2**20)), st.data())
@settings(max_examples=150, deadline=None)
def test_solid_rows_follow_the_float_key_order(bound, den, data):
    """Below 2**53 a float normal entry is its integer, so row order is float-key order."""
    coord = st.builds(lambda c: F(c, den), st.integers(-bound, bound))
    points = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=14))
    poly = convex_hull(points)
    assume(poly.affine_dim == 3)
    assume(all(abs(c) < 2**53 for normal, _ in poly.rows for c in normal))
    assert list(poly.rows) == sorted(poly.rows)
    assert poly.facets == _float_key_order(poly.facets)


def test_float_mode_near_collinear_dropped():
    poly = convex_hull([(0.0, 0.0), (1.0, 1e-12), (2.0, 0.0)], eps=1e-9)
    assert poly.affine_dim == 1
    assert poly.vertices == ((0.0, 0.0), (2.0, 0.0))


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        convex_hull([])


class _Unordered(F):
    """A Fraction that must not be compared or hashed."""

    def __lt__(self, other):
        raise AssertionError("a Fraction was compared")

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self):
        raise AssertionError("a Fraction was hashed")


@given(st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_rational_hull_is_sorted_on_the_lattice(dim, data):
    """Shuffled rational points with repeats hull as their sorted integer vectors do.

    No Fraction is compared or hashed on the way: the points go onto the
    lattice first and are deduplicated and sorted as integer tuples.
    """
    coord = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6)))
    points = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=12))
    points += data.draw(st.lists(st.sampled_from(points), max_size=4))
    random.Random(data.draw(st.integers(0, 99))).shuffle(points)
    expected = lattice_hull(*to_lattice(sorted(set(points))))
    for poly in (
        convex_hull(points),
        convex_hull([tuple(_Unordered(c) for c in p) for p in points]),
    ):
        assert poly == expected
        assert (poly.lattice, poly.rows, poly.cycles) == (
            expected.lattice, expected.rows, expected.cycles
        )


def test_hull_input_errors():
    """Mixed-dimension and 4D input fail as before; mixed int/Fraction input is rational."""
    # mixed dimensions: the error names the smallest point's dimension
    with pytest.raises(DimensionMismatch):
        convex_hull([fr(0, 0), fr(1)])
    with pytest.raises(DimensionMismatch):
        convex_hull([fr(1, 2, 3, 4), fr(0)])
    with pytest.raises(UnsupportedDimension):
        convex_hull([fr(0, 0, 0, 0), fr(1, 2)])
    with pytest.raises(UnsupportedDimension):
        convex_hull([fr(0, 0, 0, 0), fr(1, 0, 0, 0)])
    with pytest.raises(UnsupportedDimension):
        convex_hull([(), ()])
    mixed = convex_hull([(0, 0), (F(1, 2), 1), (1, 0)])
    assert mixed.lattice == ([(0, 0), (2, 0), (1, 2)], 2)
    assert convex_hull([(0, 0), (1, 2), (2, 0)]).lattice is None  # ints alone stay float-mode


@pytest.mark.parametrize(
    "points",
    [
        [(F(0), 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0.0, 0.0), (F(1), F(0)), (F(0), F(1))],  # the smallest point is all float
        [(F(0),), (0.5,)],
        [(F(0), F(0), F(0)), (1, 0, 0), (0, 1.0, 0), (0, 0, 1)],
    ],
)
def test_hull_rejects_mixed_float_and_fraction(points):
    """A float beside a Fraction is a typed mode error, not an AttributeError."""
    with pytest.raises(ModeMismatch, match="mix float and Fraction"):
        convex_hull(points)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_float_hull_past_the_scale_limit_is_an_error(n):
    """Float powers raise OverflowError where products give inf, so a float
    coordinate past FLOAT_SCALE_MAX is a typed error naming its magnitude,
    and one at the limit is hulled."""
    limit = FLOAT_SCALE_MAX[n]
    corners = [tuple(float(i == j) for j in range(n)) for i in range(-1, n)]
    poly = convex_hull([tuple(limit * c for c in p) for p in corners], eps=1e-9)
    assert len(poly.vertices) == n + 1
    big = tuple(2 * limit * c for c in corners[-1])
    with pytest.raises(FractalHullError, match=re.escape(f"reach {2 * limit:g}; in dimension {n} ")):
        convex_hull(corners[:-1] + [big], eps=1e-9)
