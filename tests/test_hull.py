"""Convex hull construction, containment, facet normals, Hausdorff distance."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from conftest import naive_vertices_2d, naive_vertices_3d
from fractalhull.errors import DegeneratePolytope
from fractalhull.hull import contains, convex_hull, facet_normals, hausdorff


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


def test_facet_order_breaks_float_ties():
    """Two facets whose keys agree as floats keep a fixed order."""
    m = 2**60  # float(m) == float(m + 1)
    poly = convex_hull([
        fr(0, 1, 0), fr(0, -1, 0), fr(m, 1, 1), fr(m, -1, 1),
        fr(-m - 1, 1, -1), fr(-m - 1, -1, -1), fr(-3 * m, 0, 0),
    ])
    assert poly.facets[-2:] == ((fr(1, 0, -m), F(0)), (fr(1, 0, -m - 1), F(0)))


def test_float_mode_near_collinear_dropped():
    poly = convex_hull([(0.0, 0.0), (1.0, 1e-12), (2.0, 0.0)], eps=1e-9)
    assert poly.affine_dim == 1
    assert poly.vertices == ((0.0, 0.0), (2.0, 0.0))


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        convex_hull([])
