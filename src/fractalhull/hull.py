"""Robust convex hulls in ambient dimension 1 to 3.

Exact hulls run on integers.  Rational points are written as integer vectors
over one shared positive denominator (lattice_hull takes them in that form),
so every predicate, from the signs of 2x2 / 3x3 determinants to the direction
and plane keys, works on Python ints; Fractions are built only for the
returned Polytope.  Float inputs use a caller-supplied eps scaled by the
coordinate magnitude, and points within tolerance of a facet are treated as
non-vertices, which errs toward fewer vertices.

Output is canonical regardless of input order: 2D vertex cycles are
counterclockwise starting at the lexicographically smallest vertex, 3D vertex
lists are sorted with a sorted triangular face list, so equal hulls compare
equal structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DegeneratePolytope, DimensionMismatch, UnsupportedDimension
from .linalg import dot, norm2_sq, to_lattice, vec_scale, vec_sub


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many points.

    vertices: a single point (affine_dim 0), segment endpoints (affine_dim 1),
    a counterclockwise cycle (affine_dim 2), or a sorted list with triangular
    faces (affine_dim 3).  facets holds outward unnormalized (normal, offset)
    pairs for full-dimensional hulls and is None otherwise.
    """

    ambient_dim: int
    affine_dim: int
    vertices: tuple
    faces: Optional[tuple] = None
    facets: Optional[tuple] = None

    @property
    def vertex_set(self):
        return frozenset(self.vertices)


def _is_exact(p):
    return isinstance(p[0], Fraction)


def _coord_scale(pts):
    m = 1.0
    for p in pts:
        for c in p:
            a = abs(float(c))
            if a > m:
                m = a
    return m


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _orient3(a, b, c, d):
    return dot(_cross3(vec_sub(b, a), vec_sub(c, a)), vec_sub(d, a))


def _affine_basis(pts, eps, scale):
    """Base point plus independent difference vectors spanning the point set.

    Returns (base, dirs) where dirs holds original difference vectors; their
    count is the affine dimension.  Rank decisions are exact for Fractions and
    eps-thresholded for floats.
    """
    base = pts[0]
    dirs = []
    reduced = []  # (reduced vector, pivot column)
    threshold = eps * scale
    for p in pts[1:]:
        d = vec_sub(p, base)
        r = list(d)
        for vec, piv in reduced:
            if vec[piv] != 0:
                factor = r[piv] / vec[piv]
                if factor != 0:
                    r = [a - factor * b for a, b in zip(r, vec)]
        if threshold == 0.0:
            piv = next((i for i, v in enumerate(r) if v != 0), None)
        else:
            piv = max(range(len(r)), key=lambda i: abs(float(r[i])))
            if abs(float(r[piv])) <= threshold:
                piv = None
        if piv is not None:
            dirs.append(d)
            reduced.append((tuple(r), piv))
            if len(dirs) == len(base):
                break
    return base, dirs


def _lattice_basis(pts):
    """_affine_basis for integer points: exact rank tests, same choice of points."""
    base = pts[0]
    n = len(base)
    dirs = []
    for p in pts[1:]:
        d = vec_sub(p, base)
        if not dirs:
            independent = any(d)
        elif len(dirs) == 2:
            independent = dot(_cross3(dirs[0], dirs[1]), d) != 0
        elif n == 2:
            independent = _cross2((0, 0), dirs[0], d) != 0
        else:
            independent = any(_cross3(dirs[0], d))
        if independent:
            dirs.append(d)
            if len(dirs) == n:
                break
    return base, dirs


def _rational(p, den):
    return tuple(Fraction(c, den) for c in p)


def _chain2d(pts, eps_area):
    """Monotone chain on 2-tuples; CCW cycle from the lexicographic minimum."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= eps_area:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= eps_area:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon_facets(cycle):
    """Outward edge normals with offsets for a CCW 2D vertex cycle."""
    facets = []
    r = len(cycle)
    for i in range(r):
        a, b = cycle[i], cycle[(i + 1) % r]
        normal = (b[1] - a[1], a[0] - b[0])
        facets.append((normal, dot(normal, a)))
    return tuple(facets)


def _direction_key(d, exact):
    """Canonical signed direction key for collinearity grouping."""
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
    """Drop points lying strictly between two others along a line.

    Such points are never hull vertices and, once gone, no three remaining
    points are collinear, which keeps the incremental 3D hull free of
    degenerate (zero-area) cone faces.
    """
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
            size = norm2_sq(d)
            prev = groups.get(key)
            if prev is None or size > prev[0]:
                if prev is not None:
                    removed[prev[1]] = True
                groups[key] = (size, j)
            else:
                removed[j] = True
    return [p for p, gone in zip(pts, removed) if not gone]


def _tri_edges(tri):
    a, b, c = tri
    return ((a, b), (b, c), (c, a))


def _plane_key(normal, anchor, exact, scale):
    if exact:
        g = math.gcd(*normal)
        prim = tuple(c // g for c in normal)
        return (prim, dot(prim, anchor))
    n = math.sqrt(sum(float(c) ** 2 for c in normal))
    unit = tuple(round(float(c) / n, 7) for c in normal)
    off = round(sum(u * float(a) for u, a in zip(unit, anchor)) / max(1.0, scale), 7)
    return (unit, off)


def _hull_3d(pts, den=None, eps=0.0, scale=1.0):
    """Incremental triangulated hull with strict-visibility predicates.

    With den set, pts are integer vectors standing for pts/den and every
    predicate is exact; otherwise pts are floats and the predicates use eps
    at the coordinate magnitude scale.  Coplanar input points are legal:
    faces sharing a supporting plane are merged afterwards and each merged
    facet is re-hulled in 2D, which removes facet-interior points from the
    vertex set.
    """
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

    # merge coplanar triangles into facets and purify the vertex set
    groups = {}
    for tri in faces:
        a, b, c = (pts[t] for t in tri)
        normal = _cross3(vec_sub(b, a), vec_sub(c, a))
        key = _plane_key(normal, a, exact, scale)
        groups.setdefault(key, []).append(tri)

    facet_polys = []
    for key in sorted(groups, key=repr):
        tris = groups[key]
        ids = sorted({t for tri in tris for t in tri})
        a = pts[tris[0][0]]
        normal = _cross3(
            vec_sub(pts[tris[0][1]], a), vec_sub(pts[tris[0][2]], a)
        )
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
            # the primitive normal is the same integer vector at any scale
            prim_normal, offset = key
            facets.append((tuple(Fraction(c) for c in prim_normal), Fraction(offset, den)))
        else:
            a = pts[poly[0]]
            b, c = pts[poly[1]], pts[poly[2]]
            normal = _cross3(vec_sub(b, a), vec_sub(c, a))
            facets.append((normal, dot(normal, a)))
        mapped = [index_of[t] for t in poly]
        for i in range(1, len(mapped) - 1):
            tri = (mapped[0], mapped[i], mapped[i + 1])
            shift = tri.index(min(tri))
            triangles.append(tri[shift:] + tri[:shift])
    triangles.sort()
    if exact:
        # facets whose float keys tie stay in the repr order of their values
        facets.sort(key=repr)
    facets.sort(key=lambda f: (tuple(map(float, f[0])), float(f[1])))
    return Polytope(3, 3, vertices, tuple(triangles), tuple(facets))


def _plane_cycle(pts, base, u, v, eps):
    """Vertex cycle of 3D points spanning the plane base + span(u, v).

    The points are hulled in the coordinates (u, w) with w the part of v
    orthogonal to u, and the cycle starts at the smallest point.
    """
    w = vec_sub(vec_scale(dot(u, u), v), vec_scale(dot(v, u), u))
    coord_of = {}
    for p in pts:
        dp = vec_sub(p, base)
        coord_of[(dot(dp, u), dot(dp, w))] = p
    eps_area = eps * _coord_scale(list(coord_of)) ** 2 if eps else 0
    cycle = [coord_of[c] for c in _chain2d(list(coord_of), eps_area)]
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


def lattice_hull(points, den):
    """Exact convex hull of the rational points X/den for the X in points.

    points are distinct integer vectors of one dimension (1 to 3) in
    lexicographic order, and den is a positive integer.  Every predicate runs
    on the integers; the result holds Fractions and equals convex_hull of the
    rational points.
    """
    n = len(points[0])
    base, dirs = _lattice_basis(points)
    adim = len(dirs)

    if adim == 0:
        return Polytope(n, 0, (_rational(base, den),))

    if adim == 1:
        u = dirs[0]

        def along(p):
            return dot(vec_sub(p, base), u)

        ends = sorted((min(points, key=along), max(points, key=along)))
        facets = None
        if n == 1:
            one = Fraction(1)
            facets = (((-one,), Fraction(-ends[0][0], den)), ((one,), Fraction(ends[1][0], den)))
        return Polytope(n, 1, tuple(_rational(p, den) for p in ends), None, facets)

    if n == 2:
        cycle = _chain2d(points, 0)
        facets = tuple(
            ((Fraction(nx, den), Fraction(ny, den)), Fraction(offset, den * den))
            for (nx, ny), offset in _polygon_facets(cycle)
        )
        return Polytope(2, 2, tuple(_rational(p, den) for p in cycle), None, facets)

    if adim == 2:
        cycle = _plane_cycle(points, base, dirs[0], dirs[1], 0)
        return Polytope(3, 2, tuple(_rational(p, den) for p in cycle))

    return _hull_3d(points, den)


def convex_hull(points, eps=0.0):
    """Convex hull of a nonempty point set in ambient dimension 1 to 3.

    Detects the affine dimension first and dispatches to the matching
    algorithm, so degenerate inputs (a single point, collinear or coplanar
    sets) produce lower-dimensional polytopes instead of failing.  Rational
    points go to lattice_hull over the lcm of their denominators.
    """
    pts = sorted({tuple(p) for p in points})
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if n < 1 or n > 3:
        raise UnsupportedDimension(f"ambient dimension {n} outside 1..3")
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("points have inconsistent dimensions")
    if _is_exact(pts[0]):
        return lattice_hull(*to_lattice(pts))
    scale = _coord_scale(pts)
    base, dirs = _affine_basis(pts, eps, scale)
    adim = len(dirs)

    if adim == 0:
        return Polytope(n, 0, (pts[0],))

    if adim == 1:
        u = dirs[0]
        uu = dot(u, u)
        lo, hi = None, None
        for p in pts:
            t = dot(vec_sub(p, base), u) / uu
            if lo is None or t < lo[0]:
                lo = (t, p)
            if hi is None or t > hi[0]:
                hi = (t, p)
        ends = tuple(sorted((lo[1], hi[1])))
        facets = None
        if n == 1:
            facets = (((-1.0,), -ends[0][0]), ((1.0,), ends[1][0]))
        return Polytope(n, 1, ends, None, facets)

    if adim == 2 and n == 2:
        cycle = _chain2d(pts, eps * scale**2)
        return Polytope(2, 2, tuple(cycle), None, _polygon_facets(cycle))

    if adim == 2 and n == 3:
        return Polytope(3, 2, tuple(_plane_cycle(pts, base, dirs[0], dirs[1], eps)))

    return _hull_3d(pts, eps=eps, scale=scale)


def facet_normals(poly: Polytope):
    """Outward unnormalized (normal, offset) pairs of a full-dimensional hull."""
    if poly.facets is None:
        raise DegeneratePolytope(
            f"polytope has affine dimension {poly.affine_dim} < ambient {poly.ambient_dim}"
        )
    return list(poly.facets)


def _carrier_plane_normal(poly):
    a, b, c = poly.vertices[0], poly.vertices[1], poly.vertices[2]
    return _cross3(vec_sub(b, a), vec_sub(c, a))


def contains(poly: Polytope, x, eps=0.0):
    """Closed containment test; exact for rational data when eps is 0."""
    if len(x) != poly.ambient_dim:
        raise DimensionMismatch("point dimension differs from polytope ambient dimension")
    exact = eps == 0
    if not exact:
        scale = max(_coord_scale([x]), _coord_scale(poly.vertices), 1.0)

    if poly.facets is not None:
        for normal, offset in poly.facets:
            if exact:
                if dot(normal, x) > offset:  # exact comparison, no float mixing
                    return False
            else:
                slack = eps * scale * math.sqrt(sum(float(c) ** 2 for c in normal))
                if float(dot(normal, x)) > float(offset) + slack:
                    return False
        return True

    if poly.affine_dim == 0:
        v = poly.vertices[0]
        if exact:
            return tuple(x) == v
        return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(x, v))) <= eps * scale

    if poly.affine_dim == 1:
        a, b = poly.vertices
        d = vec_sub(b, a)
        r = vec_sub(x, a)
        if poly.ambient_dim == 2:
            cross = (_cross2((0,) * 2, d, r),)
        else:
            cross = _cross3(d, r)
        if exact:
            if any(c != 0 for c in cross):
                return False
        elif math.sqrt(sum(float(c) ** 2 for c in cross)) > eps * scale * scale:
            return False
        t = dot(r, d) / dot(d, d)
        if exact:
            return 0 <= t <= 1
        return -eps <= t <= 1 + eps

    # planar polygon embedded in ambient dimension 3
    a = poly.vertices[0]
    normal = _carrier_plane_normal(poly)
    off_plane = dot(normal, vec_sub(x, a))
    if exact:
        if off_plane != 0:
            return False
    elif abs(float(off_plane)) > eps * scale * scale * scale:
        return False
    u = vec_sub(poly.vertices[1], a)
    w = _cross3(normal, u)
    coords = []
    for p in poly.vertices:
        dp = vec_sub(p, a)
        coords.append((dot(dp, u), dot(dp, w)))
    dx = vec_sub(x, a)
    cx = (dot(dx, u), dot(dx, w))
    eps_area = 0 if exact else eps * _coord_scale(coords + [cx]) ** 2
    r = len(coords)
    for i in range(r):
        if _cross2(coords[i], coords[(i + 1) % r], cx) < -eps_area:
            return False
    return True


def _fvec(v):
    return tuple(float(c) for c in v)


def _dist_point_segment(x, a, b):
    d = tuple(bb - aa for aa, bb in zip(a, b))
    dd = sum(c * c for c in d)
    if dd == 0.0:
        return math.dist(x, a)
    t = sum((xx - aa) * c for xx, aa, c in zip(x, a, d)) / dd
    t = min(1.0, max(0.0, t))
    closest = tuple(aa + t * c for aa, c in zip(a, d))
    return math.dist(x, closest)


def _dist_point_triangle(p, a, b, c):
    """Distance from point to triangle in R^3 (closest-point walk)."""
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
    closest = tuple(a[i] + ab[i] * v + ac[i] * w for i in range(3))
    return math.dist(p, closest)


def _dist_point_polytope(x, poly: Polytope):
    xf = _fvec(x)
    verts = [_fvec(v) for v in poly.vertices]
    if poly.affine_dim == 0:
        return math.dist(xf, verts[0])
    if poly.affine_dim == 1:
        return _dist_point_segment(xf, verts[0], verts[1])
    if poly.ambient_dim == 2:
        if contains(poly, x):
            return 0.0
        r = len(verts)
        return min(_dist_point_segment(xf, verts[i], verts[(i + 1) % r]) for i in range(r))
    if poly.affine_dim == 2:
        return min(
            _dist_point_triangle(xf, verts[0], verts[i], verts[i + 1])
            for i in range(1, len(verts) - 1)
        )
    if contains(poly, x):
        return 0.0
    return min(
        _dist_point_triangle(xf, verts[a], verts[b], verts[c]) for a, b, c in poly.faces
    )


def hausdorff(p: Polytope, q: Polytope):
    """Hausdorff distance between two convex polytopes, as a float."""
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch("polytopes live in different ambient dimensions")
    if p.ambient_dim == 1:
        plo, phi = float(p.vertices[0][0]), float(p.vertices[-1][0])
        qlo, qhi = float(q.vertices[0][0]), float(q.vertices[-1][0])
        return max(abs(plo - qlo), abs(phi - qhi))
    d_pq = max(_dist_point_polytope(v, q) for v in p.vertices)
    d_qp = max(_dist_point_polytope(v, p) for v in q.vertices)
    return max(d_pq, d_qp)
