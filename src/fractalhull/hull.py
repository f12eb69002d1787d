"""Robust convex hulls in ambient dimension 1 to 3.

Exact hulls run on integers.  Rational points are written as integer vectors
over one shared positive denominator (lattice_hull takes them in that form),
so every predicate, from the signs of 2x2 / 3x3 determinants to the plane
keys, works on Python ints.  lattice_polytope builds every exact Polytope,
which stores only that integer form: its vertices over the least
denominator and, for a solid, its integer facet rows and their cycles.  Every
other view (the Fraction vertices and facets, the rows of an interval or a
polygon, a solid's faces, the float vertices) is built once, when first
read.  Float inputs use a caller-supplied eps scaled by the coordinate
magnitude, and points within tolerance of a facet are treated as
non-vertices, which errs toward fewer vertices.  The float predicates that
run many times against one polytope read data computed once per polytope:
contains its vertex scale, facet offsets and normal lengths, and the
Hausdorff distance the scalar data of each polygon edge in the plane and of
each triangle in space.

The 3D hull is incremental.  Exact input keeps conflict lists, so that an
insertion tests again only the points waiting on the faces it deletes;
float input, whose tolerance makes the result depend on the insertion
order, scans every face for each point in input order.  Coplanar faces are
merged into facets, a lone exact triangle being its own facet.

Output is canonical regardless of input order: 2D vertex cycles are
counterclockwise starting at the lexicographically smallest vertex, a polygon
inside 3D runs from its smallest vertex toward the smaller of its two
neighbours, 3D vertex lists are sorted and each facet is fanned from its
smallest vertex index into a sorted triangular face list, so equal hulls
compare equal structurally.  An exact solid keeps each facet's vertex cycle
beside its row and lists its facets in increasing order of their integer
rows; a float solid sorts its facets by their float keys.

Minkowski sums need no hull: minkowski_cycle merges two integer polygon
cycles by edge direction, and minkowski_polytope overlays the normal fans of
two exact solids, read off their facet rows and cycles, and gives the
canonical form of the hull of all pairwise sums.  minkowski_sum, the exact
step P_{k+1} = P_k + T^{k+1} conv(D) of the hull recursion, takes one of the
two, or else (on a line, or in space when P_k is not yet solid or the digit
image a point or segment) lattice_hull of the vertex sums, which the
canonical forms above make equal to the hull of every pairwise sum.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain, repeat
from operator import mul

from .errors import DegeneratePolytope, DimensionMismatch, FractalHullError, ModeMismatch, UnsupportedDimension
from .linalg import cross, dot, norm2, to_lattice, vec_add, vec_scale, vec_sub


class Polytope:
    """Convex hull of finitely many points.

    vertices: a single point (affine_dim 0), segment endpoints (affine_dim 1),
    a counterclockwise cycle (affine_dim 2), or a sorted list with triangular
    faces (affine_dim 3).  facets holds outward unnormalized (normal, offset)
    pairs for full-dimensional hulls and is None otherwise.

    An exact Polytope comes from lattice_polytope and stores only its integer
    form: lattice = (X, den), the vertices X/den in order over the least den,
    and for a solid its integer facet rows (n, c), with x = X/den inside iff
    n.X <= c, in increasing order, and cycles: per row, its facet's vertex
    indices counterclockwise seen from outside, from the smallest.  Every
    other view is built once, when first read: the Fraction vertices and
    facets, the rows of an interval or a polygon in the plane (rows is None
    unless the hull is full-dimensional), a solid's faces, fanned from each
    cycle's first index, and the float vertices the Hausdorff passes read.  A
    float Polytope has lattice, rows and cycles None.

    A Polytope is immutable.  It equals, hashes and reprs by its five fields
    ambient_dim, affine_dim, vertices, faces and facets.
    """

    lattice = cycles = None

    def __init__(self, ambient_dim, affine_dim, vertices, faces=None, facets=None):
        vars(self).update(
            ambient_dim=ambient_dim, affine_dim=affine_dim, vertices=vertices, faces=faces, facets=facets
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"Polytope is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Polytope is immutable: cannot delete {name!r}")

    def _key(self):
        return self.ambient_dim, self.affine_dim, self.vertices, self.faces, self.facets

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Polytope(ambient_dim={!r}, affine_dim={!r}, vertices={!r}, faces={!r}, facets={!r})".format(
            *self._key()
        )

    # a lattice_polytope leaves these views out of its __dict__, and they are
    # built when first read (a __getattr__ hook would slow every attribute
    # read instead); a float Polytope's __init__ sets its vertices and faces
    @functools.cached_property
    def vertices(self):
        xs, den = self.lattice
        return tuple(_rational(x, den) for x in xs)

    @functools.cached_property
    def faces(self):
        return None if self.cycles is None else _fan(self.cycles)

    @functools.cached_property
    def rows(self):
        if self.lattice is None or self.affine_dim < self.ambient_dim:
            return None
        xs = self.lattice[0]
        if self.ambient_dim == 1:
            (lo,), (hi,) = xs
            return ((-1,), -lo), ((1,), hi)
        return _polygon_facets(xs)

    @functools.cached_property
    def facets(self):
        if self.rows is None:
            return None
        den = self.lattice[1]
        s = den if self.ambient_dim == 2 else 1  # a polygon's rows are edge normals of X
        return tuple(_fraction_facet(row, s, den) for row in self.rows)

    @functools.cached_property
    def _floats(self):
        """The vertices as floats; X/den is float(Fraction) bit for bit, both correctly rounded."""
        if self.lattice is None:
            return tuple(map(_fvec, self.vertices))
        xs, den = self.lattice
        return tuple(tuple(c / den for c in x) for x in xs)

    @property
    def vertex_set(self):
        return frozenset(self.vertices)

    @functools.cached_property
    def _vertex_scale(self):
        """The largest |coordinate| of the vertices (at least 1.0), for float contains."""
        return _coord_scale(self.vertices)

    @functools.cached_property
    def _slack_rows(self):
        """(normal, float offset, |normal|) per facet, for float contains."""
        return tuple((normal, float(offset), norm2(normal)) for normal, offset in self.facets)


def _fraction_facet(row, s, den):
    """The Fraction facet (n/s, c/(s den)) of the row (n, c) over den."""
    normal, offset = row
    return tuple(Fraction(c, s) for c in normal), Fraction(offset, s * den)


def _rational(p, den):
    return tuple(Fraction(c, den) for c in p)


def lattice_polytope(points, den, facets=None):
    """The exact Polytope of the integer vertices X/den; see Polytope for its views.

    points are the vertices in Polytope order: a point, a segment's two ends
    in lexicographic order, a polygon's cycle (counterclockwise from its
    lexicographic minimum in the plane, without collinear middle vertices),
    or a solid's sorted vertices.  A solid also takes its facets as (row,
    cycle) pairs: the row n.X <= c of a primitive outward normal n, and the
    facet's vertex indices counterclockwise seen from outside.  The scale is
    cut to the least den, each cycle rotated to start at its smallest index
    and the facets sorted by row.
    """
    g = math.gcd(den, *chain.from_iterable(points))
    if g > 1:
        points = [tuple(c // g for c in x) for x in points]
        den //= g
    poly = object.__new__(Polytope)
    vars(poly).update(
        ambient_dim=len(points[0]), affine_dim=min(len(points) - 1, 2), lattice=(points, den)
    )
    if facets is not None:
        facets = sorted(((normal, offset // g), _from_min(cycle)) for (normal, offset), cycle in facets)
        rows, cycles = zip(*facets)
        vars(poly).update(affine_dim=3, rows=rows, cycles=cycles)
    return poly


def _fan(cycles):
    """The sorted triangles that fan each cycle from its first vertex."""
    return tuple(sorted((c[0], c[i], c[i + 1]) for c in cycles for i in range(1, len(c) - 1)))


def _from_min(cycle):
    """The cycle rotated to start at its smallest entry, as a tuple."""
    s = cycle.index(min(cycle))
    return tuple(cycle[s:] + cycle[:s])


# The largest float coordinate per dimension: float predicates square differences of
# coordinates, up to twice the scale, and the 3D cross-check squares cross products of
# iterated facet normals, degree 8 in the coordinates (2**100 lets the iterates grow 2**100).
FLOAT_SCALE_MAX = (None, 2.0**510, 2.0**510, 2.0**100)


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


def _plane_normal(pts):
    """(b - a) x (c - a) for the first three points a, b, c: right-handed in their order."""
    (ax, ay, az), b, c = pts[0], pts[1], pts[2]
    ux, uy, uz = b[0] - ax, b[1] - ay, b[2] - az
    vx, vy, vz = c[0] - ax, c[1] - ay, c[2] - az
    return (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)


def _height(plane, p):
    """n . (p - a) for a face plane n + a (normal, anchor): positive on the side n points to."""
    nx, ny, nz, ax, ay, az = plane
    return sum((nx * (p[0] - ax), ny * (p[1] - ay), nz * (p[2] - az)))


def _affine_basis(pts, eps, scale):
    """Base point plus independent difference vectors spanning the point set.

    Returns (base, dirs) where dirs holds original difference vectors; their
    count is the affine dimension.  Only float points reach it (convex_hull
    sends rational ones to lattice_hull, whose _lattice_basis is exact): a
    reduced difference is independent when an entry exceeds eps * scale, or
    when any entry is nonzero if eps is 0.
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
            independent = dot(cross(dirs[0], dirs[1]), d) != 0
        else:
            independent = any(cross(dirs[0], d))
        if independent:
            dirs.append(d)
            if len(dirs) == n:
                break
    return base, dirs


def _chain2d(pts, eps_area):
    """Monotone chain on 2-tuples; CCW cycle from the lexicographic minimum.

    With eps_area 0 collinear points give their two ends and one point itself.
    """
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
    """Outward edge normals n with offsets n.a for a CCW 2D vertex cycle.

    n.a is summed as linalg.dot sums it, one rounding for two float terms.
    """
    return tuple(
        ((by - ay, ax - bx), (by - ay) * ax + (ax - bx) * ay)
        for (ax, ay), (bx, by) in zip(cycle, cycle[1:] + cycle[:1])
    )


def _direction_key(d):
    """Canonical signed direction key of a float vector, for collinearity grouping."""
    n = norm2(d)
    if n == 0.0:
        return None
    return tuple(round(float(c) / n, 9) for c in d)


def _remove_collinear_middles(pts):
    """Drop float 3D points lying strictly between two others along a line.

    Such points are never hull vertices and, once gone, no three remaining
    points are collinear, which keeps the float incremental 3D hull, whose
    visibility test has a tolerance, free of degenerate (zero-area) cone
    faces.  Seen from each point, the others are grouped by rounded direction
    and all but the farthest of each group are dropped.  Exact points need no
    such pass: see _hull_3d.
    """
    m = len(pts)
    if m <= 4:
        return pts
    removed = [False] * m
    for xi, yi, zi in pts:
        groups = {}
        for j, (xj, yj, zj) in enumerate(pts):
            dx, dy, dz = xj - xi, yj - yi, zj - zi
            key = _direction_key((dx, dy, dz))
            if key is None:
                continue
            size = sum((dx * dx, dy * dy, dz * dz))
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


def _primitive(normal):
    """The integer normal divided by the gcd of its entries."""
    g = math.gcd(*normal)
    return tuple(c // g for c in normal)


def _plane_key(normal, anchor, exact, scale):
    if exact:
        prim = _primitive(normal)
        return (prim, dot(prim, anchor))
    n = norm2(normal)
    unit = tuple(round(float(c) / n, 7) for c in normal)
    off = round(sum(u * float(a) for u, a in zip(unit, anchor)) / max(1.0, scale), 7)
    return (unit, off)


def _hull_3d(pts, den=None, eps=0.0, scale=1.0):
    """Incremental triangulated hull with strict-visibility predicates.

    With den set, pts are integer vectors standing for pts/den and every
    predicate is exact; otherwise pts are floats and the predicates use eps
    at the coordinate magnitude scale.  Each face caches its plane when it
    is made, normal n = (b - a) x (c - a) and anchor a, so a point p sees a
    face when the three-term dot product n . (p - a) exceeds the tolerance;
    the coplanar merge reads the same normals.  Float three-term sums go
    through sum(), as in linalg.dot, because from Python 3.12 on sum() adds
    floats with compensation and a + b + c would round differently.

    Exact input starts from a wide seed tetrahedron (_exact_seed) and keeps
    conflict lists: each point not yet inserted waits on one face it sees,
    an insertion finds the faces it sees by walking the edges from that
    face, and only the points waiting on the faces it deletes are tested
    again, against the new cone faces alone.  A point that sees none of
    them lies in the new hull and is dropped: it sees a deleted face, and
    were it outside, its visible faces would cross the horizon and it would
    see a cone face there.  Float input, whose tolerance makes the result
    depend on the insertion order, keeps its first-found seed and scans
    every face for each point in input order.

    Coplanar input points are legal: faces sharing a supporting plane are
    merged afterwards, each facet of two or more triangles is re-hulled in
    2D (a lone exact triangle is its own facet cycle), which removes
    facet-interior points and collinear middles from the vertex set, and
    each facet is fanned from its smallest vertex index.  Exact input needs
    no collinear prefilter: a point on the line of an edge lies on the
    planes of both faces at it, sees neither, and so makes no zero-area cone
    face.  Float input goes through _remove_collinear_middles first.  It
    raises DegeneratePolytope where the tolerances leave no seed
    tetrahedron, faces that no longer pair up along their edges, or a facet
    of fewer than three vertices.
    """
    exact = den is not None
    if not exact:
        pts = _remove_collinear_middles(pts)
    tol2, tol3 = (0, 0) if exact else (eps * scale**2, eps * scale**3)

    tet = _exact_seed(pts) if exact else _float_seed(pts, tol2, tol3)
    if tet is None:
        raise DegeneratePolytope(
            f"no seed tetrahedron clears the float tolerances eps*scale**2 = {tol2:g}"
            f" (triangle) and eps*scale**3 = {tol3:g} (volume)"
        )

    faces = {}  # triangle -> its plane, normal + anchor
    edge_map = {}

    def add_face(tri):
        abc = pts[tri[0]], pts[tri[1]], pts[tri[2]]
        faces[tri] = _plane_normal(abc) + abc[0]
        for e in _tri_edges(tri):
            edge_map[e] = tri

    def insert(idx, visible, horizon):
        """Replace the faces idx sees by its cone over their horizon; returns the cone."""
        for tri in visible:
            del faces[tri]
            for e in _tri_edges(tri):
                del edge_map[e]
        cone = [(u, v, idx) for u, v in horizon]
        for tri in cone:
            add_face(tri)
        return cone

    for excl in range(4):
        a, b, c = (tet[j] for j in range(4) if j != excl)
        if _height(_plane_normal((pts[a], pts[b], pts[c])) + pts[a], pts[tet[excl]]) > 0:
            b, c = c, b
        add_face((a, b, c))

    if exact:
        _insert_exact(pts, tet, faces, edge_map, insert)
    else:
        _insert_float(pts, tet, faces, edge_map, insert, tol3)

    # merge coplanar triangles into facets and purify the vertex set
    groups = {}
    for tri, plane in faces.items():
        groups.setdefault(_plane_key(plane[:3], plane[3:], exact, scale), []).append(tri)

    facet_polys = []
    for key in groups if exact else sorted(groups, key=repr):
        tris = groups[key]
        if exact and len(tris) == 1:
            facet_polys.append((key, tris[0]))
            continue
        ids = sorted({t for tri in tris for t in tri})
        ax, ay, az = a = pts[tris[0][0]]
        ux, uy, uz = u = vec_sub(pts[tris[0][1]], a)
        wx, wy, wz = cross(faces[tris[0]][:3], u)
        coord_of = {}
        for t in ids:
            x, y, z = pts[t]
            x, y, z = x - ax, y - ay, z - az
            coord_of[(sum((x * ux, y * uy, z * uz)), sum((x * wx, y * wy, z * wz)))] = t
        # (u, w) coordinates scale lengths by |u| and |w|, as in _plane_cycle
        tol = 0 if exact else eps * _coord_scale([pts[t] for t in ids]) ** 2
        cycle = _chain2d(list(coord_of), tol and tol * norm2(u) * norm2((wx, wy, wz)))
        if len(cycle) < 3:  # only a float tolerance drops a facet's vertices
            raise DegeneratePolytope(
                f"a facet re-hulled at eps*scale**2 = {tol:g} keeps under three vertices"
            )
        poly = [coord_of[c] for c in cycle]
        facet_polys.append((key, poly))

    vertex_ids = sorted({t for _, poly in facet_polys for t in poly})
    index_of = {t: i for i, t in enumerate(vertex_ids)}
    vertices = [pts[t] for t in vertex_ids]
    cycles = [[index_of[t] for t in poly] for _, poly in facet_polys]
    if exact:
        # a plane key is the facet row: primitive normal n and n.X on the plane
        return lattice_polytope(vertices, den, [(key, c) for (key, _), c in zip(facet_polys, cycles)])
    triangles = _fan(list(map(_from_min, cycles)))
    facets = []
    for _, poly in facet_polys:
        normal = _plane_normal([pts[t] for t in poly])
        facets.append((normal, dot(normal, pts[poly[0]])))
    facets.sort(key=lambda f: (tuple(map(float, f[0])), float(f[1])))
    return Polytope(3, 3, tuple(vertices), triangles, tuple(facets))


def _exact_seed(pts):
    """A wide seed tetrahedron of sorted integer points, or None if they span no solid.

    Its corners are the lexicographic extremes a and b, the first point p
    farthest from their line and the first point farthest from their plane,
    so few points start outside it and wait on its faces.  The plane's
    normal is (b - a) x (p - a), the cross product whose size picked p.
    """
    (ax, ay, az), (bx, by, bz) = pts[0], pts[-1]
    ux, uy, uz = bx - ax, by - ay, bz - az
    inner = range(1, len(pts) - 1)
    best, i2 = 0, None
    for i in inner:
        x, y, z = pts[i]
        x, y, z = x - ax, y - ay, z - az
        cx, cy, cz = uy * z - uz * y, uz * x - ux * z, ux * y - uy * x
        size = cx * cx + cy * cy + cz * cz
        if size > best:
            best, i2, (nx, ny, nz) = size, i, (cx, cy, cz)
    if i2 is None:
        return None
    best, i3 = 0, None
    for i in inner:
        x, y, z = pts[i]
        height = abs(nx * (x - ax) + ny * (y - ay) + nz * (z - az))
        if height > best:
            best, i3 = height, i
    return None if i3 is None else (0, len(pts) - 1, i2, i3)


def _float_seed(pts, tol2, tol3):
    """The first two float points and the first points off their line and plane, or None.

    Float results depend on the insertion order, so the seed follows it.
    """
    m = len(pts)
    for i2 in range(2, m):
        normal = _plane_normal((pts[0], pts[1], pts[i2]))
        if norm2(normal) > tol2:
            seed = normal + pts[0]
            i3 = next((i for i in range(2, m) if i != i2 and abs(_height(seed, pts[i])) > tol3), None)
            return None if i3 is None else (0, 1, i2, i3)
    return None


def _insert_exact(pts, tet, faces, edge_map, insert):
    """Insert the integer points around the seed tetrahedron tet, with conflict lists.

    waiting maps a face to the (height, point) pairs of the points waiting
    on it; a point waits on the first face it sees in the order tried.  Each
    insertion takes the point highest above the oldest face that has any
    waiting, as quickhull does, so that interior points drop out early.
    """
    waiting = {}

    def wait(qs, tris):
        planes = [(tri, faces[tri]) for tri in tris]
        for q in qs:
            qx, qy, qz = pts[q]
            for tri, (nx, ny, nz, ax, ay, az) in planes:
                height = nx * (qx - ax) + ny * (qy - ay) + nz * (qz - az)
                if height > 0:
                    waiting.setdefault(tri, []).append((height, q))
                    break

    wait([q for q in range(len(pts)) if q not in tet], list(faces))
    while waiting:
        start = next(iter(waiting))
        idx = max(waiting[start])[1]
        px, py, pz = pts[idx]
        visible, hidden, horizon, stack = {start}, set(), [], [start]
        while stack:
            for u, v in _tri_edges(stack.pop()):
                tri = edge_map[(v, u)]
                if tri in visible:
                    continue
                if tri not in hidden:
                    nx, ny, nz, ax, ay, az = faces[tri]
                    if nx * (px - ax) + ny * (py - ay) + nz * (pz - az) > 0:
                        visible.add(tri)
                        stack.append(tri)
                        continue
                    hidden.add(tri)
                horizon.append((u, v))
        cone = insert(idx, visible, horizon)
        wait([q for tri in visible for _, q in waiting.pop(tri, ()) if q != idx], cone)


def _insert_float(pts, tet, faces, edge_map, insert, tol3):
    """Insert the float points in input order, each tested against every face."""
    for idx in range(len(pts)):
        if idx in tet:
            continue
        px, py, pz = pts[idx]
        visible = [
            tri for tri, (nx, ny, nz, ax, ay, az) in faces.items()
            if sum((nx * (px - ax), ny * (py - ay), nz * (pz - az))) > tol3
        ]
        if not visible:
            continue
        # tolerant visibility can leave an edge in two faces or in none;
        # the steps below need each edge of a visible face once, its twin too
        edges = [e for tri in visible for e in _tri_edges(tri)]
        if len(set(edges)) < len(edges) or any(
            e not in edge_map or e[::-1] not in edge_map for e in edges
        ):
            raise DegeneratePolytope(
                f"the faces seen beyond eps*scale**3 = {tol3:g} no longer close up"
            )
        visible_set = set(visible)
        horizon = [
            (u, v) for tri in visible for u, v in _tri_edges(tri)
            if edge_map[(v, u)] not in visible_set
        ]
        insert(idx, visible, horizon)


def _plane_cycle(pts, base, u, v, eps):
    """Vertex cycle of 3D points spanning the plane base + span(u, v).

    The points are hulled in the coordinates (u, w) with w the part of v
    orthogonal to u.  Those scale lengths by |u| and |w|, so a float turn is
    held to eps * scale**2 * |u| * |w|, the planar eps * scale**2 in length
    units.  The cycle starts at the smallest point and runs toward the
    smaller of its two neighbours, so that it depends on the hull alone, not
    on the basis u, v that the input's first points gave.
    """
    w = vec_sub(vec_scale(dot(u, u), v), vec_scale(dot(v, u), u))
    coord_of = {}
    for p in pts:
        dp = vec_sub(p, base)
        coord_of[(dot(dp, u), dot(dp, w))] = p
    eps_area = eps * _coord_scale(pts) ** 2 * norm2(u) * norm2(w) if eps else 0
    cycle = [coord_of[c] for c in _chain2d(list(coord_of), eps_area)]
    start = cycle.index(min(cycle))
    cycle = cycle[start:] + cycle[:start]
    return cycle[:1] + cycle[:0:-1] if cycle[-1] < cycle[1] else cycle


def lattice_cycle(points):
    """Counterclockwise vertex cycle of distinct integer points in the plane.

    It starts at the lexicographic minimum; collinear points give their two
    ends and a single point gives itself, as lattice_polytope takes them.
    """
    return _chain2d(points, 0)


def minkowski_cycle(p, q):
    """Vertex cycle of conv(p) + conv(q) for two integer cycles of lattice_cycle's form.

    The edges of both cycles are merged by direction in O(|p| + |q|) steps,
    with no hull predicate: from the two lexicographic minima on, each step
    takes the edge that turns less, or both when they are parallel.  Each
    vertex comes as (p[i] + q[j], i, j); a vertex of a Minkowski sum splits
    into its summands in only this one way.
    """
    n, m = len(p), len(q)
    if n == 1 or m == 1:
        return [((a[0] + b[0], a[1] + b[1]), i, j) for i, a in enumerate(p) for j, b in enumerate(q)]
    out = []
    i = j = 0
    while i < n or j < m:
        (ax, ay), (bx, by) = p[i % n], q[j % m]
        out.append(((ax + bx, ay + by), i % n, j % m))
        if i == n or j == m:
            turn = -1 if i == n else 1
        else:
            (cx, cy), (dx, dy) = p[(i + 1) % n], q[(j + 1) % m]
            turn = (cx - ax) * (dy - by) - (cy - ay) * (dx - bx)
        if turn >= 0:
            i += 1
        if turn <= 0:
            j += 1
    return out


def _support(n, pts):
    """The values n.x over the points x in pts, and the indices where they peak."""
    nx, ny, nz = n
    values = [nx * x + ny * y + nz * z for x, y, z in pts]
    top = max(values)
    return values, [i for i, w in enumerate(values) if w == top]


def _face_sum(u, p, i_face, q, j_face):
    """The pairs (i, j) of the vertices p[i] + q[j] of the sum of two faces with outward normal u.

    Each face is a vertex cycle counterclockwise seen from outside, an edge
    or a vertex.  Unless one is a vertex, both are projected along an axis k
    with u_k != 0, which keeps their orientation when u_k > 0 and reverses
    it otherwise, and merged by minkowski_cycle; the pairs come
    counterclockwise seen from outside.
    """
    if len(i_face) == 1 or len(j_face) == 1:
        return [(i, j) for i in i_face for j in j_face]
    k = next(k for k in range(3) if u[k])
    a, b, turn = (k + 1) % 3, (k + 2) % 3, 1 if u[k] > 0 else -1

    def flat(pts, ids):  # lattice_cycle's form: from the lexicographic minimum
        ids = ids[::turn]
        xy = [(pts[i][a], pts[i][b]) for i in ids]
        s = xy.index(min(xy))
        return xy[s:] + xy[:s], ids[s:] + ids[:s]

    (p_xy, p_ids), (q_xy, q_ids) = flat(p, i_face), flat(q, j_face)
    return [(p_ids[i], q_ids[j]) for _, i, j in minkowski_cycle(p_xy, q_xy)][::turn]


def minkowski_polytope(p, q, den):
    """The exact solid conv(p) + conv(q) over den and the pair (i, j) of each vertex p[i] + q[j].

    p and q are (points, facets): integer points in space and each facet as
    (outward normal, cycle), its vertex indices counterclockwise seen from
    outside.  q is a solid, or a polygon given as two opposite facets; p is
    a solid, or a point with no facets when q is a solid.  The facets of the
    sum are read off the overlay of the two normal fans, with no hull
    predicate:
    (a) each facet of p plus the face of q that its normal n selects, from
        the values n.q_j;
    (b) each facet of q whose normal is no facet normal of p, plus the face
        of p that it selects;
    (c) the parallelogram e + f of each edge e of p and edge f = q_c q_d of
        q whose arcs of normals cross inside both.  With n_1, n_2 the facet
        normals at e, n_1 the one whose cycle runs along e from its smaller
        end, and s_i = n_i.q_d - n_i.q_c from the values of (a), the arcs
        cross when s_1 and s_2 have opposite signs and the normal
        u = |s_2| n_1 + |s_1| n_2, which is orthogonal to f, selects f
        alone.  Only an edge whose two facets select different faces of q
        can cross an arc of q.
    A vertex of a Minkowski sum splits into its summands in one way only,
    so each comes with one pair.  The result is lattice_hull's canonical
    form (lattice_polytope): sorted vertices, the rows of primitive normals
    in increasing order with their cycles; the pairs come in its vertex
    order.
    """
    (ps, p_facets), (qs, q_facets) = p, q
    q_cycles = {_primitive(normal): cycle for normal, cycle in q_facets}
    out = {}  # primitive outward normal -> the facet's cycle of pairs (i, j)
    normals, values, selected = [], [], []
    for normal, cycle in p_facets:  # (a)
        n = _primitive(normal)
        v, face = _support(n, qs)
        out[n] = _face_sum(n, ps, cycle, qs, q_cycles.get(n, face))
        normals.append(n)
        values.append(v)
        selected.append(face)
    for m, cycle in q_cycles.items():  # (b)
        if m not in out:
            out[m] = _face_sum(m, ps, _support(m, ps)[1], qs, cycle)
    owner = {}  # (i, i') -> the facet of p whose cycle runs from i to i'
    for f, (_, cycle) in enumerate(p_facets):
        owner.update(zip(zip(cycle, cycle[1:] + cycle[:1]), repeat(f)))
    q_edges = [
        (c, d) for cycle in q_cycles.values() for c, d in zip(cycle, cycle[1:] + cycle[:1]) if c < d
    ]
    for (a, b), f in owner.items():  # (c)
        g = owner[b, a]
        if a > b or selected[f] == selected[g]:
            continue
        v1, v2 = values[f], values[g]
        for c, d in q_edges:
            s1, s2 = v1[d] - v1[c], v2[d] - v2[c]
            if not (s1 < 0 < s2 or s2 < 0 < s1):
                continue
            w1, w2 = abs(s2), abs(s1)
            top = w1 * v1[c] + w2 * v2[c]
            if any(w1 * x + w2 * y >= top for k, (x, y) in enumerate(zip(v1, v2)) if k != c and k != d):
                continue
            u = _primitive([w1 * x + w2 * y for x, y in zip(normals[f], normals[g])])
            out[u] = [(a, c), (b, c), (b, d), (a, d)] if s1 > 0 else [(a, c), (a, d), (b, d), (b, c)]
    points = {pair: None for cycle in out.values() for pair in cycle}
    for i, j in points:
        (x, y, z), (u, v, w) = ps[i], qs[j]
        points[i, j] = x + u, y + v, z + w
    pairs = sorted(points, key=points.__getitem__)
    index_of = {pair: k for k, pair in enumerate(pairs)}
    facets = [
        ((n, sum(map(mul, n, points[cycle[0]]))), [index_of[pair] for pair in cycle])
        for n, cycle in out.items()
    ]
    return lattice_polytope([points[pair] for pair in pairs], den, facets), pairs


def minkowski_sum(p, w):
    """conv(p) + conv(w) for two exact Polytopes, and the pair (i, j) of each vertex p_i + w_j.

    Both summands are brought over the lcm of their scales.  A vertex of a
    Minkowski sum splits into its summands in one way only, so each pair is
    unique.  In the plane minkowski_cycle merges the two cycles.  In space
    minkowski_polytope overlays the normal fans, read off the summands' own
    facet rows and cycles, of a point or solid p and a solid w, or of a solid
    p and a polygon w passed as two opposite facets: its cycle with the
    normal n of its plane and the reversed cycle with -n.  Every other sum
    (on a line, or in space with a segment or polygon p, a point p and a
    polygon w, or a point or segment w) is lattice_hull of the vertex sums,
    which the canonical forms make equal to the hull of every pairwise sum.
    """
    (xs, s), (zs, t) = p.lattice, w.lattice
    den = math.lcm(s, t)
    f, g = den // s, den // t
    if p.ambient_dim == 2:
        merged = minkowski_cycle([(f * x, f * y) for x, y in xs], [(g * x, g * y) for x, y in zs])
        return lattice_polytope([pt for pt, _, _ in merged], den), [(i, j) for _, i, j in merged]
    xs, zs = [vec_scale(f, x) for x in xs], [vec_scale(g, z) for z in zs]
    if w.affine_dim == 3 and p.affine_dim in (0, 3):
        w_facets = [(normal, cycle) for (normal, _), cycle in zip(w.rows, w.cycles)]
    elif w.affine_dim == 2 and p.affine_dim == 3:
        normal, cycle = _plane_normal(zs), tuple(range(len(zs)))
        w_facets = [(normal, cycle), (vec_scale(-1, normal), cycle[:1] + cycle[:0:-1])]
    else:
        pair_of = {vec_add(x, z): (i, j) for i, x in enumerate(xs) for j, z in enumerate(zs)}
        poly = lattice_hull(sorted(pair_of), den)
        ys, r = poly.lattice
        return poly, [pair_of[vec_scale(den // r, y)] for y in ys]
    p_facets = [(normal, cycle) for (normal, _), cycle in zip(p.rows or (), p.cycles or ())]
    return minkowski_polytope((xs, p_facets), (zs, w_facets), den)


def lattice_hull(points, den):
    """Exact convex hull of the rational points X/den for the X in points.

    points are distinct integer vectors of one dimension (1 to 3) in
    lexicographic order, and den is a positive integer.  Every predicate runs
    on the integers; the result is a lattice_polytope and equals convex_hull
    of the rational points.
    """
    n = len(points[0])
    if n == 2:
        return lattice_polytope(_chain2d(points, 0), den)
    base, dirs = _lattice_basis(points)
    adim = len(dirs)

    if adim == 0:
        return lattice_polytope([base], den)

    if adim == 1:  # sorted collinear points: lexicographic order follows the line
        return lattice_polytope([points[0], points[-1]], den)

    if adim == 2:
        return lattice_polytope(_plane_cycle(points, base, dirs[0], dirs[1], 0), den)

    return _hull_3d(points, den)


def convex_hull(points, eps=0.0):
    """Convex hull of a nonempty point set in ambient dimension 1 to 3.

    Detects the affine dimension first and dispatches to the matching
    algorithm, so degenerate inputs (a single point, collinear or coplanar
    sets) produce lower-dimensional polytopes instead of failing.  Input
    with a Fraction coordinate is rational: it is written over the lcm of
    its denominators (to_lattice) first, and its integer vectors are
    deduplicated and sorted, which orders them as the rational points, for
    lattice_hull; no Fraction is compared or hashed.  Input that mixes float
    and Fraction coordinates raises ModeMismatch, float input with a
    coordinate past FLOAT_SCALE_MAX raises FractalHullError, and flat float
    input in 3D whose cycle keeps under three vertices at the turn tolerance
    raises DegeneratePolytope.
    """
    pts = list(map(tuple, points))
    if not pts:
        raise ValueError("empty point set")
    dims = set(map(len, pts))
    n = len(min(pts)) if len(dims) > 1 else len(pts[0])  # mixed: the smallest point's
    if n < 1 or n > 3:
        raise UnsupportedDimension(f"ambient dimension {n} outside 1..3")
    if len(dims) > 1:
        raise DimensionMismatch("points have inconsistent dimensions")
    kinds = set(map(type, chain.from_iterable(pts)))
    if any(issubclass(kind, Fraction) for kind in kinds):
        if any(issubclass(kind, float) for kind in kinds):
            raise ModeMismatch("points mix float and Fraction coordinates")
        lattice, den = to_lattice(pts)
        return lattice_hull(sorted(set(lattice)), den)
    pts = sorted(set(pts))
    scale = _coord_scale(pts)
    if scale > FLOAT_SCALE_MAX[n]:
        raise FractalHullError(
            f"float coordinates reach {scale:g}; in dimension {n} float predicates"
            f" overflow past {FLOAT_SCALE_MAX[n]:g}"
        )
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
        cycle = _plane_cycle(pts, base, dirs[0], dirs[1], eps)
        if len(cycle) < 3:  # the basis holds heights to eps*scale, the turn test areas to eps*scale**2
            raise DegeneratePolytope(
                f"a flat point set re-hulled at eps*scale**2 = {eps * scale**2:g} keeps under three vertices"
            )
        return Polytope(3, 2, tuple(cycle))

    return _hull_3d(pts, eps=eps, scale=scale)


def facet_normals(poly: Polytope):
    """Outward unnormalized (normal, offset) pairs of a full-dimensional hull."""
    if poly.facets is None:
        raise DegeneratePolytope(
            f"polytope has affine dimension {poly.affine_dim} < ambient {poly.ambient_dim}"
        )
    return list(poly.facets)


def contains(poly: Polytope, x, eps=0.0):
    """Closed containment test; exact for rational data when eps is 0.

    With eps > 0 the tolerances grow with scale = max(1, the largest
    |coordinate| of x and of poly's vertices): x passes the facet n.y <= c
    when float(n.x) <= float(c) + eps * scale * |n|.  The vertex scale and
    each facet's float offset and |n| are computed once per polytope.
    """
    if len(x) != poly.ambient_dim:
        raise DimensionMismatch("point dimension differs from polytope ambient dimension")
    exact = eps == 0
    if not exact:
        scale = max(_coord_scale([x]), poly._vertex_scale, 1.0)

    if poly.facets is not None:
        if exact:  # exact comparison, no float mixing
            return not any(sum(map(mul, normal, x)) > offset for normal, offset in poly.facets)
        for normal, offset, length in poly._slack_rows:
            if float(sum(map(mul, normal, x))) > offset + eps * scale * length:
                return False
        return True

    if poly.affine_dim == 0:
        v = poly.vertices[0]
        if exact:
            return tuple(x) == v
        return norm2(vec_sub(_fvec(x), _fvec(v))) <= eps * scale

    if poly.affine_dim == 1:
        a, b = poly.vertices
        d = vec_sub(b, a)
        r = vec_sub(x, a)
        if poly.ambient_dim == 2:
            off_line = (_cross2((0,) * 2, d, r),)
        else:
            off_line = cross(d, r)
        if exact:
            if any(c != 0 for c in off_line):
                return False
        elif norm2(off_line) > eps * scale * scale:
            return False
        t = dot(r, d) / dot(d, d)
        if exact:
            return 0 <= t <= 1
        return -eps <= t <= 1 + eps

    # planar polygon embedded in ambient dimension 3
    a = poly.vertices[0]
    normal = _plane_normal(poly.vertices)
    off_plane = dot(normal, vec_sub(x, a))
    if exact:
        if off_plane != 0:
            return False
    elif abs(float(off_plane)) > eps * scale * scale * scale:
        return False
    u = vec_sub(poly.vertices[1], a)
    w = cross(normal, u)
    coords = []
    for p in poly.vertices:
        dp = vec_sub(p, a)
        coords.append((dot(dp, u), dot(dp, w)))
    dx = vec_sub(x, a)
    cx = (dot(dx, u), dot(dx, w))
    # the coordinates scale lengths by |u| and |w|: the turn test in length units
    eps_area = 0 if exact else eps * scale * scale * norm2(u) * norm2(w)
    r = len(coords)
    for i in range(r):
        if _cross2(coords[i], coords[(i + 1) % r], cx) < -eps_area:
            return False
    return True


def _fvec(v):
    return tuple(float(c) for c in v)


def _edge(a, b):
    """Float segment data (a, b - a, |b - a|^2) for _dist_point_segment."""
    d = tuple(bb - aa for aa, bb in zip(a, b))
    return a, d, sum(c * c for c in d)


def _dist_point_segment(x, a, d, dd):
    if dd == 0.0:
        return math.dist(x, a)
    t = sum((xx - aa) * c for xx, aa, c in zip(x, a, d)) / dd
    t = min(1.0, max(0.0, t))
    closest = tuple(aa + t * c for aa, c in zip(a, d))
    return math.dist(x, closest)


def _edge2(a, b):
    """Scalar edge data (ax, ay, dx, dy, |d|^2), d = b - a, for _dist_point_edge2."""
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    return ax, ay, dx, dy, dx * dx + dy * dy


def _dist_point_edge2(x, ax, ay, dx, dy, dd):
    """_dist_point_segment in the plane on scalars, bit for bit.

    A two-term sum() rounds once, as a + b does, max(0.0, t) absorbs the
    -0.0 that sum() would not give, and math.hypot of the differences is
    math.dist.
    """
    px, py = x
    if dd == 0.0:
        return math.hypot(px - ax, py - ay)
    t = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / dd))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _triangle3(a, b, c):
    """Scalar triangle data (a, b, c, b - a, c - a), 15 floats, for _dist_point_triangle."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = a, b, c
    return (
        ax, ay, az, bx, by, bz, cx, cy, cz,
        bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az,
    )


def _dist_point_triangle(p, ax, ay, az, bx, by, bz, cx, cy, cz, ux, uy, uz, vx, vy, vz):
    """Distance from a float point to a triangle in R^3, on _triangle3 data.

    The closest-point walk through the vertex, edge and face regions, with
    u = b - a and v = c - a; every three-term dot product is one sum() of a
    tuple and every distance math.hypot of the differences (math.dist).  The
    walk divides by zero only on a triangle that is flat in floats: an edge
    or the area rounds to zero, as when distinct exact vertices round to one
    float.  Such a triangle is measured as the union of its three edges.
    """
    px, py, pz = p
    try:
        qx, qy, qz = px - ax, py - ay, pz - az
        d1 = sum((ux * qx, uy * qy, uz * qz))
        d2 = sum((vx * qx, vy * qy, vz * qz))
        if d1 <= 0.0 and d2 <= 0.0:
            return math.hypot(qx, qy, qz)
        qx, qy, qz = px - bx, py - by, pz - bz
        d3 = sum((ux * qx, uy * qy, uz * qz))
        d4 = sum((vx * qx, vy * qy, vz * qz))
        if d3 >= 0.0 and d4 <= d3:
            return math.hypot(qx, qy, qz)
        vc = d1 * d4 - d3 * d2
        if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
            t = d1 / (d1 - d3)
            return math.hypot(px - (ax + t * ux), py - (ay + t * uy), pz - (az + t * uz))
        qx, qy, qz = px - cx, py - cy, pz - cz
        d5 = sum((ux * qx, uy * qy, uz * qz))
        d6 = sum((vx * qx, vy * qy, vz * qz))
        if d6 >= 0.0 and d5 <= d6:
            return math.hypot(qx, qy, qz)
        vb = d5 * d2 - d1 * d6
        if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
            t = d2 / (d2 - d6)
            return math.hypot(px - (ax + t * vx), py - (ay + t * vy), pz - (az + t * vz))
        va = d3 * d6 - d5 * d4
        if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
            t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
            return math.hypot(
                px - (bx + t * (cx - bx)), py - (by + t * (cy - by)), pz - (bz + t * (cz - bz))
            )
        denom = 1.0 / (va + vb + vc)
        s, t = vb * denom, vc * denom
        return math.hypot(
            px - (ax + ux * s + vx * t), py - (ay + uy * s + vy * t), pz - (az + uz * s + vz * t)
        )
    except ZeroDivisionError:
        a, b, c = (ax, ay, az), (bx, by, bz), (cx, cy, cz)
        return min(_dist_point_segment(p, *_edge(e, f)) for e, f in ((a, b), (b, c), (c, a)))


def _pieces(poly: Polytope, verts):
    """(dist, args): the distance from a float point xf outside poly is the least
    dist(xf, *a) over args.  verts are poly's vertices as floats; the pieces are
    a point, a segment, the edges of a polygon in the plane (scalar _edge2
    data), or the fan triangles of a polygon inside 3D or the faces of a solid
    (scalar _triangle3 data).
    """
    if poly.affine_dim == 0:
        return math.dist, [verts[:1]]
    if poly.affine_dim == 1:
        return _dist_point_segment, [_edge(*verts)]
    if poly.ambient_dim == 2:
        return _dist_point_edge2, list(map(_edge2, verts, verts[1:] + verts[:1]))
    if poly.affine_dim == 2:
        return _dist_point_triangle, [
            _triangle3(verts[0], verts[i], verts[i + 1]) for i in range(1, len(verts) - 1)
        ]
    return _dist_point_triangle, [_triangle3(verts[a], verts[b], verts[c]) for a, b, c in poly.faces]


def _dist_point_polytope(xf, pieces, inside):
    """Distance from the float point xf to a polytope given by its _pieces."""
    if inside:
        return 0.0
    dist, args = pieces
    return min(dist(xf, *a) for a in args)


def _containment(p, q):
    """inside(i): whether vertex i of p lies in q; None unless q has facets.

    Exact data runs on integers: X/den lies in q, whose rows n.Y <= c hold
    over e, iff e (n.X) <= c den.
    """
    if q.affine_dim < q.ambient_dim:
        return None
    if p.lattice is None or q.lattice is None:
        return lambda i: contains(q, p.vertices[i])
    xs, den = p.lattice
    e = q.lattice[1]
    rows = [(normal, offset * den) for normal, offset in q.rows]
    return lambda i: all(e * sum(map(mul, normal, xs[i])) <= c for normal, c in rows)


def _directed(xf, inside, poly, verts, best):
    """max(best, the distance from each float point in xf to poly), verts its floats.

    inside(i) tells whether point i lies in poly; it is None unless poly has
    facets.  Each point's distance to one guessed piece bounds its distance
    from above, and the points run in decreasing order of that bound; once a
    bound is at most best, no point left can raise it.  The guess starts at
    the previous point's guess (for a solid: at a face through the vertex
    nearest to the point) and walks the pieces forward while the next one is
    strictly closer.
    """
    pieces = _pieces(poly, verts)
    dist, args = pieces
    r = len(args)
    face_at = {}
    for i, tri in enumerate(poly.faces or ()):
        for t in tri:
            face_at.setdefault(t, i)
    bounds = []
    j = 0
    for x in xf:
        if face_at:
            near = list(map(math.dist, repeat(x), verts))
            j = face_at[near.index(min(near))]
        d = dist(x, *args[j])
        for _ in range(r - 1):
            k = j + 1 if j + 1 < r else 0
            dk = dist(x, *args[k])
            if dk >= d:
                break
            j, d = k, dk
        bounds.append(d)
    for i in sorted(range(len(xf)), key=bounds.__getitem__, reverse=True):
        if bounds[i] <= best:
            break
        best = max(best, _dist_point_polytope(xf[i], pieces, inside is not None and inside(i)))
    return best


def hausdorff(p: Polytope, q: Polytope):
    """Hausdorff distance between two convex polytopes, as a float.

    Bit-identical to the max over the vertices x of either polytope of
    _dist_point_polytope(x, the other): every piece's float distance bounds
    that min from above, so a vertex whose bound is at most the best value
    so far is skipped without its containment test or its full min.  The
    pass over p's vertices starts from the result of the pass over q's,
    which for nested steps (p inside q) skips nearly all of them.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch("polytopes live in different ambient dimensions")
    pf, qf = p._floats, q._floats
    if p.ambient_dim == 1:
        return max(abs(pf[0][0] - qf[0][0]), abs(pf[-1][0] - qf[-1][0]))
    best = _directed(qf, _containment(q, p), p, pf, 0.0)
    return _directed(pf, _containment(p, q), q, qf, best)


def nested_hausdorff(p: Polytope, q: Polytope):
    """hausdorff(p, q) for consecutive hull steps p and q of one recursion.

    In exact arithmetic p lies inside q (A_k is inside A_{k+1} since d_1 = 0),
    so once q has facets every vertex of p is at distance 0.0 from q and only
    the pass over q's vertices runs.  Float steps, and a q without facets (a
    point, a segment, a polygon inside 3D), keep both passes: there a vertex
    of p on q can be an ulp away in floats.
    """
    if p.ambient_dim == 1 or q.affine_dim < q.ambient_dim or q.lattice is None:
        return hausdorff(p, q)
    return _directed(q._floats, _containment(q, p), p, p._floats, 0.0)
