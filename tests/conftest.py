"""Shared model builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import islice, pairwise

from hypothesis import assume
from hypothesis import strategies as st

from fractalhull import validate_model
from fractalhull.linalg import det, eigenvalues, solve

SUITE_SEED = 20250809


def inverse(matrix):
    """Inverse of a nonsingular rational matrix, one exact solve per column."""
    n = len(matrix)
    return tuple(zip(*(solve(matrix, tuple(F(int(i == j)) for i in range(n))) for j in range(n))))


def spectral_radius(matrix):
    return max(abs(z) for z in eigenvalues(matrix))


def sierpinski_model():
    return validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [1, 0], [0, 1]])


def diag_model():
    return validate_model([[F(1, 2), 0], [0, F(1, 3)]], [[0, 0], [1, 0], [0, 1]])


def twin_dragon_model():
    return validate_model(
        [[F(1, 2), F(-1, 2)], [F(1, 2), F(1, 2)]], [[0, 0], [1, 0]]
    )


def rot1_model():
    c, s = 0.5 * math.cos(1.0), 0.5 * math.sin(1.0)
    return validate_model([[c, -s], [s, c]], [[0, 0], [1, 0]], mode="float")


def float_mirror(model):
    """The model with every entry turned into a float, in float mode."""
    return validate_model(
        [[float(c) for c in row] for row in model.matrix],
        [[float(c) for c in d] for d in model.digits],
        mode="float",
    )


def random_fraction(rng, num_max=4, den_max=4):
    return F(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def random_matrix_entry(rng):
    den = rng.randint(1, 4)
    return F(rng.randint(-den, den), den)


def random_contracting_model(rng, q_choices=(2, 3)):
    """One random rational planar model with spectral radius below 1."""
    while True:
        matrix = tuple(
            tuple(random_matrix_entry(rng) for _ in range(2)) for _ in range(2)
        )
        if det(matrix) == 0 or spectral_radius(matrix) >= 1.0:
            continue
        q = rng.choice(q_choices)
        digits = [(F(0), F(0))]
        while len(digits) < q:
            d = (random_fraction(rng), random_fraction(rng))
            if d not in digits:
                digits.append(d)
        return validate_model(matrix, digits)


_SUITE5_CACHE = None


def suite5_models():
    """The 100 seeded random planar models used by several suites."""
    global _SUITE5_CACHE
    if _SUITE5_CACHE is None:
        rng = random.Random(SUITE_SEED)
        _SUITE5_CACHE = [random_contracting_model(rng) for _ in range(100)]
    return _SUITE5_CACHE


_entry = st.builds(F, st.integers(-3, 3), st.integers(1, 8))
_coord = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def rational_models(draw):
    """Contracting rational models in dimension 1 to 3 with degenerate digit sets.

    Digit layouts: generic, collinear, coplanar (in 3D), an evenly spaced grid
    (with a homothety T its images coincide, which exercises the address
    tie-break) and a single digit (every hull is one point).
    """
    dim = draw(st.sampled_from((1, 2, 3)))
    if draw(st.booleans()):
        c = draw(st.sampled_from((F(1, 2), F(-1, 3), F(2, 3), F(-3, 4))))
        matrix = [[c if i == j else F(0) for j in range(dim)] for i in range(dim)]
    else:
        matrix = [[draw(_entry) for _ in range(dim)] for _ in range(dim)]
        assume(det(matrix) != 0 and max(sum(abs(c) for c in row) for row in matrix) < 1)
    u, v = (tuple(draw(_coord) for _ in range(dim)) for _ in range(2))
    layout = draw(st.sampled_from(("generic", "collinear", "coplanar", "grid", "single")))
    if layout == "single":
        digits = [u]
    elif layout == "collinear":
        digits = [tuple(draw(_coord) * c for c in u) for _ in range(draw(st.integers(2, 4)))]
    elif layout == "coplanar":
        coeffs = draw(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=5))
        digits = [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in coeffs]
    elif layout == "grid":
        digits = [tuple(i * x + j * y for x, y in zip(u, v)) for i in range(3) for j in range(2)]
    else:
        digits = [tuple(draw(_coord) for _ in range(dim)) for _ in range(draw(st.integers(2, 4)))]
    return validate_model(matrix, digits)


def stable_candidates(model, k_max=16):
    """(EpAddress, value) of each vertex of the first stable pair of steps, uncertified.

    Empty when the bound k exceeds k_max, no pair is stable or extraction fails.
    """
    from fractalhull.decide import extract_ep_addresses, hull_steps, inverse_eigenvalue_classes
    from fractalhull.errors import ExtractionFailure
    from fractalhull.ifs import evaluate_ep_addresses
    from fractalhull.spectral import compute_step_bound

    bound = compute_step_bound(inverse_eigenvalue_classes(model))
    if bound is None or bound.k > k_max:
        return []
    for (prev, _), (ledger, _) in pairwise(islice(hull_steps(model), bound.k + 2)):
        if ledger.step >= 2 and prev.count == ledger.count:
            try:
                addresses = extract_ep_addresses(ledger)
            except ExtractionFailure:
                return []
            return list(zip(addresses, evaluate_ep_addresses(model, addresses)))
    return []


# --- exact membership oracles (independent of the hull implementation) ---


def _orient2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(x, a, b):
    if len(x) == 2:
        if _orient2(a, b, x) != 0:
            return False
    else:
        d = tuple(b[i] - a[i] for i in range(3))
        r = tuple(x[i] - a[i] for i in range(3))
        cross = (
            d[1] * r[2] - d[2] * r[1],
            d[2] * r[0] - d[0] * r[2],
            d[0] * r[1] - d[1] * r[0],
        )
        if any(c != 0 for c in cross):
            return False
    return all(min(a[i], b[i]) <= x[i] <= max(a[i], b[i]) for i in range(len(x)))


def point_in_hull_2d(x, pts):
    """Exact membership of x in conv(pts) by simplex enumeration."""
    x = tuple(x)
    pts = [tuple(p) for p in pts]
    if x in pts:
        return True
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if _on_segment(x, pts[i], pts[j]):
                return True
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = pts[i], pts[j], pts[k]
                d1 = _orient2(a, b, x)
                d2 = _orient2(b, c, x)
                d3 = _orient2(c, a, x)
                if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
                    if _orient2(a, b, c) != 0:
                        return True
    return False


def naive_vertices_2d(pts):
    """A point is a vertex iff it is not in the hull of the others."""
    pts = [tuple(p) for p in pts]
    out = set()
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not point_in_hull_2d(p, others):
            out.add(p)
    return out


def _orient3(a, b, c, d):
    ab = tuple(b[i] - a[i] for i in range(3))
    ac = tuple(c[i] - a[i] for i in range(3))
    ad = tuple(d[i] - a[i] for i in range(3))
    return (
        ab[0] * (ac[1] * ad[2] - ac[2] * ad[1])
        - ab[1] * (ac[0] * ad[2] - ac[2] * ad[0])
        + ab[2] * (ac[0] * ad[1] - ac[1] * ad[0])
    )


def _in_tetra(x, a, b, c, d):
    base = _orient3(a, b, c, d)
    if base == 0:
        return False
    signs = [
        _orient3(x, b, c, d),
        _orient3(a, x, c, d),
        _orient3(a, b, x, d),
        _orient3(a, b, c, x),
    ]
    if base > 0:
        return all(s >= 0 for s in signs)
    return all(s <= 0 for s in signs)


def _in_triangle_3d(x, a, b, c):
    if _orient3(a, b, c, x) != 0:
        return False
    # barycentric solve along the two edge directions
    u = tuple(b[i] - a[i] for i in range(3))
    v = tuple(c[i] - a[i] for i in range(3))
    w = tuple(x[i] - a[i] for i in range(3))
    uu = sum(i * j for i, j in zip(u, u))
    uv = sum(i * j for i, j in zip(u, v))
    vv = sum(i * j for i, j in zip(v, v))
    wu = sum(i * j for i, j in zip(w, u))
    wv = sum(i * j for i, j in zip(w, v))
    den = uu * vv - uv * uv
    if den == 0:
        return False
    s = (wu * vv - wv * uv) / den
    t = (wv * uu - wu * uv) / den
    return s >= 0 and t >= 0 and s + t <= 1


def point_in_hull_3d(x, pts):
    x = tuple(x)
    pts = [tuple(p) for p in pts]
    if x in pts:
        return True
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if _on_segment(x, pts[i], pts[j]):
                return True
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if _in_triangle_3d(x, pts[i], pts[j], pts[k]):
                    return True
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    if _in_tetra(x, pts[i], pts[j], pts[k], pts[l]):
                        return True
    return False


def naive_vertices_3d(pts):
    pts = [tuple(p) for p in pts]
    out = set()
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not point_in_hull_3d(p, others):
            out.add(p)
    return out
