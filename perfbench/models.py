"""Seeded model generators for the benchmark workloads.

Each model workload is one fixed set of models drawn from DEFAULT_SEED; the
run seed only orders the ops (workloads.py).  Drawing a fresh set per seed
would let one seed hold three k = 72 planar models and another six, and the
sweep time would follow the draw, not the program.  The planar set is exactly
tests/conftest.py::suite5_models().
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction as F

DEFAULT_SEED = 20250809
PLANAR_COUNT = 100
SPATIAL_GENERIC = 6
SPATIAL_POSITIVE = 9
SPATIAL_NEGATIVE = 1


# --- planar: the conftest generator, draw for draw ---


def _matrix_entry(rng):
    den = rng.randint(1, 4)
    return F(rng.randint(-den, den), den)


def _fraction(rng, num_max=4, den_max=4):
    return F(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def _contracting_2x2(m):
    """Exact test that both eigenvalues lie strictly inside the unit disk.

    For x^2 - t x + d this holds iff |d| < 1 and |t| < 1 + d (Jury).  A
    singular matrix is rejected too, as the test suite's generator does.
    """
    t = m[0][0] + m[1][1]
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return d != 0 and abs(d) < 1 and abs(t) < 1 + d


def planar_draw(rng):
    """One random rational planar model (matrix, digits), as conftest draws it."""
    while True:
        matrix = tuple(tuple(_matrix_entry(rng) for _ in range(2)) for _ in range(2))
        if not _contracting_2x2(matrix):
            continue
        q = rng.choice((2, 3))
        digits = [(F(0), F(0))]
        while len(digits) < q:
            d = (_fraction(rng), _fraction(rng))
            if d not in digits:
                digits.append(d)
        return matrix, tuple(digits)


def planar_base():
    rng = random.Random(DEFAULT_SEED)
    return [planar_draw(rng) for _ in range(PLANAR_COUNT)]


# --- spatial: generic contracting matrices and homotheties ---


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _full_dimensional(digits):
    """True when some four digits span a tetrahedron."""
    for a, b, c, d in itertools.combinations(digits, 4):
        rows = [tuple(x - y for x, y in zip(p, a)) for p in (b, c, d)]
        if _det3(rows) != 0:
            return True
    return False


def _spatial_digits(rng, q):
    while True:
        digits = [(F(0),) * 3]
        while len(digits) < q:
            d = tuple(_fraction(rng) for _ in range(3))
            if d not in digits:
                digits.append(d)
        if _full_dimensional(digits):
            return tuple(digits)


def _generic_3x3(rng):
    """Integer matrix over a denominator above its largest row sum.

    The infinity norm is then below 1, which proves contraction exactly.
    """
    while True:
        ints = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        scale = max(sum(abs(v) for v in row) for row in ints) + rng.randint(1, 3)
        matrix = tuple(tuple(F(v, scale) for v in row) for row in ints)
        if _det3(matrix) != 0:
            return matrix


def _homothety(rng, sign):
    c = sign * rng.choice((F(1, 2), F(1, 3)))
    return tuple(tuple(c if i == j else F(0) for j in range(3)) for i in range(3))


def spatial_base():
    """Generic models, then homotheties +c I, then homotheties -c I.

    A generic model takes about 0.25 s on a 2.1 GHz Xeon, +c I about 0.1 s
    (two hull steps, a tetrahedron) and -c I about 1 s (three hull steps,
    twelve vertices); the mix keeps a sweep near 3.5 s.
    """
    rng = random.Random(DEFAULT_SEED)
    out = [(_generic_3x3(rng), _spatial_digits(rng, 4)) for _ in range(SPATIAL_GENERIC)]
    for sign, count in ((1, SPATIAL_POSITIVE), (-1, SPATIAL_NEGATIVE)):
        out += [(_homothety(rng, sign), _spatial_digits(rng, 4)) for _ in range(count)]
    return out


def _text(value):
    return f"{value.numerator}/{value.denominator}"


def model_document(model, arithmetic):
    matrix, digits = model
    return {
        "dimension": len(matrix),
        "matrix": [[_text(v) for v in row] for row in matrix],
        "digits": [[_text(v) for v in d] for d in digits],
        "arithmetic": arithmetic,
    }


def workload_models(workload):
    """[(model_id, document)] of a model workload, in the order drawn."""
    if workload in ("planar-exact", "planar-float"):
        base = planar_base()
        prefix = "p"
        arithmetic = "rational" if workload == "planar-exact" else "float"
    elif workload == "spatial-exact":
        base = spatial_base()
        prefix = "s"
        arithmetic = "rational"
    else:
        raise ValueError(f"no generated models for workload {workload!r}")
    return [(f"{prefix}{i:03d}", model_document(m, arithmetic)) for i, m in enumerate(base)]


def write_models(items, directory):
    """Write each model document as <id>.json; returns {id: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for model_id, doc in items:
        path = os.path.join(directory, f"{model_id}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(doc, handle)
        paths[model_id] = path
    return paths
