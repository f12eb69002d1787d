"""Deterministic SVG rendering of attractor samples with hull overlays.

The output is plain SVG 1.1 text assembled by hand so that a given model
file and seed always produce byte-identical output.  Attractor points are
sampled by evaluating seeded uniform random digit strings, which keeps the
cost linear in the sample count instead of exponential in the depth.

The samples are bit for bit those of digits `Random(seed).randrange(1, q + 1)`
(on CPython 3.10-3.13, `getrandbits(q.bit_length())` redrawn while >= q) fed
to the Horner step `acc = T(d_j + acc)`, innermost digit first, each
coordinate summed left to right from 0.0 as Python 3.11's `sum` does.
"""

from __future__ import annotations

import random
from itertools import islice

from . import decide as decide_mod
from .ifs import IfsModel, attractor_radius_bound

_PALETTE = ("#6a9f58", "#d1842f", "#4f7cac", "#a65a8a", "#8a8a3c", "#53a2a2")
_POINT_COLOR = "#30506d"
_VERTEX_COLOR = "#c83737"


def _fmt(x: float) -> str:
    s = f"{x:.8f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _horner_1d(matrix, drawn):
    ((a,),) = matrix
    x = 0.0
    for (e,) in drawn:
        x = 0.0 + a * (e + x)
    return (x,)


def _horner_2d(matrix, drawn):
    (a, b), (c, d) = matrix
    x = y = 0.0
    for e, f in drawn:
        u = e + x
        v = f + y
        x = 0.0 + a * u + b * v
        y = 0.0 + c * u + d * v
    return x, y


def _horner_3d(matrix, drawn):
    (a, b, c), (d, e, f), (g, h, i) = matrix
    x = y = z = 0.0
    for dx, dy, dz in drawn:
        u = dx + x
        v = dy + y
        w = dz + z
        x = 0.0 + a * u + b * v + c * w
        y = 0.0 + d * u + e * v + f * w
        z = 0.0 + g * u + h * v + i * w
    return x, y, z


def _sample(matrix, digits, steps, samples, seed):
    """Float points T(d_1 + T(d_2 + ... T(d_steps))) of `samples` seeded digit strings."""
    getrandbits = random.Random(seed).getrandbits
    q = len(digits)
    k = q.bit_length()
    horner = (_horner_1d, _horner_2d, _horner_3d)[len(matrix) - 1]
    points = []
    for _ in range(samples):
        drawn = []
        for _ in range(steps):
            r = getrandbits(k)
            while r >= q:
                r = getrandbits(k)
            drawn.append(digits[r])
        drawn.reverse()
        points.append(horner(matrix, drawn))
    return points


def _to_xy(point):
    """Project a 1/2/3-dimensional point to float drawing coordinates (y up)."""
    return float(point[0]), float(point[1]) if len(point) > 1 else 0.0


def render_svg(model: IfsModel, steps: int, samples: int, seed: int, out_path: str):
    """Write an SVG with sampled attractor points and hull overlays.

    Point cloud: `samples` pseudo-random digit strings of length `steps`.
    Hull polygons are drawn for steps 1..min(steps, stabilization + 1) when a
    stabilization index exists and for every step up to `steps` otherwise;
    certified vertices, when available, are marked on top.
    """
    matrix = tuple(tuple(float(v) for v in row) for row in model.matrix)
    digits = tuple(tuple(float(v) for v in d) for d in model.digits)
    extent = 1.02 * max(attractor_radius_bound(model), 1e-6)
    cx, cy = _to_xy(model.normalization_shift)

    def at(point):
        x, y = _to_xy(point)
        return _fmt(x + cx), _fmt(-(y + cy))

    decision, _report = decide_mod.decide_polytope(model)
    if decision.stabilization_index is not None:
        overlays = min(steps, decision.stabilization_index + 1)
    else:
        overlays = steps

    r_point = _fmt(extent / 300.0)
    point_elems = [
        f'<circle cx="{x}" cy="{y}" r="{r_point}"/>'
        for x, y in map(at, _sample(matrix, digits, steps, samples, seed))
    ]

    hull_elems = []
    stroke = f'stroke-width="{_fmt(extent / 250.0)}"'
    for ledger, _poly in islice(decide_mod.hull_steps(model), 1, overlays + 1):
        color = _PALETTE[(ledger.step - 1) % len(_PALETTE)]
        pts = [at(p) for p in ledger.points]
        if len(pts) == 1:
            x, y = pts[0]
            hull_elems.append(
                f'<circle cx="{x}" cy="{y}" r="{_fmt(extent / 150.0)}" '
                f'fill="none" stroke="{color}" {stroke}/>'
            )
            continue
        coords = " ".join(f"{x},{y}" for x, y in pts)
        hull_elems.append(f'<polygon points="{coords}" fill="none" stroke="{color}" {stroke}/>')

    vertex_elems = []
    for point, _ep in decision.vertices or ():
        x, y = at(point)
        vertex_elems.append(
            f'<circle cx="{x}" cy="{y}" r="{_fmt(extent / 100.0)}" fill="{_VERTEX_COLOR}"/>'
        )

    x0 = _fmt(cx - extent)
    y0 = _fmt(-cy - extent)
    side = _fmt(2 * extent)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0} {y0} {side} {side}" width="800" height="800">',
        f'<rect x="{x0}" y="{y0}" width="{side}" height="{side}" fill="#ffffff"/>',
        f'<g fill="{_POINT_COLOR}" fill-opacity="0.55">',
        *point_elems,
        "</g>",
        *hull_elems,
        *vertex_elems,
        "</svg>",
    ]
    data = "\n".join(lines) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(data)
    return out_path
