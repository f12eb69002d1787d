"""Deterministic SVG rendering of attractor samples with hull overlays.

The output is plain SVG 1.1 text assembled by hand so that a given model
file and seed always produce byte-identical output.  Attractor points are
sampled by evaluating seeded uniform random digit strings, which keeps the
cost linear in the sample count instead of exponential in the depth.
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


def _float_model(model: IfsModel):
    matrix = tuple(tuple(float(v) for v in row) for row in model.matrix)
    digits = tuple(tuple(float(v) for v in d) for d in model.digits)
    shift = tuple(float(v) for v in model.normalization_shift)
    return matrix, digits, shift


def _eval_float(matrix, digits, address):
    n = len(matrix)
    acc = (0.0,) * n
    for j in reversed(address):
        v = tuple(a + b for a, b in zip(digits[j - 1], acc))
        acc = tuple(sum(row[i] * v[i] for i in range(n)) for row in matrix)
    return acc


def _to_xy(point):
    """Project a 1/2/3-dimensional point to drawing coordinates (y up)."""
    if len(point) == 1:
        return point[0], 0.0
    return point[0], point[1]


def render_svg(model: IfsModel, steps: int, samples: int, seed: int, out_path: str):
    """Write an SVG with sampled attractor points and hull overlays.

    Point cloud: `samples` pseudo-random digit strings of length `steps`.
    Hull polygons are drawn for steps 1..min(steps, stabilization + 1) when a
    stabilization index exists and for every step up to `steps` otherwise;
    certified vertices, when available, are marked on top.
    """
    if samples > 10**6:
        raise ValueError("sample count exceeds 10^6")
    matrix, digits, shift = _float_model(model)
    q = len(digits)
    radius = attractor_radius_bound(model)
    extent = 1.02 * max(radius, 1e-6)
    cx, cy = _to_xy(shift)

    decision, _report = decide_mod.decide_polytope(model)
    if decision.stabilization_index is not None:
        overlays = min(steps, decision.stabilization_index + 1)
    else:
        overlays = steps

    rng = random.Random(seed)
    point_elems = []
    r_point = extent / 300.0
    for _ in range(samples):
        address = tuple(rng.randrange(1, q + 1) for _ in range(steps))
        p = _eval_float(matrix, digits, address)
        x, y = _to_xy(p)
        point_elems.append(
            f'<circle cx="{_fmt(x + cx)}" cy="{_fmt(-(y + cy))}" r="{_fmt(r_point)}"/>'
        )

    hull_elems = []
    for ledger, _poly in islice(decide_mod.hull_steps(model), 1, overlays + 1):
        color = _PALETTE[(ledger.step - 1) % len(_PALETTE)]
        pts = [_to_xy(tuple(float(c) for c in p)) for p in ledger.points]
        if len(pts) == 1:
            x, y = pts[0]
            hull_elems.append(
                f'<circle cx="{_fmt(x + cx)}" cy="{_fmt(-(y + cy))}" r="{_fmt(extent / 150.0)}" '
                f'fill="none" stroke="{color}" stroke-width="{_fmt(extent / 250.0)}"/>'
            )
            continue
        coords = " ".join(f"{_fmt(x + cx)},{_fmt(-(y + cy))}" for x, y in pts)
        hull_elems.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(extent / 250.0)}"/>'
        )

    vertex_elems = []
    if decision.vertices:
        for point, _ep in decision.vertices:
            x, y = _to_xy(tuple(float(c) for c in point))
            vertex_elems.append(
                f'<circle cx="{_fmt(x + cx)}" cy="{_fmt(-(y + cy))}" '
                f'r="{_fmt(extent / 100.0)}" fill="{_VERTEX_COLOR}"/>'
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
