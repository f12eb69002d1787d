"""Deterministic SVG rendering of attractor samples with hull overlays.

The output is plain SVG 1.1 text assembled by hand so that a given model
file and seed always produce byte-identical output.  Attractor points are
sampled by evaluating seeded uniform random digit strings, which keeps the
cost linear in the sample count instead of exponential in the depth.

The samples are bit for bit those of digits `Random(seed).randrange(1, q + 1)`
fed to the Horner step `acc = T(d_j + acc)`, innermost digit first, each
coordinate summed left to right from 0.0 as Python 3.11's `sum` does.  On
CPython 3.10-3.13 that randrange takes the top k = q.bit_length() bits of
successive 32-bit Mersenne Twister outputs and skips values >= q; `_draws`
reads the outputs in bulk from `getrandbits(32 * n)`.  The innermost m digits
of all strings share a table of tail values, m the largest <= steps with
4 q^(m+1) <= samples, so each string takes only steps - m Horner steps.

The overlays are the decision's own hull steps: `render_svg` hands
`decide_polytope`, in the model's `bound_mode`, one branch of a tee of
`hull_steps` and replays the other, stepping further only past its end.
"""

from __future__ import annotations

import random
import sys
from itertools import chain, islice, tee

from . import decide as decide_mod
from .ifs import IfsModel, attractor_radius_bound

_PALETTE = ("#6a9f58", "#d1842f", "#4f7cac", "#a65a8a", "#8a8a3c", "#53a2a2")
_POINT_COLOR = "#30506d"
_VERTEX_COLOR = "#c83737"
# Digits per block of draws: the sampler holds one block of digits at a time.
_BLOCK = 1 << 14


def _fmt(x: float) -> str:
    s = f"{x:.8f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _draws(getrandbits, q, size):
    """Successive blocks of `size` values of `randrange(1, q + 1) - 1`, 1 <= q < 2**32.

    Word i of getrandbits(32 * n) is output i; for q < 256 its top byte, for
    larger q the whole word, gives the top k bits.  Bytes if q < 256, else tuples.
    """
    k = q.bit_length()
    if k <= 8:
        table = bytes(b >> (8 - k) for b in range(256))
        reject = bytes(b for b in range(256) if b >> (8 - k) >= q)
    out = b"" if k <= 8 else ()
    while True:
        while len(out) < size:
            # q / 2**k of the words are kept: this many fill the block on average
            words = ((size - len(out)) << k) // q + 1
            if k <= 8:
                top = getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
                out += top.translate(table, reject)
            else:
                raw = getrandbits(32 * words).to_bytes(4 * words, sys.byteorder)
                out += tuple(r for w in memoryview(raw).cast("I") if (r := w >> (32 - k)) < q)
        yield out[:size]
        out = out[size:]


def _horner(matrix, digits, tails, drawn, m, steps):
    """Values of the digit strings drawn[i : i + steps], each innermost digit first.

    A string starts from tails[drawn[i : i + m]], the value of its innermost m
    digits, and takes the Horner step acc = T(d_j + acc) for each later digit.
    """
    points = []
    starts = range(0, len(drawn), steps)
    if len(matrix) == 1:
        ((a,),) = matrix
        for i in starts:
            (x,) = tails[drawn[i : i + m]]
            for j in drawn[i + m : i + steps]:
                x = 0.0 + a * (digits[j][0] + x)
            points.append((x,))
    elif len(matrix) == 2:
        (a, b), (c, d) = matrix
        for i in starts:
            x, y = tails[drawn[i : i + m]]
            for j in drawn[i + m : i + steps]:
                e, f = digits[j]
                u = e + x
                v = f + y
                x = 0.0 + a * u + b * v
                y = 0.0 + c * u + d * v
            points.append((x, y))
    else:
        (a, b, c), (d, e, f), (g, h, k) = matrix
        for i in starts:
            x, y, z = tails[drawn[i : i + m]]
            for j in drawn[i + m : i + steps]:
                dx, dy, dz = digits[j]
                u = dx + x
                v = dy + y
                w = dz + z
                x = 0.0 + a * u + b * v + c * w
                y = 0.0 + d * u + e * v + f * w
                z = 0.0 + g * u + h * v + k * w
            points.append((x, y, z))
    return points


def _sample(matrix, digits, steps, samples, seed):
    """Float points T(d_1 + T(d_2 + ... T(d_steps))) of `samples` seeded digit strings."""
    zero = (0.0,) * len(matrix)
    if not (steps and samples):
        return [zero] * samples
    q = len(digits)
    strings = max(1, _BLOCK // steps)  # digit strings per block of draws
    blocks = _draws(random.Random(seed).getrandbits, q, strings * steps)
    first = next(blocks)
    kind = type(first)
    tails, m = {kind(): zero}, 0
    while m < steps and 4 * q ** (m + 2) <= samples:
        keys = [key + kind((j,)) for key in tails for j in range(q)]
        values = _horner(matrix, digits, tails, kind(chain.from_iterable(keys)), m, m + 1)
        tails, m = dict(zip(keys, values)), m + 1
    points = []
    for start, block in zip(range(0, samples, strings), chain((first,), blocks)):
        # reversed, each string runs innermost digit first, the last string first
        drawn = block[: (samples - start) * steps][::-1]
        values = _horner(matrix, digits, tails, drawn, m, steps)
        values.reverse()
        points += values
    return points


def _to_xy(point):
    """Project a 1/2/3-dimensional point to float drawing coordinates (y up)."""
    return float(point[0]), float(point[1]) if len(point) > 1 else 0.0


def render_svg(
    model: IfsModel, steps: int, samples: int, seed: int, out_path: str, bound_mode: str = "product"
):
    """Write an SVG with sampled attractor points and hull overlays.

    Point cloud: `samples` pseudo-random digit strings of length `steps`.
    Hull polygons are drawn for steps 1..min(steps, stabilization + 1) when a
    stabilization index exists and for every step up to `steps` otherwise,
    from the steps that decide_polytope(model, bound_mode) took and only past
    them from new ones; certified vertices, when available, are marked on top.
    """
    matrix = tuple(tuple(float(v) for v in row) for row in model.matrix)
    digits = tuple(tuple(float(v) for v in d) for d in model.digits)
    extent = 1.02 * max(attractor_radius_bound(model), 1e-6)
    cx, cy = _to_xy(model.normalization_shift)

    def at(point):
        x, y = _to_xy(point)
        return _fmt(x + cx), _fmt(-(y + cy))

    searched, replayed = tee(decide_mod.hull_steps(model))
    decision, _report = decide_mod.decide_polytope(model, bound_mode, searched)
    if decision.stabilization_index is not None:
        overlays = min(steps, decision.stabilization_index + 1)
    else:
        overlays = steps

    r_point = _fmt(extent / 300.0)
    points = _sample(matrix, digits, steps, samples, seed)
    point_elems = [
        f'<circle cx="{_fmt(x + cx)}" cy="{_fmt(-(y + cy))}" r="{r_point}"/>'
        for x, y in (points if len(matrix) == 2 else map(_to_xy, points))
    ]

    hull_elems = []
    stroke = f'stroke-width="{_fmt(extent / 250.0)}"'
    for ledger, _poly in islice(replayed, 1, overlays + 1):
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
