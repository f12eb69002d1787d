"""SVG rendering: the attractor sampler against its reference, pinned SVG bytes."""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalhull import cli, decide, render

MODELS = Path(__file__).resolve().parent.parent / "models"


def reference_sample(matrix, digits, steps, samples, seed):
    """Digits from `Random(seed).randrange(1, q + 1)` and a tuple Horner sum.

    Each dot product adds left to right from 0.0, the order of Python 3.11's
    `sum` over floats (3.12 and later compensate), so the reference holds on
    every supported Python.
    """
    rng = random.Random(seed)
    q = len(digits)
    n = len(matrix)
    points = []
    for _ in range(samples):
        address = tuple(rng.randrange(1, q + 1) for _ in range(steps))
        acc = (0.0,) * n
        for j in reversed(address):
            v = tuple(a + b for a, b in zip(digits[j - 1], acc))
            rows = []
            for row in matrix:
                total = 0.0
                for i in range(n):
                    total += row[i] * v[i]
                rows.append(total)
            acc = tuple(rows)
        points.append(acc)
    return points


@st.composite
def float_models(draw):
    """(matrix, digits) as floats, from rational entries or from floats."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entry = st.fractions(-1, 1, max_denominator=12).map(float)
        digit = st.fractions(-3, 3, max_denominator=12).map(float)
    else:
        entry = st.floats(-1.0, 1.0)
        digit = st.floats(-3.0, 3.0)
    matrix = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    digits = tuple(tuple(draw(digit) for _ in range(n)) for _ in range(q))
    return matrix, digits


@settings(max_examples=150, deadline=None)
@given(float_models(), st.integers(0, 16), st.integers(0, 40), st.integers(0, 2**40))
def test_sample_matches_randrange_horner_reference(model, steps, samples, seed):
    matrix, digits = model
    got = render._sample(matrix, digits, steps, samples, seed)
    want = reference_sample(matrix, digits, steps, samples, seed)
    assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want]


def signed_zero_model(q, n):
    """(matrix, digits) in n dimensions with q digits, ±0.0 among the entries.

    Digit 1 is all -0.0, digit 2 all +0.0 and digit 3 mixes both.  With
    q <= 2 every digit is a signed zero and every matrix entry negative or
    -0.0, so a step from digit 2 makes only -0.0 products, and only the
    leading 0.0 of each sum makes the points +0.0.
    """
    rng = random.Random(100 * q + n)
    if q <= 2:
        entry = lambda: rng.choice((-0.0, rng.uniform(-0.7, -0.1)))
    else:
        entry = lambda: rng.choice((-0.0, 0.0, rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
    matrix = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
    digits = [(-0.0,) * n, (0.0,) * n, tuple((0.0, -0.0)[i % 2] for i in range(n))]
    digits += [tuple(rng.choice((-0.0, rng.uniform(-3, 3))) for _ in range(n)) for _ in range(q)]
    return matrix, tuple(digits[:q])


# (q, dimension, samples): every q and dimension at 2000 points, each q once
# at 20000, where the shared tails are 11 (q = 2) to 2 (q = 9) digits deep;
# q = 300 draws 9 bits per digit, past the one-byte table.
SAMPLER_CASES = [
    *((q, n, 2000) for q in (1, 2, 3, 5, 9) for n in (1, 2, 3)),
    (1, 3, 20000), (2, 2, 20000), (3, 1, 20000), (5, 3, 20000), (9, 2, 20000),
    (300, 1, 2000), (300, 1, 20000),
]


@pytest.mark.parametrize("q, n, samples", SAMPLER_CASES)
def test_sample_matches_reference_at_depth(q, n, samples):
    matrix, digits = signed_zero_model(q, n)
    got = render._sample(matrix, digits, 12, samples, q + n)
    want = reference_sample(matrix, digits, 12, samples, q + n)
    assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want]


@pytest.mark.parametrize("q", [1, 2, 3, 5, 9, 128, 255, 256, 300, 2**20 + 1])
def test_draws_are_the_randrange_sequence(q):
    """Three blocks in a row, on both sides of q = 256."""
    for size in (1, 1000):
        rng = random.Random(q)
        want = [rng.randrange(1, q + 1) - 1 for _ in range(3 * size)]
        blocks = render._draws(random.Random(q).getrandbits, q, size)
        assert [j for _ in range(3) for j in next(blocks)] == want


@pytest.mark.parametrize("value, text", [
    (-0.0, "0"), (0.0, "0"), (4e-9, "0"), (-4e-9, "0"), (5e-9, "0.00000001"),
    (1e16, "10000000000000000"), (3.0, "3"), (-2.0, "-2"), (10.0, "10"),
    (0.5, "0.5"), (-1.25, "-1.25"), (1 / 3, "0.33333333"),
])
def test_fmt_edge_values(value, text):
    assert render._fmt(value) == text


LINE_DOC = {
    "dimension": 1,
    "matrix": [["-2/5"]],
    "digits": [[0], [1], [3]],
    "arithmetic": "rational",
}
CYCLIC_3D_DOC = {
    "dimension": 3,
    "matrix": [["0", "0", "1/2"], ["1/2", "0", "0"], ["0", "1/2", "0"]],
    "digits": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "arithmetic": "rational",
}
WIDE_LINE_DOC = {
    "dimension": 1,
    "matrix": [["-1/3"]],
    "digits": [[j] for j in range(300)],
    "arithmetic": "rational",
}
# A complex pair at angle pi/6 and a real eigenvalue: k = 72 in product mode,
# 12 in lcm mode, and the vertex counts grow at every step.
K72_LCM_DOC = {
    "dimension": 3,
    "matrix": [[0, "-3/4", 0], ["1/4", "3/4", 0], [0, 0, "-1/3"]],
    "digits": [[0, 0, 0], [1, 0, 0], [0, 1, 0], ["1/3", "2/3", 1]],
    "arithmetic": "rational",
    "options": {"bound_mode": "lcm"},
}
SHEAR_DOC = {
    "dimension": 2,
    "matrix": [["99/100", "10"], ["0", "99/100"]],
    "digits": [[0, 0], [1, 0], [0, 1]],
    "arithmetic": "rational",
}

# SHA-256 of the SVG that `render <model> <options>` writes; the values were
# recorded from the sampler that `reference_sample` reproduces.
SVG_DIGESTS = [
    ("diagonal.json", "--steps 0 --points 10",
     "657ebb468fcdcd4a246e52545e470e0ae57a2df0afdb4fe8eb235de05b479c69"),
    ("diagonal.json", "--steps 5 --points 300 --seed 3",
     "8370e66f87dd2428414b28aaf580f4ba9a1e8a97beff9004d42f0cf948d22986"),
    ("diagonal.json", "--steps 16 --points 1000",
     "4c52f0ccfcccac5eb50c7d6ccb9b468cadca1b5217b7d19e7d088f48166c9c70"),
    ("rotation1.json", "--steps 0 --points 10",
     "657ebb468fcdcd4a246e52545e470e0ae57a2df0afdb4fe8eb235de05b479c69"),
    ("rotation1.json", "--steps 5 --points 300 --seed 3",
     "3ce56fa0fb2303932b5b890a67afc5f7d336c5f24e2f4b72aa904d9160ab784a"),
    ("rotation1.json", "--steps 16 --points 1000",
     "5158501e63616a7a3eb321ff0c7ad68b1d480795342b165dfae6fba020e4c952"),
    ("sierpinski.json", "--steps 0 --points 10",
     "44a42f8be131bf60daca66090a5a608c4ecd0d5a64bd045a9e6bcdcb23c151e4"),
    ("sierpinski.json", "--steps 5 --points 300 --seed 3",
     "1ec38e2d06a2c38ad6f16f3002465bbe932513ffbea09925c8a677ef449994e8"),
    ("sierpinski.json", "--steps 16 --points 1000",
     "7a7abbff04eebe41ddd266e0e9be5568af7c6b40d4040da2db1633d9b7b82244"),
    ("twindragon.json", "--steps 0 --points 10",
     "5758e759705f2635860c5fb324846fa3bc89c5ecb209eb7440716526c6a8ab89"),
    ("twindragon.json", "--steps 5 --points 300 --seed 3",
     "242c3dec44b50cdd2ba9774c6495c5703a11a8b5cea9ac104d84588ae2f73ec6"),
    ("twindragon.json", "--steps 16 --points 1000",
     "eec5d77331e06939a35c89912f1d28411afa4f01456b882dfe9f65550ee3a3a6"),
    ("diagonal.json", "--steps 12 --points 20000",
     "3c1fd290063dd8962ef33b03bd2d8ffb235ca4666cdc3681f111d46596053b9b"),
    ("rotation1.json", "--steps 12 --points 20000",
     "5f37864d727bc4b648ab3c3789374a252dbac3e66f8eb0406ba0117e9088a491"),
    ("sierpinski.json", "--steps 12 --points 20000",
     "ee755819f53dffb26eeec5ef7104861a59fc7ffde1a8ba716aa00c95551e93ca"),
    ("twindragon.json", "--steps 12 --points 20000",
     "042a0a7a5f0133d9a7990b60987f0e860ec4041e4d71d4939c1b595c12651772"),
    (WIDE_LINE_DOC, "--steps 6 --points 2000 --seed 5",
     "b27c59579e5216e0f33776824001a0ea8a941a4887293118a3a27c2711c91f15"),
    (LINE_DOC, "--steps 8 --points 300 --seed 5",
     "d970e675e9e273826ccf60e51bf468f34efc61a5a4a3b222021609030fdd24d2"),
    (CYCLIC_3D_DOC, "--steps 8 --points 300 --seed 5",
     "02d54d21803f7de1d8aca1a78c0c0569e67e29be78c3192b8a934d4cb6f77d2b"),
]


def _model_path(model, tmp_path):
    if isinstance(model, str):
        return str(MODELS / model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "model, options, digest",
    SVG_DIGESTS,
    ids=[f"{m if isinstance(m, str) else '%dd' % m['dimension']} {o}" for m, o, _ in SVG_DIGESTS],
)
def test_render_svg_bytes_are_pinned(model, options, digest, tmp_path, capsys):
    out = tmp_path / "render.svg"
    argv = ["render", _model_path(model, tmp_path), *options.split(), "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_render_model_whose_norm_needs_many_powers(tmp_path, capsys):
    """||T^s|| < 1 first at s > 64: the radius bound continues and every point lies in view."""
    out = tmp_path / "shear.svg"
    argv = ["render", _model_path(SHEAR_DOC, tmp_path), "--steps", "12", "--points", "200",
            "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    text = out.read_text()
    x0, y0, w, h = (float(v) for v in re.search(r'viewBox="([^"]+)"', text).group(1).split())
    group = text[text.index('<g fill="'):text.index("</g>")]
    centres = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', group)
    assert len(centres) == 200
    for cx, cy in centres:
        assert x0 <= float(cx) <= x0 + w
        assert y0 <= float(cy) <= y0 + h


@pytest.mark.parametrize("model, steps, want", [
    ("twindragon.json", 12, None),  # None: the number of count rows of its report
    ("rotation1.json", 12, 12),  # U is empty: decide takes no step
    (K72_LCM_DOC, 16, 16),  # 13 steps without stabilization, then 3 more
])
def test_render_takes_no_step_that_decide_took(model, steps, want, tmp_path, capsys, monkeypatch):
    """The overlays replay the decision's hull steps; the model's bound_mode holds."""
    path = _model_path(model, tmp_path)
    if want is None:
        assert cli.main(["analyze", path, "--json", str(tmp_path / "r.json")]) == 0
        want = len(json.loads((tmp_path / "r.json").read_text())["counts"])
    taken = []
    step = decide._step
    monkeypatch.setattr(decide, "_step", lambda model, ledger: taken.append(1) or step(model, ledger))
    argv = ["render", path, "--steps", str(steps), "--points", "200", "--out", str(tmp_path / "r.svg")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(taken) == want
