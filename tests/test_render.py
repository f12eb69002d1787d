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

from fractalhull import cli, render

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
