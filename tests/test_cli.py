"""Model file parsing, subcommands, report determinism, SVG rendering."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from fractalhull import cli
from fractalhull.cli import ModelFileError, parse_entry, parse_model

MODELS = Path(__file__).resolve().parent.parent / "models"
BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def write_model(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def sierpinski_doc():
    return {
        "dimension": 2,
        "matrix": [["1/2", "0"], ["0", "1/2"]],
        "digits": [[0, 0], [1, 0], [0, 1]],
        "arithmetic": "rational",
    }


def test_parse_rational_model(tmp_path):
    model, opts = parse_model(write_model(tmp_path, "m.json", sierpinski_doc()))
    assert model.mode == "rational"
    assert model.dim == 2
    assert opts.bound_mode == "product"


def test_parse_rejects_decimal_in_rational_mode(tmp_path):
    doc = sierpinski_doc()
    doc["matrix"][0][0] = "0.1"
    with pytest.raises(ModelFileError):
        parse_model(write_model(tmp_path, "m.json", doc))
    # the exact same value is accepted when spelled as a fraction
    doc["matrix"][0][0] = "1/10"
    model, _ = parse_model(write_model(tmp_path, "m.json", doc))
    assert model.matrix[0][0] == cli.Fraction(1, 10)


def test_parse_rejects_json_float_in_rational_mode(tmp_path):
    doc = sierpinski_doc()
    doc["matrix"][0][0] = 0.5
    with pytest.raises(ModelFileError):
        parse_model(write_model(tmp_path, "m.json", doc))


def test_parse_entry_float_mode():
    assert parse_entry("1/4", "float") == 0.25
    assert parse_entry("0.1", "float") == 0.1
    assert parse_entry(3, "float") == 3.0


def test_parse_rejects_dimension_4(tmp_path):
    doc = {
        "dimension": 4,
        "matrix": [["1/2", "0", "0", "0"]] * 4,
        "digits": [[0, 0, 0, 0]],
        "arithmetic": "rational",
    }
    path = write_model(tmp_path, "m.json", doc)
    assert cli.main(["analyze", path]) == 1


@pytest.mark.parametrize("dimension", [True, False, 2.0, "2"])
def test_parse_rejects_a_dimension_that_is_not_an_integer(dimension, tmp_path, capsys):
    """JSON true is a Python bool, an int subclass: it must not read as dimension 1."""
    doc = {"dimension": dimension, "matrix": [["1/2"]], "digits": [[0], [1]]}
    path = write_model(tmp_path, "m.json", doc)
    with pytest.raises(ModelFileError, match="'dimension' must be an integer"):
        parse_model(path)
    assert cli.main(["analyze", path]) == 1
    assert capsys.readouterr().err == "error: 'dimension' must be an integer\n"


@pytest.mark.parametrize("budget", [0, -3, 0.0])
def test_enum_budget_below_one_is_rejected_at_parse_time(budget, tmp_path, capsys):
    doc = sierpinski_doc()
    doc["options"] = {"enum_budget": budget}
    path = write_model(tmp_path, "m.json", doc)
    assert cli.main(["oracle", path, "--steps", "0"]) == 1
    assert capsys.readouterr().err == "error: invalid option value: enum_budget must be at least 1\n"
    doc["options"] = {"enum_budget": 1}
    _, opts = parse_model(write_model(tmp_path, "m.json", doc))
    assert opts.enum_budget == 1


def test_parse_rejects_unknown_option(tmp_path):
    doc = sierpinski_doc()
    doc["options"] = {"budget": 5}
    with pytest.raises(ModelFileError):
        parse_model(write_model(tmp_path, "m.json", doc))


@pytest.mark.parametrize(
    "options",
    [
        {"denom_max": "x"},
        {"eps_geom": -1},
        {"seed": "x"},
        # booleans are not numbers, in any option
        {"denom_max": True},
        {"eps_geom": True},
        {"angle_tol": False},
        {"bound_mode": True},
        {"seed": False},
        # integer options take no fractional or non-finite float
        {"denom_max": 6.9},
        {"enum_budget": 1.5},
        {"seed": 2.7},
        {"seed": float("inf")},
        # option values are JSON numbers: no string converts
        {"denom_max": " 12 "},
        {"seed": "7"},
        {"eps_geom": "1e-3"},
        {"angle_tol": "inf"},
        {"enum_budget": "1000"},
        # tolerances are finite: JSON Infinity is rejected
        {"eps_geom": float("inf")},
        {"angle_tol": float("inf")},
    ],
)
def test_malformed_option_values_are_model_file_errors(options, tmp_path, capsys):
    doc = sierpinski_doc()
    doc["options"] = options
    assert cli.main(["analyze", write_model(tmp_path, "m.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid option value: ")


def test_integral_float_options_are_accepted(tmp_path):
    doc = sierpinski_doc()
    doc["options"] = {"denom_max": 12.0, "enum_budget": 1e6, "seed": 7.0}
    model, opts = parse_model(write_model(tmp_path, "m.json", doc))
    assert (model.tol.denom_max, opts.enum_budget, opts.seed) == (12, 10**6, 7)
    assert all(type(v) is int for v in (model.tol.denom_max, opts.enum_budget, opts.seed))


def test_internal_errors_are_not_reported_as_invalid_input(monkeypatch):
    """A KeyError raised inside the pipeline is a bug, so it leaves cli.main as it is."""

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli.decide_mod, "analyze_model", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["analyze", str(MODELS / "sierpinski.json")])


def test_analyze_sierpinski(capsys):
    code = cli.main(["analyze", str(MODELS / "sierpinski.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "POLYTOPE (certified), 3 vertices, i=1, k=2" in out


def test_analyze_rotation_empty_u(capsys):
    code = cli.main(["analyze", str(MODELS / "rotation1.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOT A POLYTOPE (U empty, denominators <= 64)" in out


def test_analyze_pi_over_5_approximant_is_empty_u(tmp_path, capsys):
    """An irrational angle 3.1e-12 from pi/5: rational input finds no rational angle, exactly."""
    doc = {
        "dimension": 2,
        "matrix": [["1/2", "-46041/126740"], ["46041/126740", "1/2"]],
        "digits": [[0, 0], [1, 0], [0, 1]],
    }
    report = tmp_path / "r.json"
    code = cli.main(["analyze", write_model(tmp_path, "pi5.json", doc), "--json", str(report)])
    assert code == 0
    assert "NOT A POLYTOPE (U empty" in capsys.readouterr().out
    assert json.loads(report.read_text(encoding="utf-8"))["counts"] == []


def test_analyze_near_1_rotation_is_certified(tmp_path, capsys):
    """rho = sqrt(1 - 1e-20) < 1: the exact contraction test accepts what the float radius rounds to 1."""
    doc = {
        "dimension": 2,
        "matrix": [[0, 1], ["-99999999999999999999/100000000000000000000", 0]],
        "digits": [[0, 0], [1, 0], [0, 1]],
    }
    code = cli.main(["analyze", write_model(tmp_path, "near1.json", doc)])
    assert code == 0
    assert "POLYTOPE (certified), 8 vertices" in capsys.readouterr().out


def test_analyze_diagonal(capsys):
    code = cli.main(["analyze", str(MODELS / "diagonal.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOT A POLYTOPE (no stabilization within k=2)" in out


def test_oracle_match(capsys):
    code = cli.main(["oracle", str(MODELS / "diagonal.json"), "--steps", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "match: 5 vertices" in out


ITERATE_TABLES = {
    "diagonal.json": [
        "1 3 0.5", "2 4 0.25", "3 5 0.125", "4 6 0.0625", "5 7 0.03125", "6 8 0.015625",
    ],
    "rotation1.json": [
        "1 2 0.49999999999999994",
        "2 4 0.24999999999999997",
        "3 6 0.12499999999999999",
        "4 8 0.062499999999999986",
        "5 10 0.031249999999999976",
        "6 12 0.015624999999999912",
    ],
    "sierpinski.json": [
        "1 3 0.5", "2 3 0.25", "3 3 0.125", "4 3 0.0625", "5 3 0.03125", "6 3 0.015625",
    ],
    "twindragon.json": [
        "1 2 0.7071067811865476",
        "2 4 0.5",
        "3 6 0.3535533905932738",
        "4 8 0.25",
        "5 8 0.1767766952966369",
        "6 8 0.125",
    ],
}


def test_iterate_table(capsys):
    assert sorted(ITERATE_TABLES) == sorted(path.name for path in MODELS.glob("*.json"))
    for name, rows in ITERATE_TABLES.items():
        code = cli.main(["iterate", str(MODELS / name), "--steps", "6"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i\tcount\thausdorff_delta"
        assert lines[1:] == [row.replace(" ", "\t") for row in rows], name


@pytest.mark.parametrize(
    "command, options",
    [
        ("iterate", ["--steps", "-2"]),
        ("oracle", ["--steps", "-1"]),
        ("render", ["--steps", "-1"]),
        ("render", ["--points", "-5"]),
    ],
)
def test_negative_counts_are_usage_errors(command, options, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    out = ["--out", str(svg)] if command == "render" else []
    assert cli.main([command, str(MODELS / "sierpinski.json"), *options, *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert not svg.exists()


@pytest.mark.parametrize("points", ["1000001", "10000000"])
def test_render_points_above_a_million_are_usage_errors(points, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    argv = ["render", str(MODELS / "sierpinski.json"), "--points", points, "--out", str(svg)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert "at most 10^6" in captured.err
    assert not svg.exists()


def test_render_points_of_a_million_stay_valid():
    args = cli.build_parser().parse_args(["render", "m.json", "--points", "1000000", "--out", "o.svg"])
    assert args.points == 10**6


def test_zero_counts_stay_valid(tmp_path, capsys):
    sierpinski = str(MODELS / "sierpinski.json")
    assert cli.main(["iterate", sierpinski, "--steps", "0"]) == 0
    assert capsys.readouterr().out == "i\tcount\thausdorff_delta\n"
    assert cli.main(["oracle", sierpinski, "--steps", "0"]) == 0
    assert capsys.readouterr().out == "match: 1 vertices\n"
    svg = tmp_path / "zero.svg"
    assert cli.main(["render", sierpinski, "--steps", "0", "--points", "0", "--out", str(svg)]) == 0
    capsys.readouterr()
    assert "<polygon" not in svg.read_text()


def test_bound_output(capsys):
    code = cli.main(["bound", str(MODELS / "twindragon.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "k = 2*4*4 = 32" in out


def test_report_json_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["analyze", str(MODELS / "sierpinski.json"), "--json", str(out1)]) == 0
    assert cli.main(["analyze", str(MODELS / "sierpinski.json"), "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    doc = json.loads(out1.read_text())
    assert doc["decision"]["verdict"] == "POLYTOPE"
    assert doc["decision"]["certified"] is True
    assert doc["decision"]["stabilization_index"] == 1
    assert doc["bound"]["k"] == 2
    assert doc["bound"]["U"] == [{"re": 2.0, "im": 0.0, "modulus": 2.0, "p": 0, "n": 1}]
    assert [row["count"] for row in doc["counts"]] == [3, 3]
    points = {tuple(v["point"]) for v in doc["vertices"]}
    assert points == {("0/1", "0/1"), ("1/1", "0/1"), ("0/1", "1/1")}
    periods = sorted(tuple(v["period"]) for v in doc["vertices"])
    assert periods == [(1,), (2,), (3,)]
    assert doc["sw_check"]["status"] == "agree"
    assert doc["version"] == cli.__version__
    assert any("possible only if" not in w for w in doc["warnings"])


REPORT_KEYS = ["version", "decision", "bound", "counts", "vertices", "sw_check", "warnings"]


def laid_out(text):
    """The report document, after checking that text is json.dumps(doc, indent=2)."""
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert list(doc) == REPORT_KEYS
    assert list(doc["sw_check"]) == ["status", "verdict", "k_cap", "normals"]
    return doc


def analyze_report(tmp_path, doc, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["analyze", write_model(tmp_path, "m.json", doc), "--json", str(out)]) == 0
    capsys.readouterr()
    return out.read_text(encoding="utf-8")


def test_report_vertices_respect_normalization_shift(tmp_path, capsys):
    doc = sierpinski_doc()
    doc["digits"] = [[1, 1], [2, 1], [1, 2]]
    text = analyze_report(tmp_path, doc, capsys)
    report = laid_out(text)
    assert report["decision"] == {
        "verdict": "POLYTOPE", "certified": True, "stabilization_index": 1,
        "vertex_count": 3, "reason": None,
    }
    points = {tuple(v["point"]) for v in report["vertices"]}
    assert points == {("1/1", "1/1"), ("2/1", "1/1"), ("1/1", "2/1")}
    assert all(v["prefix"] == [] and len(v["period"]) == 1 for v in report["vertices"])
    assert '"prefix": []' in text
    assert report["sw_check"]["status"] == "agree"
    assert all(type(c) is str for n in report["sw_check"]["normals"] for c in n["normal"])


def test_report_layout_float_polytope(tmp_path, capsys):
    doc = sierpinski_doc()
    doc["arithmetic"] = "float"
    report = laid_out(analyze_report(tmp_path, doc, capsys))
    assert report["decision"]["verdict"] == "POLYTOPE"
    assert report["decision"]["certified"] is False
    assert [v["point"] for v in report["vertices"]] == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    assert report["sw_check"]["status"] == "agree"
    assert all(type(c) is float for n in report["sw_check"]["normals"] for c in n["normal"])


def test_report_layout_not_polytope(tmp_path, capsys):
    empty, grown = (
        laid_out(analyze_report(tmp_path, json.loads((MODELS / name).read_text()), capsys))
        for name in ("rotation1.json", "diagonal.json")
    )
    assert empty["decision"]["verdict"] == "NOT_POLYTOPE_EMPTY_U"
    assert empty["bound"] == {"U": [], "k": None, "mode": None}
    assert empty["counts"] == [] and empty["vertices"] == []
    assert grown["decision"]["verdict"] == "NOT_POLYTOPE_NO_STABILIZATION"
    assert grown["decision"]["vertex_count"] is None
    assert [row["count"] for row in grown["counts"]] == [3, 4, 5]
    assert [n["k_found"] for n in grown["sw_check"]["normals"]] == [1, None, 1]


def test_report_layout_inconclusive(tmp_path, capsys, monkeypatch):
    failed = cli.decide_mod.CertResult(ok=False, certified=False, checks=(), failure="self_mapping")
    monkeypatch.setattr(cli.decide_mod, "certify_polytope", lambda model, candidates: failed)
    report = laid_out(analyze_report(tmp_path, sierpinski_doc(), capsys))
    assert report["decision"]["verdict"] == "INCONCLUSIVE"
    assert report["decision"]["reason"] == (
        "stabilization at i=1 but certification failed on check 'self_mapping'"
    )
    assert report["vertices"] == []
    assert report["sw_check"]["status"] == "not_compared"
    assert report["sw_check"]["verdict"] == "polytope"


@pytest.mark.parametrize(
    "doc, sw_check",
    [
        (  # a 1D model: no cross-check is run
            {"dimension": 1, "matrix": [["-1/3"]], "digits": [[0], [1], [5]]},
            {"status": "inapplicable", "verdict": None, "k_cap": None, "normals": []},
        ),
        (  # flat digits: conv(D) is a segment in the plane
            {"dimension": 2, "matrix": [["1/2", 0], [0, "1/3"]], "digits": [[0, 0], [1, 0], [2, 0]]},
            {"status": "inapplicable", "verdict": "inapplicable", "k_cap": 2, "normals": []},
        ),
    ],
)
def test_report_layout_inapplicable_cross_check(doc, sw_check, tmp_path, capsys):
    report = laid_out(analyze_report(tmp_path, doc, capsys))
    assert report["decision"]["verdict"] == "POLYTOPE"
    assert report["sw_check"] == sw_check


def test_report_layout_without_cross_check(tmp_path):
    """A report without a cross-check reads not_compared; strings are ASCII-escaped."""
    model, _ = parse_model(str(MODELS / "sierpinski.json"))
    _, report = cli.decide_mod.analyze_model(model)
    report = report._replace(cross_check=None, warnings=('\u00e9 "x"',))
    out = tmp_path / "r.json"
    cli.write_report(report, model, str(out))
    text = out.read_text(encoding="ascii")
    doc = laid_out(text)
    assert doc["sw_check"] == {"status": "not_compared", "verdict": None, "k_cap": None, "normals": []}
    assert doc["warnings"] == ['\u00e9 "x"']
    assert '"\\u00e9 \\"x\\""' in text


@pytest.mark.parametrize("name", sorted(path.name for path in MODELS.glob("*.json")))
def test_analyze_report_matches_benchmark_digest(name, tmp_path, capsys):
    """analyze --json on a shipped model writes the report the benchmark stores."""
    digests = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))["cli-files"]
    out = tmp_path / "report.json"
    assert cli.main(["analyze", str(MODELS / name), "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[f"analyze:{name}"]["sha256"]


GOLDEN = Path(__file__).resolve().parent / "data"
_SOLID_DIGITS = [[0, 0, 0], [1, 0, 0], [0, 1, 0], ["1/3", "2/3", 1]]
GOLDEN_MODELS = {
    # an irrational angle 3.1e-12 from pi/5: U is empty
    "pi5": {"dimension": 2, "matrix": [["1/2", "-46041/126740"], ["46041/126740", "1/2"]],
            "digits": [[0, 0], [1, 0], [0, 1]]},
    # normals that recur at k = 3, 3, 3, 1
    "cyclic3": {"dimension": 3, "matrix": [[0, 0, "1/2"], ["1/2", 0, 0], [0, "1/2", 0]],
                "digits": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    # no rational eigenvalue: the cubic goes to the float root finder
    "cubic3": {"dimension": 3, "matrix": [["1/3", "1/5", 0], ["-1/4", "2/5", "1/7"], ["1/6", 0, "-1/3"]],
               "digits": _SOLID_DIGITS},
    # the rational root -1/3 and a pi/6 pair
    "k72lcm": {"dimension": 3, "matrix": [[0, "-3/4", 0], ["1/4", "3/4", 0], [0, 0, "-1/3"]],
               "digits": _SOLID_DIGITS,
               "options": {"bound_mode": "lcm"}},
    # the same matrix with a flat digit hull: from step 3 on, a solid plus a triangle
    "k72flat_lcm": {"dimension": 3, "matrix": [[0, "-3/4", 0], ["1/4", "3/4", 0], [0, 0, "-1/3"]],
                    "digits": [[0, 0, 0], [1, 0, 0], ["1/3", "2/3", 1]],
                    "options": {"bound_mode": "lcm"}},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_analyze_report_equals_its_golden_file(name, tmp_path, capsys):
    """analyze --json writes tests/data/<name>_analyze.json byte for byte, as CI diffs it."""
    out = tmp_path / "report.json"
    assert cli.main(["analyze", write_model(tmp_path, "m.json", GOLDEN_MODELS[name]), "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}_analyze.json").read_bytes()


def test_iterate_table_equals_its_golden_file(tmp_path, capsys):
    """iterate --steps 12 of the k = 72 matrix with a flat digit hull, whose
    every step sums a polytope with a triangle in space, writes
    tests/data/k72flat_iterate_12.tsv byte for byte, as CI diffs it."""
    doc = {"dimension": 3, "matrix": GOLDEN_MODELS["k72flat_lcm"]["matrix"],
           "digits": GOLDEN_MODELS["k72flat_lcm"]["digits"]}
    assert cli.main(["iterate", write_model(tmp_path, "m.json", doc), "--steps", "12"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "k72flat_iterate_12.tsv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(path.name for path in MODELS.glob("*.json")))
def test_render_matches_benchmark_digest(name, tmp_path, capsys):
    """render --points 2000 with the default steps and seed writes the SVG the benchmark stores."""
    digests = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))["cli-files"]
    out = tmp_path / "render.svg"
    assert cli.main(["render", str(MODELS / name), "--points", "2000", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[f"render:{name}"]["sha256"]


def test_certify_subcommand(tmp_path, capsys):
    candidates = [
        {"point": ["0/1", "0/1"], "prefix": [], "period": [1]},
        {"point": ["1/1", "0/1"], "prefix": [], "period": [2]},
        {"point": ["0/1", "1/1"], "prefix": [], "period": [3]},
    ]
    cfile = tmp_path / "candidates.json"
    cfile.write_text(json.dumps(candidates), encoding="utf-8")
    code = cli.main(["certify", str(MODELS / "sierpinski.json"), "--vertices", str(cfile)])
    out = capsys.readouterr().out
    assert code == 0
    assert "CERTIFIED: 3 vertices" in out

    candidates[1]["point"] = ["9/10", "0/1"]
    cfile.write_text(json.dumps(candidates), encoding="utf-8")
    code = cli.main(["certify", str(MODELS / "sierpinski.json"), "--vertices", str(cfile)])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOT CERTIFIED" in out


def _certify(tmp_path, candidates):
    cfile = tmp_path / "candidates.json"
    cfile.write_text(json.dumps(candidates), encoding="utf-8")
    return cli.main(["certify", str(MODELS / "sierpinski.json"), "--vertices", str(cfile)])


def test_certify_peels_an_address_prefix(tmp_path, capsys):
    candidates = [
        {"point": ["0", "0"], "period": [1]},
        {"point": ["1", "0"], "prefix": [2], "period": [2]},
        {"point": ["0", "1"], "prefix": [], "period": [3]},
    ]
    assert _certify(tmp_path, candidates) == 0
    assert "CERTIFIED: 3 vertices" in capsys.readouterr().out

    candidates[1]["prefix"] = [3]
    assert _certify(tmp_path, candidates) == 0
    out = capsys.readouterr().out
    assert "[FAIL] address_evaluation" in out
    assert "NOT CERTIFIED: check 'address_evaluation' failed" in out


@pytest.mark.parametrize(
    "item, message",
    [
        (7, "candidate 1: must be an object"),
        ({"period": [2]}, "candidate 1: 'point' must be a list of 2 entries"),
        ({"point": ["1"], "period": [2]}, "candidate 1: 'point' must be a list of 2 entries"),
        ({"point": ["1", "0"]}, "candidate 1: 'period' must be a nonempty list of digits 1..3"),
        ({"point": ["1", "0"], "period": ["a"]}, "candidate 1: 'period' must be a nonempty"),
        ({"point": ["1", "0"], "period": [True]}, "candidate 1: 'period' must be a nonempty"),
        ({"point": ["1", "0"], "prefix": 2, "period": [2]}, "candidate 1: 'prefix' must be a list"),
    ],
)
def test_certify_rejects_malformed_candidates(tmp_path, capsys, item, message):
    candidates = [{"point": ["0", "0"], "period": [1]}, item]
    assert _certify(tmp_path, candidates) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


def test_render_deterministic(tmp_path, capsys):
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    args = ["render", str(MODELS / "sierpinski.json"), "--steps", "10", "--points", "500", "--seed", "7"]
    assert cli.main(args + ["--out", str(svg1)]) == 0
    assert cli.main(args + ["--out", str(svg2)]) == 0
    capsys.readouterr()
    assert svg1.read_bytes() == svg2.read_bytes()
    text = svg1.read_text()
    assert text.startswith("<?xml")
    assert text.count("<circle") >= 500


def test_render_twin_dragon_bounds(tmp_path, capsys):
    svg = tmp_path / "dragon.svg"
    code = cli.main(
        ["render", str(MODELS / "twindragon.json"), "--steps", "16", "--points", "1000",
         "--out", str(svg)]
    )
    capsys.readouterr()
    assert code == 0
    match = re.search(r'viewBox="([-\d.]+) ([-\d.]+) ([\d.]+) ([\d.]+)"', svg.read_text())
    x0, y0, w, h = (float(g) for g in match.groups())
    assert -2.5 <= x0 and x0 + w <= 2.5
    assert -2.5 <= y0 and y0 + h <= 2.5


def test_render_single_map_model(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "matrix": [["1/2", "0"], ["0", "1/2"]],
        "digits": [[0, 0]],
        "arithmetic": "rational",
    }
    path = write_model(tmp_path, "m.json", doc)
    svg = tmp_path / "point.svg"
    assert cli.main(["render", path, "--steps", "6", "--points", "10", "--out", str(svg)]) == 0
    capsys.readouterr()
    assert "<circle" in svg.read_text()


def test_exit_code_on_missing_file(capsys):
    assert cli.main(["analyze", "/nonexistent/model.json"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_exit_code_on_unknown_flag(capsys):
    assert cli.main(["analyze", str(MODELS / "sierpinski.json"), "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_json_with_multiple_models_rejected(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main(
        ["analyze", str(MODELS / "sierpinski.json"), str(MODELS / "diagonal.json"),
         "--json", str(out)]
    )
    assert code == 1
    assert "single model" in capsys.readouterr().err


def test_analyze_multiple_models_sorted(capsys):
    code = cli.main(["analyze", str(MODELS / "sierpinski.json"), str(MODELS / "diagonal.json")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "diagonal" in lines[0] and "sierpinski" in lines[1]  # sorted by path


def test_cross_process_determinism(tmp_path):
    """Reports and SVGs are byte-identical across separate interpreter runs."""
    import subprocess
    import sys as _sys

    model = str(MODELS / "twindragon.json")
    outputs = []
    for tag in ("x", "y"):
        report = tmp_path / f"report_{tag}.json"
        svg = tmp_path / f"render_{tag}.svg"
        subprocess.run(
            [_sys.executable, "-m", "fractalhull.cli", "analyze", model, "--json", str(report)],
            check=True, capture_output=True,
        )
        subprocess.run(
            [_sys.executable, "-m", "fractalhull.cli", "render", model,
             "--steps", "8", "--points", "200", "--out", str(svg)],
            check=True, capture_output=True,
        )
        outputs.append((report.read_bytes(), svg.read_bytes()))
    assert outputs[0] == outputs[1]


def test_float_mode_polytope_is_uncertified(tmp_path, capsys):
    doc = sierpinski_doc()
    doc["arithmetic"] = "float"
    doc["matrix"] = [[0.5, 0.0], [0.0, 0.5]]
    path = write_model(tmp_path, "m.json", doc)
    out = tmp_path / "r.json"
    assert cli.main(["analyze", path, "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "uncertified" in stdout
    report = json.loads(out.read_text())
    assert report["decision"]["verdict"] == "POLYTOPE"
    assert report["decision"]["certified"] is False


def test_float_model_without_a_seed_tetrahedron_is_an_error(tmp_path, capsys):
    """A float 3D model whose hull steps are too thin for the seed tolerances."""
    doc = {
        "dimension": 3,
        "matrix": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
        "digits": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.4, 3e-9]],
        "arithmetic": "float",
    }
    path = write_model(tmp_path, "thin.json", doc)
    assert cli.main(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no seed tetrahedron clears the float tolerances")
    assert "Traceback" not in captured.err


def _float_doc(matrix_entry="1/2", digit_entry=1):
    return {
        "dimension": 2,
        "matrix": [[matrix_entry, 0], [0, "1/2"]],
        "digits": [[0, 0], [digit_entry, 0], [0, 1]],
        "arithmetic": "float",
    }


def _analyze_error(tmp_path, capsys, doc):
    """(exit code, stderr) of analyze on the model document doc."""
    code = cli.main(["analyze", write_model(tmp_path, "bad.json", doc)])
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return code, captured.err


def test_float_3d_model_with_wide_facets_matches_its_rational_twin(tmp_path, capsys):
    """The float mirror of spatial benchmark model s002.  Its facet re-hull
    once held plane coordinates of length**2 and length**4 to an area
    tolerance in those units, collapsed a facet of an early step and exited 1."""
    doc = {
        "dimension": 3,
        "matrix": [["0", "1/4", "1/8"], ["-1/4", "-1/4", "-1/4"], ["0", "-1/4", "1/8"]],
        "digits": [[0, 0, 0], [2, 2, 3], ["1/4", "-1/4", -1], [2, 0, "-3/4"]],
    }
    for mode in ("rational", "float"):
        path = write_model(tmp_path, f"{mode}.json", {**doc, "arithmetic": mode})
        assert cli.main(["analyze", path]) == 0
        assert capsys.readouterr().out == "NOT A POLYTOPE (no stabilization within k=2)\n"


@pytest.mark.parametrize(
    "dimension, magnitude", [(2, 1e155), (3, 1e102), (3, 1e103)]
)
def test_float_model_past_the_float_range_is_an_error(tmp_path, capsys, dimension, magnitude):
    """Squares and cubes of such coordinates once raised an untyped
    OverflowError (a traceback) in the float hull; now each command names
    the magnitude of the first step, half that of the digits."""
    eye = [[int(i == j) for j in range(dimension)] for i in range(dimension)]
    doc = {
        "dimension": dimension,
        "matrix": [["1/2" if c else 0 for c in row] for row in eye],
        "digits": [[0] * dimension] + [[magnitude * c for c in row] for row in eye],
        "arithmetic": "float",
    }
    path = write_model(tmp_path, "big.json", doc)
    for command in (["analyze"], ["iterate", "--steps", "3"], ["render", "--out", str(tmp_path / "f.svg")]):
        assert cli.main([command[0], path, *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: float coordinates reach {magnitude / 2:g}; ") and "Traceback" not in err


def test_float_3d_model_with_a_flat_step_never_raises_an_untyped_error(tmp_path, capsys):
    """Step 2 is a flat quadrilateral in 3D, whose plane coordinates are
    about 1e12 and 1e24.  A turn tolerance in mixed units once collapsed it
    to two vertices with affine_dim 2, and analyze died with IndexError."""
    doc = {
        "dimension": 3,
        "matrix": [[-1 / 15, -2 / 15, -2 / 3], [1 / 6, 0, -4 / 9], [4 / 15, 1 / 2, -1 / 3]],
        "digits": [[0, 0, 0], [0, 1333333.3, 200000]],
        "arithmetic": "float",
    }
    path = write_model(tmp_path, "flat.json", doc)
    assert cli.main(["iterate", path, "--steps", "2"]) == 0
    assert [row.split("\t")[:2] for row in capsys.readouterr().out.splitlines()[1:]] == [["1", "2"], ["2", "4"]]
    code = cli.main(["analyze", path])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 1:
        assert captured.out == "" and captured.err.startswith("error: ")
    else:
        assert code == 0 and "POLYTOPE" in captured.out


def test_float_zero_denominator_is_an_error(tmp_path, capsys):
    code, err = _analyze_error(tmp_path, capsys, _float_doc(matrix_entry="1/0"))
    assert code == 1
    assert err.startswith("error: zero denominator in entry '1/0'")


def test_float_nan_entry_is_an_error(tmp_path, capsys):
    for doc in (_float_doc(matrix_entry="nan"), _float_doc(digit_entry="nan")):
        code, err = _analyze_error(tmp_path, capsys, doc)
        assert code == 1
        assert err.startswith("error: float mode rejects entry 'nan': not a finite number")


def test_float_inf_entry_is_an_error(tmp_path, capsys):
    code, err = _analyze_error(tmp_path, capsys, _float_doc(digit_entry="inf"))
    assert code == 1
    assert err.startswith("error: float mode rejects entry 'inf': not a finite number")
