"""Command-line interface: model files, reports, and rendering.

Subcommands:
  analyze <model> [--json out.json]   full decision plus cross-check
  bound <model>                       eigenvalue classes, U and the step bound
  iterate <model> --steps K           vertex-count table (tab separated)
  oracle <model> --steps K            recursion vs brute-force comparison
  certify <model> --vertices FILE     certify an external candidate list
  render <model> --steps N --points M --out F.svg [--seed S]

Exit codes: 0 completed (any verdict), 1 input or validation error,
2 internal disagreement (cross-check or oracle mismatch).

Rational scalars serialize as "p/q" strings to keep reports exact; a given
model file and seed always reproduce byte-identical reports and SVG output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from . import decide as decide_mod
from ._version import __version__
from .errors import FractalHullError
from .ifs import EpAddress, IfsModel, brute_force_vertices, validate_model
from .linalg import FLOAT, RATIONAL, ToleranceConfig, make_vector, vec_add, vec_sub
from .spectral import compute_step_bound
from .render import render_svg

_INT_RE = re.compile(r"^[+-]?\d+$")
_FRACTION_RE = re.compile(r"^[+-]?\d+\s*/\s*\d+$")

_KNOWN_OPTIONS = {"denom_max", "angle_tol", "eps_geom", "bound_mode", "enum_budget", "seed"}
_INT_OPTIONS = ("denom_max", "enum_budget", "seed")


class ModelOptions(NamedTuple):
    bound_mode: str = "product"
    enum_budget: int = 10**6
    seed: int = 0


class ModelFileError(FractalHullError):
    """Model file is malformed or violates the schema."""


def parse_entry(raw, mode):
    """One scalar entry: integer, "p/q" string, or (float mode only) decimal.

    Rational mode accepts only exactly-representable inputs: JSON integers
    and integer or "p/q" strings.  Decimal notation is rejected there because
    the matching binary float would not equal the intended rational (write
    "1/10", not "0.1").  Float mode rejects a zero denominator and any entry
    that is not a finite float (nan, inf, or an integer past the float range).
    """
    if isinstance(raw, bool):
        raise ModelFileError(f"entry {raw!r} is not a number")
    text = raw.strip() if isinstance(raw, str) else raw
    if isinstance(text, str) and _FRACTION_RE.match(text):
        num, den = map(int, text.split("/"))
        if den == 0:
            raise ModelFileError(f"zero denominator in entry {raw!r}")
        text = Fraction(num, den)
    if mode == RATIONAL:
        if isinstance(text, Fraction):
            return text
        if isinstance(text, int) or isinstance(text, str) and _INT_RE.match(text):
            return Fraction(text)
        raise ModelFileError(
            f"rational mode rejects entry {raw!r}: use an integer or a 'p/q' string"
        )
    try:
        value = float(text)  # float(Fraction(p, q)) is p / q, correctly rounded
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"cannot parse entry {raw!r} as a number") from exc
    except OverflowError as exc:
        raise ModelFileError(f"entry {raw!r} is too large for a float") from exc
    if not math.isfinite(value):
        raise ModelFileError(f"float mode rejects entry {raw!r}: not a finite number")
    return value


def parse_model(path):
    """Load and validate a model file; returns (IfsModel, ModelOptions)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError("model file must be a JSON object")

    mode = doc.get("arithmetic", RATIONAL)
    if mode not in (RATIONAL, FLOAT):
        raise ModelFileError(f"unknown arithmetic {mode!r}; use 'rational' or 'float'")
    dimension = doc.get("dimension")
    if type(dimension) is not int:  # a JSON true or false is a bool, which is an int
        raise ModelFileError("'dimension' must be an integer")
    matrix = doc.get("matrix")
    digits = doc.get("digits")
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise ModelFileError("'matrix' must be a list of rows")
    if not isinstance(digits, list) or not all(isinstance(d, list) for d in digits):
        raise ModelFileError("'digits' must be a list of vectors")
    if len(matrix) != dimension or any(len(r) != dimension for r in matrix):
        raise ModelFileError(f"'matrix' must be {dimension}x{dimension}")
    if any(len(d) != dimension for d in digits):
        raise ModelFileError(f"every digit must have {dimension} entries")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ModelFileError("'options' must be an object")
    unknown = set(options) - _KNOWN_OPTIONS
    if unknown:
        raise ModelFileError(f"unknown option keys: {sorted(unknown)}")
    try:
        for key, value in options.items():
            if isinstance(value, bool):
                raise ValueError(f"{key} must not be a boolean")
            if key != "bound_mode" and not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be a JSON number, not {value!r}")
            if key in _INT_OPTIONS and isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{key} must be an integer, not {value!r}")
        tol = ToleranceConfig(
            eps_geom=float(options.get("eps_geom", 1e-9)),
            angle_tol=float(options.get("angle_tol", 1e-9)),
            denom_max=int(options.get("denom_max", 64)),
        )
        opts = ModelOptions(
            bound_mode=options.get("bound_mode", "product"),
            enum_budget=int(options.get("enum_budget", 10**6)),
            seed=int(options.get("seed", 0)),
        )
        if opts.enum_budget < 1:
            raise ValueError("enum_budget must be at least 1")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"invalid option value: {exc}") from exc
    if opts.bound_mode not in ("product", "lcm"):
        raise ModelFileError(f"unknown bound_mode {opts.bound_mode!r}")

    parsed_matrix = [[parse_entry(v, mode) for v in row] for row in matrix]
    parsed_digits = [[parse_entry(v, mode) for v in d] for d in digits]
    model = validate_model(parsed_matrix, parsed_digits, mode=mode, tol=tol)
    return model, opts


_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar(value):
    """One JSON scalar as json.dumps writes it."""
    return _SCALARS.get(type(value), json.dumps)(value)


def _block(items, pad, brackets="[]"):
    """Serialized items in json's indent=2 layout; pad indents the opening line."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def _object(pad, **fields):
    return _block([f'"{key}": {value}' for key, value in fields.items()], pad, "{}")


def write_report(report, model, path):
    """Write the machine-readable report (deterministic, no timing).

    The text is json.dumps(document, indent=2) of the report schema, written
    straight from the report; rational coordinates are "p/q" strings.
    """
    rational, shift = model.mode == RATIONAL, model.normalization_shift
    shifted = any(shift) or not rational  # a zero shift still turns a float -0.0 into 0.0

    def coords(point, pad):
        if rational:
            return _block([f'"{c.numerator}/{c.denominator}"' for c in point], pad)
        return _block([_scalar(float(c)) for c in point], pad)

    decision, bound, section = report.decision, report.bound, report.cross_check
    result = getattr(section, "result", None)
    u_entries = [
        _object("      ", re=_scalar(c.value.real), im=_scalar(c.value.imag),
                modulus=_scalar(c.modulus), p=_scalar(c.rational_angle[0]),
                n=_scalar(c.rational_angle[1]))
        for c in getattr(bound, "classes", ())
    ]
    counts = [
        _object("    ", i=_scalar(row.i), count=_scalar(row.count),
                hausdorff_delta=_scalar(row.hausdorff_delta))
        for row in report.counts
    ]
    vertices = [
        _object("    ", point=coords(vec_add(point, shift) if shifted else point, "      "),
                prefix=_block(list(map(str, ep.prefix)), "      "),
                period=_block(list(map(str, ep.period)), "      "))
        for point, ep in decision.vertices or ()
    ]
    normals = [
        _object("      ", normal=coords(check.normal, "        "), k_found=_scalar(check.k_found))
        for check in getattr(result, "checks", ())
    ]
    text = _object(
        "",
        version=_scalar(report.version),
        decision=_object(
            "  ", verdict=_scalar(decision.verdict), certified=_scalar(decision.certified),
            stabilization_index=_scalar(decision.stabilization_index),
            vertex_count=_scalar(None if decision.vertices is None else len(decision.vertices)),
            reason=_scalar(decision.reason),
        ),
        bound=_object("  ", U=_block(u_entries, "    "), k=_scalar(getattr(bound, "k", None)),
                      mode=_scalar(getattr(bound, "bound_mode", None))),
        counts=_block(counts, "  "),
        vertices=_block(vertices, "  "),
        sw_check=_object(
            "  ", status=_scalar(getattr(section, "status", "not_compared")),
            verdict=_scalar(getattr(result, "verdict", None)),
            k_cap=_scalar(getattr(result, "k_cap", None)), normals=_block(normals, "    "),
        ),
        warnings=_block(list(map(_scalar, report.warnings)), "  "),
    )
    with open(path, "wb") as handle:  # the text is ASCII: every string is escaped
        handle.write(f"{text}\n".encode())


def _decision_line(decision: decide_mod.Decision, report: decide_mod.Report, model: IfsModel):
    if decision.verdict == decide_mod.VERDICT_POLYTOPE:
        kind = "certified" if decision.certified else "numerically consistent, uncertified"
        k = report.bound.k
        return (
            f"POLYTOPE ({kind}), {len(decision.vertices)} vertices, "
            f"i={decision.stabilization_index}, k={k}"
        )
    if decision.verdict == decide_mod.VERDICT_EMPTY_U:
        return f"NOT A POLYTOPE (U empty, denominators <= {model.tol.denom_max})"
    if decision.verdict == decide_mod.VERDICT_NO_STABILIZATION:
        return f"NOT A POLYTOPE (no stabilization within k={report.bound.k})"
    return f"INCONCLUSIVE ({decision.reason})"


def _cmd_analyze(args):
    if args.json and len(args.models) > 1:
        raise ModelFileError("--json accepts a single model file")
    exit_code = 0
    for path in sorted(args.models):
        model, opts = parse_model(path)
        decision, report = decide_mod.analyze_model(model, bound_mode=opts.bound_mode)
        prefix = f"{path}: " if len(args.models) > 1 else ""
        print(prefix + _decision_line(decision, report, model))
        if report.cross_check is not None and report.cross_check.status == "disagree":
            exit_code = 2
        if args.json:
            write_report(report, model, args.json)
            print(f"report written to {args.json}")
    return exit_code


def _cmd_bound(args):
    model, opts = parse_model(args.model)
    classes = decide_mod.inverse_eigenvalue_classes(model)
    print("eigenvalues of the inverse matrix:")
    for cls in classes:
        if cls.rational_angle is not None:
            p, n = cls.rational_angle
            angle = f"angle = pi*{p}/{n}"
        else:
            angle = "angle not a rational multiple of pi (within bounds)"
        print(f"  {cls.value.real:+.12g}{cls.value.imag:+.12g}i  |.|={cls.modulus:.12g}  {angle}")
    bound = compute_step_bound(classes, opts.bound_mode)
    if bound is None:
        print("U is empty: not a polytope (no hull iteration needed)")
    else:
        dens = "*".join(str(c.rational_angle[1]) for c in bound.classes)
        print(f"U has {len(bound.classes)} member(s); k = 2*{dens} = {bound.k} ({bound.bound_mode} mode)")
    return 0


def _cmd_iterate(args):
    model, _opts = parse_model(args.model)
    print("i\tcount\thausdorff_delta")
    for _, row in islice(decide_mod.search_rows(model), args.steps):
        print(f"{row.i}\t{row.count}\t{row.hausdorff_delta!r}")
    return 0


def _cmd_oracle(args):
    model, opts = parse_model(args.model)
    ledger, _ = next(islice(decide_mod.hull_steps(model), args.steps, None))
    oracle_poly = brute_force_vertices(model, args.steps, budget=opts.enum_budget)
    recursion = set(ledger.points)
    enumeration = set(oracle_poly.vertex_set)
    if recursion == enumeration:
        print(f"match: {len(recursion)} vertices")
        return 0
    only_rec = sorted(recursion - enumeration)
    only_enum = sorted(enumeration - recursion)
    print(f"MISMATCH: recursion has {len(recursion)} vertices, enumeration {len(enumeration)}")
    if only_rec:
        print(f"  only in recursion: {only_rec[:5]}")
    if only_enum:
        print(f"  only in enumeration: {only_enum[:5]}")
    return 2


def _candidate(model, i, item):
    """(EpAddress, normalized point) of candidate-file item i, each field checked."""

    def digits(key, least):
        value, q = item.get(key, []), model.digit_count
        if not isinstance(value, list) or len(value) < least or not all(
            type(j) is int and 1 <= j <= q for j in value  # bools are not digits
        ):
            kind = "a nonempty list" if least else "a list"
            raise ModelFileError(f"candidate {i}: {key!r} must be {kind} of digits 1..{q}")
        return tuple(value)

    if not isinstance(item, dict):
        raise ModelFileError(f"candidate {i}: must be an object")
    point = item.get("point")
    if not isinstance(point, list) or len(point) != model.dim:
        raise ModelFileError(f"candidate {i}: 'point' must be a list of {model.dim} entries")
    ep = EpAddress(digits("prefix", 0), digits("period", 1))
    point = make_vector([parse_entry(v, model.mode) for v in point], model.mode)
    return ep, vec_sub(point, model.normalization_shift)


def _cmd_certify(args):
    model, _opts = parse_model(args.model)
    try:
        with open(args.vertices, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read candidate list: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise ModelFileError("candidate file must be a nonempty JSON list")
    candidates = [_candidate(model, i, item) for i, item in enumerate(doc)]
    result = decide_mod.certify_polytope(model, candidates)
    for check in result.checks:
        print(f"  [{'ok' if check.ok else 'FAIL'}] {check.name}: {check.detail}")
    if result.certified:
        print(f"CERTIFIED: {len(candidates)} vertices")
    elif result.ok:
        print(f"CONSISTENT (uncertified, {model.mode} mode): {len(candidates)} vertices")
    else:
        print(f"NOT CERTIFIED: check {result.failure!r} failed")
    return 0


def _cmd_render(args):
    model, opts = parse_model(args.model)
    seed = opts.seed if args.seed is None else args.seed
    render_svg(model, args.steps, args.points, seed, args.out, opts.bound_mode)
    print(f"wrote {args.out}")
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the exit-code contract (1)."""

    def error(self, message):
        raise _UsageError(message)


def _count(text):
    """argparse type of --steps and --points: an integer >= 0."""
    value = int(text) if _INT_RE.match(text.strip()) else -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}: expected an integer >= 0")
    return value


def _points(text):
    """argparse type of render --points: a count of at most 10^6."""
    value = _count(text)
    if value > 10**6:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}: expected at most 10^6 points")
    return value


@functools.cache
def build_parser():
    parser = _Parser(
        prog="fractalhull",
        description="Decide whether the convex hull of a self-affine fractal is a polytope.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full decision with cross-check")
    p.add_argument("models", nargs="+", help="model JSON file(s)")
    p.add_argument("--json", help="write the machine-readable report here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bound", help="eigenvalue classes and the step bound only")
    p.add_argument("model")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("iterate", help="vertex count table for the first K steps")
    p.add_argument("model")
    p.add_argument("--steps", type=_count, required=True)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("oracle", help="compare hull recursion against brute-force enumeration")
    p.add_argument("model")
    p.add_argument("--steps", type=_count, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("certify", help="certify an externally supplied vertex list")
    p.add_argument("model")
    p.add_argument("--vertices", required=True, help="JSON list of {point, prefix, period}")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("render", help="render sampled attractor points with hull overlays")
    p.add_argument("model")
    p.add_argument("--steps", type=_count, default=12)
    p.add_argument("--points", type=_points, default=20000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FractalHullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
