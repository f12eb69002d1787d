"""The bounded decision pipeline, extraction, certification, cross-check."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F
from itertools import islice, pairwise
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    diag_model,
    float_mirror,
    rational_models,
    rot1_model,
    sierpinski_model,
    stable_candidates,
    suite5_models,
    twin_dragon_model,
)
from fractalhull import decide as decide_mod
from fractalhull.cli import parse_model
from fractalhull.decide import (
    VERDICT_EMPTY_U,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_STABILIZATION,
    VERDICT_POLYTOPE,
    analyze_model,
    certify_polytope,
    cross_check,
    decide_polytope,
    extract_ep_addresses,
    hull_steps,
    inverse_eigenvalue_classes,
)
from fractalhull.errors import ExtractionFailure
from fractalhull import hull as hull_mod
from fractalhull import ifs as ifs_mod
from fractalhull import linalg as linalg_mod
from fractalhull.hull import contains, convex_hull, vertex_map
from fractalhull.ifs import (
    EpAddress,
    VertexLedger,
    brute_force_vertices,
    evaluate_ep_address,
    is_address_value,
    tail_error_bound,
    validate_model,
)
from fractalhull.linalg import RATIONAL, dot, mat_vec, to_lattice, vec_add, vec_scale, vec_sub
from fractalhull.spectral import compute_step_bound

MODELS = Path(__file__).resolve().parent.parent / "models"


def _stable_pair(labels, parents):
    """A hand-built pair of steps over the unit square and its double.

    Vertex i of the doubled square has the address (labels[i], parents[i] + 1),
    so its parent is corner parents[i] of the unit square, whose address is
    (parents[i] + 1,).  The support map sends corner i to doubled corner i.
    """
    square = convex_hull([(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))])
    double = convex_hull([vec_scale(F(2), v) for v in square.vertices])
    prev = VertexLedger(1, square, tuple((i + 1,) for i in range(4)))
    return prev, VertexLedger(2, double, tuple(zip(labels, (p + 1 for p in parents))))


def _addresses_by_corner(labels, parents):
    prev, ledger = _stable_pair(labels, parents)
    by_point = dict(zip(ledger.points, extract_ep_addresses(prev, ledger)))
    return [by_point[v] for v in ledger.poly.vertices]


def test_extraction_examples():
    # the map sends corner 0 to 1, 1 to 2, 2 back to 1, and fixes 3
    parents = (1, 2, 1, 3)
    assert _addresses_by_corner((1, 2, 3, 2), parents) == [
        EpAddress((1,), (2, 3)),
        EpAddress((), (2, 3)),
        EpAddress((), (3, 2)),
        EpAddress((), (2,)),
    ]
    # a prefix that ends like its period is folded into the period
    assert _addresses_by_corner((3, 2, 3, 2), parents)[0] == EpAddress((), (3, 2))
    # the cycle 1 -> 2 -> 1 reads (1, 1), whose primitive period is (1,)
    addresses = _addresses_by_corner((2, 1, 1, 2), parents)
    assert addresses[:2] == [EpAddress((2,), (1,)), EpAddress((), (1,))]


def test_extraction_failure():
    prev, ledger = _stable_pair((1, 2, 3, 4), (0, 1, 2, 3))
    # every diagonal support direction of the square ties two diamond vertices
    diamond = convex_hull([(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))])
    with pytest.raises(ExtractionFailure, match="ties a vertex"):
        extract_ep_addresses(prev, ledger._replace(poly=diamond))
    # two square corners are supported by the same kite vertex
    kite = convex_hull([(F(-1), F(0)), (F(0), F(-2)), (F(10), F(10)), (F(-2), F(3))])
    assert len(set(vertex_map(prev.poly, kite))) < 4
    with pytest.raises(ExtractionFailure, match="not a bijection"):
        extract_ep_addresses(prev, ledger._replace(poly=kite))


def test_hull_steps_computes_only_the_steps_consumed(monkeypatch):
    """Sierpinski stabilizes at i = 1, so decide_polytope takes steps 1 and 2 and no more."""
    real_step = decide_mod._step
    calls = []

    def step(model, ledger):
        calls.append(ledger.step)
        return real_step(model, ledger)

    monkeypatch.setattr(decide_mod, "_step", step)
    decision, report = decide_polytope(sierpinski_model())
    assert decision.stabilization_index == 1
    assert [row.i for row in report.counts] == [1, 2]
    assert calls == [0, 1]


def test_non_bijective_vertex_map_is_inconclusive(monkeypatch):
    """A stable pair whose support map is not a bijection ends INCONCLUSIVE with a reason."""
    model = sierpinski_model()
    real_step = decide_mod._step
    # sierpinski's step-1 triangle supports (-1,-1), (1,0) and (0,1); the last two
    # both pick (10, 10)
    fake = convex_hull([(F(-1), F(0)), (F(0), F(-2)), (F(10), F(10))])

    def step(model, ledger):
        if ledger.step == 0:
            return real_step(model, ledger)
        return VertexLedger(2, fake, ((1, 1), (2, 2), (3, 3))), fake

    monkeypatch.setattr(decide_mod, "_step", step)
    decision, report = decide_polytope(model)
    assert decision.verdict == VERDICT_INCONCLUSIVE
    assert decision.stabilization_index == 1
    assert report.certification is None
    assert decision.reason == (
        "stabilization at i=1 but address extraction failed: "
        "support map from step 1 to 2 is not a bijection"
    )


def test_vertex_map_segment():
    # T = -1/2 swaps the ends of [-2/3, 1/3]: each end's period is a 2-cycle
    model = validate_model([[F(-1, 2)]], [[0], [1]])
    decision, _ = decide_polytope(model)
    assert decision.verdict == VERDICT_POLYTOPE and decision.certified
    assert decision.vertices == (
        ((F(-2, 3),), EpAddress((), (2, 1))),
        ((F(1, 3),), EpAddress((), (1, 2))),
    )
    # a segment inside the plane keeps each end fixed
    model = validate_model([[F(1, 2), 0], [0, F(1, 3)]], [[0, 0], [1, 0]])
    decision, _ = decide_polytope(model)
    assert decision.verdict == VERDICT_POLYTOPE and decision.certified
    assert [ep.period for _, ep in decision.vertices] == [(1,), (2,)]


def test_vertex_map_polygon_in_3d():
    # a quarter turn in the plane z = 0: the hull is an octagon inside 3D
    model = validate_model(
        [[0, F(-1, 2), 0], [F(1, 2), 0, 0], [0, 0, F(1, 3)]], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    )
    polys = [convex_hull(ledger.points) for ledger, _ in islice(hull_steps(model), 1, 6)]
    assert polys[-2].affine_dim == 2 and polys[-2].ambient_dim == 3
    assert sorted(vertex_map(polys[-2], polys[-1])) == list(range(len(polys[-1].vertices)))
    decision, _ = decide_polytope(model)
    assert decision.verdict == VERDICT_POLYTOPE and decision.certified
    assert decision.stabilization_index == 4
    assert len(decision.vertices) == 8
    assert all(p[2] == 0 and len(ep.period) == 4 for p, ep in decision.vertices)


# --- reference: the vertex map as extraction built it before hull.vertex_map ---


def _reference_support_map(p, q):
    """{vertex v of p: the vertex of q with the same support direction, or None on a tie}."""
    p_pts, q_pts = (r.vertices if r.lattice is None else r.lattice[0] for r in (p, q))
    out = {}
    for v, u in zip(p.vertices, hull_mod._normal_sums(p, p_pts)):
        values = [dot(u, x) for x in q_pts]
        best = max(values)
        out[v] = q.vertices[values.index(best)] if values.count(best) == 1 else None
    return out


def _reference_parallel_cycles(p, q):
    """Whether exact planar p and q have parallel, equally oriented edges i."""
    (ps, _), (qs, _) = p.lattice, q.lattice
    if len(ps) != len(qs):
        return False
    for (ax, ay), (bx, by), (cx, cy), (dx, dy) in zip(ps, ps[1:] + ps[:1], qs, qs[1:] + qs[:1]):
        ux, uy, wx, wy = bx - ax, by - ay, dx - cx, dy - cy
        if ux * wy != uy * wx or ux * wx + uy * wy < 0:
            return False
    return True


def _reference_vertex_map(prev, poly):
    """Index of poly's matching vertex per vertex of prev: parallel exact planar
    cycles map i to i, every other pair goes through the support map and a
    point-to-index dict."""
    exact = poly.lattice is not None and prev.lattice is not None
    if exact and poly.ambient_dim == 2 and _reference_parallel_cycles(prev, poly):
        return list(range(len(poly.vertices)))
    index = {point: i for i, point in enumerate(poly.vertices)}
    return [index.get(point) for point in _reference_support_map(prev, poly).values()]


def _stable_polytope_pairs(model):
    """(step i, step i + 1) polytopes of the first stable pair within the bound, if any."""
    bound = compute_step_bound(tuple(inverse_eigenvalue_classes(model)), "product")
    if bound is None:
        return []
    for (prev, p), (ledger, q) in pairwise(islice(hull_steps(model), bound.k + 2)):
        if ledger.step >= 2 and prev.count == ledger.count:
            return [(p, q)]
    return []


def test_vertex_map_matches_frozen_reference():
    models = suite5_models()
    models = models + [float_mirror(model) for model in models] + _spatial_models()
    pairs = [pair for model in models for pair in _stable_polytope_pairs(model)]
    square, double = _stable_pair((1, 2, 3, 4), (0, 1, 2, 3))
    diamond = convex_hull([(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)), (F(0), F(-1))])
    kite = convex_hull([(F(-1), F(0)), (F(0), F(-2)), (F(10), F(10)), (F(-2), F(3))])
    pairs += [(square.poly, q) for q in (double.poly, diamond, kite)]
    kinds = Counter()
    for p, q in pairs:
        got = vertex_map(p, q)
        assert got == _reference_vertex_map(p, q)
        kinds[p.lattice is not None, p.ambient_dim, None in got] += 1
    # exact and float planar pairs, exact 3D pairs, and a tie among them
    assert kinds[True, 2, False] and kinds[False, 2, False] and kinds[True, 3, False]
    assert sum(n for (_, _, tie), n in kinds.items() if tie)


def test_decide_sierpinski():
    decision, report = decide_polytope(sierpinski_model())
    assert decision.verdict == VERDICT_POLYTOPE
    assert decision.certified
    assert decision.stabilization_index == 1
    assert report.bound.k == 2
    points = {p for p, _ in decision.vertices}
    assert points == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}
    periods = {p: ep.period for p, ep in decision.vertices}
    assert periods[(F(0), F(0))] == (1,)
    assert periods[(F(1), F(0))] == (2,)
    assert periods[(F(0), F(1))] == (3,)
    assert all(ep.prefix == () for _, ep in decision.vertices)


def test_decide_diagonal():
    decision, report = decide_polytope(diag_model())
    assert decision.verdict == VERDICT_NO_STABILIZATION
    assert report.bound.k == 2
    assert [row.count for row in report.counts] == [3, 4, 5]


def test_decide_twin_dragon():
    decision, report = decide_polytope(twin_dragon_model())
    assert decision.verdict == VERDICT_POLYTOPE
    assert decision.certified
    assert decision.stabilization_index <= 32
    assert report.bound.k == 32
    oracle = brute_force_vertices(twin_dragon_model(), decision.stabilization_index + 1)
    assert len(decision.vertices) == len(oracle.vertices)


def test_decide_twin_dragon_lcm_mode():
    decision, report = decide_polytope(twin_dragon_model(), bound_mode="lcm")
    assert report.bound.k == 8
    assert decision.verdict == VERDICT_POLYTOPE


def test_decide_rotation_empty_u():
    decision, report = decide_polytope(rot1_model())
    assert decision.verdict == VERDICT_EMPTY_U
    assert any("possible only if the ambient dimension is even" in w for w in report.warnings)
    assert report.bound is None and report.counts == ()


def test_bounded_work():
    _, report = decide_polytope(diag_model())
    assert len(report.counts) <= report.bound.k + 1


def test_certify_sierpinski_candidates():
    model = sierpinski_model()
    candidates = [
        (EpAddress((), (1,)), (F(0), F(0))),
        (EpAddress((), (2,)), (F(1), F(0))),
        (EpAddress((), (3,)), (F(0), F(1))),
    ]
    result = certify_polytope(model, candidates)
    assert result.ok and result.certified
    assert [c.ok for c in result.checks] == [True, True, True]


def test_certify_dropped_vertex_fails_containment():
    model = sierpinski_model()
    candidates = [
        (EpAddress((), (1,)), (F(0), F(0))),
        (EpAddress((), (2,)), (F(1), F(0))),
    ]
    result = certify_polytope(model, candidates)
    assert not result.ok
    assert result.failure == "self_mapping"


def test_certify_interior_candidate_fails_extremality():
    model = sierpinski_model()
    candidates = [
        (EpAddress((), (1,)), (F(0), F(0))),
        (EpAddress((), (2,)), (F(1), F(0))),
        (EpAddress((), (3,)), (F(0), F(1))),
        (EpAddress((2,), (1,)), (F(1, 2), F(0))),  # midpoint of an edge
    ]
    result = certify_polytope(model, candidates)
    assert not result.ok
    assert result.failure == "extremality"


def test_certify_wrong_point_fails_evaluation():
    model = sierpinski_model()
    candidates = [
        (EpAddress((), (1,)), (F(0), F(0))),
        (EpAddress((), (2,)), (F(999, 1000), F(0))),
        (EpAddress((), (3,)), (F(0), F(1))),
    ]
    result = certify_polytope(model, candidates)
    assert not result.ok
    assert result.failure == "address_evaluation"


def _reference_self_mapping(model, points):
    """Check (c) with one Fraction contains() per image: (ok, detail)."""
    poly = convex_hull(points)
    escapes = [
        (point, j)
        for point in points
        for j, digit in enumerate(model.digits, start=1)
        if not contains(poly, mat_vec(model.matrix, vec_add(point, digit)))
    ]
    if not escapes:
        return True, "every image T(v + d_j) of a candidate vertex lies in the hull"
    point, j = escapes[0]
    return False, f"image of vertex {point} under digit {j} escapes the hull"


@settings(max_examples=100, deadline=None)
@given(rational_models(), st.data())
# degenerate hulls: a point, a segment in the plane, a polygon inside 3D
@example(validate_model([[F(1, 2), 0], [0, F(1, 3)]], [[1, 1]]), None)
@example(validate_model([[F(-1, 3), 0], [0, F(-1, 3)]], [[0, 0], [1, 2], [2, 4]]), None)
@example(validate_model([[0, F(-1, 2), 0], [F(1, 2), 0, 0], [0, 0, F(1, 3)]],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0]]), None)
# full-dimensional 3D hulls: a tetrahedron and a quarter turn about the z axis
@example(validate_model([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), None)
@example(validate_model([[0, F(-1, 2), 0], [F(1, 2), 0, 0], [0, 0, F(1, 2)]],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), None)
def test_integer_self_mapping_matches_fraction_contains(model, data):
    """Check (c) on integer facets gives the ok flag and detail of per-image contains()."""
    for candidates in _candidate_sets(model, data):
        check = certify_polytope(model, candidates).checks[2]
        points = [point for _, point in candidates]
        assert (check.ok, check.detail) == _reference_self_mapping(model, points)


@settings(max_examples=100, deadline=None)
@given(rational_models(), st.data())
@example(twin_dragon_model(), None)
@example(sierpinski_model(), None)
@example(validate_model([[0, F(-1, 2), 0], [F(1, 2), 0, 0], [0, 0, F(1, 2)]],
                        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), None)
def test_shift_closure_check_matches_fixed_point_tests(model, data):
    """Check (a) holds exactly when every candidate passes is_address_value."""
    for candidates in _candidate_sets(model, data):
        check = certify_polytope(model, candidates).checks[0]
        assert check.ok == all(is_address_value(model, ep, point) for ep, point in candidates)


def _candidate_sets(model, data):
    """Candidate lists for certification, each also mutated.

    The vertices of a stable pair of steps and the ledger of a few steps (each
    point the value of its address followed by digit 1), then every list with
    one point moved by 1/den, with the addresses of two candidates swapped and
    with one dropped.
    """
    stable = stable_candidates(model)
    sets = [stable] if stable else []
    step = data.draw(st.integers(1, 4)) if data else 3
    ledger, _ = next(islice(hull_steps(model), step, None))
    sets.append([(EpAddress(address, (1,)), point) for point, address in ledger.entries])

    def draw(strategy, default):
        return data.draw(strategy) if data else default

    for candidates in list(sets):
        n = len(candidates)
        i = draw(st.integers(0, n - 1), 0)
        axis = draw(st.integers(0, model.dim - 1), 0)
        nudge = F(draw(st.sampled_from((1, -1)), 1), to_lattice([p for _, p in candidates])[1])
        ep, point = candidates[i]
        moved = tuple(c + nudge if a == axis else c for a, c in enumerate(point))
        sets.append(candidates[:i] + [(ep, moved)] + candidates[i + 1 :])
        if n > 1:
            j = (i + draw(st.integers(1, n - 1), 1)) % n
            swapped = list(candidates)
            swapped[i], swapped[j] = (candidates[j][0], point), (ep, candidates[j][1])
            sets.append(swapped)
            sets.append(candidates[:i] + candidates[i + 1 :])
    return sets


def test_decide_evaluates_each_address_once(monkeypatch):
    """Rational decide solves once per cycle of shifts and certifies on integers alone.

    The 8 twin dragon vertices form one cycle under the shift, so one
    closed-form solve gives all their values, check (a) needs no fallback
    fixed-point test and check (c) no Fraction contains().
    """
    model, _opts = parse_model(str(MODELS / "twindragon.json"))
    solve, fixed_point = ifs_mod._periodic_value, decide_mod.is_address_value
    solves, fallbacks, contains_calls = [], [], []

    def counting_solve(model, period):
        solves.append(period)
        return solve(model, period)

    def counting_fixed_point(model, ep, point):
        fallbacks.append(ep)
        return fixed_point(model, ep, point)

    monkeypatch.setattr(ifs_mod, "_periodic_value", counting_solve)
    monkeypatch.setattr(decide_mod, "is_address_value", counting_fixed_point)
    monkeypatch.setattr(hull_mod, "contains", lambda *args, **kw: contains_calls.append(args))
    decision, _ = decide_polytope(model)
    assert decision.certified
    assert len(decision.vertices) == 8
    assert len(solves) == 1
    assert fallbacks == contains_calls == []


def test_float_decide_evaluates_each_address_once(monkeypatch):
    """Float decide evaluates each address alone, once, to decide.

    Deciding goes through the batch evaluate_ep_addresses, which in float mode
    calls ifs.evaluate_ep_address once per address.  The 8 vertices form one
    cycle under the shift, so check (a) tests each shift link against an
    image and evaluates none of them again.
    """
    model = validate_model([[0.5, -0.5], [0.5, 0.5]], [[0, 0], [1, 0]], mode="float")
    evaluate = ifs_mod.evaluate_ep_address
    evaluated = []

    def counting_evaluate(model, ep):
        evaluated.append(ep)
        return evaluate(model, ep)

    for module in (ifs_mod, decide_mod):
        monkeypatch.setattr(module, "evaluate_ep_address", counting_evaluate)
    decision, _ = decide_polytope(model)
    assert decision.verdict == VERDICT_POLYTOPE and not decision.certified
    assert len(decision.vertices) == 8
    assert Counter(evaluated) == Counter(ep for _, ep in decision.vertices)


def test_float_shift_link_off_by_1e_6_fails_address_evaluation():
    """Float check (a) holds each shift link to eps, so one moved candidate fails it."""
    model = validate_model([[0.5, -0.5], [0.5, 0.5]], [[0, 0], [1, 0]], mode="float")
    decision, _ = decide_polytope(model)
    candidates = [(ep, point) for point, ep in decision.vertices]
    assert certify_polytope(model, candidates).ok
    for i, (ep, (x, y)) in enumerate(candidates):
        moved = candidates[:i] + [(ep, (x + 1e-6, y))] + candidates[i + 1 :]
        result = certify_polytope(model, moved)
        assert not result.ok and result.failure == "address_evaluation"


def test_float_candidate_outside_shift_closure_is_evaluated(monkeypatch):
    """A float candidate whose shift is not a candidate is evaluated with evaluate_ep_address."""
    model = validate_model([[0.5, 0], [0, 0.5]], [[0, 0], [1, 0], [0, 1]], mode="float")
    corners = [(EpAddress((), (j,)), point) for j, point in ((1, (0.0, 0.0)), (2, (1.0, 0.0)))]
    outside = EpAddress((2, 3), (1,))  # value (1/2, 1/4); its shift ((3,), (1,)) is no candidate
    evaluate = decide_mod.evaluate_ep_address
    evaluated = []

    def counting_evaluate(model, ep):
        evaluated.append(ep)
        return evaluate(model, ep)

    monkeypatch.setattr(decide_mod, "evaluate_ep_address", counting_evaluate)
    for point, ok in (((0.5, 0.25), True), ((0.5, 0.25 + 1e-6), False)):
        result = certify_polytope(model, corners + [(outside, point)])
        assert result.checks[0].ok == ok
    assert evaluated == [outside, outside]


@pytest.mark.parametrize("model", [
    validate_model([[0.5, -0.5], [0.5, 0.5]], [[0, 0], [1, 0]], mode="float"),  # periods 8
    float_mirror(suite5_models()[36]),  # periods 1 and 2
])
def test_float_decide_builds_model_and_polytope_data_once(monkeypatch, model):
    """I - T^p is built once per period length, a hull's vertex scale once per hull.

    Float decide evaluates every address once (see above), and check (c)
    tests every image against the one candidate hull with contains(eps > 0).
    """
    mat_pow, coord_scale, contains = linalg_mod.mat_pow, hull_mod._coord_scale, hull_mod.contains
    powers, scaled, tested = [], [], []

    def counting_pow(matrix, p):
        powers.append(p)
        return mat_pow(matrix, p)

    def counting_scale(pts):
        scaled.append(pts)
        return coord_scale(pts)

    def counting_contains(poly, x, eps=0.0):
        if eps:
            tested.append(poly)
        return contains(poly, x, eps)

    monkeypatch.setattr(linalg_mod, "mat_pow", counting_pow)
    monkeypatch.setattr(hull_mod, "_coord_scale", counting_scale)
    monkeypatch.setattr(hull_mod, "contains", counting_contains)
    decision, _ = decide_polytope(model)
    assert decision.verdict == VERDICT_POLYTOPE
    assert sorted(powers) == sorted({len(ep.period) for _, ep in decision.vertices})
    assert len(tested) == len(decision.vertices) * model.digit_count
    assert all(poly is tested[0] for poly in tested)
    assert sum(pts is tested[0].vertices for pts in scaled) == 1


def test_hausdorff_skips_vertices_on_nested_steps(monkeypatch):
    """Bound-and-skip runs the full distance on about one vertex per direction.

    decide takes its deltas from nested_hausdorff; here hausdorff runs both
    passes over the steps that decide_polytope takes.
    """
    pairs = []
    for model in suite5_models():
        _, report = decide_polytope(model)
        polys = [poly for _, poly in islice(hull_steps(model), len(report.counts) + 1)]
        pairs += zip(polys, polys[1:])
    full = hull_mod._dist_point_polytope
    calls = {"hausdorff": len(pairs), "full": 0}

    def counting_full(*args):
        calls["full"] += 1
        return full(*args)

    monkeypatch.setattr(hull_mod, "_dist_point_polytope", counting_full)
    for prev, poly in pairs:
        hull_mod.hausdorff(prev, poly)
    # every vertex through the full distance made 3857 evaluations in 270 calls
    assert calls["hausdorff"] > 0
    assert calls["full"] <= 2 * calls["hausdorff"]


def test_planar_rational_decide_takes_no_hull_step(monkeypatch):
    """The planar rational search and extraction take no hull and no support direction.

    vertex_map matches parallel planar cycles index for index, with no sum of
    the normals at a vertex (hull._normal_sums).  Certification hulls the
    candidates itself, independent of the search, so its one convex_hull call
    is the only lattice_hull call left.
    """
    calls = []
    certifying = []

    def recorder(name, real):
        def record(*args, **kwargs):
            calls.append((name, bool(certifying)))
            return real(*args, **kwargs)

        return record

    def certify(*args, **kwargs):
        certifying.append(True)
        try:
            return certify_polytope(*args, **kwargs)
        finally:
            certifying.pop()

    for name in ("lattice_hull", "_normal_sums"):
        monkeypatch.setattr(hull_mod, name, recorder(name, getattr(hull_mod, name)))
    monkeypatch.setattr(decide_mod, "certify_polytope", certify)
    models = suite5_models() + [sierpinski_model(), diag_model(), twin_dragon_model()]
    verdicts = {decide_polytope(model)[0].verdict for model in models}
    assert VERDICT_POLYTOPE in verdicts and VERDICT_NO_STABILIZATION in verdicts
    assert calls and set(calls) == {("lattice_hull", True)}


def test_spatial_rational_search_takes_no_hull_step(monkeypatch):
    """The 3D counterpart: with a full-dimensional digit hull a rational step
    overlays two normal fans and hulls nothing.  lattice_hull runs only in
    certification, in the cross-check, and once per model for conv{M E_j}."""
    calls, within = [], []

    def recording_hull(points, den):
        calls.append((within[-1] if within else "search", points, den))
        return real_hull(points, den)

    def entered(name, real):
        def run(*args, **kwargs):
            within.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                within.pop()

        return run

    real_hull = hull_mod.lattice_hull
    monkeypatch.setattr(hull_mod, "lattice_hull", recording_hull)
    monkeypatch.setattr(decide_mod, "certify_polytope", entered("certify", certify_polytope))
    monkeypatch.setattr(decide_mod, "cross_check", entered("cross_check", cross_check))
    digits = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [F(1, 3), F(2, 3), 1]]
    models = [
        (validate_model([[F(-1, 2), 0, 0], [0, F(-1, 2), 0], [0, 0, F(-1, 2)]], digits), "product"),
        (validate_model([[0, F(-3, 4), 0], [F(1, 4), F(3, 4), 0], [0, 0, F(-1, 3)]], digits), "lcm"),
        (
            validate_model(
                [[F(1, 3), F(1, 5), 0], [F(-1, 4), F(2, 5), F(1, 7)], [F(1, 6), 0, F(-1, 3)]], digits
            ),
            "product",
        ),
    ]
    verdicts = {analyze_model(model, mode)[0].verdict for model, mode in models}
    assert VERDICT_POLYTOPE in verdicts and VERDICT_NO_STABILIZATION in verdicts
    searched = [(points, den) for name, points, den in calls if name == "search"]
    assert searched == [(sorted(model.lattice[2]), 1) for model, _ in models]
    assert {name for name, _, _ in calls} == {"search", "certify", "cross_check"}


def test_spatial_rational_search_reads_only_integer_forms(monkeypatch):
    """The 3D counterpart: solid rational steps, their nested_hausdorff and
    certification's own hull never build Fraction vertices or facets."""
    half = F(-1, 2)
    model = validate_model(
        [[half, 0, 0], [0, half, 0], [0, 0, half]], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    polys = []
    for (prev, p), (ledger, q) in pairwise(hull_steps(model)):
        hull_mod.nested_hausdorff(p, q)
        polys.append(q)
        if ledger.count == prev.count:
            break
    assert polys[-1].affine_dim == 3 and len(polys) == 3
    hulls = []
    real_hull = hull_mod.convex_hull

    def recording_hull(*args, **kwargs):
        hulls.append(real_hull(*args, **kwargs))
        return hulls[-1]

    monkeypatch.setattr(hull_mod, "convex_hull", recording_hull)
    decision, _ = decide_polytope(model)
    assert decision.certified and len(decision.vertices) == 12
    assert len(hulls) == 1 and hulls[0].affine_dim == 3
    for poly in polys + hulls:
        assert not {"vertices", "facets"} & vars(poly).keys()


def test_perturbation_rejection():
    model = twin_dragon_model()
    decision, _ = decide_polytope(model)
    vertices = list(decision.vertices)
    points = [p for p, _ in vertices]
    centroid = (
        sum((p[0] for p in points), F(0)) / len(points),
        sum((p[1] for p in points), F(0)) / len(points),
    )
    for idx in range(len(vertices)):
        moved = []
        for j, (point, ep) in enumerate(vertices):
            if j == idx:
                direction = vec_sub(centroid, point)
                point = vec_add(point, vec_scale(F(1, 1000), direction))
            moved.append((ep, point))
        result = certify_polytope(model, moved)
        assert not result.ok
        assert result.failure == "address_evaluation"


def test_cross_check_examples():
    model = sierpinski_model()
    decision, _ = decide_polytope(model)
    section = cross_check(model, decision, 2)
    assert section.status == "agree"

    model = diag_model()
    decision, _ = decide_polytope(model)
    section = cross_check(model, decision, 2)
    assert section.status == "agree"

    model = twin_dragon_model()
    decision, _ = decide_polytope(model)
    section = cross_check(model, decision, 32)
    assert section.status == "inapplicable"


def test_analyze_includes_cross_check():
    decision, report = analyze_model(sierpinski_model())
    assert decision.verdict == VERDICT_POLYTOPE
    assert report.cross_check.status == "agree"


def test_decision_invariance_under_digit_translation():
    model = sierpinski_model()
    translated = validate_model(
        [[F(1, 2), 0], [0, F(1, 2)]],
        [[F(1, 3), F(-2, 5)], [F(4, 3), F(-2, 5)], [F(1, 3), F(3, 5)]],
    )
    base_decision, base_report = decide_polytope(model)
    moved_decision, moved_report = decide_polytope(translated)
    assert moved_decision.verdict == base_decision.verdict
    assert [r.count for r in base_report.counts] == [r.count for r in moved_report.counts]
    # reported vertices differ by exactly the closed-form shift
    shift = translated.normalization_shift
    base_points = sorted(p for p, _ in base_decision.vertices)
    moved_points = sorted(
        vec_add(p, shift) for p, _ in moved_decision.vertices
    )
    expected = sorted(vec_add(p, shift) for p in base_points)
    assert moved_points == expected


def test_random_models_decide_or_reject_consistently():
    count_polytope = 0
    for model in suite5_models()[:30]:
        decision, report = analyze_model(model)
        assert decision.verdict in (
            VERDICT_POLYTOPE,
            VERDICT_EMPTY_U,
            VERDICT_NO_STABILIZATION,
            VERDICT_INCONCLUSIVE,
        )
        if report.cross_check is not None:
            assert report.cross_check.status != "disagree"
        if decision.verdict == VERDICT_POLYTOPE:
            count_polytope += 1
            assert decision.certified
            stab_count = report.counts[decision.stabilization_index - 1].count
            assert len(decision.vertices) == stab_count
    assert count_polytope >= 1


# --- reference: address extraction by deepening and a period scan ---


def _reference_extract(ledger, min_reps=3):
    """Smallest prefix, then smallest period repeating min_reps times, per address."""
    n = ledger.step
    out = []
    for point, address in ledger.entries:
        found = None
        for m in range(0, n - min_reps + 1):
            for p in range(1, (n - m) // min_reps + 1):
                if all(address[s] == address[s + p] for s in range(m, n - p)):
                    found = (m, p)
                    break
            if found:
                break
        if not found:
            raise ExtractionFailure(f"no period in address of {point}")
        m, p = found
        out.append(EpAddress(address[:m], address[m : m + p]))
    return out


def _reference_decide(model):
    """(verdict, certified, stabilization, vertices) from deepening the ledger.

    After stabilization at i the ledger is stepped on to depth i + max(2k, 8),
    its addresses are scanned for periods, and a failed scan or certification
    doubles the depth, up to three times.
    """
    bound = compute_step_bound(tuple(inverse_eigenvalue_classes(model)), "product")
    if bound is None:
        return VERDICT_EMPTY_U, False, None, None
    counts = []
    steps = hull_steps(model)
    next(steps)
    for i in range(1, bound.k + 2):
        ledger, _ = next(steps)
        counts.append(ledger.count)
        if i >= 2 and counts[-2] == counts[-1]:
            break
    else:
        return VERDICT_NO_STABILIZATION, False, None, None
    stabilization = i - 1
    depth = stabilization + max(2 * bound.k, 8)
    for _attempt in range(4):
        while ledger.step < depth:
            ledger, _ = next(steps)
        try:
            addresses = _reference_extract(ledger)
        except ExtractionFailure:
            depth *= 2
            continue
        candidates = [(ep, evaluate_ep_address(model, ep)) for ep in addresses]
        eps = None
        if model.mode != RATIONAL:
            eps = max(model.tol.eps_geom, tail_error_bound(model, ledger.step))
        cert = certify_polytope(model, candidates, eps=eps)
        if cert.ok:
            vertices = tuple(sorted((point, ep) for ep, point in candidates))
            return VERDICT_POLYTOPE, cert.certified, stabilization, vertices
        depth *= 2
    return VERDICT_INCONCLUSIVE, False, stabilization, None


def _spatial_models():
    h, t = F(1, 2), F(1, 3)
    corners = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return [
        validate_model([[h, 0, 0], [0, h, 0], [0, 0, h]], corners),
        validate_model([[-t, 0, 0], [0, -t, 0], [0, 0, -t]], corners),
        validate_model([[0, 0, h], [h, 0, 0], [0, h, 0]], corners),
        validate_model([[0, -h, 0], [h, 0, 0], [0, 0, h]], corners),
        # hull inside the plane z = 0
        validate_model([[0, -h, 0], [h, 0, 0], [0, 0, t]], corners[:3]),
    ]


def test_vertex_map_matches_deepening_reference():
    models = list(suite5_models())
    models += [parse_model(str(path))[0] for path in sorted(MODELS.glob("*.json"))]
    models += _spatial_models()
    polytopes = 0
    for model in models:
        decision, _ = decide_polytope(model)
        got = (
            decision.verdict,
            decision.certified,
            decision.stabilization_index,
            decision.vertices,
        )
        assert got == _reference_decide(model)
        polytopes += decision.verdict == VERDICT_POLYTOPE
    assert polytopes >= 30


def test_one_spectrum_per_model(monkeypatch):
    """validate_model builds the integer chi once and reads the eigenvalues off it
    once; classification reads them off the model.  A float model calls eigenvalues once."""
    calls = []
    for name in ("eigenvalues", "integer_char_poly", "integer_poly_roots"):
        inner = getattr(linalg_mod, name)
        monkeypatch.setattr(linalg_mod, name, lambda m, name=name, inner=inner: calls.append(name) or inner(m))
    model = validate_model([[0, F(-1, 2)], [F(1, 2), 0]], [[0, 0], [1, 0], [0, 1]])
    decide_polytope(model)
    assert calls == ["integer_char_poly", "integer_poly_roots"]
    assert model.eigenvalues == tuple(linalg_mod.eigenvalues(model.matrix))
    calls.clear()
    model = validate_model([[0, -0.5], [0.5, 0]], [[0, 0], [1, 0], [0, 1]], mode="float")
    decide_polytope(model)
    assert calls == ["eigenvalues"]
