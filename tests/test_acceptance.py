"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion states its own tolerance (exact equality unless noted)
and asserts its runtime budget.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as F
from itertools import islice

from conftest import (
    SUITE_SEED,
    diag_model,
    inverse,
    random_fraction,
    rot1_model,
    sierpinski_model,
    suite5_models,
    twin_dragon_model,
)
from fractalhull import cli
from fractalhull.decide import (
    VERDICT_EMPTY_U,
    VERDICT_NO_STABILIZATION,
    VERDICT_POLYTOPE,
    analyze_model,
    certify_polytope,
    decide_polytope,
    hull_steps,
)
from fractalhull.ifs import (
    EpAddress,
    brute_force_vertices,
    evaluate_ep_address,
    evaluate_finite_address,
    tail_error_bound,
    validate_model,
)
from fractalhull.linalg import (
    mat_mul,
    mat_sub,
    mat_vec,
    identity,
    norm2,
    solve,
    vec_add,
    vec_scale,
    vec_sub,
)


def _line(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {detail}"


def _certified_corpus():
    """Certified polytope decisions from the headline models and suite 5."""
    corpus = []
    for model in [sierpinski_model(), twin_dragon_model()] + suite5_models():
        decision, _report = decide_polytope(model)
        if decision.verdict == VERDICT_POLYTOPE and decision.certified:
            corpus.append((model, decision))
    return corpus


def test_criterion_1_sierpinski():
    start = time.perf_counter()
    decision, report = analyze_model(sierpinski_model())
    ok = (
        decision.verdict == VERDICT_POLYTOPE
        and decision.certified
        and decision.stabilization_index == 1
        and report.bound.k == 2
        and len(report.bound.classes) == 1
        and report.bound.classes[0].rational_angle == (0, 1)
    )
    points = {p: ep for p, ep in decision.vertices}
    ok = ok and set(points) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}
    ok = ok and points[(F(0), F(0))].period == (1,) and points[(F(0), F(0))].prefix == ()
    ok = ok and points[(F(1), F(0))].period == (2,) and points[(F(1), F(0))].prefix == ()
    ok = ok and points[(F(0), F(1))].period == (3,) and points[(F(0), F(1))].prefix == ()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _line(1, ok, "scalar-half gasket: certified polytope, i=1, k=2, exact vertices", elapsed)


def test_criterion_2_anisotropic_diagonal():
    start = time.perf_counter()
    decision, report = analyze_model(diag_model())
    counts = [row.count for row in report.counts]
    ok = (
        decision.verdict == VERDICT_NO_STABILIZATION
        and report.bound.k == 2
        and counts == [3, 4, 5]
        and report.cross_check.status == "agree"
        and report.cross_check.result.verdict == "not_polytope"
    )
    failing = [c for c in report.cross_check.result.checks if c.k_found is None]
    ok = ok and len(failing) == 1 and failing[0].normal[0] == failing[0].normal[1]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _line(2, ok, "anisotropic diagonal: counts (3,4,5), no stabilization, criteria agree", elapsed)


def test_criterion_3_twin_dragon():
    start = time.perf_counter()
    model = twin_dragon_model()
    decision, report = analyze_model(model)
    ok = (
        decision.verdict == VERDICT_POLYTOPE
        and decision.certified
        and decision.stabilization_index is not None
        and decision.stabilization_index <= 32
        and report.bound.k == 32
        and sorted(c.rational_angle for c in report.bound.classes) == [(-1, 4), (1, 4)]
    )
    _, lcm_report = decide_polytope(model, bound_mode="lcm")
    ok = ok and lcm_report.bound.k == 8
    i = decision.stabilization_index
    if i <= 19:
        oracle = brute_force_vertices(model, i + 1, budget=10**6)
        ok = ok and len(decision.vertices) == len(oracle.vertices)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _line(3, ok, f"twin dragon: certified polytope, i={i}, k=32 (lcm 8), count matches oracle", elapsed)


def test_criterion_4_irrational_rotation():
    start = time.perf_counter()
    model = rot1_model()
    ok = model.tol.denom_max == 64 and model.tol.angle_tol == 1e-9
    decision, report = analyze_model(model)
    ok = ok and decision.verdict == VERDICT_EMPTY_U
    ok = ok and any(
        "possible only if the ambient dimension is even" in w for w in report.warnings
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _line(4, ok, "rotation by 1 radian: empty U, even-dimension caveat in the report", elapsed)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    models = suite5_models()
    ok = len(models) == 100
    for model in models:
        for ledger, _ in islice(hull_steps(model), 1, 7):
            k = ledger.step
            oracle = brute_force_vertices(model, k)
            if set(ledger.points) != oracle.vertex_set:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _line(5, ok, "100 random models: recursion equals enumeration exactly for k <= 6", elapsed)


def _random_unimodular(rng):
    s = identity(2)
    for _ in range(4):
        a = F(rng.randint(-3, 3))
        if rng.random() < 0.5:
            e = ((F(1), a), (F(0), F(1)))
        else:
            e = ((F(1), F(0)), (a, F(1)))
        s = mat_mul(s, e)
    return s


def test_criterion_6_invariance():
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED + 1)
    ok = True
    for model in suite5_models()[:20]:
        base_decision, base_report = decide_polytope(model)
        base_counts = [row.count for row in base_report.counts]

        s = _random_unimodular(rng)
        conj = validate_model(
            mat_mul(mat_mul(s, model.matrix), inverse(s)),
            [mat_vec(s, d) for d in model.digits],
        )
        conj_decision, conj_report = decide_polytope(conj)
        conj_counts = [row.count for row in conj_report.counts]
        if conj_decision.verdict != base_decision.verdict or conj_counts != base_counts:
            ok = False
            break

        if base_decision.verdict != VERDICT_POLYTOPE:
            continue
        t = (random_fraction(rng), random_fraction(rng))
        translated = validate_model(model.matrix, [vec_add(d, t) for d in model.digits])
        trans_decision, _ = decide_polytope(translated)
        if trans_decision.verdict != VERDICT_POLYTOPE:
            ok = False
            break
        eye = identity(2)
        shift = solve(mat_sub(eye, model.matrix), mat_vec(model.matrix, t))
        if translated.normalization_shift != shift:
            ok = False
            break
        base_points = sorted(p for p, _ in base_decision.vertices)
        moved_points = sorted(
            vec_add(p, translated.normalization_shift) for p, _ in trans_decision.vertices
        )
        if moved_points != [vec_add(p, shift) for p in base_points]:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _line(6, ok, "conjugation keeps traces and verdicts; translation shifts vertices exactly", elapsed)


def test_criterion_7_truncation_bound():
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED + 2)
    models = suite5_models()
    violations = 0
    for _ in range(200):
        model = models[rng.randrange(len(models))]
        q = model.digit_count
        prefix = tuple(rng.randint(1, q) for _ in range(rng.randint(0, 3)))
        period = tuple(rng.randint(1, q) for _ in range(rng.randint(1, 4)))
        ep = EpAddress(prefix, period)
        exact_point = evaluate_ep_address(model, ep)
        for depth in range(4, 21):
            approx = evaluate_finite_address(model, ep.truncate(depth))
            if norm2(vec_sub(exact_point, approx)) > tail_error_bound(model, depth):
                violations += 1
    elapsed = time.perf_counter() - start
    _line(7, violations == 0, f"200 addresses x depths 4..20: {violations} bound violations", elapsed)


def test_criterion_8_certification_falsifiability():
    start = time.perf_counter()
    corpus = _certified_corpus()
    ok = len(corpus) >= 3
    for model, decision in corpus:
        vertices = list(decision.vertices)
        points = [p for p, _ in vertices]
        n = len(points)
        centroid = tuple(sum(col, F(0)) / n for col in zip(*points))
        diameter = max(
            norm2(vec_sub(a, b)) for i, a in enumerate(points) for b in points[i + 1 :]
        )
        for idx in range(n):
            # move one vertex 1e-3 * diameter toward the centroid (rational step)
            direction = vec_sub(centroid, points[idx])
            dist = norm2(direction)
            step = F(1e-3 * diameter / dist).limit_denominator(10**9)
            moved = [
                (ep, vec_add(p, vec_scale(step, direction)) if j == idx else p)
                for j, (p, ep) in enumerate(vertices)
            ]
            if certify_polytope(model, moved).ok:
                ok = False
            dropped = [(ep, p) for j, (p, ep) in enumerate(vertices) if j != idx]
            result = certify_polytope(model, dropped)
            if result.ok or result.failure != "self_mapping":
                ok = False
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _line(
        8,
        ok,
        f"{len(corpus)} certified polytopes: every perturbation and deletion is rejected",
        elapsed,
    )


def test_criterion_9_criteria_agreement(monkeypatch, tmp_path):
    start = time.perf_counter()
    ok = True
    applicable = 0
    for model in [sierpinski_model(), diag_model(), twin_dragon_model(), rot1_model()] + suite5_models():
        _decision, report = analyze_model(model)
        if report.cross_check is None:
            continue
        if report.cross_check.status == "disagree":
            ok = False
            break
        if report.cross_check.status == "agree":
            applicable += 1
    ok = ok and applicable >= 10

    # the exit-code contract: a forced disagreement must exit with code 2
    from fractalhull import decide as decide_mod
    from fractalhull.spectral import NormalCriterionResult

    def fake_criterion(matrix, digits, k_cap, eps=0.0):
        return NormalCriterionResult("not_polytope", (), k_cap)

    monkeypatch.setattr(decide_mod.spectral, "facet_normal_criterion", fake_criterion)
    doc = {
        "dimension": 2,
        "matrix": [["1/2", "0"], ["0", "1/2"]],
        "digits": [[0, 0], [1, 0], [0, 1]],
        "arithmetic": "rational",
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ok = ok and cli.main(["analyze", str(path)]) == 2
    monkeypatch.undo()
    elapsed = time.perf_counter() - start
    _line(9, ok, f"{applicable} applicable models agree; forced disagreement exits 2", elapsed)
