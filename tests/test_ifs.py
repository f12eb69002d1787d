"""Model validation, address evaluation, hull recursion, oracle, radius bounds."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import diag_model, sierpinski_model, suite5_models, twin_dragon_model
from fractalhull import hull as hull_mod
from fractalhull.cli import parse_model
from fractalhull.errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    NotContractingFailed,
    UnsupportedDimension,
)
from fractalhull.hull import contains, convex_hull
from fractalhull.ifs import (
    EpAddress,
    VertexLedger,
    _step,
    attractor_radius_bound,
    brute_force_vertices,
    evaluate_ep_address,
    evaluate_finite_address,
    initial_ledger,
    iterate_hulls,
    step_hull,
    tail_error_bound,
    validate_model,
)
from fractalhull.linalg import det, mat_vec, norm2, to_lattice, vec_add, vec_sub

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_validate_sierpinski():
    model = sierpinski_model()
    assert model.dim == 2
    assert model.digits[0] == (F(0), F(0))
    assert model.normalization_shift == (F(0), F(0))


def test_validate_shifted_digits():
    base = sierpinski_model()
    shifted = validate_model(
        [[F(1, 2), 0], [0, F(1, 2)]], [[1, 1], [2, 1], [1, 2]]
    )
    # digits renormalize to the unshifted set; the attractor moves by (1, 1)
    assert shifted.digits == base.digits
    assert shifted.normalization_shift == (F(1), F(1))


def test_validate_rejects_identity():
    with pytest.raises(NotContractingFailed):
        validate_model([[1, 0], [0, 1]], [[0, 0]])


def test_validate_rejects_dimension_4():
    with pytest.raises(UnsupportedDimension):
        validate_model([[F(1, 2)] * 4 for _ in range(4)], [[0, 0, 0, 0]])


def test_validate_digit_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0, 0]])


def test_validate_deduplicates_digits():
    model = validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [1, 0], [1, 0]])
    assert model.digit_count == 2
    assert any("duplicate" in w for w in model.warnings)


def test_finite_address_examples():
    model = sierpinski_model()
    assert evaluate_finite_address(model, (1,)) == (F(0), F(0))
    assert evaluate_finite_address(model, (2,)) == (F(1, 2), F(0))
    assert evaluate_finite_address(model, (2, 2)) == (F(3, 4), F(0))
    assert evaluate_finite_address(model, ()) == (F(0), F(0))


def test_finite_address_bad_index():
    with pytest.raises(ValueError):
        evaluate_finite_address(sierpinski_model(), (4,))


def test_ep_address_examples():
    model = sierpinski_model()
    assert evaluate_ep_address(model, EpAddress((), (1,))) == (F(0), F(0))
    assert evaluate_ep_address(model, EpAddress((), (2,))) == (F(1), F(0))
    assert evaluate_ep_address(model, EpAddress((3,), (2,))) == (F(1, 2), F(1, 2))


def test_ep_period_reduced_to_primitive():
    ep = EpAddress((), (2, 1, 2, 1))
    assert ep.period == (2, 1)
    with pytest.raises(ValueError):
        EpAddress((1,), ())


def test_step_hull_sierpinski_counts():
    model = sierpinski_model()
    ledgers = iterate_hulls(model, 2)
    assert [l.count for l in ledgers] == [3, 3]
    assert set(ledgers[1].points) == {
        (F(0), F(0)), (F(3, 4), F(0)), (F(0), F(3, 4))
    }


def test_step_hull_diagonal_counts_and_v2():
    model = diag_model()
    ledgers = iterate_hulls(model, 3)
    assert [l.count for l in ledgers] == [3, 4, 5]
    assert set(ledgers[1].points) == {
        (F(0), F(0)), (F(3, 4), F(0)), (F(1, 4), F(1, 3)), (F(0), F(4, 9))
    }


def test_step_hull_single_map():
    model = validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0]])
    ledger = initial_ledger(model)
    for k in range(1, 5):
        ledger = step_hull(model, ledger)
        assert ledger.entries == (((F(0), F(0)), (1,) * k),)


def test_address_consistency():
    model = twin_dragon_model()
    ledger = initial_ledger(model)
    for _ in range(8):
        ledger = step_hull(model, ledger)
        for point, address in ledger.entries:
            assert evaluate_finite_address(model, address) == point


def _fraction_step(model, ledger):
    """Reference hull step on Fraction candidates: mat_vec + convex_hull."""
    candidates = {}
    for point, address in ledger.entries:
        for j, digit in enumerate(model.digits, start=1):
            new_point = mat_vec(model.matrix, vec_add(point, digit))
            new_address = (j,) + address
            old = candidates.get(new_point)
            if old is None or new_address < old:
                candidates[new_point] = new_address
    poly = convex_hull(list(candidates))
    entries = tuple(sorted((pt, candidates[pt]) for pt in poly.vertex_set))
    return VertexLedger(ledger.step + 1, entries), poly


_entry = st.builds(F, st.integers(-3, 3), st.integers(1, 8))
_coord = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def rational_models(draw):
    """Contracting rational models in dimension 1 to 3 with degenerate digit sets.

    Digit layouts: generic, collinear, coplanar (in 3D), an evenly spaced grid
    (with a homothety T its images coincide, which exercises the address
    tie-break) and a single digit (every hull is one point).
    """
    dim = draw(st.sampled_from((1, 2, 3)))
    if draw(st.booleans()):
        c = draw(st.sampled_from((F(1, 2), F(-1, 3), F(2, 3), F(-3, 4))))
        matrix = [[c if i == j else F(0) for j in range(dim)] for i in range(dim)]
    else:
        matrix = [[draw(_entry) for _ in range(dim)] for _ in range(dim)]
        assume(det(matrix) != 0 and max(sum(abs(c) for c in row) for row in matrix) < 1)
    u, v = (tuple(draw(_coord) for _ in range(dim)) for _ in range(2))
    layout = draw(st.sampled_from(("generic", "collinear", "coplanar", "grid", "single")))
    if layout == "single":
        digits = [u]
    elif layout == "collinear":
        digits = [tuple(draw(_coord) * c for c in u) for _ in range(draw(st.integers(2, 4)))]
    elif layout == "coplanar":
        coeffs = draw(st.lists(st.tuples(_coord, _coord), min_size=3, max_size=5))
        digits = [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in coeffs]
    elif layout == "grid":
        digits = [tuple(i * x + j * y for x, y in zip(u, v)) for i in range(3) for j in range(2)]
    else:
        digits = [tuple(draw(_coord) for _ in range(dim)) for _ in range(draw(st.integers(2, 4)))]
    return validate_model(matrix, digits)


@settings(max_examples=150, deadline=None)
@given(rational_models())
@example(validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1]]))
@example(validate_model([[F(1, 3), 0, 0], [0, F(1, 3), 0], [0, 0, F(1, 3)]], [[0, 0, 0], [1, 1, 1]]))
def test_lattice_step_matches_fraction_step(model):
    """The integer step returns the ledger and Polytope of the Fraction step."""
    steps = 6 if model.dim < 3 else 4
    ledger = reference = initial_ledger(model)
    for _ in range(steps):
        ledger, poly = _step(model, ledger)
        reference, ref_poly = _fraction_step(model, reference)
        assert ledger == reference
        assert poly == ref_poly
        # equal values could hide an int where the boundary promises a Fraction
        assert repr(ledger) == repr(reference) and repr(poly) == repr(ref_poly)


def test_lattice_scale_tracks_ledger_denominators(monkeypatch):
    """Each step's scale s is at most the lcm of its ledger's denominators."""
    twin_dragon, _opts = parse_model(str(MODELS / "twindragon.json"))
    homothety = validate_model(
        [[F(2, 3), 0, 0], [0, F(2, 3), 0], [0, 0, F(2, 3)]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [F(1, 2), F(1, 2), F(1, 2)]],
    )
    lattice_hull = hull_mod.lattice_hull
    dens = []

    def recording_hull(points, den):
        dens.append(den)
        return lattice_hull(points, den)

    monkeypatch.setattr(hull_mod, "lattice_hull", recording_hull)
    for model in (twin_dragon, homothety):
        delta = to_lattice(model.matrix)[1]
        e = to_lattice(model.digits)[1]
        ledger = initial_ledger(model)
        for _ in range(30):
            ledger_lcm = math.lcm(*(c.denominator for p in ledger.points for c in p))
            ledger = step_hull(model, ledger)
            s, rest = divmod(dens[-1], delta * e)
            assert rest == 0
            assert s <= ledger_lcm


def test_brute_force_matches_examples():
    model = sierpinski_model()
    poly = brute_force_vertices(model, 2)
    assert poly.vertex_set == {(F(0), F(0)), (F(3, 4), F(0)), (F(0), F(3, 4))}

    model = diag_model()
    poly = brute_force_vertices(model, 3)
    ledger = iterate_hulls(model, 3)[-1]
    assert poly.vertex_set == set(ledger.points)
    assert len(poly.vertices) == 5

    model = twin_dragon_model()
    poly = brute_force_vertices(model, 10)
    ledger = iterate_hulls(model, 10)[-1]
    assert poly.vertex_set == set(ledger.points)


def test_brute_force_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_vertices(sierpinski_model(), 20, budget=10**6)


def test_oracle_equivalence_random_models():
    for model in suite5_models()[:15]:
        ledger = initial_ledger(model)
        for k in range(1, 6):
            ledger = step_hull(model, ledger)
            oracle = brute_force_vertices(model, k)
            assert set(ledger.points) == oracle.vertex_set, (model.matrix, k)


def test_monotone_hulls():
    for model in (sierpinski_model(), diag_model(), twin_dragon_model()):
        ledgers = iterate_hulls(model, 6)
        for small, big in zip(ledgers, ledgers[1:]):
            outer = convex_hull(big.points)
            for v in small.points:
                assert contains(outer, v)


def test_count_growth_bounded():
    for model in suite5_models()[:10]:
        ledgers = iterate_hulls(model, 5)
        counts = [l.count for l in ledgers]
        for a, b in zip(counts, counts[1:]):
            assert b <= model.digit_count * a


def test_conjugation_invariance():
    rng = random.Random(53)
    for model in suite5_models()[:8]:
        # random unimodular integer conjugator from shear products
        S = ((F(1), F(0)), (F(0), F(1)))
        for _ in range(3):
            a = F(rng.randint(-2, 2))
            if rng.random() < 0.5:
                E = ((F(1), a), (F(0), F(1)))
            else:
                E = ((F(1), F(0)), (a, F(1)))
            S = tuple(
                tuple(sum(S[i][k] * E[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )
        from fractalhull.linalg import inverse, mat_mul

        S_inv = inverse(S)
        T2 = mat_mul(mat_mul(S, model.matrix), S_inv)
        D2 = [mat_vec(S, d) for d in model.digits]
        conj = validate_model(T2, D2)
        counts_a = [l.count for l in iterate_hulls(model, 5)]
        counts_b = [l.count for l in iterate_hulls(conj, 5)]
        assert counts_a == counts_b


def test_radius_bound_examples():
    assert attractor_radius_bound(sierpinski_model()) == 1.0

    line = validate_model([[F(1, 2)]], [[0], [F(1, 2)]])
    assert attractor_radius_bound(line) == 0.5

    dragon = attractor_radius_bound(twin_dragon_model())
    assert abs(dragon - (2**0.5 + 1)) < 1e-9


def test_tail_bound_examples():
    model = sierpinski_model()
    assert abs(tail_error_bound(model, 10) - 2**-10) < 1e-15
    assert tail_error_bound(model, 0) == attractor_radius_bound(model)

    dragon = twin_dragon_model()
    assert abs(tail_error_bound(dragon, 8) - (2**0.5 + 1) / 16) < 1e-9


def test_truncation_error_within_tail_bound():
    rng = random.Random(59)
    models = suite5_models()[:10]
    for _ in range(60):
        model = rng.choice(models)
        q = model.digit_count
        prefix = tuple(rng.randint(1, q) for _ in range(rng.randint(0, 3)))
        period = tuple(rng.randint(1, q) for _ in range(rng.randint(1, 4)))
        ep = EpAddress(prefix, period)
        exact_point = evaluate_ep_address(model, ep)
        for depth in (4, 8, 12, 16, 20):
            approx = evaluate_finite_address(model, ep.truncate(depth))
            err = norm2(vec_sub(exact_point, approx))
            assert err <= tail_error_bound(model, depth) + 1e-15


def test_attractor_points_within_radius():
    rng = random.Random(61)
    for model in suite5_models()[:6]:
        radius = attractor_radius_bound(model)
        q = model.digit_count
        for _ in range(20):
            address = tuple(rng.randint(1, q) for _ in range(12))
            p = evaluate_finite_address(model, address)
            assert norm2(p) <= radius + tail_error_bound(model, 12) + 1e-12
