"""Model validation, address evaluation, hull recursion, oracle, radius bounds."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    diag_model,
    float_mirror,
    inverse,
    rational_models,
    sierpinski_model,
    stable_candidates,
    suite5_models,
    twin_dragon_model,
)
from fractalhull import hull as hull_mod
from fractalhull.cli import parse_model
from fractalhull.decide import hull_steps
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
    evaluate_ep_addresses,
    evaluate_finite_address,
    initial_ledger,
    is_address_value,
    lattice_images,
    tail_error_bound,
    validate_model,
)
from fractalhull.linalg import (
    RATIONAL,
    det,
    identity,
    mat_pow,
    mat_sub,
    mat_vec,
    norm2,
    solve,
    to_lattice,
    vec_add,
    vec_sub,
)

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


@given(
    st.lists(st.integers(1, 3), max_size=4),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
@example([], [1, 2, 1, 2], 2)  # drawn periods repeat, so some are not primitive
@example([2], [3], 1)
def test_ep_shift_equals_plain_construction(prefix, block, repeats):
    """shift() skips __post_init__: a suffix or rotation of a primitive period is primitive."""
    ep = EpAddress(tuple(prefix), tuple(block) * repeats)
    for _ in range(len(prefix) + 2 * len(ep.period) + 1):
        shifted = ep.shift()
        if ep.prefix:
            plain = EpAddress(ep.prefix[1:], ep.period)
        else:
            plain = EpAddress((), ep.period[1:] + ep.period[:1])
        assert (shifted, hash(shifted), repr(shifted)) == (plain, hash(plain), repr(plain))
        assert type(shifted.prefix) is tuple and type(shifted.period) is tuple
        assert (ep.head,) + shifted.truncate(12) == ep.truncate(13)
        ep = shifted


def _ledgers(model, steps):
    """The ledgers of steps 1..steps."""
    return [ledger for ledger, _ in islice(hull_steps(model), 1, steps + 1)]


def test_step_hull_sierpinski_counts():
    model = sierpinski_model()
    ledgers = _ledgers(model, 2)
    assert [l.count for l in ledgers] == [3, 3]
    assert set(ledgers[1].points) == {
        (F(0), F(0)), (F(3, 4), F(0)), (F(0), F(3, 4))
    }


def test_step_hull_diagonal_counts_and_v2():
    model = diag_model()
    ledgers = _ledgers(model, 3)
    assert [l.count for l in ledgers] == [3, 4, 5]
    assert set(ledgers[1].points) == {
        (F(0), F(0)), (F(3, 4), F(0)), (F(1, 4), F(1, 3)), (F(0), F(4, 9))
    }


def test_step_hull_single_map():
    model = validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0]])
    for k, ledger in enumerate(_ledgers(model, 4), start=1):
        assert ledger.entries == (((F(0), F(0)), (1,) * k),)


def test_address_consistency():
    model = twin_dragon_model()
    for ledger in _ledgers(model, 8):
        for point, address in ledger.entries:
            assert evaluate_finite_address(model, address) == point


def test_ledger_addresses_follow_the_polytope_vertices():
    """A step's ledger is its polytope with the address of vertex i at index i."""
    planar = suite5_models()
    others = [
        validate_model([[F(-1, 2)]], [[0], [1], [F(1, 3)]]),
        validate_model(
            [[F(2, 3), 0, 0], [0, F(2, 3), 0], [0, 0, F(2, 3)]],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [F(1, 2), F(1, 2), F(1, 2)]],
        ),
        validate_model(
            [[F(1, 2), F(1, 4), 0], [F(-1, 4), F(1, 3), F(1, 5)], [0, F(1, 6), F(-1, 2)]],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
        ),
    ]
    for model in [*planar, *map(float_mirror, planar), *others]:
        for ledger, poly in islice(hull_steps(model), 6):
            assert ledger.poly is poly
            assert len(ledger.addresses) == len(poly.vertices)
            values = [evaluate_finite_address(model, a) for a in ledger.addresses]
            if model.mode == RATIONAL:
                assert values == list(poly.vertices)
                assert ledger.entries == tuple(sorted(zip(poly.vertices, ledger.addresses)))
            else:
                assert all(norm2(vec_sub(x, v)) < 1e-9 for x, v in zip(values, poly.vertices))


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
    addresses = tuple(candidates[pt] for pt in poly.vertices)
    return VertexLedger(ledger.step + 1, poly, addresses), poly


@settings(max_examples=150, deadline=None)
@given(rational_models())
@example(validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1]]))
@example(validate_model([[F(1, 3), 0, 0], [0, F(1, 3), 0], [0, 0, F(1, 3)]], [[0, 0, 0], [1, 1, 1]]))
# planar edge merge: det T < 0, so T^k conv(D) alternates its orientation, in a
# rotation-reflection and on a segment
@example(validate_model([[F(1, 3), F(1, 2)], [F(1, 2), F(-1, 4)]], [[0, 0], [1, 0], [0, 1], [1, 1]]))
@example(validate_model([[F(-1, 2), 0], [0, F(1, 3)]], [[0, 0], [1, 0], [F(1, 3), 0]]))
# collinear digits on a line that T keeps: every step is a segment
@example(validate_model([[F(-1, 2), 0], [0, F(-1, 2)]], [[0, 0], [1, 2], [2, 4]]))
# a digit strictly inside conv(D)
@example(validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [2, 0], [0, 2], [F(1, 2), F(1, 2)]]))
# every edge of P_k parallel to an edge of T^{k+1} conv(D)
@example(validate_model([[F(1, 2), 0], [0, F(1, 2)]], [[0, 0], [1, 0], [1, 1], [0, 1]]))
# a line, and flat digit hulls in space: lattice_hull of the vertex sums while
# P_k is flat, as the six coplanar digits keep it, whose cycles only the 3D
# polygon direction rule makes equal to the Fraction step's; once P_k is solid
# (the k = 72 matrix) the overlay, with T^{k+1} conv(D) as two opposite facets
@example(validate_model([[F(-1, 3)]], [[0], [1], [5], [2]]))
@example(validate_model([[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]],
                        [[0, 0, 0], [1, 0, 0], [1, 0, -1], [2, 0, -1], [2, 0, -2], [3, 0, -2]]))
@example(validate_model([[0, F(-3, 4), 0], [F(1, 4), F(3, 4), 0], [0, 0, F(-1, 3)]],
                        [[0, 0, 0], [1, 0, 0], [F(1, 3), F(2, 3), 1]]))
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


def _candidate_step(model, ledger):
    """The rational 3D step as a candidate hull: lattice_hull of every image T(v + d_j).

    Coincident images keep the smallest address; returns the polytope and
    the address of each of its vertices.
    """
    ys, zs, den = lattice_images(model, *ledger.poly.lattice)
    candidates = {}
    for y, address in zip(ys, ledger.addresses):
        for j, z in enumerate(zs, start=1):
            point, new_address = vec_add(y, z), (j,) + address
            if candidates.get(point, new_address) >= new_address:
                candidates[point] = new_address
    poly = hull_mod.lattice_hull(sorted(candidates), den)
    xs, s = poly.lattice
    return poly, tuple(candidates[tuple(c * (den // s) for c in x)] for x in xs)


def _spatial_model(rng, kind, q):
    """A seeded rational 3D model with a full-dimensional digit hull.

    kind is "det+" or "det-" (a generic matrix, infinity norm below 1, with
    that sign of det), "+cI" or "-cI" (a homothety), or "inside" (a generic
    matrix, and a digit strictly inside the hull of the others).
    """
    if kind in ("+cI", "-cI"):
        c = rng.choice((F(1, 2), F(1, 3), F(2, 3))) * (1 if kind == "+cI" else -1)
        matrix = [[c if i == j else F(0) for j in range(3)] for i in range(3)]
    else:
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            scale = max(sum(map(abs, row)) for row in rows) + rng.randint(1, 3)
            matrix = [[F(v, scale) for v in row] for row in rows]
            if det(matrix) != 0 and (det(matrix) < 0) == (kind == "det-"):
                break
    inside = kind == "inside"
    while True:
        digits = [(0, 0, 0)] + [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                                for _ in range(q - 1 - inside)]
        if inside:  # the centroid of a tetrahedron of digits
            digits.append(tuple(sum(c) / 4 for c in zip(*digits[:4])))
        model = validate_model(matrix, digits)
        if len(model.digits) == q and det([vec_sub(d, digits[0]) for d in digits[1:4]]) != 0:
            return model


@pytest.mark.parametrize(
    "kind, q",
    [("det+", 4), ("det-", 5), ("det+", 6), ("det-", 4), ("+cI", 5), ("-cI", 4), ("-cI", 6),
     ("inside", 5), ("inside", 6)],
)
def test_overlay_step_equals_candidate_hull(kind, q):
    """The normal-fan overlay step gives the candidate hull's lattice, faces,
    rows and addresses, step for step, from the point P_0 on; homotheties
    put faces of P_k and T^{k+1} conv(D) on parallel planes, where they meet
    in 2D sums."""
    model = _spatial_model(random.Random(f"{kind}{q}"), kind, q)
    ledger = initial_ledger(model)
    for _ in range(10):
        poly, addresses = _candidate_step(model, ledger)
        ledger, step_poly = _step(model, ledger)
        assert step_poly.lattice == poly.lattice and step_poly.rows == poly.rows
        assert step_poly.faces == poly.faces and ledger.addresses == addresses
    assert step_poly.affine_dim == 3


def test_lattice_scale_tracks_ledger_denominators():
    """Each step's scale is the lcm of its ledger's denominators.

    A rational step cuts the scale of its sum by the gcd of that scale and
    the integer vertices, and P_{k+1} = T(P_k + conv(D)) has its vertices
    over delta*e*s, s the scale of P_k: so the new scale t divides
    delta*e*s and gcd(t, X) = 1, and the scale of each ledger is at most
    (here equal to) the lcm of its denominators.
    """
    twin_dragon, _opts = parse_model(str(MODELS / "twindragon.json"))
    homothety = validate_model(
        [[F(2, 3), 0, 0], [0, F(2, 3), 0], [0, 0, F(2, 3)]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [F(1, 2), F(1, 2), F(1, 2)]],
    )
    for model in (twin_dragon, homothety):
        delta = to_lattice(model.matrix)[1]
        e = to_lattice(model.digits)[1]
        steps = list(islice(hull_steps(model), 31))
        for (ledger, poly), (_, after) in zip(steps, steps[1:]):
            s = poly.lattice[1]
            assert s <= math.lcm(*(c.denominator for p in ledger.points for c in p))
            xs, t = after.lattice
            assert delta * e * s % t == 0
            assert math.gcd(t, *(c for x in xs for c in x)) == 1
        assert steps[-1][1].affine_dim == model.dim


def _fraction_evaluate(model, ep):
    """The Fraction evaluator of an EpAddress: Horner block, Gaussian solve, prefix fold."""
    block = (F(0),) * model.dim
    for j in reversed(ep.period):
        block = mat_vec(model.matrix, vec_add(model.digits[j - 1], block))
    tp = mat_pow(model.matrix, len(ep.period))
    acc = solve(mat_sub(identity(model.dim), tp), block)
    for j in reversed(ep.prefix):
        acc = mat_vec(model.matrix, vec_add(model.digits[j - 1], acc))
    return acc


def _addresses(model):
    digit = st.integers(1, model.digit_count)
    return st.builds(
        EpAddress,
        st.lists(digit, min_size=0, max_size=3),
        st.lists(digit, min_size=1, max_size=12),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_evaluate_matches_fraction_evaluator(data):
    """The integer Horner sum and Cramer solve give the Fraction evaluator's value."""
    model = data.draw(rational_models())
    for _ in range(3):
        ep = data.draw(_addresses(model))
        value = evaluate_ep_address(model, ep)
        reference = _fraction_evaluate(model, ep)
        assert value == reference and repr(value) == repr(reference)


def _float_evaluate(model, ep):
    """Float evaluate_ep_address as it ran with I - T^p built per call."""
    block = evaluate_finite_address(model, ep.period)
    tp = mat_pow(model.matrix, len(ep.period))
    acc = solve(mat_sub(identity(model.dim, model.mode), tp), block, eps=model.geom_eps())
    for j in reversed(ep.prefix):
        acc = mat_vec(model.matrix, vec_add(model.digits[j - 1], acc))
    return acc


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_float_evaluate_with_warm_cache_is_bit_identical(data):
    """A model that has evaluated other addresses gives a fresh model's floats."""
    exact = data.draw(rational_models())
    warm = float_mirror(exact)
    for _ in range(6):
        ep = data.draw(_addresses(exact))
        value = evaluate_ep_address(warm, ep)
        fresh = float_mirror(exact)
        assert list(map(float.hex, value)) == list(map(float.hex, evaluate_ep_address(fresh, ep)))
        assert list(map(float.hex, value)) == list(map(float.hex, _float_evaluate(fresh, ep)))


def _shift_closure(eps):
    """The addresses with all their shifts, each shift checked against truncate()."""
    out = dict.fromkeys(eps)
    todo = list(eps)
    while todo:
        ep = todo.pop()
        shifted = ep.shift()
        assert (ep.head,) + shifted.truncate(20) == ep.truncate(21)
        if shifted not in out:
            out[shifted] = None
            todo.append(shifted)
    return list(out)


@settings(max_examples=80, deadline=None)
@given(st.data())
@example(None)
def test_batch_evaluation_matches_per_address(data):
    """evaluate_ep_addresses gives every address of a batch its value alone.

    The batches: the vertices of a stable pair of steps (closed under the
    shift), the shift closure of drawn addresses, random sub-batches of it
    with repeats, the closure with extra prefixed addresses, and repeated
    periods.
    """
    if data is None:
        model, drawn = twin_dragon_model(), [EpAddress((2, 2), (1, 2, 1, 2))]
    else:
        model = data.draw(rational_models())
        drawn = data.draw(st.lists(_addresses(model), min_size=1, max_size=4))
    closed = _shift_closure(drawn)
    batches = [closed, drawn]
    vertices = [ep for ep, _ in stable_candidates(model)]
    if vertices:
        batches.append(vertices)
        closed += vertices
    q = model.digit_count
    pick = st.lists(st.sampled_from(closed), min_size=1, max_size=len(closed) + 2)
    batches.append(data.draw(pick) if data else closed[::2] + closed[:1])
    batches.append([EpAddress((q,) + ep.prefix, ep.period) for ep in closed[:3]] + closed)
    batches.append([EpAddress(ep.prefix, ep.period * 2) for ep in closed] + closed[:2])
    for batch in batches:
        got = evaluate_ep_addresses(model, batch)
        assert got == [evaluate_ep_address(model, ep) for ep in batch]
        assert got == [_fraction_evaluate(model, ep) for ep in batch]
        assert repr(got) == repr([_fraction_evaluate(model, ep) for ep in batch])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fixed_point_check_accepts_value_and_rejects_perturbation(data):
    """is_address_value holds at the value of an address and not next to it."""
    model = data.draw(rational_models())
    drawn = data.draw(_addresses(model))
    prefixed = EpAddress((model.digit_count,), drawn.period)
    for ep in (drawn, EpAddress((), drawn.period), prefixed):
        value = evaluate_ep_address(model, ep)
        assert is_address_value(model, ep, value)
        axis = data.draw(st.integers(0, model.dim - 1))
        shift = data.draw(st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 10**6)))
        moved = tuple(c + shift if i == axis else c for i, c in enumerate(value))
        assert not is_address_value(model, ep, moved)


def test_fixed_point_check_peels_the_prefix():
    """A ledger point is the value of its finite address followed by the origin digit 1."""
    for model in (sierpinski_model(), twin_dragon_model(), diag_model()):
        for ledger, _ in islice(hull_steps(model), 1, 6):
            for point, address in ledger.entries:
                assert is_address_value(model, EpAddress(address, (1,)), point)
                assert not is_address_value(model, EpAddress(address, (2,)), point)


def test_brute_force_matches_examples():
    model = sierpinski_model()
    poly = brute_force_vertices(model, 2)
    assert poly.vertex_set == {(F(0), F(0)), (F(3, 4), F(0)), (F(0), F(3, 4))}

    model = diag_model()
    poly = brute_force_vertices(model, 3)
    ledger = _ledgers(model, 3)[-1]
    assert poly.vertex_set == set(ledger.points)
    assert len(poly.vertices) == 5

    model = twin_dragon_model()
    poly = brute_force_vertices(model, 10)
    ledger = _ledgers(model, 10)[-1]
    assert poly.vertex_set == set(ledger.points)


def test_brute_force_budget():
    with pytest.raises(EnumerationBudgetExceeded):
        brute_force_vertices(sierpinski_model(), 20, budget=10**6)


def test_oracle_equivalence_random_models():
    for model in suite5_models()[:15]:
        for k, ledger in enumerate(_ledgers(model, 5), start=1):
            oracle = brute_force_vertices(model, k)
            assert set(ledger.points) == oracle.vertex_set, (model.matrix, k)


def test_oracle_at_step_6_of_a_3d_model_with_step_bound_72():
    """A complex pair at angle pi/6 and a real eigenvalue give k = 72, the
    largest product bound in 3D; its hull steps grow at every step."""
    model = validate_model(
        [[0, F(-3, 4), 0], [F(1, 4), F(3, 4), 0], [0, 0, F(-1, 3)]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [F(1, 3), F(2, 3), 1]],
    )
    _, poly = next(islice(hull_steps(model), 6, None))
    oracle = brute_force_vertices(model, 6)
    assert len(poly.vertices) == 84
    assert repr(poly) == repr(oracle)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="float _chain2d keeps a different vertex of a near-collinear run in the recursion"
    " than in the enumeration; float mode on the exact kernel should mend it",
)
@pytest.mark.parametrize("index", [20, 89])
def test_float_oracle_matches_enumeration_at_step_8(index):
    """Known defect on two float suite models: step 8 has as many vertices as
    enumeration finds (22 and 19), but one of them differs."""
    model = float_mirror(suite5_models()[index])
    ledger, _ = next(islice(hull_steps(model), 8, None))
    oracle = brute_force_vertices(model, 8)
    assert ledger.count == len(oracle.vertices)
    assert set(ledger.points) == oracle.vertex_set


def test_monotone_hulls():
    for model in (sierpinski_model(), diag_model(), twin_dragon_model()):
        ledgers = _ledgers(model, 6)
        for small, big in zip(ledgers, ledgers[1:]):
            outer = convex_hull(big.points)
            for v in small.points:
                assert contains(outer, v)


def test_count_growth_bounded():
    for model in suite5_models()[:10]:
        ledgers = _ledgers(model, 5)
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
        from fractalhull.linalg import mat_mul

        S_inv = inverse(S)
        T2 = mat_mul(mat_mul(S, model.matrix), S_inv)
        D2 = [mat_vec(S, d) for d in model.digits]
        conj = validate_model(T2, D2)
        counts_a = [l.count for l in _ledgers(model, 5)]
        counts_b = [l.count for l in _ledgers(conj, 5)]
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
