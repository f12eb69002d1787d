"""Angle classification (exact and float), contraction, step bound, normal criterion."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    diag_model,
    float_mirror,
    rational_models,
    rot1_model,
    sierpinski_model,
    suite5_models,
    twin_dragon_model,
)
from fractalhull import linalg, spectral
from fractalhull.decide import analyze_model, inverse_eigenvalue_classes
from fractalhull.hull import convex_hull
from fractalhull.ifs import validate_model
from fractalhull.linalg import RATIONAL, ToleranceConfig, make_matrix, transpose
from fractalhull.spectral import (
    classify_angle,
    compute_step_bound,
    distinct_eigenvalues,
    exact_angle_denominator,
    facet_normal_criterion,
    validate_spectrum,
)

TOL = ToleranceConfig()


def test_positive_real():
    cls = classify_angle(complex(2.0, 0.0), TOL)
    assert cls.modulus == 2.0
    assert cls.rational_angle == (0, 1)


def test_negative_real():
    cls = classify_angle(complex(-3.0, 0.0), TOL)
    assert cls.rational_angle == (1, 1)
    # and the same for the conjugate representation with negative zero
    cls = classify_angle(complex(-3.0, -0.0), TOL)
    assert cls.rational_angle == (1, 1)


def test_quarter_turn():
    cls = classify_angle(complex(1.0, 1.0), TOL)
    assert abs(cls.modulus - math.sqrt(2)) < 1e-12
    assert cls.rational_angle == (1, 4)


def test_irrational_angle_rejected_and_best_candidate():
    lam = 2.0 * cmath.exp(1j)
    cls = classify_angle(lam, TOL)
    assert cls.rational_angle is None
    # with a loose tolerance the denominator scan first hits 7/22,
    # which misses the angle of 1 radian by about 4e-4
    loose = ToleranceConfig(angle_tol=1e-3)
    cls = classify_angle(lam, loose)
    assert cls.rational_angle == (7, 22)
    assert 3.5e-4 < abs(1.0 - math.pi * 7 / 22) < 4.5e-4


def test_conjugate_symmetry():
    rng = random.Random(2)
    for _ in range(200):
        lam = cmath.rect(rng.uniform(0.1, 3.0), rng.uniform(-math.pi, math.pi))
        a = classify_angle(lam, TOL)
        b = classify_angle(lam.conjugate(), TOL)
        if a.rational_angle is None:
            assert b.rational_angle is None
        else:
            p, n = a.rational_angle
            if abs(p) == n or p == 0:  # real axis: conjugation is the identity
                assert b.rational_angle == (p, n)
            else:
                assert b.rational_angle == (-p, n)


def test_loose_tolerance_takes_the_smallest_denominator():
    """At angle_tol 1e-3 the first denominator within tolerance wins, up to denom_max."""
    loose = ToleranceConfig(angle_tol=1e-3)
    cls = classify_angle(complex(2.0135905999322103, 2.063935422233594), loose)
    assert cls.rational_angle == (15, 59)  # 16/63 is also within 1e-3
    cls = classify_angle(complex(0.37511590243821535, -0.1635733609016288), loose)
    assert cls.rational_angle == (-8, 61)


def test_float_scan_tests_fractions_in_lowest_terms():
    """This angle misses -2*pi/3 by 1.00000008e-9, but -26*pi/39 rounds to within 1e-9."""
    cls = classify_angle(complex(-0.10548510846328531, -0.18270556687838357), TOL)
    assert abs(cls.angle - math.pi * -26 / 39) <= TOL.angle_tol < abs(cls.angle - math.pi * -2 / 3)
    assert cls.rational_angle is None


@given(st.floats(-math.pi, math.pi), st.sampled_from([1e-9, 1e-6, 1e-3, 1e-2]))
@settings(max_examples=300, deadline=None)
def test_float_scan_is_the_smallest_qualifying_fraction(angle, angle_tol):
    """classify_angle agrees with a search of every p/n in lowest terms, n <= denom_max."""
    tol = ToleranceConfig(angle_tol=angle_tol, denom_max=40)
    cls = classify_angle(cmath.rect(1.5, angle), tol)
    hits = [
        (n, p)
        for n in range(1, tol.denom_max + 1)
        for p in range(-n - 1, n + 2)
        if math.gcd(p, n) == 1 and abs(cls.angle - math.pi * p / n) <= angle_tol
    ]
    if not hits:
        assert cls.rational_angle is None
        return
    n = hits[0][0]
    p, m = cls.rational_angle
    assert m == n and (n, p) in hits and math.gcd(p, n) == 1


def _order_2x2_reference(matrix, k_max):
    """Smallest k <= k_max with lambda**k real, and that real value, for a 2x2
    rational matrix with a complex pair lambda, conj(lambda); None if none.

    With lambda^2 = t*lambda - d (t = trace, d = det), powers satisfy
    lambda^k = a_k*lambda + b_k where a_1 = 1, b_1 = 0 and
    a_{k+1} = t*a_k + b_k, b_{k+1} = -d*a_k.  Since lambda is not real,
    lambda^k is real exactly when a_k = 0, and then it equals b_k.
    """
    t = matrix[0][0] + matrix[1][1]
    d = linalg.det(matrix)
    assert t * t - 4 * d < 0
    a, b = F(1), F(0)  # lambda^1 = 1*lambda + 0
    for k in range(1, k_max + 1):
        if a == 0:
            return k, b
        a, b = t * a + b, -d * a
    return None


def test_exact_angle_order_quarter_turn():
    T_inv = make_matrix([[1, -1], [1, 1]], RATIONAL)  # eigenvalues 1 +- i
    assert exact_angle_denominator(T_inv, 64) == 4
    assert _order_2x2_reference(T_inv, 128) == (4, F(-4))


def test_exact_angle_order_half_turn():
    T_inv = make_matrix([[0, -2], [2, 0]], RATIONAL)  # eigenvalues +-2i
    assert exact_angle_denominator(T_inv, 64) == 2
    assert _order_2x2_reference(T_inv, 128) == (2, F(-4))


def test_exact_angle_order_irrational():
    T_inv = make_matrix([[1, -2], [1, 1]], RATIONAL)
    assert exact_angle_denominator(T_inv, 64) is None
    assert _order_2x2_reference(T_inv, 128) is None


def test_exact_angle_order_preconditions(monkeypatch):
    """The exact rule speaks of non-real eigenvalues, so it runs only when a class is non-real.

    diag(1/2, -1/2) has a real spectrum whose squares collide, where the
    discriminant test alone would report denominator 2.
    """
    T = make_matrix([[F(1, 2), 0], [0, F(-1, 2)]], RATIONAL)
    assert exact_angle_denominator(T, 64) == 2
    calls = []
    real = spectral.exact_angle_denominator
    monkeypatch.setattr(spectral, "exact_angle_denominator", lambda *a: calls.append(a) or real(*a))
    classes = inverse_eigenvalue_classes(validate_model(T, [[0, 0], [1, 0], [0, 1]]))
    assert [c.rational_angle for c in classes] == [(1, 1), (0, 1)]
    assert calls == []
    rotation = validate_model([[0, F(-1, 2)], [F(1, 2), 0]], [[0, 0], [1, 0], [0, 1]])
    assert [c.rational_angle for c in inverse_eigenvalue_classes(rotation)] == [(-1, 2), (1, 2)]
    assert len(calls) == 1


# the closed form for a 2x2 matrix with eigenvalues r*exp(+-i*theta):
# tr^2/det = 4*cos(theta)^2, which is 0, 1, 2, 3 at the denominators 2, 3, 4, 6
# and 4 at a real double root (n = 1)
_CLOSED_FORM = {F(0): 2, F(1): 3, F(2): 4, F(3): 6, F(4): 1}
_DENOMINATOR_CASES = {
    1: [[F(1, 2), 1], [0, F(1, 2)]],  # a Jordan block: a real double root
    2: [[0, -1], [1, 0]],
    3: [[0, -1], [1, 1]],
    4: [[1, -1], [1, 1]],
    6: [[1, -1], [1, 2]],
}


def _closed_form_denominator(matrix):
    tr = matrix[0][0] + matrix[1][1]
    return _CLOSED_FORM.get(tr * tr / linalg.det(matrix))


def _conjugated(matrix, rng):
    """scale * P matrix P^-1 for a random rational P and scale: the same angles."""
    while True:
        P = make_matrix([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)], RATIONAL)
        det = linalg.det(P)
        if det != 0:
            break
    (a, b), (c, d) = P
    P_inv = ((d / det, -b / det), (-c / det, a / det))
    scale = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
    return tuple(tuple(scale * x for x in row) for row in linalg.mat_mul(linalg.mat_mul(P, matrix), P_inv))


def test_exact_denominators_match_the_2x2_closed_form():
    rng = random.Random(5)
    for n, rows in _DENOMINATOR_CASES.items():
        base = make_matrix(rows, RATIONAL)
        for matrix in [base] + [_conjugated(base, rng) for _ in range(20)]:
            assert _closed_form_denominator(matrix) == n
            assert exact_angle_denominator(matrix, 64) == n
            assert exact_angle_denominator(matrix, n - 1) is None  # the cap on n
    checked = 0
    while checked < 300:
        matrix = make_matrix(
            [[F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2)] for _ in range(2)], RATIONAL
        )
        if linalg.det(matrix) == 0:
            continue
        checked += 1
        tr, det = matrix[0][0] + matrix[1][1], linalg.det(matrix)
        if tr * tr <= 4 * det:  # a complex pair or a double root
            assert exact_angle_denominator(matrix, 64) == _closed_form_denominator(matrix)


def _denominator_by_powers(matrix, denom_max):
    """exact_angle_denominator as it read every n, n = 1 too, off the monic
    characteristic polynomial of matrix**n."""
    power, exponent = matrix, 1
    for n in spectral.EXACT_DENOMINATORS:
        if n > denom_max:
            break
        while exponent < n:
            power, exponent = linalg.mat_mul(power, matrix), exponent + 1
        coeffs = linalg.char_poly(power)[1:]
        if len(coeffs) == 2:
            a, b = coeffs
            disc = a * a - 4 * b
        else:
            a, b, c = coeffs
            disc = a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c
        if disc == 0:
            return n
    return None


_GOLDEN_3D = (
    ([[0, 0, F(1, 2)], [F(1, 2), 0, 0], [0, F(1, 2), 0]], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ([[F(1, 3), F(1, 5), 0], [F(-1, 4), F(2, 5), F(1, 7)], [F(1, 6), 0, F(-1, 3)]],
     [[0, 0, 0], [1, 0, 0], [0, 1, 0], [F(1, 3), F(2, 3), 1]]),
    ([[0, F(-3, 4), 0], [F(1, 4), F(3, 4), 0], [0, 0, F(-1, 3)]],
     [[0, 0, 0], [1, 0, 0], [0, 1, 0], [F(1, 3), F(2, 3), 1]]),
)


def test_denominator_from_the_validated_chi_equals_the_power_path():
    """n = 1 reads the primitive integer chi_T kept by validation; the
    denominators equal the path that built chi of every power, on the 100
    planar-exact models, the golden 3D models and the closed-form cases."""
    models = suite5_models() + [validate_model(m, d) for m, d in _GOLDEN_3D]
    models += [
        validate_model([[F(c, 3) for c in row] for row in rows], [[0, 0], [1, 0], [0, 1]])
        for rows in _DENOMINATOR_CASES.values()
    ]
    found = set()
    for model in models:
        M = model.lattice[0]
        assert model.integer_char_poly == linalg.integer_char_poly(model.matrix)
        for denom_max in (1, 4, 64):
            expected = _denominator_by_powers(M, denom_max)
            assert exact_angle_denominator(M, denom_max, model.integer_char_poly) == expected
            assert exact_angle_denominator(M, denom_max) == expected
            found.add(expected)
    assert {1, 2, 3, 4, 6, None} <= found


def test_exact_agrees_with_float_classification():
    """The exact denominator equals the 2x2 recurrence's order, and a rational
    angle is present whenever the float residual is clearly inside the
    tolerance band and absent whenever it is clearly outside."""
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        T_inv = make_matrix(
            [[F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(2)] for _ in range(2)],
            RATIONAL,
        )
        tr = T_inv[0][0] + T_inv[1][1]
        d = T_inv[0][0] * T_inv[1][1] - T_inv[0][1] * T_inv[1][0]
        if tr * tr - 4 * d >= 0:
            continue
        checked += 1
        exact = exact_angle_denominator(T_inv, TOL.denom_max)
        reference = _order_2x2_reference(T_inv, 2 * TOL.denom_max)
        assert exact == (reference[0] if reference else None)
        re = float(tr) / 2.0
        im = math.sqrt(float(4 * d - tr * tr)) / 2.0
        cls = classify_angle(complex(re, im), TOL)
        if cls.rational_angle is not None:
            residual = abs(cls.angle - math.pi * cls.rational_angle[0] / cls.rational_angle[1])
        else:
            residual = math.inf
        if residual < TOL.angle_tol / 10:
            assert exact == cls.rational_angle[1]
        elif residual > 10 * TOL.angle_tol:
            assert exact is None


_E2 = [[0, 0], [1, 0], [0, 1]]
_E3 = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
# the best approximation of tan(pi/5) with denominator up to 10^6, times 1/2:
# an irrational angle 3.1e-12 from pi/5
_PI_5 = F(46041, 126740)


def test_pi_over_5_approximant_has_no_rational_angle():
    model = validate_model([[F(1, 2), -_PI_5], [_PI_5, F(1, 2)]], _E2)
    assert [c.rational_angle for c in inverse_eigenvalue_classes(model)] == [None, None]
    decision, report = analyze_model(model)
    assert decision.verdict == "NOT_POLYTOPE_EMPTY_U"
    assert report.bound is None and report.counts == ()
    # float input at the default tolerance still sees pi/5
    floats = validate_model([[0.5, -float(_PI_5)], [float(_PI_5), 0.5]], _E2, mode="float")
    assert [c.rational_angle for c in inverse_eigenvalue_classes(floats)] == [(-1, 5), (1, 5)]


def test_irreducible_cubic_classes():
    """x^3 = 1/2: the eigenvalues of T^{-1} are 2^(1/3) times the cube roots of unity."""
    model = validate_model([[0, 0, F(1, 2)], [1, 0, 0], [0, 1, 0]], _E3)
    classes = inverse_eigenvalue_classes(model)
    assert [c.rational_angle for c in classes] == [(-2, 3), (2, 3), (0, 1)]
    assert compute_step_bound(tuple(classes)).k == 18


def test_k72_model_classes():
    """A complex pair at angle pi/6 plus a negative real eigenvalue: the 3D bound k = 72."""
    model = validate_model(
        [[0, F(-3, 4), 0], [F(1, 4), F(3, 4), 0], [0, 0, F(-1, 3)]],
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [F(1, 3), F(2, 3), 1]],
    )
    classes = inverse_eigenvalue_classes(model)
    assert [c.rational_angle for c in classes] == [(1, 1), (-1, 6), (1, 6)]
    assert compute_step_bound(tuple(classes)).k == 72


def test_step_bound_scalar_half():
    model = sierpinski_model()
    classes = [classify_angle(complex(2.0, 0.0), TOL)]
    bound = compute_step_bound(classes)
    assert bound.k == 2 and len(bound.classes) == 1
    assert model.dim == 2


def test_step_bound_twin_dragon():
    classes = [classify_angle(z, TOL) for z in (complex(1, -1), complex(1, 1))]
    product = compute_step_bound(classes, "product")
    assert product.k == 32
    lcm = compute_step_bound(classes, "lcm")
    assert lcm.k == 8
    for bound in (product, lcm):
        for cls in bound.classes:
            assert bound.k % (2 * cls.rational_angle[1]) == 0


def test_step_bound_empty():
    lam = 2.0 * cmath.exp(1j)
    classes = [classify_angle(lam, TOL), classify_angle(lam.conjugate(), TOL)]
    assert compute_step_bound(classes) is None


def test_u_members_have_real_positive_power():
    classes = [classify_angle(z, TOL) for z in (complex(1, -1), complex(1, 1), complex(3, 0))]
    bound = compute_step_bound(classes)
    for cls in bound.classes:
        power = cls.value**bound.k
        assert abs(power.imag) <= 1e-6 * abs(cls.value) ** bound.k
        assert power.real > 0


def test_distinct_eigenvalues_collapse():
    vals = [complex(2, 0), complex(2, 0), complex(1, 1)]
    assert distinct_eigenvalues(vals) == [complex(1, 1), complex(2, 0)]


def test_validate_spectrum():
    ok = validate_spectrum(make_matrix([[F(1, 2), 0], [0, F(1, 2)]], RATIONAL))
    assert ok.ok and ok.violation is None
    bad = validate_spectrum(make_matrix([[1, 0], [0, 1]], RATIONAL))
    assert bad.violation == "not_contracting"
    sing = validate_spectrum(make_matrix([[F(1, 2), 0], [F(1, 2), 0]], RATIONAL))
    assert sing.violation == "nonsingularity_failed"


_NEAR_1 = F(1, 10**20)


def test_validate_spectrum_is_exact_for_rational_input():
    """Jury's test decides rho < 1 exactly, where the float radius rounds to 1."""
    def check(rows):
        return validate_spectrum(make_matrix(rows, RATIONAL)).violation

    assert check([[0, 1], [-(1 - _NEAR_1), 0]]) is None  # rho = sqrt(1 - 1e-20)
    assert check([[0, 0, 1 - F(1, 10**18)], [1, 0, 0], [0, 1, 0]]) is None  # x^3 = 1 - 1e-18
    assert check([[1 - _NEAR_1]]) is None
    for rows in (
        [[0, 1], [-1, 0]],  # rho = 1 exactly
        [[0, 1], [-(1 + _NEAR_1), 0]],
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[0, 0, 1 + F(1, 10**18)], [1, 0, 0], [0, 1, 0]],
        [[-1]],
        [[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, -1]],
    ):
        assert check(rows) == "not_contracting"


def test_jury_test_matches_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(23)
    checked = 0
    while checked < 600:
        n = rng.randint(1, 3)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
        rho = max(abs(np.linalg.eigvals(np.array(rows, dtype=float))))
        if abs(rho - 1) <= 1e-9 or linalg.det(rows) == 0:
            continue
        checked += 1
        assert (validate_spectrum(make_matrix(rows, RATIONAL)).violation is None) == (rho < 1)


def test_near_1_rotation_is_certified():
    model = validate_model([[0, 1], [-(1 - _NEAR_1), 0]], _E2)
    decision, report = analyze_model(model)
    assert decision.verdict == "POLYTOPE" and decision.certified
    assert len(decision.vertices) == 8
    assert decision.stabilization_index == 4 and report.bound.k == 8


def test_validate_spectrum_near_contraction_warning():
    check = validate_spectrum(
        make_matrix([[1.0 - 1e-10, 0.0], [0.0, 0.5]], "float"), mode="float"
    )
    assert check.ok
    assert any("within 1e-9" in w for w in check.warnings)


def test_normal_criterion_scalar_matrix():
    model = sierpinski_model()
    res = facet_normal_criterion(model.matrix, model.digits, 2)
    assert res.verdict == "polytope"
    assert all(check.k_found == 1 for check in res.checks)
    assert len(res.checks) == 3


def test_normal_criterion_diagonal_fails_on_hypotenuse():
    model = diag_model()
    res = facet_normal_criterion(model.matrix, model.digits, 64)
    assert res.verdict == "not_polytope"
    failing = [check for check in res.checks if check.k_found is None]
    assert len(failing) == 1
    normal = failing[0].normal
    assert normal[0] == normal[1] and normal[0] > 0  # hypotenuse direction (1, 1)


def test_normal_criterion_degenerate_digit_hull():
    model = twin_dragon_model()
    res = facet_normal_criterion(model.matrix, model.digits, 32)
    assert res.verdict == "inapplicable"


def test_normal_criterion_digit_scaling_invariance():
    model = diag_model()
    res = facet_normal_criterion(model.matrix, model.digits, 8)
    for scale in (F(1, 3), F(2), F(7, 5)):
        scaled = tuple(tuple(scale * c for c in d) for d in model.digits)
        res2 = facet_normal_criterion(model.matrix, scaled, 8)
        assert res2.verdict == res.verdict
        assert [c.k_found for c in res2.checks] == [c.k_found for c in res.checks]


def _fraction_criterion(matrix, digits, k_cap, eps=0.0):
    """(verdict, [(repr(normal), k_found)]) by w = T^T w on Fractions, the loop as it ran before.

    With eps > 0 (float input) both norms of the parallelism test are taken at
    every power.  The mat-vec is the generic sum of products, as linalg's ran
    before it spelled out n = 2 and 3.
    """
    digit_hull = convex_hull(digits, eps=eps)
    if digit_hull.affine_dim < len(matrix):
        return "inapplicable", []
    tmat = transpose(matrix)
    checks = []
    for normal, _offset in digit_hull.facets:
        w, k_found = normal, None
        for k in range(1, k_cap + 1):
            w = tuple(sum(a * b for a, b in zip(row, w)) for row in tmat)
            if len(w) == 2:
                cross = (w[0] * normal[1] - w[1] * normal[0],)
            else:
                cross = (
                    w[1] * normal[2] - w[2] * normal[1],
                    w[2] * normal[0] - w[0] * normal[2],
                    w[0] * normal[1] - w[1] * normal[0],
                )
            if eps:
                nu = math.sqrt(sum(float(a) ** 2 for a in w))
                nv = math.sqrt(sum(float(a) ** 2 for a in normal))
                if len(w) == 2:
                    size = abs(float(cross[0]))
                else:
                    cx, cy, cz = map(float, cross)
                    size = math.sqrt(cx**2 + cy**2 + cz**2)
                parallel = size <= eps * nu * nv
            else:
                parallel = not any(cross)
            if parallel:
                k_found = k
                break
        checks.append((repr(normal), k_found))
    if not checks:
        return "inapplicable", checks
    return ("polytope" if all(k is not None for _, k in checks) else "not_polytope"), checks


# a rotation by atan(4/3), an irrational multiple of pi, scaled by 1/2, and a 3D extension
_IRRATIONAL_2D = validate_model(
    [[F(3, 10), F(-2, 5)], [F(2, 5), F(3, 10)]], [[0, 0], [1, 0], [0, 1]]
)
_IRRATIONAL_3D = validate_model(
    [[F(3, 10), F(-2, 5), 0], [F(2, 5), F(3, 10), 0], [0, 0, F(1, 3)]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],  # a prism
)


_TRIANGLE, _CORNER = [[0, 0], [1, 0], [0, 1]], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
# Parallelism takes either sign, so a normal recurs when T^k is a real
# multiple of the identity on it: a quarter turn at k = 2 (T^2 = -I/4) and
# a sixth turn at k = 3 (T^3 = -I/8), where the direction itself comes back
# at k = 4 and k = 6.
_QUARTER_TURN = validate_model([[0, F(-1, 2)], [F(1, 2), 0]], _TRIANGLE)
_SIXTH_TURN = validate_model([[0, F(-1, 2)], [F(1, 2), F(1, 2)]], _TRIANGLE)
# only the eigen-direction (0, -1) of T^T recurs
_SHEAR = validate_model([[F(1, 2), F(1, 2)], [0, F(1, 2)]], _TRIANGLE)
# a quarter turn on the invariant plane z = 0 and the real axis z
_PLANE_AND_AXIS = validate_model([[0, F(-1, 2), 0], [F(1, 2), 0, 0], [0, 0, F(1, 3)]], _CORNER)
# a cyclic permutation: the coordinate normals recur at k = 3
_CYCLIC = validate_model([[0, 0, F(1, 2)], [F(1, 2), 0, 0], [0, F(1, 2), 0]], _CORNER)


@given(rational_models())
@example(_IRRATIONAL_2D)
@example(_IRRATIONAL_3D)
@example(_CYCLIC)
@example(_QUARTER_TURN)
@example(_SIXTH_TURN)
@example(_SHEAR)
@example(_PLANE_AND_AXIS)
@settings(max_examples=150, deadline=None)
def test_integer_normal_recurrence_matches_fractions(model):
    """The Cayley-Hamilton pass finds what iterating each normal on Fractions finds.

    k_cap runs from 1 up, through the k at which the examples' normals recur,
    so that some k_found equals k_cap.
    """
    assume(model.dim > 1)
    for k_cap in (1, 2, 3, 12, 64):
        res = facet_normal_criterion(model.matrix, model.digits, k_cap)
        verdict, checks = _fraction_criterion(model.matrix, model.digits, k_cap)
        assert res.verdict == verdict
        assert [(repr(c.normal), c.k_found) for c in res.checks] == checks


def test_integer_normal_recurrence_known_periods():
    def found(model, k_cap=64):
        res = facet_normal_criterion(model.matrix, model.digits, k_cap)
        return res.verdict, [c.k_found for c in res.checks]

    assert found(_QUARTER_TURN) == ("polytope", [2, 2, 2])
    assert found(_QUARTER_TURN, k_cap=2) == ("polytope", [2, 2, 2])
    assert found(_QUARTER_TURN, k_cap=1) == ("not_polytope", [None, None, None])
    assert found(_SIXTH_TURN) == ("polytope", [3, 3, 3])
    assert found(_SHEAR)[0] == "not_polytope"
    assert found(_SHEAR)[1].count(1) == 1 and found(_SHEAR)[1].count(None) == 2
    assert found(_PLANE_AND_AXIS) == ("not_polytope", [2, 2, 1, None])
    assert found(_CYCLIC, k_cap=3) == ("polytope", [3, 3, 3, 1])


@pytest.mark.parametrize("model", [_IRRATIONAL_2D, _IRRATIONAL_3D, _SHEAR, _PLANE_AND_AXIS])
def test_integer_normal_recurrence_makes_n_minus_1_products_per_normal(model, monkeypatch):
    """The pass over k multiplies no vector: A^i r for i < n per normal, whatever k_cap is."""
    calls = []
    real = linalg.mat_vec
    monkeypatch.setattr(linalg, "mat_vec", lambda a, x: calls.append(x) or real(a, x))
    for k_cap in (1, 64, 400):
        calls.clear()
        res = facet_normal_criterion(model.matrix, model.digits, k_cap)
        assert 0 < len(calls) <= (model.dim - 1) * len(res.checks)


_COS, _SIN = math.cos(5e-10), math.sin(5e-10)


@given(rational_models())
@example(_IRRATIONAL_3D)
# a float rotation by 5e-10: its normals, of length 10 to 14, pass the eps
# test at k = 1 only with the right norms
@example(validate_model(
    [[0.5 * _COS, -0.5 * _SIN], [0.5 * _SIN, 0.5 * _COS]], [[0, 0], [10, 0], [0, 10]], mode="float"
))
@settings(max_examples=100, deadline=None)
def test_float_normal_recurrence_matches_per_power_norms(model):
    """Float mode takes the start normal's norm once; k_found stays bit for bit."""
    assume(model.dim > 1)
    model = float_mirror(model)
    for k_cap in (1, 12, 64):
        res = facet_normal_criterion(model.matrix, model.digits, k_cap, eps=1e-9)
        verdict, checks = _fraction_criterion(model.matrix, model.digits, k_cap, eps=1e-9)
        assert res.verdict == verdict
        assert [(repr(c.normal), c.k_found) for c in res.checks] == checks


def test_integer_normal_recurrence_irrational_angle():
    """No power of an irrational rotation fixes a slanted normal; the integers grow for 64 steps."""
    for model in (_IRRATIONAL_2D, _IRRATIONAL_3D):
        res = facet_normal_criterion(model.matrix, model.digits, 64)
        assert res.verdict == "not_polytope"
        assert [(repr(c.normal), c.k_found) for c in res.checks] == (
            _fraction_criterion(model.matrix, model.digits, 64)[1]
        )
    assert [c.k_found for c in facet_normal_criterion(
        _IRRATIONAL_3D.matrix, _IRRATIONAL_3D.digits, 64
    ).checks].count(1) == 2  # the normals +-e3 are eigenvectors


def test_float_normal_recurrence_stays_on_floats(monkeypatch):
    calls = []
    real = linalg.to_lattice
    monkeypatch.setattr(linalg, "to_lattice", lambda vectors: calls.append(1) or real(vectors))
    model = rot1_model()
    digits = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    res = facet_normal_criterion(model.matrix, digits, 8, eps=model.geom_eps())
    assert calls == []
    assert res.verdict == "not_polytope"
    assert all(type(c) is float for check in res.checks for c in check.normal)
    exact = sierpinski_model()
    facet_normal_criterion(exact.matrix, exact.digits, 2)
    assert calls  # the rational recurrence does scale onto the lattice


_K72 = validate_model(
    [[0, F(-3, 4), 0], [F(1, 4), F(3, 4), 0], [0, 0, F(-1, 3)]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [F(1, 3), F(2, 3), 1]],
)


@pytest.mark.parametrize("k_cap", [12, 72])
def test_float_cross_check_k_found_equals_the_generic_loop(k_cap):
    """The float criterion's normals and k_found, on the float mirrors of the
    100 suite models and of four 3D models, equal _fraction_criterion's."""
    models = suite5_models() + [_IRRATIONAL_3D, _PLANE_AND_AXIS, _CYCLIC, _K72]
    applicable = 0
    for model in map(float_mirror, models):
        res = facet_normal_criterion(model.matrix, model.digits, k_cap, eps=model.geom_eps())
        verdict, checks = _fraction_criterion(model.matrix, model.digits, k_cap, eps=model.geom_eps())
        assert (res.verdict, [(repr(c.normal), c.k_found) for c in res.checks]) == (verdict, checks)
        applicable += verdict != "inapplicable"
    assert applicable >= 50
