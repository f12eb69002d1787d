"""Angle classification, exact 2x2 order test, step bound, normal criterion."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings

from conftest import (
    diag_model,
    float_mirror,
    rational_models,
    rot1_model,
    sierpinski_model,
    twin_dragon_model,
)
from fractalhull import linalg
from fractalhull.errors import FractalHullError
from fractalhull.hull import convex_hull
from fractalhull.ifs import validate_model
from fractalhull.linalg import RATIONAL, ToleranceConfig, make_matrix, mat_vec, transpose
from fractalhull.spectral import (
    classify_angle,
    compute_step_bound,
    distinct_eigenvalues,
    exact_angle_order_2x2,
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
    # with a loose tolerance the continued-fraction scan surfaces 7/22,
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


def test_exact_angle_order_quarter_turn():
    T_inv = make_matrix([[1, -1], [1, 1]], RATIONAL)  # eigenvalues 1 +- i
    res = exact_angle_order_2x2(T_inv, 64)
    assert res.found and res.k == 4
    assert res.power_value == F(-4)


def test_exact_angle_order_half_turn():
    T_inv = make_matrix([[0, -2], [2, 0]], RATIONAL)  # eigenvalues +-2i
    res = exact_angle_order_2x2(T_inv, 64)
    assert res.found and res.k == 2
    assert res.power_value == F(-4)


def test_exact_angle_order_irrational():
    T_inv = make_matrix([[1, -2], [1, 1]], RATIONAL)
    res = exact_angle_order_2x2(T_inv, 64)
    assert not res.found


def test_exact_angle_order_preconditions():
    with pytest.raises(FractalHullError):
        exact_angle_order_2x2(make_matrix([[2, 0], [0, 3]], RATIONAL), 64)


def test_exact_agrees_with_float_classification():
    """Presence of a rational angle matches whenever the float residual is
    clearly inside or clearly outside the tolerance band."""
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
        exact = exact_angle_order_2x2(T_inv, TOL.denom_max)
        re = float(tr) / 2.0
        im = math.sqrt(float(4 * d - tr * tr)) / 2.0
        cls = classify_angle(complex(re, im), TOL)
        if cls.rational_angle is not None:
            residual = abs(cls.angle - math.pi * cls.rational_angle[0] / cls.rational_angle[1])
        else:
            residual = math.inf
        clearly_in = residual < TOL.angle_tol / 10
        clearly_out = residual > 10 * TOL.angle_tol
        if clearly_in:
            assert exact.found and exact.k <= TOL.denom_max
        elif clearly_out:
            assert not (exact.found and exact.k <= TOL.denom_max)


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

    With eps > 0 (float input) both norms of the parallelism test are taken at every power.
    """
    digit_hull = convex_hull(digits, eps=eps)
    if digit_hull.affine_dim < len(matrix):
        return "inapplicable", []
    tmat = transpose(matrix)
    checks = []
    for normal, _offset in digit_hull.facets:
        w, k_found = normal, None
        for k in range(1, k_cap + 1):
            w = mat_vec(tmat, w)
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


@given(rational_models())
@example(_IRRATIONAL_2D)
@example(_IRRATIONAL_3D)
@example(validate_model(  # a cyclic permutation: the coordinate normals recur at k = 3
    [[0, 0, F(1, 2)], [F(1, 2), 0, 0], [0, F(1, 2), 0]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
))
@settings(max_examples=150, deadline=None)
def test_integer_normal_recurrence_matches_fractions(model):
    assume(model.dim > 1)
    for k_cap in (1, 12, 64):
        res = facet_normal_criterion(model.matrix, model.digits, k_cap)
        verdict, checks = _fraction_criterion(model.matrix, model.digits, k_cap)
        assert res.verdict == verdict
        assert [(repr(c.normal), c.k_found) for c in res.checks] == checks


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
