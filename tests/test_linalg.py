"""Exact and float linear algebra: worked examples and random-matrix properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import spectral_radius
from fractalhull.errors import DimensionMismatch, ModeMismatch, SingularMatrix
from fractalhull.linalg import (
    RATIONAL,
    ToleranceConfig,
    _cubic_float_roots,
    _divisors,
    _rational_root,
    char_poly,
    det,
    dot,
    eigenvalues,
    identity,
    integer_char_poly,
    make_matrix,
    make_vector,
    mat_mul,
    mat_pow,
    mat_vec,
    norm2,
    operator_norm,
    solve,
    transpose,
    vec_add,
    vec_sub,
)

I2 = identity(2)


def frac_matrix(rows):
    return make_matrix(rows, RATIONAL)


def test_mat_pow_identity():
    assert mat_pow(I2, 5) == I2
    assert mat_pow(frac_matrix([[F(1, 2), 0], [0, F(1, 3)]]), 0) == I2


def test_mat_pow_keeps_integers():
    square = mat_pow(((1, 2), (3, 4)), 2)
    assert square == ((7, 10), (15, 22))
    assert all(type(c) is int for row in square for c in row)
    big = 2**60 + 1  # float(big) == 2**60, so a float detour would lose the square
    assert mat_pow(((big, 0), (0, 1)), 2) == ((big * big, 0), (0, 1))
    assert mat_pow(((big, 0), (0, 1)), 0) == ((1, 0), (0, 1))
    assert all(type(c) is F for row in mat_pow(I2, 0) for c in row)


def test_mat_pow_diagonal():
    T = frac_matrix([[F(1, 2), 0], [0, F(1, 3)]])
    assert mat_pow(T, 2) == frac_matrix([[F(1, 4), 0], [0, F(1, 9)]])


def test_mat_pow_rotation_scale_by_repeated_multiplication():
    T = frac_matrix([[F(1, 2), F(-1, 2)], [F(1, 2), F(1, 2)]])
    # oracle: naive repeated exact multiplication
    acc = I2
    for _ in range(8):
        acc = mat_mul(acc, T)
    assert mat_pow(T, 8) == acc
    assert acc == frac_matrix([[F(1, 16), 0], [0, F(1, 16)]])


def test_mat_pow_additivity_exact():
    rng = random.Random(5)
    for _ in range(25):
        T = frac_matrix(
            [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
        )
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        assert mat_pow(T, a + b) == mat_mul(mat_pow(T, a), mat_pow(T, b))


def test_solve_identity():
    assert solve(I2, (F(3), F(4))) == (F(3), F(4))


def test_solve_geometric_series_shift():
    A = frac_matrix([[F(1, 2), 0], [0, F(1, 2)]])  # I - (1/2)I
    assert solve(A, (F(1, 2), F(0))) == (F(1), F(0))


def test_solve_singular():
    with pytest.raises(SingularMatrix):
        solve(frac_matrix([[1, 1], [2, 2]]), (F(1), F(1)))


def test_solve_roundtrip_exact():
    rng = random.Random(11)
    produced = 0
    while produced < 50:
        n = rng.choice((1, 2, 3))
        A = make_matrix(
            [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)],
            RATIONAL,
        )
        b = make_vector([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)], RATIONAL)
        try:
            x = solve(A, b)
        except SingularMatrix:
            continue
        assert mat_vec(A, x) == b  # exact
        produced += 1


def test_eigenvalues_examples():
    eig = eigenvalues(frac_matrix([[F(1, 2), 0], [0, F(1, 3)]]))
    assert eig == [complex(1 / 3), complex(0.5)]

    eig = eigenvalues(frac_matrix([[0, F(-1, 2)], [F(1, 2), 0]]))
    assert eig == [complex(0, -0.5), complex(0, 0.5)]

    eig = eigenvalues(frac_matrix([[1, -1], [1, 1]]))
    assert eig == [complex(1, -1), complex(1, 1)]


def inf_norm(matrix):
    return max(sum(abs(float(v)) for v in row) for row in matrix)


def char_residual(matrix, lam):
    """|det(matrix - lam I)| evaluated in complex floats."""
    rows = [[complex(float(v), 0.0) for v in row] for row in matrix]
    for i in range(len(rows)):
        rows[i][i] -= lam
    if len(rows) == 1:
        return abs(rows[0][0])
    if len(rows) == 2:
        return abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    (a, b, c), (d, e, f), (g, h, i) = rows
    return abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def test_eigenvalue_residuals_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        T = make_matrix(
            [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)],
            RATIONAL,
        )
        bound = 1e-8 * (1.0 + inf_norm(T) ** n)
        eigs = eigenvalues(T)
        assert len(eigs) == n
        for lam in eigs:
            assert char_residual(T, lam) <= bound
        # independent oracle: numpy on the float image of T
        np_eigs = sorted(np.linalg.eigvals(np.array(T, dtype=float)), key=lambda z: (z.real, z.imag))
        for mine, ref in zip(eigs, np_eigs):
            assert abs(mine - ref) <= 1e-6 * (1.0 + abs(ref))


def _fraction_rational_root(coeffs):
    """The rational root test as it ran on Fractions: every +-p/q built and sorted
    by (denominator, |numerator|, sign), the cubic evaluated on each."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    if ints[-1] == 0:
        return F(0)
    if abs(ints[-1]) > 10**12 or abs(ints[0]) > 10**12:
        return None
    candidates = {s * F(p, q) for q in _divisors(ints[0]) for p in _divisors(ints[-1]) for s in (1, -1)}
    for cand in sorted(candidates, key=lambda f: (f.denominator, abs(f.numerator), f < 0)):
        acc = F(0)
        for c in coeffs:
            acc = acc * cand + c
        if acc == 0:
            return cand
    return None


_entry = st.one_of(
    st.sampled_from((F(0), F(1), F(-1))),
    st.builds(F, st.integers(-12, 12), st.integers(1, 12)),
)


@given(st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_rational_root_on_integers_finds_the_fraction_root(rows):
    """The integer test finds the root the Fraction test found first, the one
    the eigenvalues deflate, so they stay bit-identical; it returns x/q as (x, q)."""
    coeffs = char_poly(frac_matrix(rows))
    root = _fraction_rational_root(coeffs)
    found = _rational_root(integer_char_poly(frac_matrix(rows)))
    assert found == (None if root is None else root.as_integer_ratio())


def _reference_exact_sqrt(value):
    """Square root of a nonnegative Fraction if it is itself rational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return F(rn, rd)
    return None


def _reference_divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def test_divisors_ascend_as_the_reference():
    for n in [*range(-50, 3000), 2**40, 3**25, 10**12, 999983 * 1000003]:
        assert _divisors(n) == _reference_divisors(n)


def _reference_rational_root(coeffs):
    """One exact root of a monic cubic with Fraction coefficients, or None."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    a, b, c, d = (int(x * lcm) for x in coeffs)
    if d == 0:
        return F(0)
    if abs(d) > 10**12 or abs(a) > 10**12:
        return None
    nums = _reference_divisors(d)
    for q in _reference_divisors(a):
        for p in nums:
            if math.gcd(p, q) == 1:
                for x in (p, -p):
                    if ((a * x + b * q) * x + c * q * q) * x + d * q**3 == 0:
                        return F(x, q)
    return None


def _reference_quadratic(b, c):
    """Roots of x^2 + b x + c for Fraction b, c, as complex floats."""
    disc = b * b - 4 * c
    if disc >= 0:
        s = _reference_exact_sqrt(disc)
        if s is not None:
            return [complex(float((-b - s) / 2)), complex(float((-b + s) / 2))]
        sf = math.sqrt(float(disc))
        return [complex((float(-b) - sf) / 2.0), complex((float(-b) + sf) / 2.0)]
    im = math.sqrt(float(-disc)) / 2.0
    re = float(-b) / 2.0
    return [complex(re, -im), complex(re, im)]


def _reference_eigenvalues(matrix):
    """The eigenvalues of a rational matrix as they ran on Fractions: char_poly
    of T, a Fraction rational root and deflation, the exact quadratic formula,
    and the float root finder on the rounded monic coefficients otherwise."""
    n = len(matrix)
    if n == 1:
        return [complex(float(matrix[0][0]), 0.0)]
    key = lambda z: (z.real, z.imag)  # noqa: E731
    if n == 2:
        tr = matrix[0][0] + matrix[1][1]
        return sorted(_reference_quadratic(-tr, det(matrix)), key=key)
    coeffs = char_poly(matrix)
    root = _reference_rational_root(coeffs)
    if root is None:
        return _cubic_float_roots(float(coeffs[1]), float(coeffs[2]), float(coeffs[3]))
    q1 = coeffs[1] + root
    q0 = coeffs[2] + root * q1
    return sorted([complex(float(root))] + _reference_quadratic(q1, q0), key=key)


# large enough that a cubic's integer coefficients pass 10^12 and skip the
# rational root search
_large_entry = st.builds(F, st.integers(-10**9, 10**9), st.integers(10**5, 10**7))


def _shear(rows, i, j, k):
    """P rows P^-1 for P = I + k E_ij (i != j): the same eigenvalues, not triangular."""
    n = len(rows)
    P = [[F(int(a == b) + (k if (a, b) == (i, j) else 0)) for b in range(n)] for a in range(n)]
    P_inv = [[F(int(a == b) - (k if (a, b) == (i, j) else 0)) for b in range(n)] for a in range(n)]
    return mat_mul(mat_mul(P, rows), P_inv)


@st.composite
def _rational_matrices(draw):
    """Homotheties, triangular matrices (all roots rational), sheared ones with a
    repeated root, generic matrices, and large entries."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("homothety", "triangular", "repeated", "generic", "large")))
    entry = _large_entry if kind == "large" else _entry
    if kind == "homothety":
        c = draw(entry)
        return frac_matrix([[c if i == j else 0 for j in range(n)] for i in range(n)])
    if kind == "generic" or kind == "large" and draw(st.booleans()):
        return frac_matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    diagonal = draw(st.lists(entry, min_size=n, max_size=n))
    if kind == "repeated":
        diagonal = [diagonal[0]] * (n - 1) + [draw(st.sampled_from((diagonal[0], diagonal[-1])))]
    rows = [[diagonal[i] if i == j else draw(entry) if j > i else F(0) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        rows = _shear(rows, i, j, draw(st.integers(-3, 3)))
    return frac_matrix(rows)


@given(_rational_matrices())
# triangular cubics past the 10^12 skip, the first just past it (a = 1.005e12):
# their rational roots come from the float root finder, not the exact search
@example(frac_matrix([[F(1, 10007), 1, 0], [0, F(-1, 10009), 1], [0, 0, F(1, 10037)]]))
@example(frac_matrix([[F(1, 1000003), 1, 0], [0, F(-1, 1000033), 1], [0, 0, F(1, 999983)]]))
@settings(max_examples=400, deadline=None)
def test_rational_eigenvalues_equal_the_fraction_path_bit_for_bit(T):
    """eigenvalues and operator_norm on the integer characteristic polynomial
    give the reprs of the Fraction path they replaced."""
    assert repr(eigenvalues(T)) == repr(_reference_eigenvalues(T))
    gram = mat_mul(transpose(T), T)
    top = max(z.real for z in _reference_eigenvalues(gram))
    assert repr(operator_norm(T)) == repr(math.sqrt(max(top, 0.0)))


@given(_rational_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_char_poly_is_the_primitive_monic_chi(T):
    """gcd 1, a positive leading coefficient, and the monic chi times the lcm of its denominators."""
    coeffs = integer_char_poly(T)
    monic = char_poly(T)
    lcm = math.lcm(*(c.denominator for c in monic))
    assert all(type(c) is int for c in coeffs)
    assert math.gcd(*coeffs) == 1 and coeffs[0] > 0
    assert coeffs == tuple(c * lcm for c in monic)


def test_char_poly_keeps_the_scalar_kind_of_the_entries():
    """An integer matrix gets the int 1 as its leading coefficient, as Fractions
    get Fraction(1) and floats 1.0."""
    rows = [[2, -1, 0], [1, 3, 1], [0, 4, -2]]
    floats = [[float(c) for c in row] for row in rows]
    for matrix, kind in ((rows, int), (frac_matrix(rows), F), (floats, float)):
        coeffs = char_poly(matrix)
        assert coeffs == (1, -3, -7, 22) and {type(c) for c in coeffs} == {kind}


def test_spectral_radius_examples():
    assert spectral_radius(frac_matrix([[F(1, 2), 0], [0, F(1, 2)]])) == 0.5
    r = spectral_radius(frac_matrix([[F(1, 2), F(-1, 2)], [F(1, 2), F(1, 2)]]))
    assert abs(r - 2 ** -0.5) < 1e-12
    assert spectral_radius(frac_matrix([[2, 0], [0, F(1, 3)]])) == 2.0


def test_spectral_radius_power_property():
    rng = random.Random(3)
    for _ in range(40):
        T = frac_matrix(
            [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
        )
        r = spectral_radius(T)
        if r == 0.0:
            continue
        k = rng.randint(1, 8)
        rk = spectral_radius(mat_pow(T, k))
        assert abs(rk - r**k) <= 1e-6 * max(r**k, 1e-30)


def test_operator_norm_examples():
    assert operator_norm(I2) == 1.0
    assert operator_norm(frac_matrix([[F(1, 2), 0], [0, F(1, 3)]])) == 0.5
    n = operator_norm(frac_matrix([[F(1, 2), F(-1, 2)], [F(1, 2), F(1, 2)]]))
    assert abs(n - 2 ** -0.5) < 1e-12


def test_operator_norm_against_numpy():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.choice((2, 3))
        T = make_matrix(
            [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)],
            RATIONAL,
        )
        ref = np.linalg.norm(np.array(T, dtype=float), ord=2)
        assert abs(operator_norm(T) - ref) <= 1e-9 * (1.0 + ref)


def test_mode_rejection():
    with pytest.raises(ModeMismatch):
        make_matrix([[0.5, 0.0], [0.0, 0.5]], RATIONAL)
    with pytest.raises(ModeMismatch):
        make_vector(["1/2"], RATIONAL)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_mul(I2, ((F(1),),))
    with pytest.raises(DimensionMismatch):
        mat_vec(I2, (F(1),))


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eps_geom=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(denom_max=0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ToleranceConfig(eps_geom=value)
        with pytest.raises(ValueError):
            ToleranceConfig(angle_tol=value)


def _sum_of_products(u, v):
    """dot as it summed before: a generator of the products, in order."""
    return sum(a * b for a, b in zip(u, v))


def _scalar(rng, kind):
    """A Fraction, or a float: mostly uniform at a random magnitude, so that the
    rounding depends on the order of the terms, sometimes +-0.0, inf or nan."""
    if kind == "fraction":
        return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    if rng.random() < 0.1:
        return rng.choice((0.0, -0.0, 1e308, -1e308, math.inf, math.nan))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 3)


@given(st.integers(1, 3), st.sampled_from(("float", "fraction")), st.randoms(use_true_random=True))
@settings(max_examples=300, deadline=None)
def test_products_sum_the_same_terms_in_order(n, kind, rng):
    """dot, mat_vec and mat_mul give the generator sums' values, bit for bit."""

    def vector():
        return tuple(_scalar(rng, kind) for _ in range(n))

    u, v = vector(), vector()
    A, B = tuple(vector() for _ in range(n)), tuple(vector() for _ in range(n))
    assert repr(dot(u, v)) == repr(_sum_of_products(u, v))
    assert repr(mat_vec(A, v)) == repr(tuple(_sum_of_products(row, v) for row in A))
    cols = tuple(zip(*B))
    reference = tuple(tuple(_sum_of_products(row, col) for col in cols) for row in A)
    assert repr(mat_mul(A, B)) == repr(reference)


# Floats that the unrolled kernels must round exactly as the generic loops:
# signed zeros, subnormals, magnitudes near 1e+-300 (whose products overflow
# or underflow) and ordinary values, whose sums depend on the order of terms.
_kernel_floats = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e299, max_value=1e301) | st.floats(min_value=-1e301, max_value=-1e299),
    st.floats(min_value=1e-301, max_value=1e-299) | st.floats(min_value=-1e-299, max_value=-1e-301),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(-10.0, 10.0),
)
_kernel_scalars = {
    "float": _kernel_floats,
    "fraction": st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    "int": st.integers(-(10**30), 10**30),
}


def _same(x, y):
    """x and y are the same scalar: type, value, the sign of a zero, or both nan."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return x == y


def _same_vector(u, v):
    return type(u) is tuple and len(u) == len(v) and all(map(_same, u, v))


@st.composite
def _kernel_operands(draw):
    """(u, v, A): two n-vectors and an n x n matrix of one scalar kind, n = 1, 2 or 3."""
    n = draw(st.integers(1, 3))
    scalar = _kernel_scalars[draw(st.sampled_from(sorted(_kernel_scalars)))]
    vector = st.tuples(*[scalar] * n)
    return draw(vector), draw(vector), tuple(draw(vector) for _ in range(n))


@given(_kernel_operands())
@example(((-0.0, -0.0), (-0.0, 0.0), ((-0.0, 1.0), (1e300, -0.0))))
@example(((5e-324, -0.0, 1e300), (1e300, -1e300, 5e-324), ((1.0, 1e-300, -1.0),) * 3))
@example(((-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), ((-0.0, -0.0, 0.0),) * 3))
# sums that read 0.0 or 1.0, and a norm of 1e8 or its successor, by compensation
@example(((1e16, 1.0, -1e16), (1.0, 1.0, 1.0), ((1e16, 1.0, -1e16),) * 3))
@example(((1e8, 1.0, 1.0), (1.0, 1.0, 1.0), ((1.0, 1.0, 1.0),) * 3))
@example(((3, F(1, 3)), (-7, F(2, 5)), ((F(1, 2), 4), (-1, F(1, 3)))))
@settings(max_examples=400, deadline=None)
def test_vector_kernels_equal_the_generic_formulas_bit_for_bit(operands):
    """vec_add, vec_sub, dot, mat_vec and norm2 give what the generic loops give.

    The loops are written out here as the kernels ran before they spelled out
    n = 2 and 3; the float sums go through sum(), which compensates from
    Python 3.12 on, so any other order or grouping of terms shows here.
    """
    u, v, A = operands
    assert _same_vector(vec_add(u, v), tuple(a + b for a, b in zip(u, v)))
    assert _same_vector(vec_sub(u, v), tuple(a - b for a, b in zip(u, v)))
    assert _same(dot(u, v), sum(a * b for a, b in zip(u, v)))
    assert _same_vector(mat_vec(A, v), tuple(sum(a * b for a, b in zip(row, v)) for row in A))
    assert _same(norm2(u), math.sqrt(sum(float(a) * float(a) for a in u)))
    for w in (u[:-1], u + u[:1]):
        for kernel in (vec_add, vec_sub, dot):
            with pytest.raises(DimensionMismatch):
                kernel(w, v)
            with pytest.raises(DimensionMismatch):
                kernel(v, w)
        with pytest.raises(DimensionMismatch):
            mat_vec(A, w)
