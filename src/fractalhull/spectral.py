"""Eigenvalue angle classification and the bounded polytope criteria.

The decision machinery needs to know which eigenvalues of the inverse map
matrix point along rational multiples of pi.  Those eigenvalues determine the
maximal number of hull-recursion steps that can ever be needed; if none
qualifies, the hull is known not to be a polytope at all (this forces the
ambient dimension to be even, since it requires every eigenvalue to be
non-real).  Rational input gets its denominators and contraction test
exactly.  A separate facet-normal recurrence criterion on the digit hull
serves as an independent cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional

from . import hull as hull_mod
from . import linalg
from .errors import UnsupportedDimension
from .linalg import RATIONAL, ToleranceConfig


class EigenvalueClass(NamedTuple):
    """One eigenvalue with its polar data and optional rational angle.

    rational_angle is (p, n) in lowest terms with angle equal to pi*p/n
    (within angle_tol for float input) and n bounded by the configured
    denominator cap; None when no such fraction exists.
    """

    value: complex
    modulus: float
    angle: float
    rational_angle: Optional[tuple[int, int]]


class StepBound(NamedTuple):
    """The hull-iteration bound derived from rational-angle eigenvalues.

    classes holds the qualifying (distinct) eigenvalue classes; k is even and
    divisible by 2n for the denominator n of every member.
    """

    classes: tuple[EigenvalueClass, ...]
    k: int
    bound_mode: str


class SpectrumCheck(NamedTuple):
    ok: bool
    violation: Optional[str]
    warnings: tuple[str, ...]
    eigenvalues: tuple = ()  # linalg.eigenvalues of a nonsingular matrix
    integer_char_poly: Optional[tuple] = None  # linalg.integer_char_poly of a rational matrix


class NormalCheck(NamedTuple):
    normal: tuple
    k_found: Optional[int]


class NormalCriterionResult(NamedTuple):
    """Outcome of the digit-hull facet-normal recurrence test."""

    verdict: str  # "polytope" | "not_polytope" | "inapplicable"
    checks: tuple[NormalCheck, ...]
    k_cap: int


# The only denominators n of a rational angle of an eigenvalue of a rational
# matrix of size at most 3: those with phi(n) <= 2.
EXACT_DENOMINATORS = (1, 2, 3, 4, 6)
# Eigenvalues closer than this, relative to the larger modulus, are one class.
DISTINCT_REL_TOL = 1e-9


def _polar(lam):
    """(modulus, angle); `or` reads -0.0 as 0.0, so negative reals land on +pi."""
    return abs(lam), math.atan2(lam.imag or 0.0, lam.real)


def classify_angle(lam, tol: ToleranceConfig) -> EigenvalueClass:
    """Classify one eigenvalue's argument as a rational multiple of pi (float input).

    Scans the denominators n = 1 .. denom_max and takes the first n whose
    nearest numerator p = round(n * angle / pi) lies within angle_tol: the
    smallest denominator wins.  Only p/n in lowest terms is tested, as float
    rounding may put pi*kp/kn within angle_tol where pi*p/n missed it.
    Positive reals classify as (0, 1) and negative reals as (1, 1).
    """
    modulus, angle = _polar(lam)
    if modulus == 0.0:
        return EigenvalueClass(lam, 0.0, 0.0, (0, 1))
    x = angle / math.pi
    for n in range(1, tol.denom_max + 1):
        p = round(n * x)
        if abs(angle - math.pi * p / n) <= tol.angle_tol and math.gcd(p, n) == 1:
            return EigenvalueClass(lam, modulus, angle, (p, n))
    return EigenvalueClass(lam, modulus, angle, None)


def _discriminant(coeffs):
    """Discriminant of a x^2 + b x + c or of a x^3 + b x^2 + c x + d: zero exactly at a repeated root."""
    if len(coeffs) == 3:
        a, b, c = coeffs
        return b * b - 4 * a * c
    a, b, c, d = coeffs
    return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def exact_angle_denominator(matrix, denom_max: int, chi=None) -> Optional[int]:
    """Angle denominator of the non-real eigenvalues of an exact 2x2 or 3x3 matrix.

    Their rational angles pi*p/n have n in EXACT_DENOMINATORS, and lambda^n
    is real exactly when the characteristic polynomial of matrix^n has a
    repeated root: the smallest such n <= denom_max, or None.  Any nonzero
    multiple of the matrix, such as the integer M = delta * T, gives the same n.
    n = 1 reads the discriminant of chi, the characteristic polynomial of
    matrix up to a nonzero factor (IfsModel.integer_char_poly, kept from
    validation), built here when not given; only n >= 2 takes powers.
    """
    coeffs, power, exponent = chi or linalg.char_poly(matrix), matrix, 1
    for n in EXACT_DENOMINATORS:
        if n > denom_max:
            break
        if n > 1:
            while exponent < n:
                power, exponent = linalg.mat_mul(power, matrix), exponent + 1
            coeffs = linalg.char_poly(power)
        if _discriminant(coeffs) == 0:
            return n
    return None


def classify_exact(lam, denominator: Optional[int]) -> EigenvalueClass:
    """Class of an eigenvalue of a rational matrix, given exact_angle_denominator.

    Reals take n = 1; the numerator is rounded from the float angle.
    """
    modulus, angle = _polar(lam)
    n = 1 if lam.imag == 0.0 else denominator
    rational = None if n is None else (round(n * angle / math.pi), n)
    return EigenvalueClass(lam, modulus, angle, rational)


def distinct_eigenvalues(values):
    """Collapse a multiset of complex eigenvalues to distinct representatives."""
    out = []
    for z in sorted(values, key=lambda z: (z.real, z.imag)):
        if not any(abs(z - w) <= DISTINCT_REL_TOL * max(1.0, abs(w)) for w in out):
            out.append(z)
    return out


def compute_step_bound(classes, bound_mode="product") -> Optional[StepBound]:
    """Bound on hull steps from the rational-angle classes, or None if empty.

    product mode multiplies the denominators of all qualifying classes
    (k = 2 * n_1 * ... * n_m); lcm mode takes k = 2 * lcm(n_1, ..., n_m),
    which serves the same purpose and is never larger.
    """
    if bound_mode not in ("product", "lcm"):
        raise ValueError(f"unknown bound mode {bound_mode!r}")
    members = tuple(c for c in classes if c.rational_angle is not None)
    if not members:
        return None
    dens = [c.rational_angle[1] for c in members]
    if bound_mode == "product":
        k = 2
        for n in dens:
            k *= n
    else:
        k = 2 * math.lcm(*dens)
    return StepBound(members, k, bound_mode)


def _contracting(coeffs):
    """Jury's test: every root of an integer polynomial with a > 0 has modulus < 1.

    Roots 0 pad it to a x^3 + b x^2 + c x + d.
    """
    a, b, c, d = (*coeffs, 0, 0)[:4]
    return abs(d) < a and abs(b + d) < a + c and abs(a * c - b * d) < a * a - d * d


def validate_spectrum(matrix, mode=RATIONAL) -> SpectrumCheck:
    """Check nonsingularity and spectral radius < 1 for a map matrix.

    Rational input reads all of it off linalg.integer_char_poly, exactly: T
    is singular when its constant term is 0, Jury's test decides the radius,
    and the eigenvalues are its roots.  The eigenvalues and that polynomial
    come back with the check, so the model keeps them and nothing computes
    them again.
    """
    exact = mode == RATIONAL
    coeffs = linalg.integer_char_poly(matrix) if exact else None
    if (coeffs[-1] if exact else linalg.det(matrix)) == 0:
        return SpectrumCheck(False, "nonsingularity_failed", ())
    eigenvalues = tuple(linalg.integer_poly_roots(coeffs) if exact else linalg.eigenvalues(matrix))
    rho = max(abs(z) for z in eigenvalues)
    if not (_contracting(coeffs) if exact else rho < 1.0):
        return SpectrumCheck(False, "not_contracting", (), eigenvalues)
    warnings = ()
    if not exact and 1.0 - rho < 1e-9:
        warnings = (f"spectral radius {rho!r} is within 1e-9 of 1; results may be unreliable",)
    return SpectrumCheck(True, None, warnings, eigenvalues, coeffs)


def _norm(v):
    return math.sqrt(sum(float(a) ** 2 for a in v))


def _parallel(u, v, eps, nv):
    """True when u and v are parallel (nonzero scaling of either sign); nv is _norm(v)."""
    if len(u) == 2:
        cross = u[0] * v[1] - u[1] * v[0]
        if eps == 0.0:
            return cross == 0
        nu = _norm(u)
        return abs(float(cross)) <= eps * nu * nv
    cx = u[1] * v[2] - u[2] * v[1]
    cy = u[2] * v[0] - u[0] * v[2]
    cz = u[0] * v[1] - u[1] * v[0]
    if eps == 0.0:
        return cx == 0 and cy == 0 and cz == 0
    nu = _norm(u)
    cross_norm = math.sqrt(float(cx) ** 2 + float(cy) ** 2 + float(cz) ** 2)
    return cross_norm <= eps * nu * nv


def _power_of_normal(tmat, normal, k_cap, eps):
    """The least k <= k_cap with tmat^k normal parallel to normal, or None, by iteration."""
    w, nv = normal, _norm(normal) if eps else None
    for k in range(1, k_cap + 1):
        w = linalg.mat_vec(tmat, w)
        if _parallel(w, normal, eps, nv):
            return k
    return None


def _recurrence_condition(vs):
    """The condition on c = (c_1, ..., c_{n-1}) for sum_i c_i v_i = 0, from vs = [v_1, ...].

    () when it always holds (every v_i is 0), None when it needs c = 0 (the
    v_i are independent), else the one integer form f with f.c = 0 (in 3D,
    v_1 and v_2 parallel and not both 0).
    """
    forms = [f for f in zip(*vs) if any(f)]  # one per cross-product coordinate
    if not forms:
        return ()
    first = forms[0]
    if len(first) == 1 or any(first[0] * f[1] != first[1] * f[0] for f in forms):
        return None
    g = math.gcd(*first)
    return tuple(x // g for x in first)


def _powers_of_rows(a, rows, k_cap):
    """Per integer row r, the least k <= k_cap with a^k r parallel to r, or None.

    By Cayley-Hamilton a^k = sum_{i<n} c_{k,i} a^i, the coefficients stepped
    once for all rows from the characteristic polynomial (1, p_1, ..., p_n):
    a^(k+1) takes c_{k,i-1} - p_{n-i} c_{k,n-1} at a^i (c_{k,-1} = 0).  So
    a^k r x r = sum_{i>=1} c_{k,i} v_i with v_i = a^i r x r (a scalar in 2D),
    taken once per row as its _recurrence_condition.  Rows under one
    condition share its test, and a^k = c_{k,0} I ends the pass.
    """
    n = len(a)
    p = linalg.char_poly(a)
    scalar, lines = [], {}  # rows that need a^k = c_{k,0} I; the others by their form
    for j, r in enumerate(rows):
        vs, w = [], r
        for _ in range(n - 1):
            w = linalg.mat_vec(a, w)
            vs.append((w[0] * r[1] - w[1] * r[0],) if n == 2 else linalg.cross(w, r))
        form = _recurrence_condition(vs)
        if form is None:
            scalar.append(j)
        else:
            lines.setdefault(form, []).append(j)
    found = [None] * len(rows)
    c = [1] + [0] * (n - 1)  # a^0 = I
    for k in range(1, k_cap + 1):
        if not (scalar or lines):
            break
        top = c[-1]
        c = [-p[n] * top] + [c[i - 1] - p[n - i] * top for i in range(1, n)]
        tail = c[1:]
        if not any(tail):  # a^k = c_{k,0} I: every row recurs
            for j in scalar + [j for js in lines.values() for j in js]:
                found[j] = k
            break
        for form in [form for form in lines if not sum(map(mul, form, tail))]:
            for j in lines.pop(form):
                found[j] = k
    return found


def facet_normal_criterion(matrix, digits, k_cap, *, eps=0.0) -> NormalCriterionResult:
    """Digit-hull facet-normal recurrence test (independent cross-check).

    The hull of the attractor is a polytope exactly when every outward facet
    normal of conv(digits) is an eigenvector of some power of the transposed
    map matrix.  Inapplicable when conv(digits) is not full-dimensional.
    Normals are kept unnormalized so the parallelism test stays exact in
    rational mode.

    Rational mode runs on integers: T^T = A/delta for the integer A = M^T,
    and each normal's integer facet row r (digit_hull.rows) is a positive
    multiple of it, so (T^T)^k normal is parallel to the normal exactly when
    A^k r x r = 0.  By Cayley-Hamilton, A^k = sum_{i<n} c_{k,i} A^i with
    integer coefficients stepped once per model from the characteristic
    polynomial of A, so A^k r x r = sum_{i>=1} c_{k,i} (A^i r x r): the same
    integer as the iterate's cross product, hence the same k_found, from
    n - 1 products A^i r per normal and none inside the pass over k.  In
    float mode each normal is iterated by T^T and the eps test takes the
    start normal's norm once.
    """
    n = len(matrix)
    if n not in (2, 3):
        raise UnsupportedDimension("facet-normal criterion requires n in {2, 3}")
    digit_hull = hull_mod.convex_hull(digits, eps=eps)
    if digit_hull.affine_dim < n:
        return NormalCriterionResult("inapplicable", (), k_cap)
    tmat = linalg.transpose(matrix)
    normals = [normal for normal, _offset in hull_mod.facet_normals(digit_hull)]
    if eps == 0 and isinstance(matrix[0][0], Fraction):
        rows = [row for row, _offset in digit_hull.rows]
        found = _powers_of_rows(linalg.to_lattice(tmat)[0], rows, k_cap)
    else:
        found = [_power_of_normal(tmat, normal, k_cap, eps) for normal in normals]
    checks = tuple(map(NormalCheck, normals, found))
    verdict = "polytope" if None not in found else "not_polytope"
    return NormalCriterionResult(verdict, checks, k_cap)

