"""Eigenvalue angle classification and the bounded polytope criteria.

The decision machinery needs to know which eigenvalues of the inverse map
matrix point along rational multiples of pi.  Those eigenvalues determine the
maximal number of hull-recursion steps that can ever be needed; if none
qualifies, the hull is known not to be a polytope at all (this forces the
ambient dimension to be even, since it requires every eigenvalue to be
non-real).  A separate facet-normal recurrence criterion on the digit hull
serves as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import hull as hull_mod
from . import linalg
from .errors import FractalHullError, UnsupportedDimension
from .linalg import RATIONAL, ToleranceConfig


@dataclass(frozen=True)
class EigenvalueClass:
    """One eigenvalue with its polar data and optional rational angle.

    rational_angle is (p, n) in lowest terms with angle close to pi*p/n and
    n bounded by the configured denominator cap; None when no such fraction
    fits within the angle tolerance.
    """

    value: complex
    modulus: float
    angle: float
    rational_angle: Optional[tuple[int, int]]


@dataclass(frozen=True)
class StepBound:
    """The hull-iteration bound derived from rational-angle eigenvalues.

    classes holds the qualifying (distinct) eigenvalue classes; k is even and
    divisible by 2n for the denominator n of every member.
    """

    classes: tuple[EigenvalueClass, ...]
    k: int
    bound_mode: str


@dataclass(frozen=True)
class SpectrumCheck:
    ok: bool
    violation: Optional[str]
    warnings: tuple[str, ...]
    eigenvalues: tuple = ()  # linalg.eigenvalues of a nonsingular matrix


@dataclass(frozen=True)
class NormalCheck:
    normal: tuple
    k_found: Optional[int]


@dataclass(frozen=True)
class NormalCriterionResult:
    """Outcome of the digit-hull facet-normal recurrence test."""

    verdict: str  # "polytope" | "not_polytope" | "inapplicable"
    checks: tuple[NormalCheck, ...]
    k_cap: int


@dataclass(frozen=True)
class ExactAngleResult:
    """Exact smallest power k with lambda**k real, for a 2x2 rational matrix.

    found is False when no such k <= 2 * denom_max exists; power_value is the
    exact rational value of lambda**k when found (its sign tells whether the
    angle numerator is even or odd).
    """

    found: bool
    k: Optional[int]
    power_value: Optional[Fraction]


def _convergents(x, max_den):
    """Continued-fraction convergents p/q of x with q <= max_den."""
    out = []
    h_prev, h = 1, int(math.floor(x))
    k_prev, k = 0, 1
    out.append((h, k))
    frac = x - math.floor(x)
    for _ in range(64):
        if frac <= 1e-17:
            break
        x = 1.0 / frac
        a = int(math.floor(x))
        frac = x - a
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if k > max_den:
            break
        out.append((h, k))
    return out


def classify_angle(lam, tol: ToleranceConfig) -> EigenvalueClass:
    """Classify one eigenvalue's argument as a rational multiple of pi.

    Candidate fractions come from continued-fraction convergents of angle/pi
    plus an exhaustive scan of denominators up to min(denom_max, 16); the
    qualifying candidate with the smallest denominator wins.  Positive reals
    classify as (0, 1) and negative reals as (1, 1).
    """
    re = lam.real
    im = lam.imag
    if im == 0.0:
        im = 0.0  # normalize -0.0 so negative reals land on +pi
    modulus = abs(lam)
    angle = math.atan2(im, re)
    if modulus == 0.0:
        return EigenvalueClass(lam, 0.0, 0.0, (0, 1))
    x = angle / math.pi
    candidates = set(_convergents(x, tol.denom_max))
    for n in range(1, min(tol.denom_max, 16) + 1):
        candidates.add((round(x * n), n))
    best = None
    for p, n in candidates:
        if n < 1 or n > tol.denom_max:
            continue
        g = math.gcd(abs(p), n)
        if g:
            p, n = p // g, n // g
        if n > tol.denom_max:
            continue
        if abs(angle - math.pi * p / n) <= tol.angle_tol:
            key = (n, abs(p), -p)
            if best is None or key < best[0]:
                best = (key, (p, n))
    rational = best[1] if best is not None else None
    return EigenvalueClass(lam, modulus, angle, rational)


def exact_angle_order_2x2(matrix, denom_max: int) -> ExactAngleResult:
    """Exact rational-angle test for a 2x2 rational matrix with non-real spectrum.

    With lambda^2 = t*lambda - d (t = trace, d = det), powers satisfy
    lambda^k = a_k*lambda + b_k where a_1 = 1, b_1 = 0 and
    a_{k+1} = t*a_k + b_k, b_{k+1} = -d*a_k.  Since lambda is not real,
    lambda^k is real exactly when a_k = 0; the smallest such k is the
    denominator of the angle as a fraction of pi.  Scans k <= 2 * denom_max.
    """
    if len(matrix) != 2 or not isinstance(matrix[0][0], Fraction):
        raise FractalHullError("exact angle test requires a rational 2x2 matrix")
    t = matrix[0][0] + matrix[1][1]
    d = linalg.det(matrix)
    if t * t - 4 * d >= 0:
        raise FractalHullError("exact angle test requires a complex-conjugate pair")
    a, b = Fraction(1), Fraction(0)  # lambda^1 = 1*lambda + 0
    for k in range(1, 2 * denom_max + 1):
        if a == 0:
            return ExactAngleResult(True, k, b)
        a, b = t * a + b, -d * a
    return ExactAngleResult(False, None, None)


def distinct_eigenvalues(values, rel_tol=1e-9):
    """Collapse a multiset of complex eigenvalues to distinct representatives."""
    out = []
    for z in sorted(values, key=lambda z: (z.real, z.imag)):
        if not any(abs(z - w) <= rel_tol * max(1.0, abs(w)) for w in out):
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


def validate_spectrum(matrix, mode=RATIONAL) -> SpectrumCheck:
    """Check nonsingularity and spectral radius < 1 for a map matrix.

    The eigenvalues computed for the radius come back with the check, so the
    model keeps them and nothing computes them again.
    """
    d = linalg.det(matrix)
    if d == 0:
        return SpectrumCheck(False, "nonsingularity_failed", ())
    eigenvalues = tuple(linalg.eigenvalues(matrix))
    rho = max(abs(z) for z in eigenvalues)
    if rho >= 1.0:
        return SpectrumCheck(False, "not_contracting", (), eigenvalues)
    warnings = ()
    if mode != RATIONAL and 1.0 - rho < 1e-9:
        warnings = (f"spectral radius {rho!r} is within 1e-9 of 1; results may be unreliable",)
    return SpectrumCheck(True, None, warnings, eigenvalues)


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


def facet_normal_criterion(matrix, digits, k_cap, *, eps=0.0) -> NormalCriterionResult:
    """Digit-hull facet-normal recurrence test (independent cross-check).

    The hull of the attractor is a polytope exactly when every outward facet
    normal of conv(digits) is an eigenvector of some power of the transposed
    map matrix.  Inapplicable when conv(digits) is not full-dimensional.
    Normals are kept unnormalized so the parallelism test stays exact in
    rational mode.  There the recurrence runs on integers: with T^T = M^T/delta
    and each normal's integer facet row n (digit_hull.rows, a positive
    multiple of the normal), the iterates of M^T are the Fraction iterates
    times a positive scale, which parallelism does not see.  In float mode
    the start normal's norm is taken once per normal.
    """
    n = len(matrix)
    if n not in (2, 3):
        raise UnsupportedDimension("facet-normal criterion requires n in {2, 3}")
    digit_hull = hull_mod.convex_hull(digits, eps=eps)
    if digit_hull.affine_dim < n:
        return NormalCriterionResult("inapplicable", (), k_cap)
    tmat = linalg.transpose(matrix)
    exact = eps == 0 and isinstance(matrix[0][0], Fraction)
    normals = [normal for normal, _offset in hull_mod.facet_normals(digit_hull)]
    if exact:
        tmat = linalg.to_lattice(tmat)[0]
        starts = [row for row, _offset in digit_hull.rows]
    else:
        starts = normals
    checks = []
    all_found = True
    for normal, start in zip(normals, starts):
        w, nv = start, _norm(start) if eps else None
        k_found = None
        for k in range(1, k_cap + 1):
            w = linalg.mat_vec(tmat, w)
            if _parallel(w, start, eps, nv):
                k_found = k
                break
        if k_found is None:
            all_found = False
        checks.append(NormalCheck(normal, k_found))
    verdict = "polytope" if all_found else "not_polytope"
    return NormalCriterionResult(verdict, tuple(checks), k_cap)
