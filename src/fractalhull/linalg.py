"""Scalar arithmetic and small dense linear algebra for dimensions 1 to 3.

Two scalar modes exist.  "rational" keeps every entry a fractions.Fraction
(arbitrary precision, always in lowest terms) and all structural operations
are exact; its eigenvalues run on the integer characteristic polynomial.
"float" uses IEEE doubles with caller-supplied tolerances.  A
single vector or matrix never mixes modes; the constructors reject entries
of the wrong kind so mixed expressions cannot arise downstream.

Vectors are plain tuples of scalars, matrices are tuples of row tuples.
Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt
from operator import attrgetter, mul
from typing import NamedTuple

from .errors import DimensionMismatch, ModeMismatch, SingularMatrix, UnsupportedDimension

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)


class _Tolerances(NamedTuple):
    eps_geom: float
    angle_tol: float
    denom_max: int


class ToleranceConfig(_Tolerances):
    """Numeric tolerances used by float-mode predicates and angle search."""

    __slots__ = ()

    def __new__(cls, eps_geom=1e-9, angle_tol=1e-9, denom_max=64):
        if not (0 < eps_geom < math.inf and 0 < angle_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if denom_max < 1:
            raise ValueError("denom_max must be at least 1")
        return tuple.__new__(cls, (eps_geom, angle_tol, denom_max))

    @classmethod
    def _make(cls, iterable):
        """The record of these values, checked: _replace builds through here."""
        return cls(*iterable)


def as_scalar(value, mode):
    """Convert one input entry to the scalar type of the given mode."""
    if mode == RATIONAL:
        if isinstance(value, bool):
            raise ModeMismatch("booleans are not scalars")
        if isinstance(value, (int, Fraction)):
            return value if type(value) is Fraction else Fraction(value)
        raise ModeMismatch(f"rational mode requires exact entries, got {value!r}")
    if mode == FLOAT:
        if isinstance(value, bool):
            raise ModeMismatch("booleans are not scalars")
        if isinstance(value, (int, float, Fraction)):
            return float(value)
        raise ModeMismatch(f"float mode cannot accept {value!r}")
    raise ValueError(f"unknown mode {mode!r}")


def make_vector(values, mode):
    return tuple(as_scalar(v, mode) for v in values)


def make_matrix(rows, mode):
    out = tuple(make_vector(row, mode) for row in rows)
    n = len(out)
    if n == 0 or n > 3:
        raise UnsupportedDimension(f"matrix dimension {n} outside 1..3")
    if any(len(row) != n for row in out):
        raise DimensionMismatch("matrix must be square")
    return out


def zero_vector(n, mode):
    z = Fraction(0) if mode == RATIONAL else 0.0
    return (z,) * n


def identity(n, mode=RATIONAL):
    one = Fraction(1) if mode == RATIONAL else 1.0
    zero = Fraction(0) if mode == RATIONAL else 0.0
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _mode_of(value):
    """Infer the mode from a scalar already inside a vector/matrix."""
    return RATIONAL if isinstance(value, Fraction) else FLOAT


# vec_add, vec_sub, dot, mat_vec and norm2 spell out n = 2 and 3, a few times
# faster than the generic loops that n = 1 keeps, with the same values bit for
# bit: one + or - per coordinate, and each float sum one sum() of the terms in
# order, since from Python 3.12 sum() compensates and a chain of + does not.


def vec_add(u, v):
    n = len(u)
    if n != len(v):
        raise DimensionMismatch("vector lengths differ")
    if n == 2:
        return (u[0] + v[0], u[1] + v[1])
    if n == 3:
        return (u[0] + v[0], u[1] + v[1], u[2] + v[2])
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    n = len(u)
    if n != len(v):
        raise DimensionMismatch("vector lengths differ")
    if n == 2:
        return (u[0] - v[0], u[1] - v[1])
    if n == 3:
        return (u[0] - v[0], u[1] - v[1], u[2] - v[2])
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def dot(u, v):
    n = len(u)
    if n != len(v):
        raise DimensionMismatch("vector lengths differ")
    if n == 2:
        return sum((u[0] * v[0], u[1] * v[1]))
    if n == 3:
        return sum((u[0] * v[0], u[1] * v[1], u[2] * v[2]))
    return sum(map(mul, u, v))


def cross(u, v):
    """The cross product of two 3-vectors."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def mat_vec(A, x):
    n = len(x)
    if len(A[0]) != n:
        raise DimensionMismatch("matrix/vector dimensions disagree")
    if len(A) == n == 2:
        (a, b), (c, d) = A
        x0, x1 = x
        return (sum((a * x0, b * x1)), sum((c * x0, d * x1)))
    if len(A) == n == 3:
        (a, b, c), (d, e, f), (g, h, i) = A
        x0, x1, x2 = x
        return (sum((a * x0, b * x1, c * x2)), sum((d * x0, e * x1, f * x2)), sum((g * x0, h * x1, i * x2)))
    return tuple(sum(map(mul, row, x)) for row in A)


def mat_mul(A, B):
    if len(A[0]) != len(B):
        raise DimensionMismatch("matrix dimensions disagree")
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def mat_sub(A, B):
    return tuple(vec_sub(r, s) for r, s in zip(A, B))


def to_lattice(vectors):
    """(integer vectors, den): each rational vector is its integer vector over den.

    den is the lcm of all entries' denominators, the smallest common scale.
    Matrices pass as their tuple of rows.
    """
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    return [tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors], den


def transpose(A):
    return tuple(zip(*A))


def mat_pow(T, p):
    """T**p by repeated squaring; p = 0 yields the identity in T's scalar type."""
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    n = len(T)
    kind = type(T[0][0])
    result = tuple(tuple(kind(1 if i == j else 0) for j in range(n)) for i in range(n))
    base = T
    while p:
        if p & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if p > 1 else base
        p >>= 1
    return result


def det(A):
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = A
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    raise UnsupportedDimension(f"det not implemented for n={n}")


def solve(A, b, *, eps=0.0):
    """Solve A x = b by Gaussian elimination.

    Rational entries use exact pivoting (first nonzero pivot); float entries
    use partial pivoting and treat pivots of magnitude <= eps * scale as zero.
    Raises SingularMatrix when no usable pivot exists.
    """
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise DimensionMismatch("solve expects square A and matching b")
    exact = _mode_of(A[0][0]) == RATIONAL
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    scale = 1.0 if exact else max(1.0, max(abs(v) for row in A for v in row))
    for col in range(n):
        if exact:
            piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        else:
            piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
            if abs(rows[piv][col]) <= eps * scale:
                piv = None
        if piv is None:
            raise SingularMatrix("matrix is singular")
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor != 0:
                for c in range(col, n + 1):
                    rows[r][c] -= factor * rows[col][c]
    x = [None] * n
    for r in range(n - 1, -1, -1):
        acc = rows[r][n] - sum(rows[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / rows[r][r]
    return tuple(x)


def char_poly(A):
    """Monic characteristic polynomial coefficients of det(lambda I - A).

    Returns (1, c1, ..., cn) with the same scalar kind as the entries: a
    Fraction, float or int leading 1.
    """
    n = len(A)
    one = type(A[0][0])(1)
    if n == 1:
        return (one, -A[0][0])
    tr = sum(A[i][i] for i in range(n))
    if n == 2:
        return (one, -tr, det(A))
    m2 = (
        A[0][0] * A[1][1] - A[0][1] * A[1][0]
        + A[0][0] * A[2][2] - A[0][2] * A[2][0]
        + A[1][1] * A[2][2] - A[1][2] * A[2][1]
    )
    return (one, -tr, m2, -det(A))


def integer_char_poly(matrix):
    """(a, c_1, ..., c_n) with gcd 1 and a > 0: the monic chi_T times the lcm of its denominators.

    For T = M/delta, delta^n chi_T(x) = chi_M(delta x) has the coefficients
    A_k delta^(n-k) for those A_k of chi_M; this divides them by their gcd.
    """
    lattice, delta = to_lattice(matrix)
    n = len(lattice)
    coeffs = [A * delta ** (n - k) for k, A in enumerate(char_poly(lattice))]
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_root(coeffs):
    """One rational root x/q of an integer cubic (a, b, c, d), as (x, q), or None.

    The candidates +-p/q in lowest terms, p dividing d and q dividing a, are
    tried in the order (q, p, + before -); x/q is a root iff a x^3 + b x^2 q
    + c x q^2 + d q^3 = 0.  Skipped when a or d is too large to factor.
    """
    a, b, c, d = coeffs
    if d == 0:
        return 0, 1
    if abs(d) > 10**12 or abs(a) > 10**12:
        return None
    nums = _divisors(d)
    for q in _divisors(a):
        for p in nums:
            if math.gcd(p, q) == 1:
                for x in (p, -p):
                    if ((a * x + b * q) * x + c * q * q) * x + d * q**3 == 0:
                        return x, q
    return None


def _quadratic_integer(a, b, c):
    """Roots of a x^2 + b x + c for integers a > 0, b, c, as complex floats.

    disc, a^2 times the monic discriminant, is a square iff the roots are rational.
    """
    disc = b * b - 4 * a * c
    if disc >= 0:
        s = isqrt(disc)
        if s * s == disc:
            return [complex((-b - s) / (2 * a)), complex((-b + s) / (2 * a))]
        sf = math.sqrt(disc / (a * a))
        return [complex((-b / a - sf) / 2.0), complex((-b / a + sf) / 2.0)]
    im = math.sqrt(-disc / (a * a)) / 2.0
    re = -b / a / 2.0
    return [complex(re, -im), complex(re, im)]


def _quadratic_float(b, c):
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        s = math.sqrt(disc)
        return [complex((-b - s) / 2.0), complex((-b + s) / 2.0)]
    im = math.sqrt(-disc) / 2.0
    return [complex(-b / 2.0, -im), complex(-b / 2.0, im)]


def _cubic_real_root(b, c, d):
    """One real root of x^3 + b x^2 + c x + d (floats).

    Newton from three spread starting points, with bisection as the fallback;
    a monic cubic always changes sign on [-B, B] for B = 1 + max |coeff|.
    """
    bound = 1.0 + max(abs(b), abs(c), abs(d))

    def f(x):
        return ((x + b) * x + c) * x + d

    def fp(x):
        return (3.0 * x + 2.0 * b) * x + c

    best = None
    for start in (-bound, 0.0, bound):
        x = start
        for _ in range(80):
            deriv = fp(x)
            if deriv == 0.0:
                break
            step = f(x) / deriv
            x -= step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        if math.isfinite(x) and abs(x) <= 2.0 * bound:
            if best is None or abs(f(x)) < abs(f(best)):
                best = x
    if best is not None and abs(f(best)) <= 1e-9 * max(1.0, bound**3):
        return best
    lo, hi = -bound, bound
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _polish_root(z, coeffs):
    """A few complex Newton steps on the monic polynomial given by coeffs."""
    for _ in range(3):
        val = 0j
        deriv = 0j
        for c in coeffs:
            deriv = deriv * z + val
            val = val * z + c
        if deriv == 0:
            break
        z = z - val / deriv
    return z


def _cubic_float_roots(b, c, d):
    """Roots of x^3 + b x^2 + c x + d (floats): one real root, deflated, all Newton-polished."""
    real_root = _cubic_real_root(b, c, d)
    q1 = b + real_root
    q0 = c + real_root * q1
    roots = [complex(real_root)] + _quadratic_float(q1, q0)
    fcoeffs = (1.0, b, c, d)
    polished = []
    for z in roots:
        if z.imag == 0.0:
            x = _polish_root(complex(z.real), fcoeffs)
            polished.append(complex(x.real))
        else:
            polished.append(_polish_root(z, fcoeffs))
    nonreal = [z for z in polished if z.imag != 0.0]
    if len(nonreal) == 2:
        mean = (nonreal[0] + nonreal[1].conjugate()) / 2.0
        reals = [z for z in polished if z.imag == 0.0]
        polished = reals + [complex(mean.real, -abs(mean.imag)), complex(mean.real, abs(mean.imag))]
    return sorted(polished, key=attrgetter("real", "imag"))


def integer_poly_roots(coeffs):
    """The roots of an integer polynomial (a, ...) of degree 1 to 3, a > 0, as sorted complex floats.

    A rational root is int / int, correctly rounded.  A cubic with a rational
    root x/q (_rational_root) leaves an integer quadratic by synthetic
    division, exact by Gauss's lemma; one without goes to the float finder.
    """
    a, *rest = coeffs
    if len(rest) == 3:
        root = _rational_root(coeffs)
        if root is None:
            return _cubic_float_roots(*(c / a for c in rest))
        (b, c, _), (x, q) = rest, root
        alpha = a // q
        beta = (b + alpha * x) // q
        roots = [complex(x / q)] + _quadratic_integer(alpha, beta, (c + beta * x) // q)
    elif len(rest) == 2:
        roots = _quadratic_integer(a, *rest)
    else:
        roots = [complex(-rest[0] / a)]
    return sorted(roots, key=attrgetter("real", "imag"))


def eigenvalues(matrix):
    """All eigenvalues (with algebraic multiplicity) as complex floats, sorted by (real, imag).

    Rational input takes the roots of integer_char_poly.  Float input takes
    n = 2 by the quadratic formula and n = 3 by the float root finder.
    """
    n = len(matrix)
    if not 1 <= n <= 3:
        raise UnsupportedDimension("eigenvalues supports n <= 3 only")
    if _mode_of(matrix[0][0]) == RATIONAL:
        return integer_poly_roots(integer_char_poly(matrix))
    if n == 1:
        return [complex(float(matrix[0][0]), 0.0)]
    if n == 2:
        tr = matrix[0][0] + matrix[1][1]
        return sorted(_quadratic_float(-float(tr), float(det(matrix))), key=attrgetter("real", "imag"))
    return _cubic_float_roots(*(float(c) for c in char_poly(matrix)[1:]))


def operator_norm(matrix):
    """Euclidean operator norm: sqrt of the spectral radius of T^T T."""
    gram = mat_mul(transpose(matrix), matrix)
    top = max(z.real for z in eigenvalues(gram))
    return math.sqrt(max(top, 0.0))


def norm2(v):
    if len(v) == 2:
        a, b = float(v[0]), float(v[1])
        return math.sqrt(sum((a * a, b * b)))
    if len(v) == 3:
        a, b, c = float(v[0]), float(v[1]), float(v[2])
        return math.sqrt(sum((a * a, b * b, c * c)))
    return math.sqrt(sum(float(a) * float(a) for a in v))
