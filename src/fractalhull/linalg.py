"""Scalar arithmetic and small dense linear algebra for dimensions 1 to 3.

Two scalar modes exist.  "rational" keeps every entry a fractions.Fraction
(arbitrary precision, always in lowest terms) and all structural operations
are exact.  "float" uses IEEE doubles with caller-supplied tolerances.  A
single vector or matrix never mixes modes; the constructors reject entries
of the wrong kind so mixed expressions cannot arise downstream.

Vectors are plain tuples of scalars, matrices are tuples of row tuples.
Everything here is a pure function over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DimensionMismatch, ModeMismatch, SingularMatrix, UnsupportedDimension

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances used by float-mode predicates and angle search."""

    eps_geom: float = 1e-9
    eps_eig: float = 1e-10
    angle_tol: float = 1e-9
    denom_max: int = 64

    def __post_init__(self):
        if not (self.eps_geom > 0 and self.eps_eig > 0 and self.angle_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.denom_max < 1:
            raise ValueError("denom_max must be at least 1")


def as_scalar(value, mode):
    """Convert one input entry to the scalar type of the given mode."""
    if mode == RATIONAL:
        if isinstance(value, bool):
            raise ModeMismatch("booleans are not scalars")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
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


def vec_add(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return sum(a * b for a, b in zip(u, v))


def mat_vec(A, x):
    if len(A[0]) != len(x):
        raise DimensionMismatch("matrix/vector dimensions disagree")
    return tuple(sum(a * b for a, b in zip(row, x)) for row in A)


def mat_mul(A, B):
    if len(A[0]) != len(B):
        raise DimensionMismatch("matrix dimensions disagree")
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A)


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
    """T**p by repeated squaring; p = 0 yields the identity."""
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    n = len(T)
    result = identity(n, _mode_of(T[0][0]))
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


def inverse(A, *, eps=0.0):
    n = len(A)
    cols = []
    ident = identity(n, _mode_of(A[0][0]))
    for j in range(n):
        cols.append(solve(A, tuple(ident[i][j] for i in range(n)), eps=eps))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def char_poly(A):
    """Monic characteristic polynomial coefficients of det(lambda I - A).

    Returns (1, c1, ..., cn) with the same scalar kind as the entries.
    """
    n = len(A)
    one = Fraction(1) if _mode_of(A[0][0]) == RATIONAL else 1.0
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


def _exact_sqrt(value):
    """Square root of a nonnegative Fraction if it is itself rational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _divisors(n):
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


def _rational_root(coeffs):
    """One exact root of a monic cubic with Fraction coefficients, or None.

    Candidates are +-p/q with p dividing the constant term and q the leading
    coefficient after clearing denominators; skipped when the cleared integers
    are too large to factor cheaply.
    """
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    lead, const = ints[0], ints[-1]
    if const == 0:
        return Fraction(0)
    if abs(const) > 10**12 or abs(lead) > 10**12:
        return None

    def value(x):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    candidates = []
    for q in _divisors(lead):
        for p in _divisors(const):
            cand = Fraction(p, q)
            candidates.append(cand)
            candidates.append(-cand)
    candidates.sort(key=lambda f: (f.denominator, abs(f.numerator), f < 0))
    seen = set()
    for cand in candidates:
        if cand in seen:
            continue
        seen.add(cand)
        if value(cand) == 0:
            return cand
    return None


def _quadratic_exact(b, c):
    """Roots of x^2 + b x + c for Fraction b, c, as complex floats."""
    disc = b * b - 4 * c
    if disc >= 0:
        s = _exact_sqrt(disc)
        if s is not None:
            return [complex(float((-b - s) / 2)), complex(float((-b + s) / 2))]
        sf = math.sqrt(float(disc))
        return [complex((float(-b) - sf) / 2.0), complex((float(-b) + sf) / 2.0)]
    im = math.sqrt(float(-disc)) / 2.0
    re = float(-b) / 2.0
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


def eigenvalues(matrix, *, eps_eig=1e-10):
    """All eigenvalues (with algebraic multiplicity) as complex floats.

    n = 1 is trivial, n = 2 uses the quadratic formula (exact discriminant
    handling in rational mode), n = 3 tries an exact rational root first and
    otherwise finds one real root numerically before deflating to a quadratic.
    The returned list is sorted by (real, imag) so results are deterministic.
    """
    n = len(matrix)
    exact = _mode_of(matrix[0][0]) == RATIONAL
    if n == 1:
        return [complex(float(matrix[0][0]), 0.0)]
    if n == 2:
        tr = matrix[0][0] + matrix[1][1]
        de = det(matrix)
        roots = _quadratic_exact(-tr, de) if exact else _quadratic_float(-float(tr), float(de))
        return sorted(roots, key=lambda z: (z.real, z.imag))
    if n != 3:
        raise UnsupportedDimension("eigenvalues supports n <= 3 only")
    coeffs = char_poly(matrix)
    if exact:
        root = _rational_root(coeffs)
        if root is not None:
            q1 = coeffs[1] + root
            q0 = coeffs[2] + root * q1
            roots = [complex(float(root))] + _quadratic_exact(q1, q0)
            return sorted(roots, key=lambda z: (z.real, z.imag))
    fb, fc, fd = (float(coeffs[1]), float(coeffs[2]), float(coeffs[3]))
    real_root = _cubic_real_root(fb, fc, fd)
    q1 = fb + real_root
    q0 = fc + real_root * q1
    roots = [complex(real_root)] + _quadratic_float(q1, q0)
    fcoeffs = (1.0, fb, fc, fd)
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
    return sorted(polished, key=lambda z: (z.real, z.imag))


def char_residual(matrix, lam):
    """|det(matrix - lam I)| evaluated in complex floats (test diagnostic)."""
    n = len(matrix)
    rows = [[complex(float(v), 0.0) for v in row] for row in matrix]
    for i in range(n):
        rows[i][i] -= lam
    if n == 1:
        return abs(rows[0][0])
    if n == 2:
        return abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    (a, b, c), (d, e, f), (g, h, i) = rows
    return abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def spectral_radius(matrix):
    return max(abs(z) for z in eigenvalues(matrix))


def operator_norm(matrix):
    """Euclidean operator norm: sqrt of the spectral radius of T^T T."""
    gram = mat_mul(transpose(matrix), matrix)
    top = max(z.real for z in eigenvalues(gram))
    return math.sqrt(max(top, 0.0))


def inf_norm(matrix):
    return max(sum(abs(float(v)) for v in row) for row in matrix)


def norm2_sq(v):
    return sum(a * a for a in v)


def norm2(v):
    return math.sqrt(sum(float(a) * float(a) for a in v))
