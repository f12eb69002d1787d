"""The single-matrix iterated function system model and its hull recursion.

A model is the map x -> T(x + d_j) for a contracting nonsingular matrix T and
digits d_1 .. d_q with d_1 = 0 (inputs with d_1 != 0 are translated and the
induced shift of the attractor is recorded, so results can be mapped back).

Points of the attractor are digit-index sequences: the finite address
(j_1, .., j_k) denotes sum_{s=1..k} T^s d_{j_s}, with j_1 the outermost map.
Eventually periodic addresses evaluate in closed form through (I - T^p)^{-1};
in float mode each model builds I - T^p once per period length.
The value of an address is T(d_j + v), with j its first digit and v the value
of its shift (the address with that digit dropped), so evaluate_ep_addresses
evaluates a batch with one closed-form solve per cycle of shifts and one
integer map for every other address.

The vertex ledger of step k is the Polytope P_k = conv(A_k) with one
length-k address per vertex, in the polytope's own vertex order.  One
hull-recursion step, `_step`, takes the ledger of P_k to that of P_{k+1}; its
one driver is the generator `decide.hull_steps`.  Since A_k is the set of
sums sum_{s<=k} T^s d_{j_s}, P_k is the Minkowski sum of the T^s conv(D), and
P_{k+1} = P_k + T^{k+1} conv(D).  A rational step is that one
hull.minkowski_sum, on integers; a float step hulls the images T(v + d_j) of
the current vertices v.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional

from . import hull as hull_mod
from . import linalg, spectral
from .errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    FractalHullError,
    NonSingularityFailed,
    NotContractingFailed,
)
from .linalg import RATIONAL, ToleranceConfig


def _read_only(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class _ModelFields(NamedTuple):
    dim: int
    matrix: tuple
    digits: tuple
    mode: str
    tol: ToleranceConfig
    normalization_shift: tuple
    warnings: tuple = ()


class IfsModel(_ModelFields):
    """A validated model (validate_model); the values it derives are cached in its __dict__."""

    __setattr__ = __delattr__ = _read_only

    @property
    def digit_count(self):
        return len(self.digits)

    def geom_eps(self):
        """Geometric tolerance: zero in rational mode, eps_geom otherwise."""
        return 0.0 if self.mode == RATIONAL else self.tol.eps_geom

    @functools.cached_property
    def eigenvalues(self):
        """The eigenvalues of T, sorted (linalg.eigenvalues); validate_model keeps its own."""
        return tuple(linalg.eigenvalues(self.matrix))

    @functools.cached_property
    def integer_char_poly(self):
        """linalg.integer_char_poly of T (rational mode); validate_model keeps its own."""
        return linalg.integer_char_poly(self.matrix)

    @functools.cached_property
    def lattice(self):
        """(M, delta, (M E_j), e) for T = M/delta and digits E_j/e (rational mode)."""
        matrix, delta = linalg.to_lattice(self.matrix)
        digits, e = linalg.to_lattice(self.digits)
        return matrix, delta, tuple(linalg.mat_vec(matrix, d) for d in digits), e

    @functools.cached_property
    def _digit_powers(self):
        """[(M^i E_j for every digit j) for i = 1, 2, ...], grown by _digit_image (rational mode)."""
        return [self.lattice[2]]

    @functools.cached_property
    def _fixed_point_matrices(self):
        """{p: I - T^p}, filled by float evaluate_ep_address once per period length p."""
        return {}


class _AddressFields(NamedTuple):
    prefix: tuple
    period: tuple


class EpAddress(_AddressFields):
    """Eventually periodic address: finite prefix then a repeated block.

    The period is reduced to its primitive cyclic word on construction.
    Digit indices are 1-based.
    """

    __slots__ = ()

    def __new__(cls, prefix, period):
        if not period:
            raise ValueError("period must be nonempty")
        return tuple.__new__(cls, (tuple(prefix), _primitive_word(tuple(period))))

    @classmethod
    def _make(cls, iterable):
        """The address of these fields, reduced: _replace builds through here."""
        return cls(*iterable)

    def truncate(self, length):
        """First `length` digits of the infinite sequence."""
        out = list(self.prefix[:length])
        i = 0
        while len(out) < length:
            out.append(self.period[i % len(self.period)])
            i += 1
        return tuple(out)

    @property
    def head(self):
        """The first digit of the sequence."""
        return (self.prefix or self.period)[0]

    def shift(self):
        """The address with the first digit dropped: its value v solves value = T(d_head + v).

        Built without reducing the period again: a suffix keeps the primitive
        period, and a rotation of a primitive word is primitive.
        """
        if self.prefix:
            return tuple.__new__(EpAddress, (self.prefix[1:], self.period))
        return tuple.__new__(EpAddress, ((), self.period[1:] + self.period[:1]))


def _primitive_word(word):
    p = len(word)
    for d in range(1, p):
        if p % d == 0 and word == word[:d] * (p // d):
            return word[:d]
    return word


class _LedgerFields(NamedTuple):
    step: int
    poly: hull_mod.Polytope
    addresses: tuple


class VertexLedger(_LedgerFields):
    """Vertex set of conv(A_k): its polytope and one length-k address per vertex.

    addresses[i] is the address of poly's vertex i, in the polytope's own
    vertex order; entries and points, sorted by point, are built from poly
    when first read.
    """

    __setattr__ = __delattr__ = _read_only

    @property
    def count(self):
        return len(self.addresses)

    @functools.cached_property
    def entries(self):
        """((point, address), ...) sorted by point."""
        return tuple(sorted(zip(self.poly.vertices, self.addresses)))

    @property
    def points(self):
        return tuple(point for point, _ in self.entries)


def validate_model(matrix, digits, mode=RATIONAL, tol: Optional[ToleranceConfig] = None) -> IfsModel:
    """Build a validated model: contraction check, digit normalization.

    Digits are deduplicated (with a warning) and translated so the first digit
    is the origin; the attractor of the translated system differs from the
    original by (I - T)^{-1} T d_1, which is stored as normalization_shift.
    """
    if mode not in linalg.MODES:
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    tol = tol or ToleranceConfig()
    T = linalg.make_matrix(matrix, mode)
    n = len(T)
    digit_vecs = []
    for d in digits:
        if len(d) != n:
            raise DimensionMismatch(f"digit {d!r} does not have dimension {n}")
        digit_vecs.append(linalg.make_vector(d, mode))
    if not digit_vecs:
        raise FractalHullError("digit set is empty")
    warnings = []
    deduped = list(dict.fromkeys(digit_vecs))
    if len(deduped) != len(digit_vecs):
        warnings.append(f"removed {len(digit_vecs) - len(deduped)} duplicate digit(s)")
    check = spectral.validate_spectrum(T, mode)
    if check.violation == "nonsingularity_failed":
        raise NonSingularityFailed("map matrix is singular")
    if check.violation == "not_contracting":
        raise NotContractingFailed("map matrix has spectral radius >= 1")
    warnings.extend(check.warnings)
    d1 = deduped[0]
    if any(c != 0 for c in d1):
        eye = linalg.identity(n, mode)
        shift = linalg.solve(
            linalg.mat_sub(eye, T), linalg.mat_vec(T, d1), eps=0.0 if mode == RATIONAL else tol.eps_geom
        )
        deduped = [linalg.vec_sub(d, d1) for d in deduped]
    else:
        shift = linalg.zero_vector(n, mode)
    model = IfsModel(n, T, tuple(deduped), mode, tol, shift, tuple(warnings))
    vars(model).update(eigenvalues=check.eigenvalues, integer_char_poly=check.integer_char_poly)
    return model


def _check_indices(model, indices):
    for j in indices:
        if not 1 <= j <= model.digit_count:
            raise ValueError(f"digit index {j} out of range 1..{model.digit_count}")


def lattice_images(model: IfsModel, points, s):
    """Images T(x + d_j) of the points x = X/s under every digit, on integers.

    With T = M/delta and digits E_j/e, image j of X is M(eX) + s(M E_j) over
    delta*e*s.  Returns the two summands and the scale, (ys, zs, delta*e*s):
    image j of point k is ys[k] + zs[j - 1].
    """
    matrix, delta, shifts, e = model.lattice
    ys = [tuple(e * sum(map(mul, row, x)) for row in matrix) for x in points]
    return ys, [linalg.vec_scale(s, z) for z in shifts], delta * e * s


def _lattice_map(model, x, s, j):
    """The one image T(x + d_j) of x = X/s, as (integer vector, delta*e*s)."""
    matrix, delta, shifts, e = model.lattice
    image = (e * sum(map(mul, row, x)) + s * z for row, z in zip(matrix, shifts[j - 1]))
    return tuple(image), delta * e * s


def evaluate_finite_address(model: IfsModel, address):
    """Value of a finite address: sum of T^s d_{j_s}, evaluated Horner-style."""
    address = tuple(address)
    _check_indices(model, address)
    acc = linalg.zero_vector(model.dim, model.mode)
    for j in reversed(address):
        acc = linalg.mat_vec(model.matrix, linalg.vec_add(model.digits[j - 1], acc))
    return acc


def _periodic_value(model, period):
    """Value of the purely periodic address `period` on integers, as (X, den).

    It solves y = T^p y + g with g the one-block sum, nonsingular because the
    spectral radius of T is below 1: g is an integer Horner sum A over
    e*delta^p, and (delta^p I - M^p) y = A/e is solved by Cramer's rule.
    """
    matrix, _, _, e = model.lattice
    block, s = (0,) * model.dim, e
    for j in reversed(period):
        row, s = _lattice_map(model, block, s, j)
        block, s = tuple(c // e for c in row), s // e
    mp = linalg.mat_pow(matrix, len(period))
    b = [[s // e * (i == k) - mp[i][k] for k in range(model.dim)] for i in range(model.dim)]
    cols = ([r[:i] + [a] + r[i + 1 :] for r, a in zip(b, block)] for i in range(model.dim))
    return tuple(linalg.det(c) for c in cols), linalg.det(b) * e


def evaluate_ep_addresses(model: IfsModel, eps):
    """Exact values of a batch of eventually periodic addresses, in batch order.

    The value of ep is T(d_head + v) for v the value of ep.shift().  So each
    address is walked through its shifts until it meets a value already known:
    one closed-form solve (_periodic_value) serves each cycle of shifts inside
    the batch and each chain of shifts that leaves it, and every other value
    is one integer map from the value of its shift.  Fractions are built once,
    at the end.  In float mode each address is evaluated alone.
    """
    eps = list(eps)
    if model.mode != RATIONAL:
        return [evaluate_ep_address(model, ep) for ep in eps]
    for ep in eps:
        _check_indices(model, ep.prefix + ep.period)
    batch = set(eps)
    values = {}  # EpAddress -> (X, den)
    for ep in eps:
        chain = {}  # address -> its shift, in walk order
        while ep not in values:
            if ep in chain:  # a cycle of shifts: ep is purely periodic
                del chain[ep]
                values[ep] = _periodic_value(model, ep.period)
                break
            shifted = ep.shift()
            if not (ep.prefix or shifted in batch):  # the chain leaves the batch
                values[ep] = _periodic_value(model, ep.period)
                break
            chain[ep] = shifted
            ep = shifted
        for ep, shifted in reversed(chain.items()):
            values[ep] = _lattice_map(model, *values[shifted], ep.head)
    return [tuple(Fraction(c, den) for c in x) for x, den in map(values.__getitem__, eps)]


def evaluate_ep_address(model: IfsModel, ep: EpAddress):
    """Exact value of an eventually periodic address.

    In rational mode it is the batch of one, evaluate_ep_addresses([ep]).  In
    float mode the periodic tail solves y = T^p y + g with g the one-block sum
    by Gaussian elimination, with I - T^p built once per model and period
    length p, and the prefix is then folded around the tail.
    """
    if model.mode == RATIONAL:
        return evaluate_ep_addresses(model, [ep])[0]
    _check_indices(model, ep.prefix + ep.period)
    block = evaluate_finite_address(model, ep.period)
    p, matrices = len(ep.period), model._fixed_point_matrices
    if p not in matrices:
        eye = linalg.identity(model.dim, model.mode)
        matrices[p] = linalg.mat_sub(eye, linalg.mat_pow(model.matrix, p))
    acc = linalg.solve(matrices[p], block, eps=model.geom_eps())
    for j in reversed(ep.prefix):
        acc = linalg.mat_vec(model.matrix, linalg.vec_add(model.digits[j - 1], acc))
    return acc


def initial_ledger(model: IfsModel) -> VertexLedger:
    """Step 0: the origin, its hull, and its empty address."""
    if model.mode == RATIONAL:
        poly = hull_mod.lattice_polytope([(0,) * model.dim], 1)
    else:
        poly = hull_mod.Polytope(model.dim, 0, (linalg.zero_vector(model.dim, model.mode),))
    return VertexLedger(0, poly, ((),))


def _digit_image(model, k):
    """W = conv(T^k D) as an exact Polytope, and the digit of each of its vertices.

    T^k d_j is M^k E_j over delta^k e, and the integer points M^k E_j are
    read off model._digit_powers, which grows by one mat-vec per digit per
    new k.  Distinct digits have distinct images, since T is nonsingular.
    """
    matrix, delta, _, e = model.lattice
    powers = model._digit_powers
    while len(powers) < k:
        powers.append(tuple(linalg.mat_vec(matrix, z) for z in powers[-1]))
    points, den = powers[k - 1], delta**k * e
    if model.dim == 2:
        cycle = hull_mod.lattice_cycle(points)
        return hull_mod.lattice_polytope(cycle, den), [points.index(z) + 1 for z in cycle]
    w = hull_mod.lattice_hull(sorted(points), den)
    xs, t = w.lattice
    return w, [points.index(linalg.vec_scale(den // t, x)) + 1 for x in xs]


def _step(model: IfsModel, ledger: VertexLedger):
    """One hull-recursion step; returns the new ledger and its polytope.

    A rational step is one hull.minkowski_sum P_{k+1} = P_k + W of the
    polytope and W = conv(T^{k+1} D) (_digit_image), and a vertex that sums
    vertex i with the image of digit j gets the address a_i + (j,).  A float
    step hulls the candidates T(v + d_j) of the current vertices v, which
    suffice because extreme points of a union of affine images of a hull are
    images of extreme points; coincident candidates keep the
    lexicographically smallest address.
    """
    if model.mode == RATIONAL:
        w, digit_of = _digit_image(model, ledger.step + 1)
        poly, pairs = hull_mod.minkowski_sum(ledger.poly, w)
        addresses = tuple(ledger.addresses[i] + (digit_of[j],) for i, j in pairs)
        return VertexLedger(ledger.step + 1, poly, addresses), poly
    candidates = {}
    for x, address in zip(ledger.poly.vertices, ledger.addresses):
        for j, d in enumerate(model.digits, start=1):
            new_point = linalg.mat_vec(model.matrix, linalg.vec_add(x, d))
            new_address = (j,) + address
            old = candidates.get(new_point)
            if old is None or new_address < old:
                candidates[new_point] = new_address
    poly = hull_mod.convex_hull(list(candidates), eps=model.geom_eps())
    return VertexLedger(ledger.step + 1, poly, tuple(map(candidates.__getitem__, poly.vertices))), poly


def brute_force_vertices(model: IfsModel, k: int, budget: int = 10**6):
    """Oracle hull of step k by full enumeration of all q^k digit strings.

    Works level by level (A_{k+1} = union of T(A_k + d_j)) with exact point
    deduplication; raises when q^k exceeds the budget.
    """
    if model.digit_count**k > budget:
        raise EnumerationBudgetExceeded(
            f"{model.digit_count}^{k} points exceed the budget of {budget}"
        )
    level = {linalg.zero_vector(model.dim, model.mode)}
    for _ in range(k):
        level = {
            linalg.mat_vec(model.matrix, linalg.vec_add(x, d))
            for x in level
            for d in model.digits
        }
    return hull_mod.convex_hull(level, eps=model.geom_eps())


def attractor_radius_bound(model: IfsModel) -> float:
    """Radius R with every attractor point inside the ball of radius R.

    Uses the smallest power s <= 4096 whose operator norm drops below one and
    sums the leading norms of the geometric series.  Powers past the 64th are
    taken on floats: exact ones grow too costly there.
    """
    max_digit = max(linalg.norm2(d) for d in model.digits)
    norms = []
    matrix = power = model.matrix
    for s in range(1, 4097):
        norms.append(linalg.operator_norm(power))
        if norms[-1] < 1.0:
            return sum(norms) * max_digit / (1.0 - norms[-1])
        if s == 64:
            matrix, power = (linalg.make_matrix(m, linalg.FLOAT) for m in (matrix, power))
        power = linalg.mat_mul(power, matrix)
    raise FractalHullError("no matrix power with operator norm below 1 within 4096 steps")


def tail_error_bound(model: IfsModel, k: int) -> float:
    """Hausdorff distance bound between the step-k point set and the attractor."""
    radius = attractor_radius_bound(model)
    tk = linalg.mat_pow(model.matrix, k)
    return linalg.operator_norm(tk) * radius
