"""The single-matrix iterated function system model and its hull recursion.

A model is the map x -> T(x + d_j) for a contracting nonsingular matrix T and
digits d_1 .. d_q with d_1 = 0 (inputs with d_1 != 0 are translated and the
induced shift of the attractor is recorded, so results can be mapped back).

Points of the attractor are digit-index sequences: the finite address
(j_1, .., j_k) denotes sum_{s=1..k} T^s d_{j_s}, with j_1 the outermost map.
Eventually periodic addresses evaluate in closed form through (I - T^p)^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class IfsModel:
    dim: int
    matrix: tuple
    digits: tuple
    mode: str
    tol: ToleranceConfig
    normalization_shift: tuple
    warnings: tuple = ()

    @property
    def digit_count(self):
        return len(self.digits)

    def geom_eps(self):
        """Geometric tolerance: zero in rational mode, eps_geom otherwise."""
        return 0.0 if self.mode == RATIONAL else self.tol.eps_geom


@dataclass(frozen=True)
class EpAddress:
    """Eventually periodic address: finite prefix then a repeated block.

    The period is reduced to its primitive cyclic word on construction.
    Digit indices are 1-based.
    """

    prefix: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", _primitive_word(tuple(self.period)))

    def truncate(self, length):
        """First `length` digits of the infinite sequence."""
        out = list(self.prefix[:length])
        i = 0
        while len(out) < length:
            out.append(self.period[i % len(self.period)])
            i += 1
        return tuple(out)


def _primitive_word(word):
    p = len(word)
    for d in range(1, p):
        if p % d == 0 and word == word[:d] * (p // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class VertexLedger:
    """Vertex set of conv(A_k) with one length-k address per vertex."""

    step: int
    entries: tuple  # ((point, address), ...) sorted by point

    @property
    def points(self):
        return tuple(point for point, _ in self.entries)

    @property
    def count(self):
        return len(self.entries)


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
    return IfsModel(n, T, tuple(deduped), mode, tol, shift, tuple(warnings))


def _check_indices(model, indices):
    for j in indices:
        if not 1 <= j <= model.digit_count:
            raise ValueError(f"digit index {j} out of range 1..{model.digit_count}")


def evaluate_finite_address(model: IfsModel, address):
    """Value of a finite address: sum of T^s d_{j_s}, evaluated Horner-style."""
    address = tuple(address)
    _check_indices(model, address)
    acc = linalg.zero_vector(model.dim, model.mode)
    for j in reversed(address):
        acc = linalg.mat_vec(model.matrix, linalg.vec_add(model.digits[j - 1], acc))
    return acc


def evaluate_ep_address(model: IfsModel, ep: EpAddress):
    """Exact value of an eventually periodic address.

    The periodic tail solves y = T^p y + g with g the one-block sum, which is
    nonsingular because the spectral radius of T is below 1; the prefix is
    then folded around the tail.
    """
    _check_indices(model, ep.prefix)
    _check_indices(model, ep.period)
    p = len(ep.period)
    block = evaluate_finite_address(model, ep.period)
    eye = linalg.identity(model.dim, model.mode)
    tp = linalg.mat_pow(model.matrix, p)
    y = linalg.solve(linalg.mat_sub(eye, tp), block, eps=model.geom_eps())
    acc = y
    for j in reversed(ep.prefix):
        acc = linalg.mat_vec(model.matrix, linalg.vec_add(model.digits[j - 1], acc))
    return acc


def initial_ledger(model: IfsModel) -> VertexLedger:
    return VertexLedger(0, ((linalg.zero_vector(model.dim, model.mode), ()),))


def _step(model: IfsModel, ledger: VertexLedger):
    """One hull-recursion step; returns the new ledger and its polytope.

    In rational mode the step runs on integers: with T = M/delta, digits
    E_j/e and the ledger points X/s over the lcm s of their denominators,
    each candidate T(X/s + E_j/e) is the integer vector M(eX) + M(sE_j) over
    delta*e*s.  The scale restarts from the ledger at every step, so the
    integers grow no faster than the ledger's Fractions.
    """
    exact = model.mode == RATIONAL
    if exact:
        matrix, delta = linalg.to_lattice(model.matrix)
        digits, e = linalg.to_lattice(model.digits)
        points, s = linalg.to_lattice(ledger.points)
        images = [linalg.mat_vec(matrix, linalg.vec_scale(e, x)) for x in points]
        shifts = [linalg.mat_vec(matrix, linalg.vec_scale(s, d)) for d in digits]
        rows = ([linalg.vec_add(y, z) for z in shifts] for y in images)
    else:
        rows = (
            [linalg.mat_vec(model.matrix, linalg.vec_add(x, d)) for d in model.digits]
            for x in ledger.points
        )
    candidates = {}
    for row, (_, address) in zip(rows, ledger.entries):
        for j, new_point in enumerate(row, start=1):
            new_address = (j,) + address
            old = candidates.get(new_point)
            if old is None or new_address < old:
                candidates[new_point] = new_address
    if not exact:
        poly = hull_mod.convex_hull(list(candidates), eps=model.geom_eps())
        entries = tuple(sorted((pt, candidates[pt]) for pt in poly.vertex_set))
        return VertexLedger(ledger.step + 1, entries), poly
    den = delta * e * s
    poly = hull_mod.lattice_hull(sorted(candidates), den)
    lattice = sorted(
        (tuple(c.numerator * (den // c.denominator) for c in pt), pt) for pt in poly.vertices
    )
    entries = tuple((pt, candidates[x]) for x, pt in lattice)
    return VertexLedger(ledger.step + 1, entries), poly


def step_hull(model: IfsModel, ledger: VertexLedger) -> VertexLedger:
    """Advance the vertex ledger from step k to step k+1.

    Candidates are the images T(v + d_j) of the current vertices only; that
    is sufficient because extreme points of a union of affine images of a
    hull are images of extreme points.  Coincident candidates keep the
    lexicographically smallest address.
    """
    return _step(model, ledger)[0]


def iterate_hulls(model: IfsModel, steps: int):
    """Ledgers for steps 1..steps (list of VertexLedger)."""
    out = []
    ledger = initial_ledger(model)
    for _ in range(steps):
        ledger = step_hull(model, ledger)
        out.append(ledger)
    return out


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

    Uses the smallest power s <= 64 whose operator norm drops below one and
    sums the leading norms of the geometric series.
    """
    max_digit = max(linalg.norm2(d) for d in model.digits)
    norms = []
    power = model.matrix
    for s in range(1, 65):
        norms.append(linalg.operator_norm(power))
        if norms[-1] < 1.0:
            return sum(norms) * max_digit / (1.0 - norms[-1])
        power = linalg.mat_mul(power, model.matrix)
    raise FractalHullError("no matrix power with operator norm below 1 within 64 steps")


def tail_error_bound(model: IfsModel, k: int) -> float:
    """Hausdorff distance bound between the step-k point set and the attractor."""
    radius = attractor_radius_bound(model)
    tk = linalg.mat_pow(model.matrix, k)
    return linalg.operator_norm(tk) * radius
