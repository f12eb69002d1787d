"""End-to-end polytope decision with bounded work and exact certification.

The pipeline: classify the eigenvalue angles of the inverse map matrix; if
none is a rational multiple of pi the hull is not a polytope; otherwise the
denominators give a hard bound k on the number of hull-recursion steps that
can matter.  The generator hull_steps yields the steps on demand, each as
its vertex ledger (the step's polytope and one address per vertex), and
every caller of the recursion drives it.  Equal consecutive vertex counts
(stabilization) within the bound signal a polytope, in which case each
vertex's eventually periodic address is read off the vertex map between the
two stable steps, evaluated exactly, and the resulting candidate polytope is
certified; strict count growth at every step up to the bound yields the
not-a-polytope verdict.

Certification proves conv(F) = P* from three checks: (a) every candidate
point equals the exact value of its address, hence lies in F; (b) the
candidates are exactly the vertices of their own hull P*, which holds when
P* has as many vertices as there are candidates, as its vertices are among
them; (c) every image T(v + d_j) of a vertex stays inside P*, hence the
attractor map sends P* into itself and F is trapped inside P*.  Together: P* <= conv(F) <= P*.
In rational mode certification reads only the model and the candidates and
runs on integers, with the images of candidate x_k written T(x_k + d_j) =
y_k + z_j.  (a) uses shift closure: a candidate whose address ep has its
shift ep.shift() among the candidates, as candidate k, must equal
T(x_k + d_head), and only the others take the fixed-point test
ifs.is_address_value; that suffices, because the errors e = x - value(ep)
satisfy e_i = T e_k, so following k ends at a tested candidate (e = 0) or at
a cycle with e = T^m e, and I - T^m is nonsingular.  (c) tests
max_k n.y_k + max_j n.z_j <= c once per integer facet row, and scans the
images in order only to name the first one that escapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice, pairwise
from operator import mul
from typing import Optional

from . import hull as hull_mod
from . import linalg, spectral
from ._version import __version__
from .errors import ExtractionFailure
from .ifs import (
    EpAddress,
    IfsModel,
    evaluate_ep_address,
    evaluate_ep_addresses,
    initial_ledger,
    is_address_value,
    lattice_images,
)

# The one private import across modules: the benchmark tracer wraps
# decide._step as well as ifs._step, so hull_steps calls the step through
# this module's global.
from .ifs import _step
from .linalg import RATIONAL, vec_add

VERDICT_POLYTOPE = "POLYTOPE"
VERDICT_EMPTY_U = "NOT_POLYTOPE_EMPTY_U"
VERDICT_NO_STABILIZATION = "NOT_POLYTOPE_NO_STABILIZATION"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

NOTE_VERTEX_SETS = "V_k is computed as the vertex set of conv(A_k)"
NOTE_DECISION_RULE = (
    "decision rule: #V_i == #V_{i+1} for some i <= k means polytope; "
    "#V_i != #V_{i+1} for every i <= k means not a polytope"
)
NOTE_FLOAT = "float mode: all comparisons are tolerance-based and the decision is uncertified"


@dataclass(frozen=True)
class CountRow:
    i: int
    count: int
    hausdorff_delta: float


@dataclass(frozen=True)
class Decision:
    verdict: str
    certified: bool = False
    stabilization_index: Optional[int] = None
    vertices: Optional[tuple] = None  # ((point, EpAddress), ...) in normalized coords
    reason: Optional[str] = None


@dataclass(frozen=True)
class CertCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CertResult:
    ok: bool
    certified: bool
    checks: tuple
    failure: Optional[str] = None


@dataclass(frozen=True)
class CrossCheckSection:
    status: str  # "agree" | "disagree" | "inapplicable" | "not_compared"
    result: Optional[spectral.NormalCriterionResult]


@dataclass(frozen=True)
class Report:
    eigenvalue_classes: tuple
    bound: Optional[spectral.StepBound]
    counts: tuple
    decision: Decision
    cross_check: Optional[CrossCheckSection]
    certification: Optional[CertResult]
    warnings: tuple
    version: str = __version__


def hull_steps(model: IfsModel):
    """Yield (ledger, ledger.poly) for steps 0, 1, 2, ... of the hull recursion.

    Step 0 is the origin and its hull.  Each step is computed only when the
    caller asks for it, so islice(hull_steps(model), n) takes n - 1 steps.
    """
    ledger = initial_ledger(model)
    while True:
        yield ledger, ledger.poly
        ledger, _ = _step(model, ledger)


def extract_ep_addresses(prev_ledger, ledger):
    """Eventually periodic address of each vertex of a stable pair of steps.

    prev_ledger holds step i and ledger step i+1.  The vertex of step i+1
    with address (j,) + a is labelled j and goes to the vertex of step i+1
    that matches its parent, the vertex of step i with address a, by
    support direction; walking this map on vertex indices until one repeats
    gives the labels of the prefix, then of the period.  The EpAddresses
    come in ledger.entries order.  A tied or non-bijective match raises
    ExtractionFailure.

    Exact vertices are sorted by their integer form.  When both polytopes
    are exact planar ones and hull.parallel_cycles holds, vertex i of one
    matches vertex i of the other, so the map is read off the addresses
    alone; a stable pair of planar rational steps always has parallel cycles.
    """
    prev, poly = prev_ledger.poly, ledger.poly
    addresses = ledger.addresses
    exact = poly.lattice is not None and prev.lattice is not None
    keys = poly.lattice[0] if exact else poly.vertices
    if exact and poly.ambient_dim == 2 and hull_mod.parallel_cycles(prev, poly):
        images = range(ledger.count)
    else:
        match = list(hull_mod.support_map(prev, poly).values())
        if None in match or not len(match) == len(set(match)) == ledger.count:
            why = "ties a vertex" if None in match else "is not a bijection"
            raise ExtractionFailure(
                f"support map from step {prev_ledger.step} to {ledger.step} {why}"
            )
        index = {point: i for i, point in enumerate(poly.vertices)}
        images = [index[point] for point in match]
    parent = dict(zip(prev_ledger.addresses, images))
    succ = [parent[address[1:]] for address in addresses]
    out = []
    for start in sorted(range(ledger.count), key=keys.__getitem__):
        i, seen, labels = start, {}, []
        while i not in seen:
            seen[i] = len(labels)
            labels.append(addresses[i][0])
            i = succ[i]
        prefix, period = labels[: seen[i]], labels[seen[i] :]
        while prefix and prefix[-1] == period[-1]:
            period = [prefix.pop()] + period[:-1]
        out.append(EpAddress(prefix, period))
    return out


def certify_polytope(model: IfsModel, candidates, *, eps: Optional[float] = None) -> CertResult:
    """Verify that the candidate (address, point) list is exactly conv(F).

    Checks (a) address evaluation, (b) extremality, (c) self-mapping; see the
    module docstring.  In rational mode all three are exact and certified=True
    on success; in float mode the checks run with the given tolerance and the
    result is reported as numerically consistent but never certified.
    """
    exact = model.mode == RATIONAL
    if eps is None:
        eps = model.geom_eps()
    points = [point for _, point in candidates]
    if exact:
        # image j of candidate k is ys[k] + zs[j - 1] over den = scale * s
        xs, s = linalg.to_lattice(points)
        ys, zs, den = lattice_images(model, xs, s)
        scale = den // s
        index = {ep: k for k, (ep, _) in enumerate(candidates)}
        evaluated = []
        for (ep, point), x in zip(candidates, xs):
            k, j = index.get(ep.shift()), ep.head
            if k is None or not 1 <= j <= model.digit_count:
                evaluated.append(is_address_value(model, ep, point))
            else:
                evaluated.append(linalg.vec_scale(scale, x) == vec_add(ys[k], zs[j - 1]))
    else:
        evaluated = [
            linalg.norm2(linalg.vec_sub(evaluate_ep_address(model, ep), point)) <= eps
            for ep, point in candidates
        ]
    checks = [
        CertCheck(
            "address_evaluation",
            all(evaluated),
            "every candidate point equals the exact value of its address",
        )
    ]

    poly = hull_mod.convex_hull(points, eps=model.geom_eps())
    checks.append(
        CertCheck(
            "extremality",
            len(poly.lattice[0] if exact else poly.vertices) == len(points),
            "the candidates are exactly the vertices of their own hull",
        )
    )

    if exact and poly.rows is not None:
        # the hull's rows n.X <= c hold over its own den, a divisor of s, so
        # the images over den take c * (den // its den); n.(y_k + z_j) <= c for
        # all k, j iff max_k n.y_k + max_j n.z_j <= c; only a failure scans
        # the images in order, to name the first escape
        facets = [(n, c * (den // poly.lattice[1])) for n, c in poly.rows]
        fits = all(
            max(sum(map(mul, n, y)) for y in ys) + max(sum(map(mul, n, z)) for z in zs) <= c
            for n, c in facets
        )
        rows = [] if fits else [[vec_add(y, z) for z in zs] for y in ys]
        inside = lambda y: all(sum(map(mul, n, y)) <= c for n, c in facets)
    else:
        rows = [[linalg.mat_vec(model.matrix, vec_add(x, d)) for d in model.digits] for x in points]
        inside = lambda y: hull_mod.contains(poly, y, eps=eps)
    images = ((x, j, y) for x, row in zip(points, rows) for j, y in enumerate(row, start=1))
    violation = next(((x, j) for x, j, y in images if not inside(y)), None)
    detail = "every image T(v + d_j) of a candidate vertex lies in the hull"
    if violation is not None:
        detail = f"image of vertex {violation[0]} under digit {violation[1]} escapes the hull"
    checks.append(CertCheck("self_mapping", violation is None, detail))

    failure = next((check.name for check in checks if not check.ok), None)
    ok = failure is None
    return CertResult(ok, ok and exact, tuple(checks), failure)


def inverse_eigenvalue_classes(model: IfsModel):
    inverse_eigs = [1.0 / z for z in model.eigenvalues]
    distinct = spectral.distinct_eigenvalues(inverse_eigs)
    return [spectral.classify_angle(z, model.tol) for z in distinct]


def decide_polytope(model: IfsModel, bound_mode: str = "product"):
    """Run the bounded decision pipeline; returns (Decision, Report).

    The stabilization search performs at most k+1 hull steps and no step
    follows it: the addresses are read off the vertex map of the stable pair
    of steps (extract_ep_addresses), evaluated as one batch
    (evaluate_ep_addresses) and certified once.
    An extraction or certification failure gives an inconclusive verdict.
    """
    warnings = [*model.warnings, NOTE_VERTEX_SETS, NOTE_DECISION_RULE]
    if model.mode != RATIONAL:
        warnings.append(NOTE_FLOAT)

    classes = tuple(inverse_eigenvalue_classes(model))
    bound = spectral.compute_step_bound(classes, bound_mode)
    counts = []

    def finish(decision, cert=None):
        return decision, Report(classes, bound, tuple(counts), decision, None, cert, tuple(warnings))

    if bound is None:
        warnings.append(
            "U is empty: no eigenvalue angle matches a rational multiple of pi "
            f"(denominators <= {model.tol.denom_max}, tolerance {model.tol.angle_tol:g}); "
            "an empty U is possible only if the ambient dimension is even"
        )
        return finish(Decision(
            VERDICT_EMPTY_U,
            reason=f"no rational-angle eigenvalue up to denominator {model.tol.denom_max}",
        ))

    for (prev_ledger, prev_poly), (ledger, poly) in pairwise(islice(hull_steps(model), bound.k + 2)):
        delta = hull_mod.nested_hausdorff(prev_poly, poly)
        counts.append(CountRow(ledger.step, ledger.count, delta))
        if ledger.step >= 2 and counts[-2].count == counts[-1].count:
            break
    else:
        return finish(Decision(
            VERDICT_NO_STABILIZATION,
            reason=f"vertex counts grew strictly for every i <= {bound.k}",
        ))
    stabilization = ledger.step - 1

    # read the addresses off the stable pair of steps, evaluate exactly, certify
    cert = None
    try:
        addresses = extract_ep_addresses(prev_ledger, ledger)
    except ExtractionFailure as exc:
        failure = f"address extraction failed: {exc}"
    else:
        candidates = list(zip(addresses, evaluate_ep_addresses(model, addresses)))
        cert = certify_polytope(model, candidates)
        failure = f"certification failed on check {cert.failure!r}"
    if cert is None or not cert.ok:
        return finish(Decision(
            VERDICT_INCONCLUSIVE,
            stabilization_index=stabilization,
            reason=f"stabilization at i={stabilization} but {failure}",
        ), cert)
    return finish(Decision(
        VERDICT_POLYTOPE,
        certified=cert.certified,
        stabilization_index=stabilization,
        vertices=tuple(sorted((point, ep) for ep, point in candidates)),
    ), cert)


def cross_check(model: IfsModel, decision: Decision, k_cap: int) -> CrossCheckSection:
    """Compare the decision against the digit-hull facet-normal criterion.

    A disagreement between the two criteria indicates a defect somewhere and
    is never resolved silently; the caller downgrades the decision.
    """
    if model.dim not in (2, 3):
        return CrossCheckSection("inapplicable", None)
    result = spectral.facet_normal_criterion(
        model.matrix, model.digits, k_cap, eps=model.geom_eps()
    )
    if result.verdict == "inapplicable":
        return CrossCheckSection("inapplicable", result)
    if decision.verdict == VERDICT_POLYTOPE:
        status = "agree" if result.verdict == "polytope" else "disagree"
    elif decision.verdict in (VERDICT_EMPTY_U, VERDICT_NO_STABILIZATION):
        status = "agree" if result.verdict == "not_polytope" else "disagree"
    else:
        status = "not_compared"
    return CrossCheckSection(status, result)


def analyze_model(model: IfsModel, bound_mode: str = "product"):
    """decide_polytope plus the independent cross-check, as one report."""
    decision, report = decide_polytope(model, bound_mode)
    k_cap = report.bound.k if report.bound is not None else 64
    section = cross_check(model, decision, k_cap)
    if section.status == "disagree":
        decision = Decision(
            VERDICT_INCONCLUSIVE,
            stabilization_index=decision.stabilization_index,
            reason=(
                f"criteria disagree: decision pipeline says {decision.verdict}, "
                f"facet-normal criterion says {section.result.verdict}"
            ),
        )
    report = replace(report, decision=decision, cross_check=section)
    return decision, report
