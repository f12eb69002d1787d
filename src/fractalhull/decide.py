"""End-to-end polytope decision with bounded work and exact certification.

The pipeline: classify the eigenvalue angles of the inverse map matrix; if
none is a rational multiple of pi the hull is not a polytope; otherwise the
denominators give a hard bound k on the number of hull-recursion steps that
can matter.  The generator hull_steps yields the steps on demand, each as
its vertex ledger (the step's polytope and one address per vertex), and
search_rows pairs them into count rows with their Hausdorff deltas, the one
loop that deciding and the iterate command both drive.  Equal consecutive
vertex counts (stabilization) within the bound signal a polytope, in which
case each vertex's eventually periodic address is read off the address shift
map of the later stable step, evaluated exactly, and the resulting candidate
polytope is certified; strict count growth at every step up to the bound
yields the not-a-polytope verdict.

Certification proves conv(F) = P* from three checks: (a) every candidate
point equals the exact value of its address, hence lies in F; (b) the
candidates are exactly the vertices of their own hull P*, which holds when
P* has as many vertices as there are candidates, as its vertices are among
them; (c) every image T(v + d_j) of a vertex stays inside P*, hence the
attractor map sends P* into itself and F is trapped inside P*.  Together: P* <= conv(F) <= P*.
Certification reads only the model and the candidates.  (a) uses shift
closure: a candidate whose address ep has its shift ep.shift() among the
candidates, as candidate k, must equal T(x_k + d_head), and only the others
are evaluated (ifs.evaluate_ep_address) and compared with their points;
that suffices, because the errors e = x - value(ep) satisfy e_i = T e_k, so
following k ends at a tested candidate (e = 0) or at a cycle with
e = T^m e, and I - T^m is nonsingular.  Float mode holds each link and each
evaluation to eps.  (c) tests max_k n.y_k + max_j n.z_j <= c once per
integer facet row of a full-dimensional rational hull, the images being
T(x_k + d_j) = y_k + z_j on integers; every other case scans the images in
order with hull.contains and names the first one that escapes.
"""

from __future__ import annotations

from itertools import islice, pairwise
from operator import mul
from typing import NamedTuple, Optional

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


class CountRow(NamedTuple):
    i: int
    count: int
    hausdorff_delta: float


class Decision(NamedTuple):
    verdict: str
    certified: bool = False
    stabilization_index: Optional[int] = None
    vertices: Optional[tuple] = None  # ((point, EpAddress), ...) in normalized coords
    reason: Optional[str] = None


class CertCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


class CertResult(NamedTuple):
    ok: bool
    certified: bool
    checks: tuple
    failure: Optional[str] = None


class CrossCheckSection(NamedTuple):
    status: str  # "agree" | "disagree" | "inapplicable" | "not_compared"
    result: Optional[spectral.NormalCriterionResult]


class Report(NamedTuple):
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


def search_rows(model: IfsModel, steps=None):
    """Yield (ledger, CountRow) for steps 1, 2, ... of the recursion.

    Each row pairs two consecutive items of `steps`, by default a fresh
    hull_steps(model), and carries the nested_hausdorff delta between their
    polytopes; a step is computed only when its row is asked for, so
    islice(search_rows(model), n) takes n steps.
    """
    if steps is None:
        steps = hull_steps(model)
    for (_, prev_poly), (ledger, poly) in pairwise(steps):
        delta = hull_mod.nested_hausdorff(prev_poly, poly)
        yield ledger, CountRow(ledger.step, ledger.count, delta)


def extract_ep_addresses(ledger):
    """Eventually periodic address of each vertex of the later step of a stable pair.

    ledger holds step i+1 of a stable pair (i, i+1).  P_{i+1} = P_i +
    T^{i+1} conv(D), and at equal vertex counts no normal cone of P_i is
    split, so the vertex of P_i with address a has one successor, the vertex
    of P_{i+1} with address a + (j,).  The vertex with address (j,) + a is
    labelled j and goes to that successor of its parent a.  A shift map that
    is not a bijection raises ExtractionFailure; a bijection walks every
    vertex round its cycle, whose labels are the period (so the prefix is
    empty).  The EpAddresses come in ledger.entries order.
    """
    poly, addresses = ledger.poly, ledger.addresses
    index = {address[:-1]: k for k, address in enumerate(addresses)}
    succ = [index.get(address[1:]) for address in addresses]
    if None in succ or len(set(succ)) != ledger.count:
        raise ExtractionFailure(f"address shift map at step {ledger.step} is not a bijection")
    keys = poly.vertices if poly.lattice is None else poly.lattice[0]
    out = []
    for start in sorted(range(ledger.count), key=keys.__getitem__):
        period, i = [addresses[start][0]], succ[start]
        while i != start:
            period.append(addresses[i][0])
            i = succ[i]
        out.append(EpAddress((), period))
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

    def image_rows():  # image j of candidate k is image_rows()[k][j - 1]
        return [[linalg.mat_vec(model.matrix, vec_add(x, d)) for d in model.digits] for x in points]

    if exact:
        # image j of candidate k is also ys[k] + zs[j - 1] over den = scale * s
        xs, s = linalg.to_lattice(points)
        ys, zs, den = lattice_images(model, xs, s)
        scale = den // s
        link = lambda i, k, j: linalg.vec_scale(scale, xs[i]) == vec_add(ys[k], zs[j - 1])
    else:
        images = image_rows()
        link = lambda i, k, j: linalg.norm2(linalg.vec_sub(points[i], images[k][j - 1])) <= eps
    index = {ep: k for k, (ep, _) in enumerate(candidates)}
    evaluated = []
    for i, (ep, point) in enumerate(candidates):
        k, j = index.get(ep.shift()), ep.head
        if k is not None and 1 <= j <= model.digit_count:
            evaluated.append(link(i, k, j))
        else:
            error = linalg.vec_sub(evaluate_ep_address(model, ep), point)
            evaluated.append(not any(error) if exact else linalg.norm2(error) <= eps)
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

    # the hull's rows n.X <= c hold over its own den, a divisor of s, so the
    # images over den take c * (den // its den); n.(y_k + z_j) <= c for all
    # k, j iff max_k n.y_k + max_j n.z_j <= c.  Any other case, a failure
    # included, scans the images in order and names the first that escapes.
    fits = exact and poly.rows is not None and all(
        max(sum(map(mul, n, y)) for y in ys) + max(sum(map(mul, n, z)) for z in zs)
        <= c * (den // poly.lattice[1])
        for n, c in poly.rows
    )
    violation = None
    if not fits:
        rows = image_rows() if exact else images
        escapes = (
            (x, j)
            for x, row in zip(points, rows)
            for j, y in enumerate(row, start=1)
            if not hull_mod.contains(poly, y, eps=eps)
        )
        violation = next(escapes, None)
    detail = "every image T(v + d_j) of a candidate vertex lies in the hull"
    if violation is not None:
        detail = f"image of vertex {violation[0]} under digit {violation[1]} escapes the hull"
    checks.append(CertCheck("self_mapping", violation is None, detail))

    failure = next((check.name for check in checks if not check.ok), None)
    ok = failure is None
    return CertResult(ok, ok and exact, tuple(checks), failure)


def inverse_eigenvalue_classes(model: IfsModel):
    """The distinct eigenvalues of T^{-1}, classified exactly (rational input) or by the float scan."""
    distinct = spectral.distinct_eigenvalues([1.0 / z for z in model.eigenvalues])
    if model.mode != RATIONAL:
        return [spectral.classify_angle(z, model.tol) for z in distinct]
    denominator = None
    if any(z.imag for z in distinct):
        denominator = spectral.exact_angle_denominator(
            model.lattice[0], model.tol.denom_max, model.integer_char_poly
        )
    return [spectral.classify_exact(z, denominator) for z in distinct]


def decide_polytope(model: IfsModel, bound_mode: str = "product", steps=None):
    """Run the bounded decision pipeline; returns (Decision, Report).

    The stabilization search reads at most k+1 hull steps past step 0 from
    `steps`, by default a fresh hull_steps(model), and no step follows it:
    the addresses are read off the later step of the stable pair
    (extract_ep_addresses), evaluated as one batch (evaluate_ep_addresses)
    and certified once.
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

    for ledger, row in islice(search_rows(model, steps), bound.k + 1):
        counts.append(row)
        if ledger.step >= 2 and counts[-2].count == row.count:
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
        addresses = extract_ep_addresses(ledger)
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
    report = report._replace(decision=decision, cross_check=section)
    return decision, report
