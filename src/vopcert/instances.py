"""JSON instance files, report documents, and substitution-only re-checks.

Instance files carry every number as an integer or a "num/den" string;
decimal floats are rejected outright so certificates never depend on binary
rounding. Report documents serialize verdicts together with the cone row
data their witnesses were checked against, which lets verify_report confirm
all witnesses with plain evaluation and comparison, no solver involved. An
oracle's ball certificate is the exception: verify_report derives it again
from the instance, with the zero matrix's LPs, and compares.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import __version__
from .certify import (
    NECESSARY_INTERSECTION, NECESSARY_SPAN, NOT_ROBUST_CERTIFIED,
    SUFFICIENT_INTERSECTION, SUFFICIENT_SPAN, Domination, VOPInstance, Verdict,
    _analyze,
)
from .errors import CapabilityError, InstanceFormatError
from .funcs import AffinePiece, MAX, MIN, PieceFn, QuadPiece, SMOOTH, \
    eval_components
from .geometry import (
    ConicBlockSet, DiscretizedSet, FeasibleSet, OrderingCone, PolyhedralSet,
    feasible_contains, validate_ordering_cone,
)
from .oracle import OracleReport, PerturbationMatrix, perturbed_instance
from .rationals import (
    RationalParseError, Vec, format_rational, is_zero_vec, parse_rational,
    vdot, vsub,
)


@dataclass(frozen=True)
class ParsedInstance:
    instance: VOPInstance
    candidate: Vec


def _fail(path: str, message: str) -> InstanceFormatError:
    return InstanceFormatError(f"{path}: {message}")


def _rat(value, path: str) -> Fraction:
    try:
        return parse_rational(value)
    except RationalParseError as exc:
        raise _fail(path, str(exc)) from exc


def _vec(value, path: str, n: Optional[int] = None) -> Vec:
    if not isinstance(value, list):
        raise _fail(path, "expected a list of rationals")
    out = tuple(_rat(v, f"{path}[{i}]") for i, v in enumerate(value))
    if n is not None and len(out) != n:
        raise _fail(path, f"expected {n} entries, got {len(out)}")
    return out


def _mat(value, path: str, n: Optional[int] = None) -> Tuple[Vec, ...]:
    if not isinstance(value, list):
        raise _fail(path, "expected a list of rows")
    return tuple(_vec(row, f"{path}[{i}]", n) for i, row in enumerate(value))


def _require_keys(doc: dict, allowed, required, path: str):
    if not isinstance(doc, dict):
        raise _fail(path, "expected an object")
    for key in doc:
        if key not in allowed:
            raise _fail(path, f"unknown field {key!r}")
    for key in required:
        if key not in doc:
            raise _fail(path, f"missing field {key!r}")


def _parse_piece(doc, path: str, n: int):
    _require_keys(doc, {"a", "b", "h"}, {"a"}, path)
    a = _vec(doc["a"], f"{path}.a", n)
    b = _rat(doc.get("b", 0), f"{path}.b")
    if "h" in doc:
        h = _mat(doc["h"], f"{path}.h", n)
        if len(h) != n:
            raise _fail(f"{path}.h", f"expected {n} rows")
        return QuadPiece(h, a, b)
    return AffinePiece(a, b)


def _parse_piecefn(doc, path: str, n: int) -> PieceFn:
    _require_keys(doc, {"kind", "pieces"}, {"kind", "pieces"}, path)
    kind = doc["kind"]
    if kind not in (SMOOTH, MAX, MIN):
        raise _fail(f"{path}.kind", f"unknown kind {kind!r}")
    if not isinstance(doc["pieces"], list) or not doc["pieces"]:
        raise _fail(f"{path}.pieces", "expected a nonempty list")
    pieces = tuple(_parse_piece(p, f"{path}.pieces[{i}]", n)
                   for i, p in enumerate(doc["pieces"]))
    try:
        return PieceFn(kind, pieces)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_cone(doc, path: str, dim: int) -> OrderingCone:
    _require_keys(doc, {"hrep", "vrep"}, set(), path)
    if ("hrep" in doc) == ("vrep" in doc):
        raise _fail(path, "give exactly one of 'hrep' or 'vrep'")
    if "hrep" in doc:
        return validate_ordering_cone(dim, rows=_mat(doc["hrep"],
                                                     f"{path}.hrep", dim))
    return validate_ordering_cone(dim, generators=_mat(doc["vrep"],
                                                       f"{path}.vrep", dim))


def _parse_feasible(doc, path: str, n: int, q: Optional[int]) -> FeasibleSet:
    _require_keys(doc, {"type", "rows", "rhs", "g", "cone", "constraints",
                        "tau"}, {"type"}, path)
    kind = doc["type"]
    if kind == "polyhedral":
        _require_keys(doc, {"type", "rows", "rhs"}, {"rows", "rhs"}, path)
        rows = _mat(doc["rows"], f"{path}.rows", n)
        rhs = _vec(doc["rhs"], f"{path}.rhs", len(rows))
        return PolyhedralSet(rows, rhs)
    if kind == "conic":
        _require_keys(doc, {"type", "g", "cone"}, {"g", "cone"}, path)
        if q is None:
            raise _fail("dims", "conic feasible sets need dims.q")
        if not isinstance(doc["g"], list) or len(doc["g"]) != q:
            raise _fail(f"{path}.g", f"expected {q} component maps")
        g = tuple(_parse_piecefn(c, f"{path}.g[{i}]", n)
                  for i, c in enumerate(doc["g"]))
        return ConicBlockSet(g, _parse_cone(doc["cone"], f"{path}.cone", q))
    if kind == "discretized":
        _require_keys(doc, {"type", "constraints", "tau"},
                      {"constraints"}, path)
        if not isinstance(doc["constraints"], list):
            raise _fail(f"{path}.constraints", "expected a nonempty list")
        cons = tuple(_parse_piece(c, f"{path}.constraints[{i}]", n)
                     for i, c in enumerate(doc["constraints"]))
        for i, c in enumerate(cons):
            if isinstance(c, QuadPiece):
                raise _fail(f"{path}.constraints[{i}]",
                            "discretized families are affine")
        tau = _rat(doc.get("tau", 0), f"{path}.tau")
        if tau < 0:
            raise _fail(f"{path}.tau", "tolerance must be nonnegative")
        return DiscretizedSet(cons, tau)
    raise _fail(f"{path}.type", f"unknown feasible-set type {kind!r}")


def parse_instance_doc(doc) -> ParsedInstance:
    _require_keys(doc, {"dims", "objectives", "cone", "feasible", "candidate"},
                  {"dims", "objectives", "cone", "feasible", "candidate"},
                  "instance")
    dims = doc["dims"]
    _require_keys(dims, {"n", "p", "q"}, {"n", "p"}, "dims")
    n, p = dims["n"], dims["p"]
    q = dims.get("q")
    for name, v in (("n", n), ("p", p)) + ((("q", q),) if q is not None else ()):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise _fail(f"dims.{name}", "expected a positive integer")
    if not isinstance(doc["objectives"], list) or len(doc["objectives"]) != p:
        raise _fail("objectives", f"expected {p} components")
    objectives = tuple(_parse_piecefn(c, f"objectives[{i}]", n)
                       for i, c in enumerate(doc["objectives"]))
    cone = _parse_cone(doc["cone"], "cone", p)
    try:
        feasible = _parse_feasible(doc["feasible"], "feasible", n, q)
    except ValueError as exc:   # the set constructors' own checks
        raise _fail("feasible", str(exc)) from exc
    candidate = _vec(doc["candidate"], "candidate", n)
    return ParsedInstance(VOPInstance(objectives, feasible, cone, n), candidate)


def parse_instance_text(text: str) -> ParsedInstance:
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"instance is not valid JSON: {exc}") from exc
    return parse_instance_doc(doc)


def _reject_float(text):
    raise InstanceFormatError(
        f"decimal float not accepted in instance files: {text}")


def parse_instance(path: str) -> ParsedInstance:
    with open(path, "r", encoding="ascii") as fh:
        return parse_instance_text(fh.read())


# ---------------------------------------------------------------------------
# serialization


def encode(value):
    """Fractions become ints or 'num/den' strings; tuples become lists."""
    if isinstance(value, Fraction):
        return (value.numerator if value.denominator == 1
                else format_rational(value))
    if isinstance(value, bool) or value is None \
            or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def decode_vector(value, path: str = "vector") -> Vec:
    return _vec(value, path)


def decode_matrix(value, path: str = "matrix") -> Tuple[Vec, ...]:
    return _mat(value, path)


def cone_data(inst: VOPInstance, xbar: Vec) -> Dict[str, object]:
    """The exact set data behind a verdict, keyed for reports and describe."""
    return _cone_data(_analyze(inst, xbar))


def _cone_data(a) -> Dict[str, object]:
    inst = a.inst
    return {
        "cone_hrep": inst.cone.hrep.rows,
        "cone_generators": inst.cone.vrep.generators,
        "dual_neg_generators": inst.cone.dual_neg_gens.generators,
        "subdifferentials": list(a.subdiffs),
        "g1_rows": a.g1.rows,
        "g2_rows": a.g2.hrep.rows,
        "g2_exact": a.g2.exact,
        "tangent_rows": a.tangent.cone.rows,
        "tangent_exact": a.tangent.exact,
        "normal_generators": a.normal.cone.generators,
    }


def _report_doc(rep) -> dict:
    return {
        "condition": rep.condition,
        "holds": rep.holds,
        "witness": rep.witness,
        "exact": rep.exact,
        "note": rep.note,
    }


def report_document(inst: VOPInstance, xbar: Vec, verdict: Verdict,
                    elapsed: Optional[float] = None,
                    oracle: Optional[OracleReport] = None,
                    radius: Optional[Fraction] = None,
                    seed: Optional[int] = None) -> dict:
    a = verdict._analysis   # the cones the verdict was decided on
    if a is None or a.inst != inst or a.xbar != xbar:
        a = _analyze(inst, xbar)
    doc = {
        "tool": {"name": "vopcert", "version": __version__},
        "candidate": xbar,
        "status": verdict.status,
        "applied_rule": verdict.applied_rule,
        "hypotheses": dict(verdict.hypotheses),
        "reports": [_report_doc(r) for r in verdict.reports],
        "oracle_referral": verdict.oracle_referral,
        "witness": verdict.witness,
        "stamps": list(verdict.stamps),
        "cones": _cone_data(a),
        "seed": seed,
    }
    if elapsed is not None:
        doc["timings"] = {"total_seconds": round(elapsed, 6)}
    if oracle is not None:
        doc["oracle"] = oracle_document(oracle, radius)
    return encode(doc)


def oracle_document(report: OracleReport, radius) -> dict:
    doc = {
        "outcome": report.outcome,
        "radius": Fraction(radius),
        "matrix": report.matrix.rows if report.matrix is not None else None,
        "witness": report.witness,
        "patterns_tried": report.patterns_tried,
        "samples_tried": report.samples_tried,
        "budget": report.budget,
        "seed": report.seed,
        "exact": report.exact,
        "note": report.note,
    }
    if report.certificate is not None:
        doc["certificate"] = _certificate_doc(report.certificate)
    return encode(doc)


def _certificate_doc(cert) -> dict:
    return {
        "radius_sq": cert.radius_sq,
        "regions": [{"pieces": pieces, "support": support}
                    for pieces, support in cert.regions],
    }


def describe_document(inst: VOPInstance, xbar: Vec) -> dict:
    doc = cone_data(inst, xbar)
    doc["candidate"] = xbar
    doc["dims"] = {"n": inst.n, "p": inst.p}
    return encode(doc)


# ---------------------------------------------------------------------------
# substitution-only re-checks


def _check_direction(problems: List[str], label: str, witness, rows, n: int):
    try:
        d = _vec(witness, label, n)
    except InstanceFormatError as exc:
        problems.append(str(exc))
        return
    if is_zero_vec(d):
        problems.append(f"{label}: witness direction is zero")
        return
    for row in rows:
        if vdot(row, d) > 0:
            problems.append(f"{label}: direction fails row {row}")
            return


def verify_report(parsed: ParsedInstance, doc: dict) -> List[str]:
    """Re-check every witness in a report document by substitution alone.

    Cone rows are taken from the report itself; directions, dominating
    points, and perturbation matrices are validated with evaluation and
    comparison only. Every row and vector is decoded at the instance's
    length, so data of the wrong shape is a problem, not a crash. An oracle
    ball certificate is derived again from the instance and compared. An
    empty list means every recorded witness stands.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("report: expected an object")
    problems: List[str] = []
    inst, xbar = parsed.instance, parsed.candidate
    try:
        if decode_vector(doc.get("candidate"), "candidate") != xbar:
            problems.append("candidate in report differs from instance")
    except InstanceFormatError as exc:
        problems.append(str(exc))

    cones = doc.get("cones", {})
    if not isinstance(cones, dict):
        problems.append("cones: expected an object")
        return problems
    try:
        tangent, g1, g2 = (_mat(cones.get(key, []), key, inst.n)
                           for key in ("tangent_rows", "g1_rows", "g2_rows"))
    except InstanceFormatError as exc:
        problems.append(str(exc))
        return problems

    rowsets = {
        NECESSARY_INTERSECTION: tangent + g1,
        NECESSARY_SPAN: tangent + g1,
        SUFFICIENT_INTERSECTION: tangent + g2,
        SUFFICIENT_SPAN: tangent + g2,
    }
    if doc.get("status") == NOT_ROBUST_CERTIFIED:
        if doc.get("witness") is None:
            problems.append("refuting verdict carries no witness")
        else:
            _check_direction(problems, "verdict witness", doc["witness"],
                             rowsets[NECESSARY_INTERSECTION], inst.n)
    reports = doc.get("reports", [])
    if not isinstance(reports, list):
        problems.append("reports: expected a list")
        reports = []
    for i, rep in enumerate(reports):
        if not isinstance(rep, dict):
            problems.append(f"reports[{i}]: expected an object")
            continue
        cond = rep.get("condition")
        if not isinstance(cond, str):
            problems.append(f"reports[{i}].condition: expected a string")
            continue
        if cond in rowsets and rep.get("holds") is False \
                and rep.get("witness") is not None:
            _check_direction(problems, cond, rep["witness"], rowsets[cond],
                             inst.n)

    if "oracle" in doc:
        problems.extend(_verify_oracle_doc(inst, xbar, doc["oracle"]))
    return problems


def _verify_oracle_doc(inst: VOPInstance, xbar: Vec, odoc: dict) -> List[str]:
    if not isinstance(odoc, dict):
        return ["oracle: expected an object"]
    problems: List[str] = []
    if "certificate" in odoc:
        problems.extend(_verify_ball_certificate(inst, xbar, odoc))
    if odoc.get("outcome") == "RefutedWithWitness":
        problems.extend(_verify_refutation(inst, xbar, odoc))
    return problems


def _verify_ball_certificate(inst: VOPInstance, xbar: Vec,
                             odoc: dict) -> List[str]:
    """Derive the ball certificate again from the instance alone (a fresh
    Domination, the zero matrix, `ball_certificate`) and compare: the same
    supports, a claimed radius_sq no larger than the derived one, and the
    oracle's radius inside the claimed ball."""
    cert = odoc["certificate"]
    try:
        r = parse_rational(odoc.get("radius"))
        if not isinstance(cert, dict):
            raise _fail("oracle.certificate", "expected an object")
        claimed = parse_rational(cert.get("radius_sq"))
    except (RationalParseError, InstanceFormatError) as exc:
        return [f"oracle: {exc}"]
    try:
        problem = Domination(inst, xbar)
    except CapabilityError as exc:
        return [f"oracle: certificate: {exc}"]
    derived = problem.ball_certificate() if problem.point().efficient \
        else None
    if derived is None:
        return ["oracle: certificate: the instance gives none"]
    problems = []
    if cert.get("regions") != encode(_certificate_doc(derived))["regions"]:
        problems.append("oracle: certificate: supports differ from the "
                        "derived ones")
    if claimed > derived.radius_sq:
        problems.append(f"oracle: certificate: radius_sq "
                        f"{format_rational(claimed)} is above the derived "
                        f"{format_rational(derived.radius_sq)}")
    if r * r > claimed:
        problems.append("oracle: radius is above the certificate's")
    return problems


def _verify_refutation(inst: VOPInstance, xbar: Vec, odoc: dict) -> List[str]:
    problems: List[str] = []
    try:
        r = parse_rational(odoc.get("radius"))
        rows = _mat(odoc.get("matrix"), "oracle.matrix", inst.n)
        if len(rows) != inst.p:
            raise _fail("oracle.matrix", f"expected {inst.p} rows, got {len(rows)}")
        y = _vec(odoc.get("witness"), "oracle.witness", inst.n)
    except (RationalParseError, InstanceFormatError) as exc:
        return [f"oracle: {exc}"]
    matrix = PerturbationMatrix(rows)
    if not matrix.in_ball(r):
        problems.append("oracle: matrix is outside the open ball")
    if not feasible_contains(inst.feasible, y):
        problems.append("oracle: dominating point is infeasible")
        return problems
    pert = perturbed_instance(inst, matrix)
    w = vsub(eval_components(pert.objectives, xbar),
             eval_components(pert.objectives, y))
    if is_zero_vec(w):
        problems.append("oracle: perturbed difference is zero")
    elif not all(vdot(m, w) <= 0 for m in inst.cone.hrep.rows):
        problems.append("oracle: perturbed difference leaves the cone")
    return problems
