"""The four benchmark workloads.

A request is what one `vopcert <command> --json` invocation does after
start-up: parse the instance document, run the command, build its JSON
document and serialize it. Each workload also says how its requests are
checked (outside the timed region) and which part of an output is
canonical, so that a digest over outputs can show byte-identical results.

Inputs come only from the seeded document stream of `gen`. Pools are
classified once in set-up; that work is never timed.
"""

import itertools
import json
from fractions import Fraction

import gen

RADIUS = Fraction(1, 1000)
ORACLE_BUDGET = 1000
ORACLE_SEED = 11
GAP_SEED = 0
GAP_SAMPLES = 100

# documents drawn while filling a pool before set-up gives up
SCAN_LIMIT = 5000


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _q(value):
    return Fraction(str(value))


class Workload:
    """One workload: its inputs, its request, its check and its digest view.

    `digest_requests` is the length of the request prefix the output
    digest covers; `trace_requests` is the fixed request count of a traced
    pass. Both are fixed so digests and counts compare across runs, and
    a traced run covers the digest prefix, so it prints the same digest
    as a timed run of the same seed.
    """

    name = ""
    digest_requests = 0
    trace_requests = 0
    pool_size = 0

    def __init__(self, vopcert, seed):
        self.vopcert = vopcert
        self.seed = seed
        if self.pool_size:
            self.pool = self._pool()

    def keep(self, parsed):
        """Whether a parsed stream instance belongs in the pool."""
        raise NotImplementedError

    def items(self):
        """Endless iterator of request inputs: the pool, cycled."""
        return itertools.cycle(self.pool)

    def request(self, doc):
        raise NotImplementedError

    def check(self, doc, output):
        """Problems with one output, judged against its document; [] is ok."""
        raise NotImplementedError

    def view(self, output):
        """The part of an output that must repeat byte for byte."""
        return output

    def _pool(self):
        """The first `pool_size` stream documents the workload keeps."""
        pool = []
        for doc in itertools.islice(gen.stream(self.seed, self.vopcert),
                                    SCAN_LIMIT):
            if self.keep(self.vopcert.parse_instance_text(doc)):
                pool.append(doc)
                if len(pool) == self.pool_size:
                    return pool
        raise RuntimeError(f"{self.name}: only {len(pool)} of "
                           f"{self.pool_size} pool documents in the first "
                           f"{SCAN_LIMIT}")


class CertifyMix(Workload):
    """`certify --json` then `verify-report` on fresh documents, never repeated."""

    name = "certify-mix"
    digest_requests = 100
    trace_requests = 120

    def items(self):
        return gen.stream(self.seed, self.vopcert)

    def request(self, doc):
        v = self.vopcert
        parsed = v.parse_instance_text(doc)
        verdict = v.certify(parsed.instance, parsed.candidate)
        text = json.dumps(v.report_document(parsed.instance, parsed.candidate,
                                            verdict), indent=1)
        report = json.loads(text)
        return {"report": report, "problems": v.verify_report(parsed, report)}

    def check(self, doc, output):
        problems = list(output["problems"])
        status = output["report"]["status"]
        if status not in (self.vopcert.ROBUST_CERTIFIED,
                          self.vopcert.NOT_ROBUST_CERTIFIED,
                          self.vopcert.INCONCLUSIVE):
            problems.append(f"unknown status {status!r}")
        return problems

    def view(self, output):
        report = dict(output["report"])
        report.pop("timings", None)
        return report


class _Oracle(Workload):
    """`oracle --radius 1/1000 --samples 1000 --seed 11 --json`."""

    def request(self, doc):
        v = self.vopcert
        parsed = v.parse_instance_text(doc)
        rep = v.robust_oracle(parsed.instance, parsed.candidate, RADIUS,
                              budget=ORACLE_BUDGET, seed=ORACLE_SEED)
        return json.loads(json.dumps(v.oracle_document(rep, RADIUS), indent=1))


class OracleScan(_Oracle):
    """Certified points: every candidate is decided, none refutes.

    The pool holds one stratum, n = 2, p = 2 with four full-dimensional
    selection regions, the commonest certified shape. Scan cost grows
    with the region count and p, so a mixed pool of a dozen points would
    let the draw, not the code, set the figure.
    """

    name = "oracle-scan"
    digest_requests = 2
    trace_requests = 2
    pool_size = 12

    def keep(self, parsed):
        from vopcert.funcs import full_dim_selections
        v, inst = self.vopcert, parsed.instance
        if (inst.n, inst.p) != (2, 2):
            return False
        if len(full_dim_selections(inst.objectives, inst.n)) != 4:
            return False
        return v.certify(inst, parsed.candidate).status == v.ROBUST_CERTIFIED

    def check(self, doc, output):
        if output["outcome"] != self.vopcert.NO_COUNTEREXAMPLE:
            return [f"certified point refuted inside the ball: {output}"]
        return []


class OracleRefute(_Oracle):
    """Points that certify NotRobust: each refutes after one or two candidates."""

    name = "oracle-refute"
    digest_requests = 40
    trace_requests = 40
    pool_size = 150

    def keep(self, parsed):
        # certify answers NotRobust exactly when the necessary intersection
        # condition fails, and that check alone costs a third of certify
        return self.vopcert.check_necessary_intersection(
            parsed.instance, parsed.candidate).holds is False

    def check(self, doc, output):
        if output["outcome"] != self.vopcert.REFUTED:
            return [f"refutable point not refuted: {output['outcome']}"]
        return recheck_refutation(json.loads(doc), output)


def recheck_refutation(doc, odoc):
    """Re-check an oracle refutation by substitution into the instance alone.

    Uses only the instance document and plain Fraction arithmetic: the
    matrix lies in the open ball, the witness is feasible, and the
    perturbed value difference f(y) + Cy - f(x) - Cx is nonzero and lies
    in -K, i.e. f(x) + Cx - f(y) - Cy is a nonnegative combination of
    the cone generators the document gives.
    """
    try:
        r = _q(odoc["radius"])
        cmat = [[_q(c) for c in row] for row in odoc["matrix"]]
        y = [_q(c) for c in odoc["witness"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed refutation: {exc!r}"]
    n, p = doc["dims"]["n"], doc["dims"]["p"]
    xbar = [_q(c) for c in doc["candidate"]]
    if len(cmat) != p or any(len(row) != n for row in cmat) or len(y) != n:
        return ["refutation has the wrong shape"]
    problems = []
    if not sum(c * c for row in cmat for c in row) < r * r:
        problems.append("matrix is outside the open ball")
    feas = doc["feasible"]
    for row, b in zip(feas["rows"], feas["rhs"]):
        if _dot([_q(c) for c in row], y) > _q(b):
            problems.append("witness is infeasible")
            break

    def value(x):
        out = []
        for comp, crow in zip(doc["objectives"], cmat):
            vals = [_dot([_q(c) for c in pc["a"]], x) + _q(pc.get("b", 0))
                    for pc in comp["pieces"]]
            best = min(vals) if comp["kind"] == "min" else max(vals)
            out.append(best + _dot(crow, x))
        return out

    w = [a - b for a, b in zip(value(xbar), value(y))]
    if all(c == 0 for c in w):
        problems.append("perturbed value difference is zero")
        return problems
    gens = [[_q(c) for c in g] for g in doc["cone"]["vrep"]]
    lam = _solve([[g[i] for g in gens] for i in range(p)], w)
    if lam is None or any(c < 0 for c in lam):
        problems.append("perturbed value difference is outside -K")
    return problems


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _solve(a, b):
    """Exact solution of the square system a x = b, or None if singular."""
    m = len(a)
    if any(len(row) != m for row in a):
        return None
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][m] / aug[i][i] for i in range(m)]


class GapCertified(Workload):
    """`gap --json` on certified points whose gap hypotheses hold.

    The filter is that of the acceptance test (certified, cone-convex,
    scalarization equality established), narrowed to n = 2, p = 2. There
    the search runs past every vertex matrix deep into the sampled ones,
    so each request repeats the matrix-invariant polytope work many
    times; other shapes stop after anywhere from 1 to 79 matrices, a
    spread that would let the per-seed draw, not the code, set the figure.
    """

    name = "gap-certified"
    digest_requests = 6
    trace_requests = 6
    pool_size = 20

    def keep(self, parsed):
        from vopcert.funcs import CONVEX
        from vopcert.gapfn import scalarization_equality
        v, inst, xbar = self.vopcert, parsed.instance, parsed.candidate
        if (inst.n, inst.p) != (2, 2):
            return False
        if v.certify(inst, xbar).status != v.ROBUST_CERTIFIED:
            return False
        gens = inst.cone.dual_neg_gens.generators
        if v.kconvexity_check(inst.objectives, gens, inst.n).status != CONVEX:
            return False
        return scalarization_equality(inst.objectives, xbar,
                                      inst.cone) == (True, True)

    def request(self, doc):
        v = self.vopcert
        parsed = v.parse_instance_text(doc)
        rep = v.gap_necessary_check(parsed.instance, parsed.candidate,
                                    seed=GAP_SEED, samples=GAP_SAMPLES)
        from vopcert.instances import encode
        return json.loads(json.dumps(encode({
            "condition": rep.condition,
            "holds": rep.holds,
            "witness": rep.witness,
            "exact": rep.exact,
            "note": rep.note,
        }), indent=1))

    def check(self, doc, output):
        if output["holds"] is not True:
            return [f"certified point with no gap witness: {output}"]
        parsed = self.vopcert.parse_instance_text(doc)
        try:
            cols = [[_q(c) for c in col] for col in output["witness"]]
            self.vopcert.gap_query(parsed.instance.objectives,
                                   parsed.candidate, cols)
        except (self.vopcert.InstanceFormatError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            return [f"gap witness rejected: {exc}"]
        return []


WORKLOADS = {w.name: w for w in (CertifyMix, OracleScan, OracleRefute,
                                 GapCertified)}
