"""Each cone is built once per (instance, candidate), the gap polytope and
the oracle's domination problem once per call (one for all of a radius
estimate's levels), and the gap check costs one LP per sign pattern and one
decision of its linear problem, the witness re-check.
An oracle candidate that a certificate settles builds no Fraction rows, and
a certificate support of fixed rows is eliminated once, not per candidate.
Where the zero matrix's supports prove the whole ball, the oracle stops
after the zero matrix: no pattern or sample is built. Parsing a valid
ordering cone makes its two double descriptions and no LP: the interior is
the rank of the extreme rays. The gap check proves its polytope bounded
with one triviality LP on the recession cone. A cone that is {0} costs
certify one LP and no probe, and an inclusion solves no LP for an outer
row the inner cone lists. Cone rows are canonicalized once, by the
constructor, and by no kernel that reads them.

Functions are counted wherever a vopcert module binds them: a
`from .geometry import g1_cone` copies the binding into the importing
module. Modules are reached through sys.modules, because the package
attribute `vopcert.certify` is the function, not the submodule.
"""

import json
import sys

import pytest

from helpers import Q, af, maxfn, minfn, qv, smooth
from vopcert.certify import (
    CONIC_GATE, ROBUST_CERTIFIED, Domination, VOPInstance, certify,
)
from vopcert.cones import ConeHRep, hrep_subset
from vopcert.gapfn import gap_necessary_check
from vopcert.geometry import (
    ConicBlockSet, PolyhedralSet, validate_ordering_cone,
)
from vopcert.instances import parse_instance_text, report_document
from vopcert.oracle import (
    NO_COUNTEREXAMPLE, PerturbationMatrix, radius_estimate, robust_oracle,
)

ORTHANT2 = validate_ordering_cone(2, rows=(qv(-1, 0), qv(0, -1)))
K_EX = validate_ordering_cone(2, rows=(qv(-1, -1), qv(-1, 0)))
EXAMPLE = VOPInstance((maxfn(af([0]), af([1])), minfn(af([-1]), af([0]))),
                      PolyhedralSet((), ()), K_EX, 1)
# (max(x1, -x1), max(x2, -x2)) on the plane: four quadrant regions, each
# settled at C = 0 by two fixed rows; the ball certificate covers r^2 < 1/2
ABS_PAIR = VOPInstance((maxfn(af([1, 0]), af([-1, 0])),
                        maxfn(af([0, 1]), af([0, -1]))),
                       PolyhedralSet((), ()), ORTHANT2, 2)
# the same objectives on the box [-1, 1]^2: RobustCertified at the origin
ABS_BOX = VOPInstance(ABS_PAIR.objectives,
                      PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                                    qv(1, 1, 1, 1)), ORTHANT2, 2)
# a radius above that certificate's, so the oracle scans every candidate;
# the zero matrix's supports still settle them all
SCANNED_R = Q(3, 4)


def _count(monkeypatch, module, name, only_in=None):
    """Record the arguments of every call to vopcert.<module>.<name>.

    With only_in, just that module's binding is wrapped, so only the calls
    made from inside it are seen.
    """
    original = getattr(sys.modules[f"vopcert.{module}"], name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    holders = ([sys.modules[f"vopcert.{only_in}"]] if only_in else
               [mod for key, mod in sys.modules.items()
                if key == "vopcert" or key.startswith("vopcert.")])
    for mod in holders:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_certify_and_report_build_each_cone_once(monkeypatch):
    counts = {name: _count(monkeypatch, "geometry", name)
              for name in ("g1_cone", "g2_cone", "tangent_cone")}
    verdict = certify(EXAMPLE, qv(0))
    report_document(EXAMPLE, qv(0), verdict)
    assert {name: len(c) for name, c in counts.items()} == \
        {"g1_cone": 1, "g2_cone": 1, "tangent_cone": 1}


def test_certify_enumerates_the_selections_once(monkeypatch):
    # K_EX has two dual generators; both scalarizations share one
    # enumeration of the essentially active selections
    sels = _count(monkeypatch, "funcs", "essentially_active_selections")
    certify(EXAMPLE, qv(0))
    assert len(K_EX.dual_neg_gens.generators) == 2
    assert len(sels) == 1


def test_report_for_another_candidate_rebuilds(monkeypatch):
    verdict = certify(EXAMPLE, qv(0))
    g1 = _count(monkeypatch, "geometry", "g1_cone")
    doc = report_document(EXAMPLE, qv(1), verdict)
    assert len(g1) == 1 and doc["candidate"] == [1]


def test_verdict_equality_and_repr_ignore_the_cones():
    first, second = certify(EXAMPLE, qv(0)), certify(EXAMPLE, qv(0))
    assert first == second
    assert "_analysis" not in repr(first)


def test_conic_support_runs_once(monkeypatch):
    sup = _count(monkeypatch, "geometry", "conic_support")
    conv = _count(monkeypatch, "funcs", "kconvexity_check")
    blk = ConicBlockSet((smooth(af([1, 1], -1)), smooth(af([0, -1]))),
                        ORTHANT2)
    inst = VOPInstance((smooth(af([-1, 0])), smooth(af([0, -1]))), blk,
                       ORTHANT2, 2)
    verdict = certify(inst, qv(1, 0))
    report_document(inst, qv(1, 0), verdict)
    assert verdict.status == ROBUST_CERTIFIED
    assert len(sup) == 1
    # the constraint map's convexity is decided once, for the tangent cone's
    # flags, and read back by the hypotheses
    assert sum(1 for args in conv if args[0] == blk.g) == 1
    assert verdict.hypotheses["feasible-set-convex"] is True


def test_conic_convexity_decided_when_the_flags_stop_early(monkeypatch):
    # 0 lies in the support subdifferential, so the gate fails before the
    # flags reach the constraint map; the hypotheses decide it themselves
    conv = _count(monkeypatch, "funcs", "kconvexity_check")
    blk = ConicBlockSet((maxfn(af([1, 0]), af([-1, 0])), smooth(af([0, -1]))),
                        ORTHANT2)
    inst = VOPInstance((smooth(af([-1, 0])), smooth(af([0, -1]))), blk,
                       ORTHANT2, 2)
    verdict = certify(inst, qv(0, 0))
    assert any(r.condition == CONIC_GATE and r.holds is False
               for r in verdict.reports)
    assert sum(1 for args in conv if args[0] == blk.g) == 1


def test_gap_check_builds_the_polytope_once(monkeypatch):
    inst = ABS_BOX
    xbar = qv(0, 0)
    assert certify(inst, xbar).status == ROBUST_CERTIFIED
    faces = _count(monkeypatch, "gapfn", "enumerate_faces")
    gap_lps = _count(monkeypatch, "linprog", "lp_solve", only_in="gapfn")
    cone_lps = _count(monkeypatch, "linprog", "lp_solve", only_in="cones")
    trivial = _count(monkeypatch, "cones", "is_trivial")
    points = _count(monkeypatch, "linprog", "feasible_point")
    # per matrix decided: (feasible_point calls, base point, matrix)
    tried = []
    decide = Domination.point

    def spy(problem, shift=None):
        before = len(points)
        result = decide(problem, shift)
        tried.append((len(points) - before, problem.xbar, shift))
        return result

    monkeypatch.setattr(Domination, "point", spy)
    rep = gap_necessary_check(inst, xbar)
    assert rep.holds is True and "sign pattern 1 of 1" in rep.note
    # boundedness is the triviality of the box's recession cone: one
    # is_trivial call and its one boxed LP. The orthant's dual generators
    # are nonnegative: one sign pattern, so one gap LP; the witness is then
    # re-checked by one decision at the base point, and no face is
    # enumerated
    assert [args[0].rows for args in trivial] == [ABS_BOX.feasible.rows]
    assert len(cone_lps) == 1
    assert len(gap_lps) == 1 and not any(gap_lps[0][0])
    assert tried == [(0, xbar, rep.witness)] and faces == []


def test_gap_check_settled_at_base_point_skips_faces(monkeypatch):
    # 18 rows exceed the face-enumeration cap; the LP decides the base
    # point without the faces
    rows = tuple(qv(1) for _ in range(17)) + (qv(-1),)
    rhs = tuple(qv(*range(1, 18))) + qv(1)
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))),
                       PolyhedralSet(rows, rhs), ORTHANT2, 1)
    faces = _count(monkeypatch, "gapfn", "enumerate_faces")
    rep = gap_necessary_check(inst, qv(0))
    assert rep.holds is True and faces == []


def test_oracle_builds_the_domination_problem_once(monkeypatch):
    # a certified point at a radius the ball certificate does not cover:
    # every candidate is decided and none refutes, yet the feasible set is
    # reduced and the regions enumerated once per call
    inst = ABS_PAIR
    for budget in (0, 40):
        reductions = _count(monkeypatch, "certify", "polyhedral_reduction")
        regions = _count(monkeypatch, "funcs", "full_dim_selections")
        lps = _count(monkeypatch, "linprog", "lp_solve", only_in="certify")
        # LPs made while deciding each candidate, in scan order
        per_candidate = []
        decide = Domination.point

        def spy(problem, shift=None):
            before = len(lps)
            result = decide(problem, shift)
            per_candidate.append(len(lps) - before)
            return result

        monkeypatch.setattr(Domination, "point", spy)
        rep = robust_oracle(inst, qv(0, 0), SCANNED_R, budget=budget)
        assert rep.outcome == NO_COUNTEREXAMPLE
        assert rep.samples_tried == budget
        assert (len(reductions), len(regions)) == (1, 1)
        # one LP per quadrant for the zero matrix settles it; the duals'
        # supports settle every later candidate without an LP
        assert per_candidate == [4] + [0] * (32 + budget)
        monkeypatch.undo()


def test_certified_candidates_stay_integer(monkeypatch):
    # a certified point where the zero matrix's LPs settle every region:
    # above the ball certificate's radius, each later candidate is drawn,
    # checked against the ball and settled by certificate in integers,
    # without Fraction rows or `integer_row`
    inst = ABS_PAIR
    conversions = _count(monkeypatch, "rationals", "integer_row")
    lps = _count(monkeypatch, "linprog", "lp_solve", only_in="certify")
    # per candidate decided: integer_row calls so far, LPs it made
    decided = []
    decide = Domination.point

    def spy(problem, shift=None):
        before = len(lps)
        result = decide(problem, shift)
        decided.append((len(conversions), len(lps) - before))
        return result

    monkeypatch.setattr(Domination, "point", spy)
    built = []     # Fraction rows made or read after the zero matrix
    rows, init = PerturbationMatrix.rows, PerturbationMatrix.__init__

    def rows_spy(matrix):
        if decided:
            built.append(matrix)
        return rows.fget(matrix)

    def init_spy(matrix, *args):
        if decided:
            built.append(args)
        init(matrix, *args)

    monkeypatch.setattr(PerturbationMatrix, "rows", property(rows_spy))
    monkeypatch.setattr(PerturbationMatrix, "__init__", init_spy)
    rep = robust_oracle(inst, qv(0, 0), SCANNED_R, budget=200)
    assert rep.outcome == NO_COUNTEREXAMPLE and rep.samples_tried == 200
    assert [lp for _, lp in decided] == [4] + [0] * (32 + 200)
    assert len(conversions) == decided[0][0] and built == []


def test_certificates_eliminate_once_per_support(monkeypatch):
    # the instance above: each region keeps the fixed-row support of its
    # zero-matrix dual, and A_S does not move with C, so each support's
    # system is eliminated on its first use and every later candidate of
    # the scan above the ball certificate's radius reuses it
    inst = ABS_PAIR
    elims = _count(monkeypatch, "rationals", "_gauss_jordan")
    problems, during = set(), []
    decide = Domination.point

    def spy(problem, shift=None):
        before = len(elims)
        result = decide(problem, shift)
        problems.add(problem)
        during.append(len(elims) - before)
        return result

    monkeypatch.setattr(Domination, "point", spy)
    rep = robust_oracle(inst, qv(0, 0), SCANNED_R, budget=200)
    assert rep.outcome == NO_COUNTEREXAMPLE and rep.samples_tried == 200
    (problem,) = problems
    supports = sum(len(region.supports) for region in problem._regions)
    assert len(during) == 1 + 32 + 200 and supports == 4
    assert sum(during) <= supports


def test_ball_certificate_skips_the_scan(monkeypatch):
    # the oracle on the same point: the zero matrix's one LP per quadrant,
    # one elimination per kept support for the certificate, and then no
    # pattern or sample is built, let alone decided
    lps = _count(monkeypatch, "linprog", "lp_solve", only_in="certify")
    elims = _count(monkeypatch, "rationals", "eliminator", only_in="certify")
    draws = _count(monkeypatch, "oracle", "_random_matrix")
    built = []
    from_ints = PerturbationMatrix.from_ints.__func__

    def spy(cls, nums, den):
        built.append(nums)
        return from_ints(cls, nums, den)

    monkeypatch.setattr(PerturbationMatrix, "from_ints", classmethod(spy))
    rep = robust_oracle(ABS_PAIR, qv(0, 0), Q(1, 1000), budget=1000)
    assert rep.outcome == NO_COUNTEREXAMPLE
    assert (rep.patterns_tried, rep.samples_tried) == (1, 0)
    assert rep.certificate.radius_sq == Q(1, 2)
    assert (len(lps), len(elims), len(draws)) == (4, 4, 0)
    assert built == [((0, 0), (0, 0))]     # the zero matrix alone


def test_radius_estimate_builds_the_domination_problem_once(monkeypatch):
    reductions = _count(monkeypatch, "certify", "polyhedral_reduction")
    regions = _count(monkeypatch, "funcs", "full_dim_selections")
    est = radius_estimate(EXAMPLE, qv(0), Q(1, 10), budget=20)
    assert len(est.trace) == 6
    assert (len(reductions), len(regions)) == (1, 1)


@pytest.mark.parametrize("cone", [
    {"hrep": [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, -1]]},
    {"vrep": [[1, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 1]]},
], ids=["hrep", "vrep"])
def test_parsing_a_valid_cone_probes_nothing(monkeypatch, cone):
    # pointedness is the rank of the rows, the interior the rank of the
    # extreme rays, and a V-rep reads its dual generators off the facets
    # its double description gave
    doc = {"dims": {"n": 1, "p": 3},
           "objectives": [{"kind": "smooth", "pieces": [{"a": [c]}]}
                          for c in (1, -1, 2)],
           "cone": cone,
           "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
           "candidate": [0]}
    counts = {name: _count(monkeypatch, module, name) for module, name in (
        ("cones", "cone_is_trivial"), ("linprog", "feasible_point"),
        ("linprog", "lp_solve"), ("cones", "_dd"))}
    parse_instance_text(json.dumps(doc))
    assert {name: len(c) for name, c in counts.items()} == {
        "cone_is_trivial": 0, "feasible_point": 0, "lp_solve": 0, "_dd": 2}


def _spy_lps(monkeypatch, module, name, lps, points, record):
    """Wrap vopcert.<module>.<name>, wherever a vopcert module binds it, to
    record, per call, how many of the counted LPs and probes it made."""
    original = getattr(sys.modules[f"vopcert.{module}"], name)

    def spy(*args):
        before = len(lps), len(points)
        out = original(*args)
        record.append((len(lps) - before[0], len(points) - before[1]))
        return out

    for key, mod in sys.modules.items():
        if key.startswith("vopcert.") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)


def test_cone_decisions_solve_one_lp_per_trivial_cone(monkeypatch):
    # at the origin both conditions' cones are {0} in both forms. Each
    # trivial cone costs its one boxed LP; the span form's double
    # description round trip probes nothing; and the two non-ascent cones
    # list the same rows, so cones_coincide proves both inclusions
    # without an LP
    lps = _count(monkeypatch, "linprog", "lp_solve", only_in="cones")
    points = _count(monkeypatch, "linprog", "feasible_point", only_in="cones")
    reports, spans, subsets = [], [], []
    for name in ("_necessary_reports", "_sufficient_reports"):
        _spy_lps(monkeypatch, "certify", name, lps, points, reports)
    _spy_lps(monkeypatch, "certify", "_span_form", lps, points, spans)
    _spy_lps(monkeypatch, "cones", "hrep_subset", lps, points, subsets)
    verdict = certify(ABS_BOX, qv(0, 0))
    assert verdict.status == ROBUST_CERTIFIED
    # intersection and span form: two trivial cones per condition
    assert reports == [(2, 0), (2, 0)]
    assert spans == [(1, 0), (1, 0)]
    assert subsets == [(0, 0), (0, 0)]
    assert (len(lps), len(points)) == (4, 0)


def test_inclusion_solves_one_lp_per_unlisted_row(monkeypatch):
    lps = _count(monkeypatch, "linprog", "lp_solve", only_in="cones")
    orthant = ConeHRep(2, (qv(-1, 0), qv(0, -2)))
    # (0, -1) is the orthant's second row once both are primitive
    outer = ConeHRep(2, (qv(0, -1), qv(-1, -1), qv(-2, 0), qv(-1, -3)))
    assert hrep_subset(orthant, outer) == (True, None)
    listed = set(orthant.rows)
    assert [tuple(args[0]) for args in lps] == \
        [r for r in outer.rows if r not in listed]
    assert len(lps) == 2


def test_cone_rows_are_canonicalized_once_where_built(monkeypatch):
    # certify on ABS_BOX at the origin builds ten cones: the tangent cone,
    # g1 and g2, and per condition the intersection cone and its two double
    # descriptions. Each constructor canonicalizes its rows once, and no
    # kernel that reads a cone's rows canonicalizes them again
    dedups = _count(monkeypatch, "rationals", "dedup_rows")
    kernels = []
    for name in ("is_trivial", "cone_is_trivial", "_dd", "hrep_subset"):
        _spy_lps(monkeypatch, "cones", name, dedups, [], kernels)
    assert certify(ABS_BOX, qv(0, 0)).status == ROBUST_CERTIFIED
    assert len(dedups) == 10
    # 2 cone_is_trivial (each calling is_trivial), 2 span-form is_trivial,
    # 4 double descriptions and the 2 inclusions of cones_coincide
    assert kernels == [(0, 0)] * 12
