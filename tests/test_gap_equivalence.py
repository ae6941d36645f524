"""The gap check against two references.

zero_in_gap against the face-lattice evaluation of the gap set: the
reference walks every face whose relative interior is efficient for the
linear problem and asks an LP whether the convex hull of the face's
vertices holds a point y with xi^T y = xi^T xbar. zero_in_gap decides the
same question with one efficiency check at xbar; the two must agree on
every (instance, matrix) pair of the seeded acceptance families, in both
directions.

gap_necessary_check's LP decision against the matrix search it replaced
(vertex matrices, then seeded convex combinations): wherever the search
finds a matrix the LP must hold, every LP witness must re-check, and no
bounded polyhedral instance may be left undecided.
"""

import random

from fractions import Fraction

from helpers import (
    af, maxfn, qv, random_instance, sampled_scalarizations,
    searched_matrix, smooth, vertex_scalarizations,
)
from vopcert import gapfn
from vopcert.certify import VOPInstance
from vopcert.gapfn import (
    _linear_problem, efficient_faces, gap_necessary_check, gap_query,
    zero_in_gap,
)
from vopcert.geometry import PolyhedralSet, validate_ordering_cone
from vopcert.linprog import OPTIMAL, eq, feasible_point
from vopcert.rationals import lincomb, vdot

MODES = ("generic", "descent", "span")
BOX2 = PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                     qv(1, 1, 1, 1))
# self-dual: K = K* = cone{(1, 1), (-1, 1)}, so lambda_1 = mu_1 - mu_2 can
# take either sign and component 1 is split when its gradient has two
# vertices
K_MIXED = validate_ordering_cone(2, generators=(qv(1, 1), qv(-1, 1)))


def face_stage(xbar, columns, omega, cone):
    """Whether an efficient face holds some y with xi^T y = xi^T xbar."""
    targets = tuple(vdot(col, xbar) for col in columns)
    for face in efficient_faces(columns, omega, cone):
        k = len(face.vertices)
        rels = [eq(tuple(vdot(col, v) for v in face.vertices), t)
                for col, t in zip(columns, targets)]
        rels.append(eq(tuple(Fraction(1) for _ in range(k)), 1))
        if feasible_point(rels, k, nonneg=[True] * k) is not None:
            return True
    return False


def test_zero_in_gap_agrees_with_the_face_lattice():
    outcomes = []
    for mode in ("generic", "descent", "span"):
        for seed in range(20):
            inst, xbar = random_instance(random.Random(7000 + seed), mode,
                                         nmax=3)
            xis = vertex_scalarizations(inst.objectives, xbar) + \
                sampled_scalarizations(inst.objectives, xbar, seed, 4)
            for xi in xis:
                fast = zero_in_gap(xbar, xi, inst.feasible, inst.cone)
                slow = face_stage(xbar, xi, inst.feasible, inst.cone)
                assert fast == slow, (mode, seed, xi)
                outcomes.append(fast)
    assert len(outcomes) >= 300
    assert outcomes.count(False) >= 100 and outcomes.count(True) >= 50


def _gap_lps(monkeypatch):
    """Results of the LPs gap_necessary_check solves, in order."""
    original, results = gapfn.lp_solve, []

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(gapfn, "lp_solve", spy)
    return results


def _lambda(inst, res):
    gens = inst.cone.dual_neg_gens.generators
    return lincomb(res.x[:len(gens)], gens, inst.p)


def _rechecked(inst, xbar, rep):
    gap_query(inst.objectives, xbar, rep.witness)
    linear = _linear_problem(inst.feasible, inst.cone, xbar)
    return linear.point(rep.witness).efficient


def test_lp_decision_agrees_with_the_matrix_search(monkeypatch):
    lps = _gap_lps(monkeypatch)
    holds, found, lp_only, split = [], 0, 0, 0
    for seed in range(7, 17):
        rng = random.Random(seed)
        for i in range(15):
            inst, xbar = random_instance(rng, MODES[i % 3])
            lps.clear()
            rep = gap_necessary_check(inst, xbar)
            # 2n boundedness LPs, then one per sign pattern tried
            split += len(lps) - 2 * inst.n >= 2
            assert rep.exact and rep.holds in (True, False), (seed, i)
            linear = _linear_problem(inst.feasible, inst.cone, xbar)
            xi = searched_matrix(inst.objectives, xbar, linear, seed=seed)
            # a matrix the search finds proves the condition, so the LP
            # must hold there; holds=False therefore means none was found
            if xi is not None:
                found += 1
                assert rep.holds is True, (seed, i, xi)
            if rep.holds:
                assert _rechecked(inst, xbar, rep), (seed, i)
                lp_only += xi is None
            holds.append(rep.holds)
    assert len(holds) == 150 and found >= 40
    assert holds.count(False) >= 50
    # the LP decides points where no vertex or sampled matrix works
    assert lp_only >= 10
    assert split >= 5


def test_mixed_sign_column_splits_the_sign_patterns(monkeypatch):
    # xi_1 in conv{(1, 0), (2, 0)} and xi_2 in conv{(1, 1), (1, -1)}, with
    # lambda_2 = mu_1 + mu_2 > 0: the first coordinate of lambda_1 xi_1 +
    # lambda_2 xi_2 = 0 forces lambda_1 < 0, so pattern s_1 = +1 is
    # infeasible and s_1 = -1 is feasible
    inst = VOPInstance((maxfn(af([1, 0]), af([2, 0])),
                        maxfn(af([1, 1]), af([1, -1]))), BOX2, K_MIXED, 2)
    xbar = qv(0, 0)
    lps = _gap_lps(monkeypatch)
    rep = gap_necessary_check(inst, xbar)
    assert rep.holds is True and "sign pattern 2 of 2" in rep.note
    # 4 boundedness LPs, then one per pattern tried
    assert [r.status for r in lps[4:]] == ["infeasible", OPTIMAL]
    assert _lambda(inst, lps[-1])[0] < 0
    monkeypatch.undo()
    assert _rechecked(inst, xbar, rep)
    # xi_2 must be (1, 0) and xi_1 strictly inside its segment: no vertex
    # matrix works here
    assert rep.witness[1] == qv(1, 0) and 1 < rep.witness[0][0] <= 2
    linear = _linear_problem(inst.feasible, inst.cone, xbar)
    assert not any(linear.point(xi).efficient
                   for xi in vertex_scalarizations(inst.objectives, xbar))


def test_zero_lambda_component_takes_its_first_vertex(monkeypatch):
    # the first coordinate of the first-order condition is lambda_1 xi_11
    # with xi_11 in [1, 2], so lambda_1 = 0 on every feasible point, and
    # xi_1 is the first vertex of its gradient
    inst = VOPInstance((maxfn(af([1, 0]), af([2, 0])),
                        maxfn(af([0, 1]), af([0, -1]))), BOX2, K_MIXED, 2)
    xbar = qv(0, 0)
    lps = _gap_lps(monkeypatch)
    rep = gap_necessary_check(inst, xbar)
    assert rep.holds is True and "sign pattern 1 of 2" in rep.note
    assert len(lps) == 5 and _lambda(inst, lps[-1])[0] == 0
    monkeypatch.undo()
    assert rep.witness == (qv(1, 0), qv(0, 0))
    assert _rechecked(inst, xbar, rep)


def test_infeasible_lp_refutes_the_whole_continuum():
    # on [0, 1]^2 at the corner (1, 1) the active normals can cancel only
    # a nonpositive lambda_1 xi_1 + lambda_2 xi_2, whose second coordinate
    # is lambda_1 + 2 lambda_2 = 3 mu_1 + mu_2 > 0: both sign patterns of
    # lambda_1 (both pieces of f_1 are active) are infeasible, and no
    # matrix places zero in the gap set
    box = PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                        qv(1, 0, 1, 0))
    inst = VOPInstance((maxfn(af([1, 1]), af([2, 1], -1)),
                        smooth(af([1, 2]))), box, K_MIXED, 2)
    rep = gap_necessary_check(inst, qv(1, 1))
    assert rep.holds is False and rep.exact and rep.witness is None
    assert rep.note.endswith("infeasible on 2 of 2 sign patterns")
    linear = _linear_problem(box, inst.cone, qv(1, 1))
    assert searched_matrix(inst.objectives, qv(1, 1), linear) is None
