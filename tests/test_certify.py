"""Certification core: efficiency decisions and the condition decision tree."""

import random

import pytest

from helpers import Q, af, maxfn, minfn, qp, qv, smooth
from vopcert.certify import (
    CONES_COINCIDE, INCONCLUSIVE, NECESSARY_INTERSECTION, NECESSARY_SPAN,
    NOT_ROBUST_CERTIFIED, ROBUST_CERTIFIED, SUFFICIENT_INTERSECTION,
    SUFFICIENT_SPAN, VOPInstance, certify, check_necessary_intersection,
    check_sufficient_intersection, check_span_forms, efficiency_check,
    polyhedral_reduction,
)
from vopcert.errors import InfeasiblePointError, InstanceFormatError
from vopcert.geometry import (
    ConicBlockSet, DiscretizedSet, PolyhedralSet, g1_cone, tangent_cone,
    validate_ordering_cone,
)
from vopcert.rationals import is_zero_vec, vdot

K_EX = validate_ordering_cone(2, rows=(qv(-1, -1), qv(-1, 0)))
ORTHANT2 = validate_ordering_cone(2, rows=(qv(-1, 0), qv(0, -1)))
WHOLE_LINE = PolyhedralSet((), ())
F_EX = (maxfn(af([0]), af([1])), minfn(af([-1]), af([0])))
EX_INSTANCE = VOPInstance(F_EX, WHOLE_LINE, K_EX, 1)

UNIT_01 = PolyhedralSet((qv(1), qv(-1)), qv(1, 0))  # [0, 1]


def _report(verdict, condition):
    return next(r for r in verdict.reports if r.condition == condition)


def test_instance_validation():
    with pytest.raises(InstanceFormatError):
        VOPInstance((smooth(af([1])),), WHOLE_LINE, K_EX, 1)
    with pytest.raises(InstanceFormatError):
        VOPInstance(F_EX, WHOLE_LINE, validate_ordering_cone(1, rows=(qv(-1),)), 1)
    with pytest.raises(InstanceFormatError):
        VOPInstance((smooth(af([1, 0])), smooth(af([0, 1]))), WHOLE_LINE, K_EX, 1)


def test_efficiency_example_point_is_efficient():
    res = efficiency_check(EX_INSTANCE, qv(0))
    assert res.efficient and res.exact and res.witness is None


def test_efficiency_opposing_objectives():
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))), UNIT_01, ORTHANT2, 1)
    res = efficiency_check(inst, qv(Q(1, 2)))
    assert res.efficient and res.exact


def test_efficiency_parallel_objectives_dominated():
    inst = VOPInstance((smooth(af([1])), smooth(af([1]))), UNIT_01, ORTHANT2, 1)
    res = efficiency_check(inst, qv(1))
    assert not res.efficient and res.exact
    assert res.witness == qv(0)


def test_efficiency_unbounded_improvement():
    inst = VOPInstance((smooth(af([1])), smooth(af([1]))), WHOLE_LINE, ORTHANT2, 1)
    res = efficiency_check(inst, qv(0))
    assert not res.efficient
    y = res.witness
    assert y is not None and y[0] < 0


def test_efficiency_rejects_infeasible_candidate():
    inst = VOPInstance((smooth(af([1])), smooth(af([1]))), UNIT_01, ORTHANT2, 1)
    with pytest.raises(InfeasiblePointError):
        efficiency_check(inst, qv(2))


def test_efficiency_grid_fallback_flags():
    quad = VOPInstance((smooth(qp([[1]], [0])), smooth(af([1]))),
                       WHOLE_LINE, ORTHANT2, 1)
    res = efficiency_check(quad, qv(0))
    assert res.efficient and not res.exact
    dominated = efficiency_check(quad, qv(1))
    assert not dominated.efficient and dominated.exact
    assert dominated.witness is not None


def test_polyhedral_reduction_variants():
    rows, rhs = polyhedral_reduction(UNIT_01)
    assert rows == (qv(1), qv(-1)) and rhs == (1, 0)
    blk = ConicBlockSet((smooth(af([1, 1], -1)), smooth(af([0, -1]))), ORTHANT2)
    rows, rhs = polyhedral_reduction(blk)
    assert set(zip(rows, rhs)) == {(qv(1, 1), Q(1)), (qv(0, -1), Q(0))}
    fam = DiscretizedSet((af([1], -1), af([-1], 0)))
    rows, rhs = polyhedral_reduction(fam)
    assert rows == (qv(1), qv(-1)) and rhs == (1, 0)
    vacuous = DiscretizedSet((af([0], -1), af([1], -1), af([-1], 0)))
    assert polyhedral_reduction(vacuous) == (rows, rhs)
    with pytest.raises(InstanceFormatError):
        polyhedral_reduction(DiscretizedSet((af([0], 1), af([1], -1))))


def test_certify_example_inconclusive_with_referral():
    v = certify(EX_INSTANCE, qv(0))
    assert v.status == INCONCLUSIVE and v.oracle_referral
    assert _report(v, NECESSARY_INTERSECTION).holds is True
    assert _report(v, NECESSARY_SPAN).holds is True
    assert _report(v, SUFFICIENT_INTERSECTION).holds is False
    assert _report(v, SUFFICIENT_SPAN).holds is False
    assert _report(v, CONES_COINCIDE).holds is False
    assert v.hypotheses["objective-cone-convex"] is True


def test_certify_common_descent_refuted():
    inst = VOPInstance((smooth(af([1, 0])), smooth(af([0, 1]))),
                       PolyhedralSet((), ()), ORTHANT2, 2)
    v = certify(inst, qv(0, 0))
    assert v.status == NOT_ROBUST_CERTIFIED
    assert v.applied_rule == NECESSARY_INTERSECTION
    d = v.witness
    assert d is not None and not is_zero_vec(d)
    g1 = g1_cone(inst.objectives, inst.cone, qv(0, 0))
    assert all(vdot(r, d) <= 0 for r in g1.rows)


def test_certify_spanning_subdifferential_certified():
    inst = VOPInstance((maxfn(af([1]), af([-1])), maxfn(af([1]), af([0]))),
                       WHOLE_LINE, ORTHANT2, 1)
    v = certify(inst, qv(0))
    assert v.status == ROBUST_CERTIFIED
    assert v.applied_rule == SUFFICIENT_INTERSECTION
    assert _report(v, CONES_COINCIDE).holds is True
    assert v.hypotheses["feasible-set-convex"] is True


def test_certify_opposing_smooth_gradients_certified():
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))),
                       WHOLE_LINE, ORTHANT2, 1)
    v = certify(inst, qv(Q(7, 3)))
    assert v.status == ROBUST_CERTIFIED


def test_sufficient_fails_on_zero_subdifferentials():
    inst = VOPInstance((smooth(af([0], 1)), smooth(af([0], 2))),
                       WHOLE_LINE, ORTHANT2, 1)
    rep = check_sufficient_intersection(inst, qv(0))
    assert rep.holds is False


def test_span_forms_match_intersections_on_vertex_instance():
    omega = PolyhedralSet((qv(-1, 0), qv(0, -1)), qv(0, 0))  # x >= 0
    inst = VOPInstance((smooth(af([1, 0])), smooth(af([0, 1]))),
                       omega, ORTHANT2, 2)
    v = certify(inst, qv(0, 0))
    assert v.status == ROBUST_CERTIFIED
    assert _report(v, NECESSARY_SPAN).holds is True
    assert _report(v, SUFFICIENT_SPAN).holds is True


def test_span_forms_fail_on_line_only_gradients():
    inst = VOPInstance((smooth(af([1, 0])), smooth(af([-1, 0]))),
                       PolyhedralSet((), ()), ORTHANT2, 2)
    nspan, sspan = check_span_forms(inst, qv(0, 0))
    assert nspan.holds is False and sspan.holds is False
    v = certify(inst, qv(0, 0))
    assert v.status == NOT_ROBUST_CERTIFIED


def test_conic_block_matches_equivalent_polyhedron():
    f = (smooth(af([-1, 0])), smooth(af([0, -1])))
    blk = ConicBlockSet((smooth(af([1, 1], -1)), smooth(af([0, -1]))), ORTHANT2)
    poly = PolyhedralSet((qv(1, 1), qv(0, -1)), qv(1, 0))
    xbar = qv(1, 0)
    vb = certify(VOPInstance(f, blk, ORTHANT2, 2), xbar)
    vp = certify(VOPInstance(f, poly, ORTHANT2, 2), xbar)
    assert vb.status == vp.status == ROBUST_CERTIFIED
    for cond in (NECESSARY_INTERSECTION, NECESSARY_SPAN,
                 SUFFICIENT_INTERSECTION, SUFFICIENT_SPAN):
        assert _report(vb, cond).holds == _report(vp, cond).holds


def test_conic_gate_blocks_necessary_branch():
    q1 = validate_ordering_cone(1, rows=(qv(-1),))
    blk = ConicBlockSet((smooth(af([0, 0])),), q1)
    inst = VOPInstance((smooth(af([1, 0])), smooth(af([0, 1]))), blk, ORTHANT2, 2)
    v = certify(inst, qv(0, 0))
    assert v.status == INCONCLUSIVE
    assert _report(v, "conic-gate").holds is False
    assert _report(v, NECESSARY_INTERSECTION).holds is None


def test_discretized_verdict_is_stamped():
    fam = DiscretizedSet((af([1], -1),))  # x <= 1 sampled from a family
    inst = VOPInstance((maxfn(af([1]), af([-1])), maxfn(af([1]), af([0]))),
                       fam, ORTHANT2, 1)
    v = certify(inst, qv(0))
    assert v.status == ROBUST_CERTIFIED
    assert "discretization-dependent" in v.stamps
    assert _report(v, "discretized").holds is True


def test_certify_rejects_infeasible_candidate():
    with pytest.raises(InfeasiblePointError):
        certify(VOPInstance(F_EX, UNIT_01, K_EX, 1), qv(2))


def _random_cone(rng):
    from vopcert.errors import ConeValidationError
    while True:
        g1v = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
        g2v = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
        if g1v[0] * g2v[1] - g1v[1] * g2v[0] != 0:
            try:
                return validate_ordering_cone(2, generators=(g1v, g2v))
            except ConeValidationError:
                continue


def _random_components(rng, n, p):
    comps = []
    for _ in range(p):
        k = rng.randint(1, 2)
        pieces = tuple(af([rng.randint(-2, 2) for _ in range(n)],
                          0 if j == 0 else rng.randint(-1, 1))
                       for j in range(k))
        comps.append(maxfn(*pieces) if rng.random() < 0.5 else minfn(*pieces))
    return tuple(comps)


def test_random_sweep_decision_tree_consistency():
    rng = random.Random(418)
    box = PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                        qv(1, 1, 1, 1))
    for i in range(30):
        cone = _random_cone(rng)
        comps = _random_components(rng, 2, 2)
        xbar = qv(0, 0) if i % 2 == 0 else qv(1, 1)
        inst = VOPInstance(comps, box, cone, 2)
        v = certify(inst, xbar)  # internal span cross-checks must not raise
        nec = _report(v, NECESSARY_INTERSECTION)
        suf = _report(v, SUFFICIENT_INTERSECTION)
        if nec.holds is False:
            assert suf.holds is False
            assert v.status == NOT_ROBUST_CERTIFIED
            d = v.witness
            t = tangent_cone(box, xbar)
            g1 = g1_cone(comps, cone, xbar)
            assert not is_zero_vec(d)
            assert all(vdot(r, d) <= 0 for r in t.cone.rows + g1.rows)
        if v.status == ROBUST_CERTIFIED:
            assert v.hypotheses["objective-cone-convex"] is True
        eff = efficiency_check(inst, xbar)
        assert eff.exact
        if v.status == ROBUST_CERTIFIED:
            assert eff.efficient  # robustness includes the unperturbed problem


def test_standalone_necessary_matches_certify():
    rep = check_necessary_intersection(EX_INSTANCE, qv(0))
    v = certify(EX_INSTANCE, qv(0))
    assert rep.holds == _report(v, NECESSARY_INTERSECTION).holds
