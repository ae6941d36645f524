"""Ordering cones, feasible-set geometry, and the two non-ascent cones."""

import random

import pytest

from helpers import (
    Q, af, maxfn, minfn, nonascent_containment, qp, qv, smooth,
    sweep_validate_ordering_cone,
)
from vopcert.cones import (
    ConeHRep, ConeVRep, cone_is_trivial, dd_generators_from_halfspaces,
    dd_halfspaces_from_generators, hrep_equal,
)
from vopcert.errors import (
    ConeValidationError, EmptyInteriorError, InfeasiblePointError, NotPointedError,
    TrivialConeError,
)
from vopcert.funcs import scalarized_subdiffs
from vopcert.geometry import (
    ConicBlockSet, DiscretizedSet, OrderingCone, PolyhedralSet,
    cones_coincide_check, conic_support,
    feasible_contains, g1_cone, g2_cone, normal_cone,
    slater_point, tangent_cone, validate_ordering_cone,
)
from vopcert.rationals import is_zero_vec, vdot, vscale

# running example: f1 = max(0,x), f2 = min(-x,0), K = {k1+k2 >= 0, k1 >= 0}
F1 = maxfn(af([0]), af([1]))
F2 = minfn(af([-1]), af([0]))
EX = (F1, F2)
X0 = qv(0)
K_EX = validate_ordering_cone(2, rows=(qv(-1, -1), qv(-1, 0)))
ORTHANT2 = validate_ordering_cone(2, rows=(qv(-1, 0), qv(0, -1)))


def test_natural_cone_validates():
    assert set(ORTHANT2.dual_neg_gens.generators) == {qv(1, 0), qv(0, 1)}
    assert set(ORTHANT2.vrep.generators) == {qv(1, 0), qv(0, 1)}
    assert ORTHANT2.contains(qv(2, 3)) and not ORTHANT2.contains(qv(-1, 0))


def test_example_cone_dual_generators():
    assert set(K_EX.dual_neg_gens.generators) == {qv(1, 0), qv(1, 1)}
    assert set(K_EX.vrep.generators) == {qv(0, 1), qv(1, -1)}
    s = K_EX.strict_polar_sample
    for v in K_EX.vrep.generators:
        assert vdot(s, v) > 0


def test_line_is_not_pointed():
    with pytest.raises(NotPointedError) as ei:
        validate_ordering_cone(2, generators=(qv(1, -1), qv(-1, 1)))
    w = ei.value.witness
    assert w is not None and not is_zero_vec(w) and w[0] == -w[1]


def test_ray_has_empty_interior():
    rows = (qv(0, 1), qv(0, -1), qv(-1, 0))
    with pytest.raises(EmptyInteriorError) as ei:
        validate_ordering_cone(2, rows=rows)
    y = ei.value.witness
    assert y is not None and any(v > 0 for v in y) and all(v >= 0 for v in y)


def test_origin_cone_is_trivial():
    rows = (qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1))
    with pytest.raises(TrivialConeError):
        validate_ordering_cone(2, rows=rows)


def test_validation_matches_the_sweep_reference():
    # seeded cones in both representations, valid or failing any axiom:
    # the rank and interior-LP validation agrees with the sweep-based one
    rng = random.Random(20261020)
    outcomes = set()
    for _ in range(2000):
        p = rng.randint(2, 4)
        mat = tuple(qv(*(rng.randint(-2, 2) for _ in range(p)))
                    for _ in range(rng.randint(1, p + 2)))
        key = "rows" if rng.random() < Q(1, 2) else "generators"
        try:
            want = sweep_validate_ordering_cone(p, **{key: mat})
        except ConeValidationError as exc:
            with pytest.raises(type(exc)) as ei:
                validate_ordering_cone(p, **{key: mat})
            assert str(ei.value) == str(exc)
            outcomes.add(type(exc))
            if type(exc) is NotPointedError:
                # the witness spans a line of the cone: row . d == 0
                rows = (mat if key == "rows" else dd_halfspaces_from_generators(
                    ConeVRep(p, mat)).rows)
                d = ei.value.witness
                assert not is_zero_vec(d)
                assert all(vdot(r, d) == 0 for r in rows)
            continue
        got = validate_ordering_cone(p, **{key: mat})
        assert (got.hrep, got.vrep, got.dual_neg_gens,
                got.strict_polar_sample) == (want.hrep, want.vrep,
                                             want.dual_neg_gens,
                                             want.strict_polar_sample)
        outcomes.add(OrderingCone)
    assert outcomes == {OrderingCone, NotPointedError, EmptyInteriorError,
                        TrivialConeError}


def test_feasible_membership_all_variants():
    box = PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                        qv(1, 1, 1, 1))
    assert feasible_contains(box, qv(1, Q(-1, 2)))
    assert not feasible_contains(box, qv(2, 0))
    q1 = validate_ordering_cone(1, rows=(qv(-1),))
    blk = ConicBlockSet((smooth(af([1, 0], -1)),), q1)  # x1 - 1 <= 0
    assert feasible_contains(blk, qv(1, 7))
    assert not feasible_contains(blk, qv(2, 0))
    fam = DiscretizedSet((af([1], -1), af([-1], -1)))  # |x| <= 1 sampled
    assert feasible_contains(fam, qv(1))
    assert not feasible_contains(fam, qv(Q(3, 2)))


def test_tangent_normal_at_interior_point():
    box = PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                        qv(1, 1, 1, 1))
    t = tangent_cone(box, qv(0, 0))
    n = normal_cone(box, qv(0, 0))
    assert t.exact and t.cone.rows == ()
    assert n.exact and n.cone.generators == ()


def test_tangent_normal_whole_space():
    line = PolyhedralSet((), ())
    t = tangent_cone(line, qv(Q(5, 3)))
    n = normal_cone(line, qv(Q(5, 3)))
    assert t.cone.rows == () and n.cone.generators == ()


def test_tangent_normal_box_vertex_with_secant_oracle():
    box = PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                        qv(1, 0, 1, 0))  # [0,1]^2
    xbar = qv(1, 1)
    t = tangent_cone(box, xbar)
    n = normal_cone(box, xbar)
    same, _ = hrep_equal(t.cone, ConeHRep(2, (qv(1, 0), qv(0, 1))))
    assert same
    assert set(n.cone.generators) == {qv(1, 0), qv(0, 1)}
    # secant oracle: every feasible grid point looks backward into the cone,
    # and every cone direction on the grid is realized by a feasible step
    for i in range(9):
        for j in range(9):
            y = qv(Q(i, 8), Q(j, 8))
            d = (y[0] - 1, y[1] - 1)
            assert all(vdot(r, d) <= 0 for r in t.cone.rows)
    for d in ((-1, 0), (0, -1), (-1, -1), (-2, -1), (-1, -3)):
        dq = qv(*d)
        assert all(vdot(r, dq) <= 0 for r in t.cone.rows)
        step = tuple(x + v / 8 for x, v in zip(xbar, dq))
        assert feasible_contains(box, step)


def test_tangent_rejects_infeasible_point():
    box = PolyhedralSet((qv(1, 0),), qv(0))
    with pytest.raises(InfeasiblePointError):
        tangent_cone(box, qv(1, 0))
    with pytest.raises(InfeasiblePointError):
        normal_cone(box, qv(1, 0))


def test_discretized_tangent_is_flagged():
    fam = DiscretizedSet((af([1, 0], -1), af([0, 1], -1)), tau=Q(1, 10))
    t = tangent_cone(fam, qv(1, Q(19, 20)))  # second row near-active
    assert not t.exact and t.note == "discretization-dependent"
    assert set(t.cone.rows) == {qv(1, 0), qv(0, 1)}
    n = normal_cone(fam, qv(1, Q(19, 20)))
    assert not n.exact and set(n.cone.generators) == {qv(1, 0), qv(0, 1)}


def test_g1_example_is_origin():
    g1 = g1_cone(EX, K_EX, X0)
    trivial, _ = cone_is_trivial(g1)
    assert trivial


def test_g1_smooth_orthant_case():
    comps = (smooth(af([1, 0])), smooth(af([0, 1])))
    g1 = g1_cone(comps, ORTHANT2, qv(0, 0))
    same, _ = hrep_equal(g1, ConeHRep(2, (qv(1, 0), qv(0, 1))))
    assert same


def test_g1_derived_case_with_quantifier_sampling():
    comps = (smooth(af([1, 0])), smooth(af([1, 1])))
    g1 = g1_cone(comps, ORTHANT2, qv(0, 0))
    same, _ = hrep_equal(g1, ConeHRep(2, (qv(1, 0), qv(1, 1))))
    assert same
    # sampled quantifier: scalarizations over dual points (generators plus
    # random nonneg combinations) agree with H-rep membership
    rng = random.Random(7)
    gens = ORTHANT2.dual_neg_gens.generators
    mus = list(gens)
    for _ in range(20):
        a, b = Q(rng.randint(0, 8), 4), Q(rng.randint(0, 8), 4)
        mus.append(tuple(a * g1v + b * g2v for g1v, g2v in zip(*gens)))
    grads = (qv(1, 0), qv(1, 1))
    for _ in range(1000):
        d = qv(Q(rng.randint(-16, 16), 8), Q(rng.randint(-16, 16), 8))
        member = all(vdot(r, d) <= 0 for r in g1.rows)
        quantified = all(
            vdot(tuple(m[0] * grads[0][j] + m[1] * grads[1][j] for j in range(2)), d) <= 0
            for m in mus)
        assert member == quantified


def test_g2_example_is_left_ray():
    g2 = g2_cone(EX, K_EX, X0)
    assert g2.exact
    same, _ = hrep_equal(g2.hrep, ConeHRep(1, (qv(1),)))
    assert same


def test_g2_smooth_matches_g1():
    comps = (smooth(af([1, 2])), smooth(af([-1, 3])))
    x = qv(2, 1)
    same, _ = hrep_equal(g2_cone(comps, K_EX, x).hrep, g1_cone(comps, K_EX, x))
    assert same


def test_g2_convex_components_natural_cone_matches_g1():
    comps = (maxfn(af([1, 0]), af([-1, 0])), maxfn(af([0, 1]), af([0, 0])))
    x = qv(0, 0)
    g2 = g2_cone(comps, ORTHANT2, x)
    assert g2.exact
    same, _ = hrep_equal(g2.hrep, g1_cone(comps, ORTHANT2, x))
    assert same
    assert cones_coincide_check(comps, ORTHANT2, x) is True


def test_cones_coincide_fails_on_example():
    assert cones_coincide_check(EX, K_EX, X0) is False


def test_cones_coincide_unknown_when_scalarization_inexact():
    skew = validate_ordering_cone(2, generators=(qv(1, 1), qv(0, 1)))
    assert any(any(v < 0 for v in g) for g in skew.dual_neg_gens.generators)
    comps = (maxfn(qp([[1]], [0]), af([1])), smooth(af([1])))
    g2 = g2_cone(comps, skew, qv(2))
    assert not g2.exact
    # hrep is built from the flagged outer bounds of the subdifferentials
    verts = tuple(v for sub in scalarized_subdiffs(
        skew.dual_neg_gens.generators, comps, qv(2)) for v in sub.vertices)
    same, _ = hrep_equal(g2.hrep, ConeHRep(1, verts))
    assert same
    assert cones_coincide_check(comps, skew, qv(2)) is None


def test_nonascent_polarity_roundtrip():
    for comps, cone, x in ((EX, K_EX, X0),
                           ((smooth(af([1, 0])), smooth(af([1, 1]))),
                            ORTHANT2, qv(0, 0))):
        g1 = g1_cone(comps, cone, x)
        back = dd_halfspaces_from_generators(dd_generators_from_halfspaces(g1))
        same, _ = hrep_equal(back, g1)
        assert same


def test_conic_support_strictly_feasible():
    q1 = validate_ordering_cone(1, rows=(qv(-1),))
    blk = ConicBlockSet((smooth(af([1, 0], -1)),), q1)
    sup = conic_support(blk, qv(0, 5))
    assert sup.dcone.rows == () and not sup.zero_in_subdiff and sup.exact


def test_conic_support_single_active_constraint():
    q1 = validate_ordering_cone(1, rows=(qv(-1),))
    blk = ConicBlockSet((smooth(af([1, 0], -1)),), q1)
    sup = conic_support(blk, qv(1, 0))
    assert set(sup.dcone.rows) == {qv(1, 0)}
    same, _ = hrep_equal(sup.dcone, ConeHRep(2, (qv(1, 0),)))
    assert same


def test_conic_support_orthant_matches_polyhedron():
    blk = ConicBlockSet((smooth(af([1, 0])), smooth(af([0, 1]))), ORTHANT2)
    sup = conic_support(blk, qv(0, 0))
    same, _ = hrep_equal(sup.dcone, ConeHRep(2, (qv(1, 0), qv(0, 1))))
    assert same
    assert set(sup.dcone.rows) == {qv(1, 0), qv(0, 1)}
    poly = PolyhedralSet((qv(1, 0), qv(0, 1)), qv(0, 0))
    tp = tangent_cone(poly, qv(0, 0))
    tc = tangent_cone(blk, qv(0, 0))
    same, _ = hrep_equal(tp.cone, tc.cone)
    assert same and tc.exact
    np_ = normal_cone(poly, qv(0, 0))
    nc = normal_cone(blk, qv(0, 0))
    assert set(np_.cone.generators) == set(nc.cone.generators)


def test_conic_affine_block_matches_explicit_polyhedron():
    blk = ConicBlockSet((smooth(af([1, 1], -1)), smooth(af([0, -1]))), ORTHANT2)
    xbar = qv(1, 0)
    sup = conic_support(blk, xbar)
    assert set(sup.dcone.rows) == {qv(1, 1), qv(0, -1)}
    t = tangent_cone(blk, xbar)
    assert t.exact and t.note is None
    poly = PolyhedralSet((qv(1, 1), qv(0, -1)), qv(1, 0))
    same, _ = hrep_equal(t.cone, tangent_cone(poly, xbar).cone)
    assert same
    assert slater_point(blk) is not None


def test_conic_gate_flags_zero_subdifferential():
    q1 = validate_ordering_cone(1, rows=(qv(-1),))
    blk = ConicBlockSet((smooth(af([0, 0])),), q1)  # constant-zero map
    sup = conic_support(blk, qv(3, 4))
    assert sup.zero_in_subdiff
    t = tangent_cone(blk, qv(3, 4))
    assert not t.exact and "gate" in t.note


def _random_simplicial_cone(rng):
    while True:
        g1v = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
        g2v = (Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
        if g1v[0] * g2v[1] - g1v[1] * g2v[0] != 0:
            try:
                return validate_ordering_cone(2, generators=(g1v, g2v))
            except (NotPointedError, EmptyInteriorError, TrivialConeError):
                continue


def _random_affine_components(rng, n, p):
    comps = []
    for _ in range(p):
        k = rng.randint(1, 2)
        pieces = tuple(af([rng.randint(-2, 2) for _ in range(n)],
                          0 if k == 1 else rng.randint(-1, 1))
                       for _ in range(k))
        comps.append(maxfn(*pieces) if rng.random() < Q(1, 2) else minfn(*pieces))
    return tuple(comps)


def test_nonascent_containment_random_sweep():
    rng = random.Random(20260818)
    for _ in range(40):
        cone = _random_simplicial_cone(rng)
        comps = _random_affine_components(rng, 2, 2)
        xbar = qv(0, 0)
        assert nonascent_containment(comps, cone, xbar)
        g1 = g1_cone(comps, cone, xbar)
        back = dd_halfspaces_from_generators(dd_generators_from_halfspaces(g1))
        same, _ = hrep_equal(back, g1)
        assert same
