"""Cone triviality contract and double-description round trips, and the
cone decisions against the references they replaced."""

import random
from fractions import Fraction as Q

import pytest

from helpers import (
    reference_cone_is_trivial, reference_dd, reference_hrep_subset,
)
from vopcert import cones
from vopcert.cones import (
    ConeHRep, ConeVRep, _dd, cone_is_trivial, dd_generators_from_halfspaces,
    dd_halfspaces_from_generators, hrep_equal, hrep_subset, is_trivial,
)
from vopcert.errors import CapabilityError, ConsistencyError
from vopcert.linprog import le, lp_solve
from vopcert.rationals import dedup_rows, matrix_rank, unit, vdot


def test_opposing_halfspaces_trivial():
    ok, wit = cone_is_trivial(ConeHRep(1, ((Q(1),), (Q(-1),))))
    assert ok and wit is None


def test_single_halfspace_not_trivial():
    ok, wit = cone_is_trivial(ConeHRep(1, ((Q(1),),)))
    assert not ok
    assert wit is not None and wit[0] < 0


def test_empty_rows_whole_space():
    ok, wit = cone_is_trivial(ConeHRep(3, ()))
    assert not ok
    assert wit == unit(3, 0)


def test_free_coordinate_witness():
    # d1 <= 0 leaves d2 free
    ok, wit = cone_is_trivial(ConeHRep(2, ((Q(1), Q(0)),)))
    assert not ok
    assert vdot((Q(1), Q(0)), wit) <= 0 and wit != (Q(0), Q(0))


def test_dd_orthant_generators():
    h = ConeHRep(3, tuple(unit(3, k, -1) for k in range(3)))
    v = dd_generators_from_halfspaces(h)
    assert sorted(v.generators) == sorted(unit(3, k) for k in range(3))


def test_dd_empty_generators_is_origin():
    h = dd_halfspaces_from_generators(ConeVRep(2, ()))
    ok, _ = cone_is_trivial(h)
    assert ok
    assert sorted(h.rows) == sorted([unit(2, 0), unit(2, 0, -1), unit(2, 1), unit(2, 1, -1)])


def test_dd_halfplane_has_lineality():
    # {d : d1 <= 0} in R2 = halfplane; generators must span the d2 line
    v = dd_generators_from_halfspaces(ConeHRep(2, ((Q(1), Q(0)),)))
    gens = set(v.generators)
    assert (Q(0), Q(1)) in gens and (Q(0), Q(-1)) in gens
    assert all(g[0] <= 0 for g in gens)


def test_dd_dual_cone_of_ordering_cone():
    # K = {m1+m2 >= 0, m1 >= 0} as <=-rows; dual-negative generators are
    # the frozen pair (1,0), (1,1)
    k_rows = ((Q(-1), Q(-1)), (Q(-1), Q(0)))
    gens_k = dd_generators_from_halfspaces(ConeHRep(2, k_rows)).generators
    assert sorted(gens_k) == sorted([(Q(0), Q(1)), (Q(1), Q(-1))])
    # polar from the generators: {y : y.g <= 0 for g in gens}
    neg_dual = dd_generators_from_halfspaces(ConeHRep(2, gens_k))
    expected = sorted([(Q(-1), Q(0)), (Q(-1), Q(-1))])
    assert sorted(neg_dual.generators) == expected


def test_dd_dimension_cap():
    with pytest.raises(CapabilityError):
        dd_generators_from_halfspaces(ConeHRep(7, (tuple(Q(1) for _ in range(7)),)))


def test_dd_deterministic():
    h = ConeHRep(3, ((Q(1), Q(2), Q(-1)), (Q(-2), Q(1), Q(0)), (Q(0), Q(-1), Q(-1))))
    a = dd_generators_from_halfspaces(h)
    b = dd_generators_from_halfspaces(h)
    assert a == b


def _random_hrep(rng, dim, nrows):
    rows = tuple(tuple(Q(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(nrows))
    return ConeHRep(dim, rows)


def test_roundtrip_100_random_cones():
    rng = random.Random(5150)
    for trial in range(100):
        dim = rng.randint(1, 5)
        h = _random_hrep(rng, dim, rng.randint(0, 6))
        v = dd_generators_from_halfspaces(h)
        for g in v.generators:
            assert all(vdot(r, g) <= 0 for r in h.rows), (trial, g)
        h2 = dd_halfspaces_from_generators(v)
        same, wit = hrep_equal(h, h2)
        assert same, (trial, wit)
        # generators -> halfspaces -> generators closes the loop too
        v2 = dd_generators_from_halfspaces(h2)
        for g in v2.generators:
            assert v.contains(g), (trial, g)
        for g in v.generators:
            assert v2.contains(g), (trial, g)


def test_hrep_subset_witness():
    narrow = ConeHRep(2, ((Q(1), Q(0)), (Q(0), Q(1))))
    wide = ConeHRep(2, ((Q(1), Q(1)),))
    ok, _ = hrep_subset(narrow, wide)
    assert ok
    ok, wit = hrep_subset(wide, narrow)
    assert not ok
    assert wide.contains(wit) and not narrow.contains(wit)


def test_lp_optimum_matches_vertex_enumeration():
    # independent route for LP optima: vertices of the homogenized feasible cone
    rng = random.Random(424242)
    for _ in range(30):
        n = rng.randint(1, 3)
        rows = []
        rhs = []
        for _ in range(rng.randint(1, 4)):
            rows.append(tuple(Q(rng.randint(-3, 3)) for _ in range(n)))
            rhs.append(Q(rng.randint(0, 5)))  # rhs >= 0 keeps 0 feasible
        for k in range(n):
            rows.append(unit(n, k)); rhs.append(Q(rng.randint(1, 4)))
            rows.append(unit(n, k, -1)); rhs.append(Q(rng.randint(1, 4)))
        hom_rows = tuple(tuple(r) + (-b,) for r, b in zip(rows, rhs)) + (unit(n + 1, n, -1),)
        gens = dd_generators_from_halfspaces(ConeHRep(n + 1, hom_rows)).generators
        verts = [tuple(g[j] / g[n] for j in range(n)) for g in gens if g[n] > 0]
        assert verts and all(g[n] != 0 for g in gens)  # bounded, nonempty
        c = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
        res = lp_solve(c, [le(r, b) for r, b in zip(rows, rhs)])
        assert res.status == "optimal"
        assert res.value == max(vdot(c, v) for v in verts)


# ---------------------------------------------------------------------------
# the cone decisions against the ones they replaced (tests/helpers.py)

def _reference_rows(rng, dim, count):
    """`count` seeded rows in dimension dim. Now and then all rows lie in a
    random subspace (a rank-deficient cone with lineality), and a row is
    zero, a positive multiple of an earlier row, or scaled by a fraction."""
    rank = dim if rng.random() < 0.6 else rng.randint(0, dim - 1)
    span = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rank)]
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            rows.append((Q(0),) * dim)
        elif kind < 0.25 and rows:
            scale = Q(rng.randint(1, 4), rng.randint(1, 3))
            rows.append(tuple(scale * x for x in rng.choice(rows)))
        elif rank == dim:
            rows.append(tuple(Q(rng.randint(-2, 2)) for _ in range(dim)))
        else:
            coeffs = [rng.randint(-1, 1) for _ in span]
            rows.append(tuple(Q(sum(c * v[j] for c, v in zip(coeffs, span)))
                              for j in range(dim)))
        if kind > 0.9:
            rows[-1] = tuple(x / rng.randint(2, 3) for x in rows[-1])
    return tuple(rows)


def _reference_cones(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 6)
        yield rng, ConeHRep(dim, _reference_rows(rng, dim, rng.randint(0, 12)))


def test_dd_matches_the_rank_reference():
    seen = set()
    for _, cone in _reference_cones(20261020, 3000):
        got = _dd(cone.rows, cone.dim)
        expected = reference_dd(cone.rows, cone.dim)
        assert got == expected and repr(got) == repr(expected), cone
        rows = dedup_rows(cone.rows)
        nonzero = [r for r in cone.rows if any(r)]
        pointed = bool(rows) and matrix_rank(rows) == cone.dim
        seen.add("pointed" if pointed else "lineality")
        if len(nonzero) < len(cone.rows):
            seen.add("zero row")
        if len(rows) < len(nonzero):
            seen.add("duplicate")
    assert seen == {"lineality", "zero row", "duplicate", "pointed"}


def test_triviality_matches_the_probe_reference():
    verdicts = set()
    for _, cone in _reference_cones(20261021, 3000):
        got = cone_is_trivial(cone)
        expected = reference_cone_is_trivial(cone)
        assert got == expected and repr(got) == repr(expected), cone
        assert is_trivial(cone) is got[0]
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_inclusion_matches_the_sweep_reference():
    verdicts = set()
    listed = 0
    for rng, inner in _reference_cones(20261022, 3000):
        rows = list(_reference_rows(rng, inner.dim, rng.randint(0, 6)))
        # outer rows copied from inner, some rescaled, and positive
        # combinations of inner rows, which hold on inner without being listed
        for r in inner.rows:
            if rng.random() < 0.4:
                rows.append(tuple(Q(rng.randint(1, 3)) * x for x in r))
        if inner.rows and rng.random() < 0.5:
            a, b = rng.choice(inner.rows), rng.choice(inner.rows)
            rows.append(tuple(x + 2 * y for x, y in zip(a, b)))
        rng.shuffle(rows)
        outer = ConeHRep(inner.dim, tuple(rows))
        got = hrep_subset(inner, outer)
        expected = reference_hrep_subset(inner, outer)
        assert got == expected and repr(got) == repr(expected), (inner, outer)
        verdicts.add(got[0])
        listed += bool(set(dedup_rows(inner.rows)) & set(dedup_rows(rows)))
    assert verdicts == {True, False} and listed > 500


def test_nontrivial_verdict_without_a_probe_point_is_inconsistent(monkeypatch):
    # the orthant has full rank, so the LP runs and finds it is not {0};
    # probes that find nothing then contradict that verdict
    orthant = ConeHRep(2, (unit(2, 0, -1), unit(2, 1, -1)))
    assert not is_trivial(orthant)
    monkeypatch.setattr(cones, "feasible_point", lambda rels, n: None)
    with pytest.raises(ConsistencyError):
        cone_is_trivial(orthant)
