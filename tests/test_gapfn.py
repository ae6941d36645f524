"""Gap machinery: face enumeration, linear efficiency, the scalarization LP."""

import random

import pytest

from helpers import (
    Q, af, maxfn, minfn, qv, random_box, sampled_scalarizations, smooth,
    sweep_bounded_polytope, vertex_scalarizations,
)
from vopcert.certify import ROBUST_CERTIFIED, VOPInstance, certify
from vopcert import gapfn
from vopcert.errors import (
    CapabilityError, ConsistencyError, InstanceFormatError,
)
from vopcert.gapfn import (
    GAP_NECESSARY, enumerate_faces, efficient_faces, gap_necessary_check,
    gap_query, polytope_vertices, scalarization_equality, zero_in_gap,
)
from vopcert.geometry import PolyhedralSet, validate_ordering_cone
from vopcert import cones
from vopcert.rationals import nullspace_basis, vdot, vneg

ORTHANT2 = validate_ordering_cone(2, rows=(qv(-1, 0), qv(0, -1)))
K_EX = validate_ordering_cone(2, rows=(qv(-1, -1), qv(-1, 0)))
SEGMENT = PolyhedralSet((qv(1), qv(-1)), qv(1, 0))          # [0, 1]
BOX_SYM = PolyhedralSet((qv(1), qv(-1)), qv(1, 1))          # [-1, 1]
TRI_ROWS = (qv(-1, 0), qv(0, -1), qv(1, 1))
TRI_RHS = qv(0, 0, 1)
TRIANGLE = PolyhedralSet(TRI_ROWS, TRI_RHS)
EX_BOX = VOPInstance((maxfn(af([0]), af([1])), minfn(af([-1]), af([0]))),
                     BOX_SYM, K_EX, 1)


def test_polytope_vertices_triangle():
    verts = polytope_vertices(TRI_ROWS, TRI_RHS, 2)
    assert verts == (qv(0, 0), qv(0, 1), qv(1, 0))


def test_segment_face_lattice():
    faces = enumerate_faces((qv(1), qv(-1)), qv(1, 0), 1)
    keyed = {f.tight: set(f.vertices) for f in faces}
    assert keyed == {(): {qv(0), qv(1)}, (0,): {qv(1)}, (1,): {qv(0)}}


def test_opposing_columns_make_every_face_efficient():
    faces = efficient_faces((qv(1), qv(-1)), SEGMENT, ORTHANT2)
    assert len(faces) == 3


def test_aligned_columns_pick_one_endpoint():
    faces = efficient_faces((qv(1), qv(1)), SEGMENT, ORTHANT2)
    assert len(faces) == 1
    assert faces[0].vertices == (qv(0),)


def test_triangle_identity_columns():
    faces = efficient_faces((qv(1, 0), qv(0, 1)), TRIANGLE, ORTHANT2)
    assert len(faces) == 1 and faces[0].vertices == (qv(0, 0),)


def test_triangle_negated_identity_columns():
    faces = efficient_faces((qv(-1, 0), qv(0, -1)), TRIANGLE, ORTHANT2)
    keyed = {tuple(sorted(f.vertices)): f.tight for f in faces}
    hyp = (qv(0, 1), qv(1, 0))
    assert set(keyed) == {hyp, (qv(0, 1),), (qv(1, 0),)}
    assert keyed[hyp] == (2,)  # the hypotenuse row is the tight one


def _grid_pareto_check(columns, faces):
    # independent oracle: componentwise-minimal points of the value grid
    # must be exactly the grid points covered by the efficient faces
    pts = [(Q(i, 50), Q(j, 50))
           for i in range(51) for j in range(51) if i + j <= 50]
    vals = {p: (vdot(columns[0], p), vdot(columns[1], p)) for p in pts}
    byval = sorted(pts, key=lambda p: vals[p])
    minimal = set()
    best_b = None
    k = 0
    while k < len(byval):
        a = vals[byval[k]][0]
        group = []
        while k < len(byval) and vals[byval[k]][0] == a:
            group.append(byval[k])
            k += 1
        group_min = min(vals[p][1] for p in group)
        for p in group:
            b = vals[p][1]
            if b == group_min and (best_b is None or b < best_b):
                minimal.add(p)
        if best_b is None or group_min < best_b:
            best_b = group_min
    covered = set()
    for p in pts:
        for f in faces:
            if all(vdot(TRI_ROWS[i], p) == TRI_RHS[i] for i in f.tight):
                covered.add(p)
                break
    assert minimal == covered


def test_triangle_faces_agree_with_value_grid():
    for columns in ((qv(1, 0), qv(0, 1)), (qv(-1, 0), qv(0, -1))):
        _grid_pareto_check(columns, efficient_faces(columns, TRIANGLE, ORTHANT2))


def test_zero_in_gap_shortcut_and_failure():
    assert zero_in_gap(qv(0), (qv(1), qv(1)), SEGMENT, ORTHANT2)
    assert not zero_in_gap(qv(1), (qv(1), qv(1)), SEGMENT, ORTHANT2)


@pytest.mark.parametrize("columns", [(qv(1),), (qv(1), qv(1), qv(1)),
                                     (qv(1, 0), qv(1, 0))],
                         ids=["one-column", "three-columns", "wide-columns"])
def test_zero_in_gap_rejects_misshapen_columns(columns):
    with pytest.raises(InstanceFormatError):
        zero_in_gap(qv(0), columns, SEGMENT, ORTHANT2)


def test_zero_matrix_always_in_gap():
    assert zero_in_gap(qv(Q(1, 3)), (qv(0), qv(0)), SEGMENT, ORTHANT2)


def test_zero_in_gap_scale_invariant():
    for xbar, expected in ((qv(1), False), (qv(0), True)):
        base = zero_in_gap(xbar, (qv(1), qv(1)), SEGMENT, ORTHANT2)
        scaled = zero_in_gap(xbar, (qv(3), qv(3)), SEGMENT, ORTHANT2)
        assert base == scaled == expected


def test_gap_query_membership_validation():
    q = gap_query(EX_BOX.objectives, qv(0), (qv(1), qv(0)))
    assert q.columns == (qv(1), qv(0))
    with pytest.raises(InstanceFormatError):
        gap_query(EX_BOX.objectives, qv(0), (qv(2), qv(0)))
    with pytest.raises(InstanceFormatError):
        gap_query(EX_BOX.objectives, qv(0), (qv(1),))


@pytest.mark.parametrize("column", [qv(1, 5), qv()], ids=["long", "short"])
def test_gap_query_checks_column_length(column):
    with pytest.raises(InstanceFormatError, match="column 0 needs 1 entries"):
        gap_query(EX_BOX.objectives, qv(0), (column, qv(0)))


def test_unbounded_feasible_set_rejected():
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))),
                       PolyhedralSet((), ()), ORTHANT2, 1)
    with pytest.raises(CapabilityError):
        gap_necessary_check(inst, qv(0))


def test_example_vertex_search_size_and_report():
    # four vertex matrices, but one LP decides the whole continuum: both
    # dual generators are nonnegative, so lambda has one sign pattern
    xis = vertex_scalarizations(EX_BOX.objectives, qv(0))
    assert len(xis) == 4
    rep = gap_necessary_check(EX_BOX, qv(0))
    assert rep.condition == GAP_NECESSARY and rep.holds is True and rep.exact
    assert rep.witness == (qv(Q(1, 2)), qv(-1))
    assert rep.note.endswith("scalarization LP feasible on sign pattern 1 of 1")
    assert gap_query(EX_BOX.objectives, qv(0), rep.witness).columns == \
        rep.witness
    assert zero_in_gap(qv(0), rep.witness, BOX_SYM, K_EX)


def test_example_scalarization_equality_fails_exactly():
    # the two components cancel, so the summed scalarization collapses to a
    # point while the weighted Minkowski sum keeps full width
    established, exact = scalarization_equality(EX_BOX.objectives, qv(0), K_EX)
    assert established is False and exact


def test_convex_shapes_carry_equality_structurally():
    comps = (maxfn(af([1]), af([-1])), maxfn(af([1]), af([0])))
    established, exact = scalarization_equality(comps, qv(0), ORTHANT2)
    assert established is True and exact


def test_smooth_gradient_single_candidate():
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))), SEGMENT,
                       ORTHANT2, 1)
    rep = gap_necessary_check(inst, qv(Q(1, 2)))
    assert rep.holds is True and rep.witness == (qv(1), qv(-1))
    assert rep.note.endswith("sign pattern 1 of 1")
    assert zero_in_gap(qv(Q(1, 2)), rep.witness, SEGMENT, ORTHANT2)
    aligned = VOPInstance((smooth(af([1])), smooth(af([1]))), SEGMENT,
                          ORTHANT2, 1)
    bad = gap_necessary_check(aligned, qv(1))
    # one-vertex gradients need no sign row: a single LP, infeasible, and
    # the gradient matrix, the only candidate, indeed fails
    assert bad.holds is False and bad.exact and bad.witness is None
    assert bad.note.endswith("scalarization LP infeasible on 1 of 1 sign "
                             "patterns")
    assert not zero_in_gap(qv(1), (qv(1), qv(1)), SEGMENT, ORTHANT2)


@pytest.mark.parametrize("forged", [(qv(5, 0), qv(1, 0)),
                                    (qv(1, 0), qv(1, 1))],
                         ids=["outside-gradient", "dominated"])
def test_failed_witness_recheck_raises(monkeypatch, forged):
    # a matrix the LP did not produce: one column outside its gradient, or
    # a vertex matrix for which xbar is dominated; either re-check must
    # raise, with or without -O
    box = PolyhedralSet((qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1)),
                        qv(1, 1, 1, 1))
    cone = validate_ordering_cone(2, generators=(qv(1, 1), qv(-1, 1)))
    inst = VOPInstance((maxfn(af([1, 0]), af([2, 0])),
                        maxfn(af([1, 1]), af([1, -1]))), box, cone, 2)
    assert gap_necessary_check(inst, qv(0, 0)).holds is True
    monkeypatch.setattr(gapfn, "_scalarization", lambda *args: forged)
    with pytest.raises(ConsistencyError):
        gap_necessary_check(inst, qv(0, 0))


def test_sampled_scalarizations_stay_inside_polytopes():
    xis = sampled_scalarizations(EX_BOX.objectives, qv(0), seed=7, count=50)
    assert len(xis) == 50
    for cols in xis:
        assert 0 <= cols[0][0] <= 1
        assert -1 <= cols[1][0] <= 0


def test_certified_robust_instance_passes_gap_check():
    inst = VOPInstance((maxfn(af([1]), af([-1])), maxfn(af([1]), af([0]))),
                       BOX_SYM, ORTHANT2, 1)
    assert certify(inst, qv(0)).status == ROBUST_CERTIFIED
    rep = gap_necessary_check(inst, qv(0))
    assert rep.holds is True


def _random_point(rng, n):
    return tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))


def _through(rng, rows, x0):
    """rows with right-hand sides that keep x0 in the set, some tight."""
    return PolyhedralSet(tuple(rows), tuple(vdot(r, x0) + rng.randint(0, 2)
                                            for r in rows))


def _random_row(rng, n):
    while True:
        row = qv(*(rng.randint(-3, 3) for _ in range(n)))
        if any(row):
            return row


def _boundedness_family(rng, n):
    """Seeded feasible sets in dimension n, each with its kind."""
    box, _, _ = random_box(rng, n)
    yield "box", box
    # a box cut by random rows through an inner point
    extra = [_random_row(rng, n) for _ in range(rng.randint(1, 3))]
    yield "cut box", PolyhedralSet(
        box.rows + tuple(extra),
        box.rhs + tuple(rng.randint(0, 2) for _ in extra))
    # a simplex {x >= 0, w . x <= s} moved by a random shift
    weights = qv(*(rng.randint(1, 3) for _ in range(n)))
    rows = [qv(*(-(k == j) for k in range(n))) for j in range(n)] + [weights]
    yield "simplex", _through(rng, rows, _random_point(rng, n))
    # unbounded along one ray r off the coordinate axes: the rows spanning
    # r's orthogonal complement in both signs, -r, and rows with a . r < 0;
    # the recession cone is pos(r) alone
    while True:
        ray = qv(*(rng.randint(-2, 2) for _ in range(n)))
        if sum(1 for c in ray if c) >= 2:
            break
    rows = [vneg(ray)]
    for u in nullspace_basis((ray,), n):
        rows += [u, vneg(u)]
    while len(rows) < 2 * n + 2:
        row = _random_row(rng, n)
        if vdot(row, ray) < 0:
            rows.append(row)
    yield "ray", _through(rng, rows, _random_point(rng, n))
    # a box with one row dropped: unbounded along a coordinate axis
    drop = rng.randrange(len(box.rows))
    yield "open box", PolyhedralSet(box.rows[:drop] + box.rows[drop + 1:],
                                    box.rhs[:drop] + box.rhs[drop + 1:])
    # empty sets, with the recession cone {0} and with a nonzero one
    yield "empty", PolyhedralSet(box.rows + (box.rows[0],),
                                 box.rhs + (-box.rhs[1] - 1,))
    yield "empty slab", PolyhedralSet((box.rows[0], box.rows[1]),
                                      (box.rhs[0], -box.rhs[0] - 1))


def test_boundedness_matches_the_sweep_reference(monkeypatch):
    # the recession-cone test against the 2n coordinate LPs it replaced:
    # the same verdict and polytope on every kind, and a set with a full
    # rank of rows proved bounded by exactly one LP, is_trivial's
    lps, probes = [], []
    for module, name, calls in ((cones, "lp_solve", lps),
                                (gapfn, "feasible_point", probes)):
        original = getattr(module, name)

        def spy(*args, _original=original, _calls=calls):
            _calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, spy)
    rng = random.Random(20261022)
    verdicts = {}
    for _ in range(60):
        n = rng.randint(2, 4)
        for kind, omega in _boundedness_family(rng, n):
            try:
                want = sweep_bounded_polytope(omega, n)
            except CapabilityError as exc:
                with pytest.raises(CapabilityError, match=str(exc)):
                    gapfn._bounded_polytope(omega, n)
                verdicts.setdefault(kind, set()).add(False)
                continue
            del lps[:], probes[:]
            assert gapfn._bounded_polytope(omega, n) == want
            assert (len(lps), len(probes)) == (
                (1, 0) if kind != "empty slab" else (0, 1))
            verdicts.setdefault(kind, set()).add(True)
    assert verdicts == {"box": {True}, "cut box": {True}, "simplex": {True},
                        "ray": {False}, "open box": {False}, "empty": {True},
                        "empty slab": {True}}
