"""Function calculus: values, generalized gradients, scalarization, convexity."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    DIRS16, DIRS24, Q, af, maxfn, minfn, qp, qv, random_instance,
    slope_sweep, smooth, stable_quotient, support_of,
)
from vopcert.funcs import (
    CONVEX, NOT_CONVEX, UNKNOWN, SubdiffPolytope, _selection_rows,
    clarke_subdiff_component, essentially_active_selections, eval_components,
    full_dim_selections, kconvexity_check, polytopes_equal, scalarized_subdiff,
    scalarized_subdiffs, subdiff_contains,
)
from vopcert.linprog import le, lp_solve
from vopcert.rationals import Q1, lincomb, unit, vadd, vdot, vneg, vscale, zeros

# running two-component example: f1 = max(0, x), f2 = min(-x, 0) at xbar = 0
F1 = maxfn(af([0]), af([1]))
F2 = minfn(af([-1]), af([0]))
EX = (F1, F2)
X0 = qv(0)


def _scalar_val(components, g, x):
    return sum(gi * fn.value(x) for gi, fn in zip(g, components))


def test_piece_values_and_gradients():
    p = qp([[2, 0], [0, 4]], [1, -1], 3)
    x = qv(Q(1, 2), Q(1, 3))
    assert p.value(x) == Q(131, 36)
    assert p.grad(x) == qv(2, Q(1, 3))
    a = af([3, -2], 5)
    assert a.value(x) == Q(3, 2) - Q(2, 3) + 5
    assert a.grad(x) == qv(3, -2)


def test_asymmetric_quadratic_piece_is_rejected():
    # h x is the gradient of 1/2 x^T h x only for a symmetric h. Built
    # through the library, h = [[0, 2], [0, 0]] would make certify refute
    # f1 = x1 x2 at (1, 0) along (0, 1), where f1 rises
    with pytest.raises(ValueError, match="symmetric"):
        qp([[0, 2], [0, 0]], [0, 0])
    with pytest.raises(ValueError, match="symmetric"):
        qp([[1, 0]], [0, 0])
    p = qp([[0, 1], [1, 0]], [0, 0])
    assert p.grad(qv(1, 0)) == qv(0, 1)


def test_max_min_values_and_active_sets():
    assert F1.value(qv(-2)) == 0 and F1.active_indices(qv(-2)) == (0,)
    assert F1.value(qv(3)) == 3 and F1.active_indices(qv(3)) == (1,)
    assert F1.active_indices(X0) == (0, 1)
    assert F2.value(qv(3)) == -3 and F2.active_indices(qv(3)) == (0,)
    assert eval_components(EX, qv(-1)) == (0, 0)
    assert eval_components(EX, qv(2)) == (2, -2)


def test_component_subdiffs_at_kink():
    s1 = clarke_subdiff_component(F1, X0)
    s2 = clarke_subdiff_component(F2, X0)
    assert set(s1.vertices) == {qv(0), qv(1)} and s1.exact
    assert set(s2.vertices) == {qv(-1), qv(0)} and s2.exact


def test_subdiff_membership_lp():
    seg = SubdiffPolytope(1, (qv(0), qv(1)))
    assert subdiff_contains(seg, qv(Q(1, 2)))
    assert subdiff_contains(seg, qv(1))
    assert not subdiff_contains(seg, qv(2))
    assert not subdiff_contains(seg, qv(Q(-1, 100)))


def test_two_piece_max_hull_against_slope_oracle():
    fn = maxfn(af([1, 1]), af([2, 0]))
    sub = clarke_subdiff_component(fn, qv(0, 0))
    assert set(sub.vertices) == {qv(1, 1), qv(2, 0)}
    for d in DIRS16:
        assert support_of(sub.vertices, d) == stable_quotient(fn, qv(0, 0), d)


def test_three_piece_min_against_base_point_sweep():
    fn = minfn(af([1, 1]), af([2, 0]), af([0, 0]))
    sub = clarke_subdiff_component(fn, qv(0, 0))
    assert set(sub.vertices) == {qv(1, 1), qv(2, 0), qv(0, 0)}
    for d in DIRS24:
        assert support_of(sub.vertices, d) == slope_sweep(fn, qv(0, 0), d)


def test_essentially_active_selections_drop_thin_regions():
    sels = essentially_active_selections(EX, X0)
    assert sorted(s.indices for s in sels) == [(0, 1), (1, 0)]
    for s in sels:
        for row, rhs in s.rows:
            assert vdot(row, s.point) < rhs  # strictly interior


def _boxed_selection_indices(components, xbar):
    """Essentially active selections as the slack LP confined to the unit
    box around xbar decides them, with the active-but-thin ones counted."""
    n = len(xbar)
    values = [fn.value(xbar) for fn in components]
    kept, thin = [], 0
    for indices in itertools.product(*(range(len(fn.pieces)) for fn in components)):
        if any(fn.pieces[s].value(xbar) != values[i]
               for i, (fn, s) in enumerate(zip(components, indices))):
            continue
        rows = _selection_rows(components, indices)
        if rows is None:
            continue
        rels = [le(tuple(row) + (Q1,), rhs) for row, rhs in rows]
        tcol = unit(n + 1, n)
        rels.append(le(tcol, Q1))
        for j in range(n):
            ej = unit(n + 1, j)
            rels.append(le(ej, xbar[j] + 1))
            rels.append(le(vneg(ej), 1 - xbar[j]))
        if lp_solve(tcol, rels).value > 0:
            kept.append(indices)
        else:
            thin += 1
    return kept, thin


def test_unboxed_selections_match_the_box_lp():
    rng = random.Random(20261019)
    kept_total = thin_total = 0
    for i in range(60):
        inst, xbar = random_instance(rng, ("generic", "descent", "span")[i % 3])
        kept, thin = _boxed_selection_indices(inst.objectives, xbar)
        sels = essentially_active_selections(inst.objectives, xbar)
        assert [s.indices for s in sels] == kept
        kept_total += len(kept)
        thin_total += thin
    # both outcomes of the slack LP occur on this family
    assert kept_total > 0 and thin_total > 0


def test_scalarized_subdiffs_match_one_weight_at_a_time():
    mus = (qv(1, 1), qv(2, 1), qv(2, 0), qv(0, 0), qv(-1, 3))
    mixed = (maxfn(qp([[1]], [0]), af([1])), smooth(af([1])))
    for comps, xbar in ((EX, X0), (mixed, qv(2)),
                        ((smooth(qp([[2]], [1])), smooth(af([-3], 7))), qv(1))):
        assert scalarized_subdiffs(mus, comps, xbar) == \
            tuple(scalarized_subdiff(mu, comps, xbar) for mu in mus)
    assert scalarized_subdiffs((), EX, X0) == ()


def test_lincomb_is_the_weighted_fold():
    vectors = (qv(1, -2, Q(1, 3)), qv(0, 5, 1), qv(Q(-3, 4), 0, 2))
    for weights in (qv(2, Q(1, 2), -1), qv(0, 3, 0), qv(0, 0, 0)):
        fold = zeros(3)
        for w, v in zip(weights, vectors):
            fold = vadd(fold, vscale(w, v))
        assert lincomb(weights, vectors, 3) == fold
    assert lincomb((), (), 4) == zeros(4)
    # a zero weight skips its vector, whatever its length
    assert lincomb(qv(0, 1), (qv(9), qv(1, 2)), 2) == qv(1, 2)
    with pytest.raises(ValueError):
        lincomb(qv(1), (qv(1, 2),), 3)


def test_full_dim_selections_match_at_generic_point():
    cells = full_dim_selections(EX, 1)
    assert sorted(c.indices for c in cells) == [(0, 1), (1, 0)]
    # each cell's interior point actually selects those pieces
    for c in cells:
        for fn, s in zip(EX, c.indices):
            assert fn.pieces[s].value(c.point) == fn.value(c.point)


def test_duplicate_pieces_are_harmless():
    twin = maxfn(af([1]), af([1]))
    sels = essentially_active_selections((twin,), qv(5))
    assert sorted(s.indices for s in sels) == [(0,), (1,)]
    sub = scalarized_subdiff(qv(1), (twin,), qv(5))
    assert sub.exact and set(sub.vertices) == {qv(1)}


def test_scalarized_weights_one_one_collapses():
    sub = scalarized_subdiff(qv(1, 1), EX, X0)
    assert sub.exact
    assert set(sub.vertices) == {qv(0)}
    # evaluation oracle: the scalarization vanishes on a grid around 0
    for k in range(-50, 51):
        x = qv(Q(k, 25))
        assert _scalar_val(EX, qv(1, 1), x) == 0


def test_scalarized_weights_two_one_interval():
    sub = scalarized_subdiff(qv(2, 1), EX, X0)
    assert sub.exact
    assert set(sub.vertices) == {qv(0), qv(1)}
    # evaluation oracle: 2 f1 + f2 coincides with max(0, x) on a grid
    for k in range(-50, 51):
        x = qv(Q(k, 25))
        assert _scalar_val(EX, qv(2, 1), x) == max(Q(0), x[0])


def test_scalarized_unit_weight_matches_component():
    for i, fn in enumerate(EX):
        mu = qv(*(1 if j == i else 0 for j in range(2)))
        assert polytopes_equal(scalarized_subdiff(mu, EX, X0),
                               clarke_subdiff_component(fn, X0))


def test_scalarized_scaling():
    sub = scalarized_subdiff(qv(2, 0), EX, X0)
    base = clarke_subdiff_component(F1, X0)
    scaled = SubdiffPolytope(1, tuple(vscale(Q(2), v) for v in base.vertices))
    assert polytopes_equal(sub, scaled)


def test_scalarized_minkowski_route_exact():
    f1 = maxfn(qp([[1]], [0]), af([1]))  # max(x^2/2, x), kink at x = 2
    f2 = smooth(af([1]))
    sub = scalarized_subdiff(qv(1, 2), (f1, f2), qv(2))
    assert sub.exact
    assert set(sub.vertices) == {qv(3), qv(4)}


def test_scalarized_flagged_bounds():
    f1 = maxfn(qp([[1]], [0]), af([1]))
    f2 = smooth(af([1]))
    sub = scalarized_subdiff(qv(-1, 0), (f1, f2), qv(2))
    assert not sub.exact
    assert set(sub.vertices) == {qv(-1), qv(-2)}


def test_smooth_scalarization_single_gradient():
    f1 = smooth(qp([[2]], [1]))
    f2 = smooth(af([-3], 7))
    sub = scalarized_subdiff(qv(1, 2), (f1, f2), qv(Q(1, 2)))
    assert sub.exact and sub.vertices == (qv(1 + 1 - 6),)


GENS = (qv(1, 0), qv(1, 1))  # generators of the scalarizing cone in the example


def test_kconvexity_example_is_convex():
    rep = kconvexity_check(EX, GENS, 1)
    assert rep.status == CONVEX


def test_kconvexity_affine_components_convex():
    comps = (smooth(af([1, 2], 3)), smooth(af([-1, 0])))
    rep = kconvexity_check(comps, (qv(1, -5), qv(-2, 3)), 2)
    assert rep.status == CONVEX


def test_kconvexity_concave_quadratic_witness():
    comps = (smooth(qp([[-2]], [0])), smooth(af([1])))
    rep = kconvexity_check(comps, (qv(1, 0), qv(1, 1)), 1)
    assert rep.status == NOT_CONVEX
    assert rep.generator == qv(1, 0)
    x, y, lam = rep.witness
    assert (x, y, lam) == (qv(-1), qv(1), Q(1, 2))
    mid = vadd(vscale(lam, x), vscale(1 - lam, y))
    g = rep.generator
    assert _scalar_val(comps, g, mid) > lam * _scalar_val(comps, g, x) \
        + (1 - lam) * _scalar_val(comps, g, y)


def test_kconvexity_piecewise_affine_witness():
    comps = (minfn(af([1]), af([-1])),)  # -|x|
    rep = kconvexity_check(comps, (qv(1),), 1)
    assert rep.status == NOT_CONVEX
    x, y, lam = rep.witness
    assert lam == Q(1, 2)
    mid = vadd(vscale(lam, x), vscale(1 - lam, y))
    g = rep.generator
    assert _scalar_val(comps, g, mid) > lam * _scalar_val(comps, g, x) \
        + (1 - lam) * _scalar_val(comps, g, y)


def test_kconvexity_sampled_refutation():
    comps = (minfn(qp([[1]], [0]), af([0], 1)),)  # min(x^2/2, 1)
    rep = kconvexity_check(comps, (qv(1),), 1)
    assert rep.status == NOT_CONVEX
    x, y, lam = rep.witness
    mid = vadd(vscale(lam, x), vscale(1 - lam, y))
    g = rep.generator
    assert _scalar_val(comps, g, mid) > lam * _scalar_val(comps, g, x) \
        + (1 - lam) * _scalar_val(comps, g, y)


def test_kconvexity_sampled_abstains_on_hidden_convexity():
    comps = (minfn(qp([[1]], [0]), qp([[1]], [0], 1)),)  # min picks x^2/2 always
    rep = kconvexity_check(comps, (qv(1),), 1)
    assert rep.status == UNKNOWN


def test_kconvexity_syntactic_precheck_mixed_shape():
    comps = (maxfn(qp([[1]], [0]), af([1])), smooth(af([2])))
    rep = kconvexity_check(comps, (qv(1, 1),), 1)
    assert rep.status == CONVEX


def test_pa_convexity_violation_found_in_unbounded_cell():
    # convex kink reversed: max with a generator of -1 makes it concave
    comps = (maxfn(af([1]), af([-1])),)  # |x|
    rep = kconvexity_check(comps, (qv(-1),), 1)
    assert rep.status == NOT_CONVEX
    x, y, lam = rep.witness
    g = rep.generator
    mid = vadd(vscale(lam, x), vscale(1 - lam, y))
    assert _scalar_val(comps, g, mid) > lam * _scalar_val(comps, g, x) \
        + (1 - lam) * _scalar_val(comps, g, y)
