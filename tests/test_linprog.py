"""Exact LP kernel: frozen small cases, witness soundness, determinism.

Optimal values on bounded random polytopes are cross-checked against
brute-force vertex enumeration in test_cones.py once the double-description
machinery exists; here the witnesses carry the weight.
"""

import random
from fractions import Fraction as Q

import pytest

from fraction_reference import normalize_relations
from helpers import verify_farkas
from vopcert import linprog
from vopcert.linprog import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, LpInternalError,
    eq, feasible_point, ge, le, lp_solve,
)
from vopcert.rationals import vdot


def test_single_variable_bounded_max():
    res = lp_solve((Q(1),), [le((Q(1),), Q(3))])
    assert res.status == OPTIMAL
    assert res.value == 3
    assert res.x == (Q(3),)


def test_single_variable_min_with_lower_bound():
    # min x subject to x >= -2, solved as max -x
    res = lp_solve((Q(-1),), [ge((Q(1),), Q(-2))])
    assert res.status == OPTIMAL
    assert -res.value == -2
    assert res.x == (Q(-2),)


def test_infeasible_pair_has_farkas():
    rels = [le((Q(1),), Q(0)), ge((Q(1),), Q(1))]
    res = lp_solve((Q(1),), rels)
    assert res.status == INFEASIBLE
    assert verify_farkas(rels, 1, res.farkas)
    rows, rhs = normalize_relations(rels, 1)
    assert all(y >= 0 for y in res.farkas)
    assert sum(y * r[0] for y, r in zip(res.farkas, rows)) == 0
    assert sum(y * b for y, b in zip(res.farkas, rhs)) < 0


def test_unbounded_gives_improving_ray():
    rels = [ge((Q(1),), Q(0))]
    res = lp_solve((Q(1),), rels)
    assert res.status == UNBOUNDED
    d = res.ray
    assert vdot((Q(1),), d) > 0
    rows, _ = normalize_relations(rels, 1)
    assert all(vdot(r, d) <= 0 for r in rows)


def test_optimal_dual_proves_the_value():
    # max x1 + x2 with x1 + 2 x2 <= 4, 3 x1 + x2 <= 6 and x2 >= 0: the dual
    # covers the two rows, then the sign row -x2 <= 0 of nonneg
    rels = [le((Q(1), Q(2)), Q(4)), le((Q(3), Q(1)), Q(6))]
    res = lp_solve((Q(1), Q(1)), rels, nonneg=[False, True])
    assert res.status == OPTIMAL and res.value == Q(14, 5)
    assert res.dual == (Q(2, 5), Q(1, 5), Q(0))
    rows, rhs = normalize_relations(rels, 2)
    assert [vdot(res.dual[:2], col) for col in zip(*rows)] == [1, 1]
    assert vdot(res.dual[:2], rhs) == res.value
    assert lp_solve((Q(1),), [le((Q(1),), Q(3))]).dual == (Q(1),)
    assert lp_solve((Q(1),), [ge((Q(1),), Q(0))]).dual is None


def test_equality_handled_as_two_rows():
    res = lp_solve((Q(1), Q(1)), [eq((Q(1), Q(1)), Q(2)), le((Q(1), Q(0)), Q(5))])
    assert res.status == OPTIMAL
    assert res.value == 2


def test_two_variable_vertex_optimum():
    # max x+y over {x<=1, y<=2, x+y<=5/2}
    rels = [le((Q(1), Q(0)), Q(1)), le((Q(0), Q(1)), Q(2)),
            le((Q(1), Q(1)), Q(5, 2))]
    res = lp_solve((Q(1), Q(1)), rels)
    assert res.status == OPTIMAL
    assert res.value == Q(5, 2)


def test_free_variables_go_negative():
    res = lp_solve((Q(1),), [le((Q(1),), Q(-3))])
    assert res.status == OPTIMAL
    assert res.x == (Q(-3),)
    assert res.value == -3


def test_nonneg_flag_restricts_sign():
    res = lp_solve((Q(-1),), [le((Q(1),), Q(5))], nonneg=[True])
    assert res.status == OPTIMAL
    assert res.x == (Q(0),)


def test_nonneg_infeasibility_has_farkas_over_the_sign_rows():
    # x <= -1 with x >= 0: only the sign constraint makes it infeasible
    rels = [le((1,), -1)]
    res = lp_solve((1,), rels, nonneg=[True])
    assert res.status == INFEASIBLE
    # one entry per normalized row, then one per sign-constrained variable
    assert len(res.farkas) == 2
    assert verify_farkas(rels + [ge((1,), 0)], 1, res.farkas)


def test_nonneg_farkas_covers_only_the_marked_variables():
    rels = [le((Q(1), Q(1)), Q(-1)), le((Q(0), Q(1)), Q(0)), ge((Q(0), Q(1)), Q(0))]
    res = lp_solve((Q(0), Q(0)), rels, nonneg=[True, False])
    assert res.status == INFEASIBLE
    assert len(res.farkas) == 4
    assert verify_farkas(rels + [ge((Q(1), Q(0)), Q(0))], 2, res.farkas)


def test_determinism_bit_identical():
    rels = [le((Q(1), Q(2)), Q(4)), le((Q(3), Q(-1)), Q(6)), ge((Q(1), Q(0)), Q(-1))]
    a = lp_solve((Q(2), Q(1)), rels)
    b = lp_solve((Q(2), Q(1)), rels)
    assert a == b


def _random_relations(rng, n, m):
    rels = []
    for _ in range(m):
        coeffs = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        rhs = Q(rng.randint(-6, 6), rng.randint(1, 2))
        rels.append(le(coeffs, rhs))
    return rels


def test_random_systems_witnesses_check_out():
    rng = random.Random(20260818)
    n_feasible = n_infeasible = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        rels = _random_relations(rng, n, rng.randint(1, 6))
        # box keeps everything bounded so status is optimal or infeasible
        for k in range(n):
            ek = tuple(Q(1) if j == k else Q(0) for j in range(n))
            rels.append(le(ek, Q(10)))
            rels.append(ge(ek, Q(-10)))
        c = tuple(Q(rng.randint(-3, 3)) for _ in range(n))
        res = lp_solve(c, rels)
        rows, rhs = normalize_relations(rels, n)
        if res.status == OPTIMAL:
            n_feasible += 1
            assert all(vdot(r, res.x) <= b for r, b in zip(rows, rhs))
            assert vdot(c, res.x) == res.value
        else:
            n_infeasible += 1
            assert res.status == INFEASIBLE
            assert verify_farkas(rels, n, res.farkas)
    assert n_feasible > 10 and n_infeasible > 10


def test_feasible_point_fast_path_matches_lp_solve():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        rels = _random_relations(rng, n, rng.randint(1, 5))
        x = feasible_point(rels, n)
        res = lp_solve((Q(0),) * n, rels)
        if x is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status in (OPTIMAL, UNBOUNDED)
            rows, rhs = normalize_relations(rels, n)
            assert all(vdot(r, x) <= b for r, b in zip(rows, rhs))


def test_point_off_a_row_fails_the_integer_recheck(monkeypatch):
    # every read-out is re-checked on the scaled integer rows and the sign
    # rows: one moved off a row must raise in both entry points, with or
    # without -O
    rels = [le((Q(1),), Q(3, 2)), ge((Q(2),), Q(1))]
    assert lp_solve((Q(1),), rels).x == (Q(3, 2),)
    assert feasible_point(rels, 1) is not None
    # x0 <= 3/2 and x1 >= 1/2, unbounded along x1
    unbounded = [le((Q(1), Q(0)), Q(3, 2)), ge((Q(0), Q(2)), Q(1))]
    res = lp_solve((Q(0), Q(1)), unbounded)
    assert (res.status, res.x, res.ray) == (UNBOUNDED, (Q(0), Q(1, 2)),
                                            (Q(0), Q(1, 2)))
    read = linprog._Core.point

    def move(shift, ray=False):
        # shift entry 0 of the basic point, or of a ray's basic column
        def moved(core, col=-1):
            nums, den = read(core, col)
            if (col >= 0) == ray:
                nums = [nums[0] + shift * den, *nums[1:]]
            return nums, den
        monkeypatch.setattr(linprog._Core, "point", moved)

    move(2)
    with pytest.raises(LpInternalError, match="optimal point"):
        lp_solve((Q(1),), rels)
    with pytest.raises(LpInternalError, match="feasible point"):
        feasible_point(rels, 1)
    with pytest.raises(LpInternalError, match="unbounded point"):
        lp_solve((Q(0), Q(1)), unbounded)
    # the alternative of x <= 1/3, x >= 1/2 is solved by z = (2, 3)
    with pytest.raises(LpInternalError, match="Farkas certificate"):
        lp_solve((Q(1),), [le((Q(1),), Q(1, 3)), ge((Q(1),), Q(1, 2))])
    move(-2)
    # x = -2 is off the sign row of nonneg only
    with pytest.raises(LpInternalError, match="feasible point"):
        feasible_point([le((Q(1),), Q(3, 2))], 1, nonneg=[True])
    move(-2, ray=True)
    # the ray (2, 1/2) leaves the recession cone of x0 <= 3/2
    with pytest.raises(LpInternalError, match="unbounded ray"):
        lp_solve((Q(0), Q(1)), unbounded)


def test_farkas_vector_is_rescaled_by_the_row_denominators():
    # the alternative is solved on the integer rows, z_i = y_i / d_i; the
    # vectors are those of the Fraction alternative, and z itself would
    # read (2, 3) on the first system
    res = lp_solve((Q(1),), [le((Q(1),), Q(1, 3)), ge((Q(1),), Q(1, 2))])
    assert (res.status, res.farkas) == (INFEASIBLE, (Q(6), Q(6)))
    res = lp_solve((Q(1),), [le((Q(2, 3),), Q(-1, 5))], nonneg=[True])
    assert (res.status, res.farkas) == (INFEASIBLE, (Q(5), Q(10, 3)))


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                       "__neg__")


def test_no_fraction_arithmetic_on_any_status(monkeypatch):
    # Fractions are built only for the returned fields: every status is
    # solved and checked on the integer rows
    cases = [
        ((Q(1), Q(1)), [le((Q(1), Q(2)), Q(4)), le((Q(3), Q(1)), Q(6))],
         [False, True]),
        ((Q(1),), [le((Q(1),), Q(1, 3)), ge((Q(1),), Q(1, 2))], None),
        ((Q(1),), [le((Q(2, 3),), Q(-1, 5))], [True]),
        ((Q(0), Q(1)), [le((Q(1), Q(0)), Q(3, 2)), ge((Q(0), Q(2)), Q(1))],
         None),
    ]

    def solve_all():
        return [(lp_solve(c, rels, nonneg), feasible_point(rels, len(c), nonneg))
                for c, rels, nonneg in cases]

    expected = solve_all()
    assert [res.status for res, _ in expected] == [
        OPTIMAL, INFEASIBLE, INFEASIBLE, UNBOUNDED]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the LP kernel")

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Q, name, refuse)
    got = solve_all()
    monkeypatch.undo()
    assert got == expected
