"""Perturbation oracle: structured patterns, lattice samples, radius probes."""

import math
import random
import sys
from fractions import Fraction
from itertools import chain

import pytest

from helpers import Q, af, maxfn, minfn, qp, qv, random_instance, smooth
from vopcert import oracle, rationals
from vopcert.certify import (
    Domination, VOPInstance, _Support, certify, efficiency_check,
    NOT_ROBUST_CERTIFIED,
)
from vopcert.errors import (
    CapabilityError, ConsistencyError, InstanceFormatError,
)
from vopcert.funcs import eval_components
from vopcert.geometry import PolyhedralSet, validate_ordering_cone
from vopcert.linprog import INFEASIBLE
from vopcert.oracle import (
    NO_COUNTEREXAMPLE, REFUTED, PerturbationMatrix, perturbed_instance,
    radius_estimate, robust_oracle, structured_patterns, zero_matrix,
    _random_matrix,
)
from vopcert.rationals import eliminator, integer_row, is_zero_vec, vsub

K_EX = validate_ordering_cone(2, rows=(qv(-1, -1), qv(-1, 0)))
ORTHANT2 = validate_ordering_cone(2, rows=(qv(-1, 0), qv(0, -1)))
WHOLE_LINE = PolyhedralSet((), ())
EX_INSTANCE = VOPInstance((maxfn(af([0]), af([1])), minfn(af([-1]), af([0]))),
                          WHOLE_LINE, K_EX, 1)
UNIT_01 = PolyhedralSet((qv(1), qv(-1)), qv(1, 0))
# f = (|x|, -x) on [1, 2]: the region x <= 0 of |x| misses the feasible set
ABS_ON_1_2 = VOPInstance((maxfn(af([1]), af([-1])), smooth(af([-1]))),
                         PolyhedralSet((qv(1), qv(-1)), qv(2, -1)), ORTHANT2, 1)


def _assert_dominates(inst, matrix, xbar, y):
    pert = perturbed_instance(inst, matrix)
    w = vsub(eval_components(pert.objectives, xbar),
             eval_components(pert.objectives, y))
    assert not is_zero_vec(w)
    assert inst.cone.contains(w)


def test_frobenius_and_ball_membership():
    m = PerturbationMatrix((qv(Q(1, 2), 0), qv(Q(1, 3), Q(-1, 6))))
    assert m.frobenius_sq() == Q(1, 4) + Q(1, 9) + Q(1, 36)
    assert m.in_ball(Q(2, 3)) and not m.in_ball(Q(1, 2))


def test_ball_of_nonpositive_radius_is_empty():
    # ||C||^2 < r^2 holds at -r as at r, but the open ball of radius r <= 0
    # is empty
    m = PerturbationMatrix((qv(Q(1, 2), 0), qv(Q(1, 3), Q(-1, 6))))
    assert m.in_ball(Q(2, 3)) and not m.in_ball(Q(-2, 3))
    for r in (Q(-1, 10), Q(0)):
        assert not zero_matrix(2, 2).in_ball(r)


def test_structured_patterns_shape_and_order():
    pats = tuple(structured_patterns(2, 1, Q(1, 10)))
    assert len(pats) == 4 + 4  # two cells: 4 singles, one pair with 4 signs
    # the count of 2c^2 for c = p n cells is known before any is built
    assert len(structured_patterns(2, 1, Q(1, 10))) == len(pats)
    assert len(tuple(structured_patterns(2, 2, Q(1, 10)))) == \
        len(structured_patterns(2, 2, Q(1, 10))) == 32
    assert pats[0].rows == (qv(Q(1, 20)), qv(0))
    assert pats[1].rows == (qv(Q(-1, 20)), qv(0))
    assert pats[2].rows == (qv(0), qv(Q(1, 20)))
    assert all(p.in_ball(Q(1, 10)) for p in pats)


def test_random_matrices_stay_in_open_ball():
    rng = random.Random(11)
    for _ in range(200):
        m = _random_matrix(rng, 2, 2, Q(1, 7))
        assert m.frobenius_sq() < Q(1, 49)


def _fraction_draw(rng, p, n, r):
    """The lattice draw computed in Fraction arithmetic throughout."""
    den = 1 << oracle.LATTICE_BITS
    entries = [[Fraction(rng.randint(-den, den), den) for _ in range(n)]
               for _ in range(p)]
    fro = sum((c * c for row in entries for c in row), Fraction(0))
    if fro == 0:
        return tuple(tuple(row) for row in entries)
    t = math.isqrt(int(fro)) + 1
    mag = Fraction(rng.randint(1, den), den)
    alpha = Fraction(r) * mag / t
    return tuple(tuple(alpha * c for c in row) for row in entries)


def _fraction_in_ball(rows, r):
    return sum((c * c for row in rows for c in row), Fraction(0)) < r * r


def test_integer_draw_matches_the_fraction_draw():
    # the same randint calls in the same order, the same matrix, and the
    # same ball verdicts as Fraction arithmetic gives
    rng, ref = random.Random(2026), random.Random(2026)
    draws = 0
    for p in (2, 3):
        for n in range(1, 5):
            for r in (Q(1, 1000), Q(1, 10), Q(1), Q(7, 3), Q(10**6)):
                for _ in range(50):
                    m = _random_matrix(rng, p, n, r)
                    rows = _fraction_draw(ref, p, n, r)
                    assert m.rows == rows
                    assert rng.getstate() == ref.getstate()
                    # lowest terms: equal values are equal fields
                    same = PerturbationMatrix(rows)
                    assert (m.nums, m.den) == (same.nums, same.den)
                    assert m == same and hash(m) == hash(same)
                    assert m.frobenius_sq() == sum(c * c for row in rows
                                                   for c in row)
                    for s in (r, r / 2, r / 10, r / 100):
                        assert m.in_ball(s) == _fraction_in_ball(rows, s)
                    draws += 1
    assert draws == 2000


class _ZeroRng:
    """Draws 0 from every randint call and records the calls."""

    def __init__(self):
        self.calls = []

    def randint(self, a, b):
        self.calls.append((a, b))
        return 0


def test_all_zero_draw_is_the_zero_matrix():
    got, ref = _ZeroRng(), _ZeroRng()
    m = _random_matrix(got, 3, 2, Q(1, 10))
    assert m.rows == _fraction_draw(ref, 3, 2, Q(1, 10))
    assert m == zero_matrix(3, 2) and m.den == 1
    # six entries and no magnitude draw
    den = 1 << oracle.LATTICE_BITS
    assert got.calls == ref.calls == [(-den, den)] * 6


def test_ball_boundary_is_excluded():
    for r in (Q(1, 1000), Q(1, 10), Q(1), Q(7, 3), Q(10**6)):
        edge = PerturbationMatrix(((r * Q(3, 5), r * Q(4, 5)),))
        assert edge.frobenius_sq() == r * r
        assert not edge.in_ball(r) and not _fraction_in_ball(edge.rows, r)
        wider = r * Q(10**6 + 1, 10**6)
        assert edge.in_ball(wider) and _fraction_in_ball(edge.rows, wider)


def test_shifted_domination_decides_the_perturbed_instance():
    # one problem per (instance, xbar), shifted by each candidate, answers
    # as a fresh efficiency check on the perturbed instance would
    rng = random.Random(5)
    decided = set()
    for i in range(12):
        inst, xbar = random_instance(rng, ("generic", "descent", "span")[i % 3])
        problem = Domination(inst, xbar)
        for _ in range(6):
            matrix = _random_matrix(rng, inst.p, inst.n, Q(1, 2))
            got = problem.point(matrix.rows)
            assert got == efficiency_check(perturbed_instance(inst, matrix), xbar)
            decided.add(got.efficient)
        assert problem.point() == efficiency_check(inst, xbar)
    assert decided == {True, False}


def test_long_lived_domination_answers_as_a_fresh_one(monkeypatch):
    # settled regions carry their dual supports from shift to shift; that
    # history may save LPs but never change an answer or a witness
    hits = []
    certified = Domination._certified

    def spy(problem, *args):
        hit = certified(problem, *args)
        hits.append(hit)
        return hit

    monkeypatch.setattr(Domination, "_certified", spy)
    rng = random.Random(17)
    decided = set()
    for i in range(9):
        inst, xbar = random_instance(rng, ("generic", "descent", "span")[i % 3])
        problem = Domination(inst, xbar)
        shifts = [_random_matrix(rng, inst.p, inst.n, r).rows
                  for r in (Q(1, 1000), Q(1, 10), Q(1), Q(10)) for _ in range(4)]
        rng.shuffle(shifts)
        for shift in shifts:
            got = problem.point(shift)
            assert got == Domination(inst, xbar).point(shift)
            decided.add(got.efficient)
    # both branches ran: certificates that settled a region without an LP,
    # and certificates that failed and fell back to the LP
    assert True in hits and False in hits
    assert decided == {True, False}
    # here the last shift leaves a region's old dual support with u >= 0,
    # yet the region dominates: only the bound u . b_S + const <= 0 may
    # settle it
    inst = VOPInstance((maxfn(af([-3], -1), af([1], 3), af([1], -1)),
                        minfn(af([-1]), af([0], -3), af([-3], -3))),
                       PolyhedralSet((qv(1), qv(-1)), qv(3, 3)), ORTHANT2, 1)
    problem = Domination(inst, qv(2))
    for c1, c2 in ((Q(-1, 4), Q(3, 4)), (Q(-3, 2), Q(7, 4)), (Q(1, 2), Q(5, 4)),
                   (Q(-1, 2), Q(3, 2)), (Q(-3, 4), Q(-1, 4)), (Q(5, 4), Q(5, 4))):
        shift = (qv(c1), qv(c2))
        assert problem.point(shift) == Domination(inst, qv(2)).point(shift)
    assert not problem.point(shift).efficient


def test_empty_region_costs_one_lp_per_problem(monkeypatch):
    # |x| has the region x <= 0, which misses [1, 2]: the Farkas vector of
    # its first LP uses no cone row, so no shift can revive it
    inst = ABS_ON_1_2
    module = sys.modules["vopcert.certify"]
    solve = module.lp_solve
    infeasible = []

    def spy(*args):
        res = solve(*args)
        if res.status == INFEASIBLE:
            infeasible.append(res.farkas)
        return res

    monkeypatch.setattr(module, "lp_solve", spy)
    rep = robust_oracle(inst, qv(Q(3, 2)), Q(1, 10), budget=20)
    assert rep.outcome == NO_COUNTEREXAMPLE and rep.samples_tried == 20
    assert len(infeasible) == 1
    # a new problem starts over
    robust_oracle(inst, qv(Q(3, 2)), Q(1, 10), budget=5)
    assert len(infeasible) == 2


def test_kept_supports_settle_shifts_of_either_sign(monkeypatch):
    # c(0) = 0 gives the zero matrix an empty support, and each later
    # settling support fits shifts of one sign only: keeping the last few
    # settles both signs without an LP
    module = sys.modules["vopcert.certify"]
    solve = module.lp_solve
    lps = []

    def spy(*args):
        lps.append(args)
        return solve(*args)

    monkeypatch.setattr(module, "lp_solve", spy)
    rep = robust_oracle(ABS_ON_1_2, qv(Q(3, 2)), Q(1, 10), budget=200)
    assert rep.outcome == NO_COUNTEREXAMPLE and rep.samples_tried == 200
    assert len(lps) <= 8


def test_region_keeps_four_distinct_supports_newest_first():
    region = Domination(ABS_ON_1_2, qv(Q(3, 2)))._regions[0]
    width = len(region.fixed) + len(region.cone_a)

    def dual(*rows):
        return tuple(Q(1) if i in rows else Q(0) for i in range(width))

    def kept():
        return [tuple(i for i, _ in s) for s in region.supports]

    for rows in ((0,), (1,), (0, 1), (2,)):
        region.settle(dual(*rows))
    assert kept() == [(2,), (0, 1), (1,), (0,)]
    region.settle(dual(1))      # a kept support moves to the front
    assert kept() == [(1,), (2,), (0, 1), (0,)]
    region.settle(dual())       # a fifth drops the oldest
    assert kept() == [(), (1,), (2,), (0, 1)]


def _reference_unique_solution(vectors, target):
    """The unique u with sum_i u_i vectors[i] == target as (nums, den), or
    None: Gauss-Jordan on [A | target], once per call."""
    k = len(vectors)
    _, pivots, rows = rationals._gauss_jordan(
        [[v[j] for v in vectors] + [t] for j, t in enumerate(target)])
    if pivots != list(range(k)):
        return None
    den = math.lcm(*(rows[i][i] for i in range(k)))
    return [rows[i][k] * (den // rows[i][i]) for i in range(k)], den


def _reference_certified(problem, region, support, shift):
    """The certificate as a fresh solve per call: every cone row moved by
    (M_i C, M_i C xbar), the unique u re-checked by substitution, then
    u >= 0 and weak duality."""
    n, nfixed = problem.inst.n, len(region.fixed)
    target, tden = region.obj
    if shift is not None:
        kmat, moves = shift.nums, []
        for mrow in problem._mi:
            mk = [sum(m * krow[j] for m, krow in zip(mrow, kmat))
                  for j in range(n)]
            moves.append([v * problem._xd for v in mk] +
                         [sum(v * x for v, x in zip(mk, problem._xi))])
        total = [sum(col) for col in zip(*moves)]
        dv = problem._md * shift.den * problem._xd
        target = [a * dv + b * tden for a, b in zip(target, total)]
    cols = []
    for i, (ints, rden) in support:
        if shift is not None and i >= nfixed:
            ints = [a * dv - b * rden for a, b in zip(ints, moves[i - nfixed])]
        cols.append(ints)
    sol = _reference_unique_solution([col[:n] for col in cols], target[:n])
    if sol is None:
        return False
    nums, uden = sol
    if any(u < 0 for u in nums):
        return False
    sums = [sum(u * col[j] for u, col in zip(nums, cols)) for j in range(n + 1)]
    return (all(sums[j] == uden * target[j] for j in range(n))
            and sums[n] <= uden * target[n])


def _dependent_support(region):
    """A fixed-row support whose two rows are parallel: rank 1 of 2."""
    ints, den = integer_row((*region.fixed[0][0], region.fixed[0][2]))
    return _Support(((0, (ints, den)), (1, ([2 * v for v in ints], den))),
                    True)


def test_once_eliminated_certificates_match_a_fresh_solve():
    # each kept support answers every shift as today's per-call solve does:
    # fixed-row supports from their once-built system, cone-row ones from a
    # system built under the shift
    rng = random.Random(0)
    seen = {"empty": 0, "0<k<n": 0, "dependent": 0, "cone row": 0}
    outcomes = set()
    cases = [(ABS_ON_1_2, qv(Q(3, 2)))]
    cases += [random_instance(rng, ("generic", "descent", "span")[i % 3])
              for i in range(24)]
    for inst, xbar in cases:
        problem = Domination(inst, xbar)
        shifts = [_random_matrix(rng, inst.p, inst.n, r)
                  for r in (Q(1, 1000), Q(1, 10), Q(1), Q(10)) for _ in range(4)]
        extra = []
        for shift in chain([None], shifts):
            problem.point(shift)
            if not extra and problem._regions and problem._regions[0].obj:
                extra.append((problem._regions[0],
                              _dependent_support(problem._regions[0])))
            lift = None if shift is None else problem._lift(shift)
            kept = [(region, support) for region in problem._regions
                    for support in region.supports]
            for region, support in kept + extra:
                got = problem._certified(region, support, shift, lift)
                assert got == _reference_certified(problem, region, support,
                                                   shift)
                outcomes.add(got)
                rows = [i for i, _ in support]
                seen["empty"] += not rows
                seen["0<k<n"] += 0 < len(rows) < inst.n
                seen["dependent"] += support.system is not None and \
                    support.system.e is None
                seen["cone row"] += any(i >= len(region.fixed) for i in rows)
    assert outcomes == {True, False}
    assert all(seen.values()), seen


def test_eliminator_identity_and_its_substitution_check(monkeypatch):
    # E A = [diag(d); 0] with d > 0, E invertible; dependent columns give None
    cols = [(2, 0, -3), (4, 1, 5)]
    e, d = eliminator(cols, 3)
    assert len(e) == 3 and len(d) == 2 and min(d) > 0
    for i, row in enumerate(e):
        assert [sum(a * c[j] for j, a in enumerate(row)) for c in cols] == \
            [d[i] if i == c else 0 for c in range(2)]
    assert eliminator([(1, 2), (-2, -4)], 2) is None
    assert eliminator([(1, 0), (0, 1), (1, 1)], 2) is None
    assert eliminator([], 2) == ([[1, 0], [0, 1]], [])
    # a wrong reduction fails the one-time check loudly, also under -O
    solve = rationals._gauss_jordan

    def corrupt(rows):
        rank, pivots, rows = solve(rows)
        rows[0][-1] += 1
        return rank, pivots, rows

    monkeypatch.setattr(rationals, "_gauss_jordan", corrupt)
    with pytest.raises(ConsistencyError):
        eliminator(cols, 3)


def test_domination_refuses_quadratic_objectives():
    quad = VOPInstance((smooth(qp([[1]], [0])), smooth(af([1]))),
                       WHOLE_LINE, ORTHANT2, 1)
    with pytest.raises(CapabilityError):
        Domination(quad, qv(0))


def test_perturbed_instance_values():
    c = PerturbationMatrix((qv(Q(1, 20)), qv(0)))
    pert = perturbed_instance(EX_INSTANCE, c)
    y = qv(-1)
    assert eval_components(pert.objectives, y) == (Q(-1, 20), Q(0))
    assert eval_components(pert.objectives, qv(0)) == (0, 0)


def test_example_point_refuted_by_first_pattern():
    rep = robust_oracle(EX_INSTANCE, qv(0), Q(1, 10), budget=0)
    assert rep.refuted and rep.outcome == REFUTED
    assert rep.exact and rep.note is None
    assert rep.samples_tried == 0 and rep.patterns_tried == 2
    assert rep.matrix.frobenius_sq() > 0
    assert rep.matrix.in_ball(Q(1, 10))
    assert rep.witness == qv(-1)
    _assert_dominates(EX_INSTANCE, rep.matrix, qv(0), rep.witness)


def test_example_point_refuted_at_every_radius():
    for r in (Q(1, 10), Q(1, 100), Q(1, 1000)):
        rep = robust_oracle(EX_INSTANCE, qv(0), r, budget=0)
        assert rep.refuted and rep.matrix.in_ball(r)
        _assert_dominates(EX_INSTANCE, rep.matrix, qv(0), rep.witness)


def test_zero_only_run_on_efficient_point():
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))), UNIT_01, ORTHANT2, 1)
    rep = robust_oracle(inst, qv(Q(1, 2)), Q(1, 10), budget=0, patterns=False)
    assert rep.outcome == NO_COUNTEREXAMPLE
    assert rep.patterns_tried == 1 and rep.samples_tried == 0


def test_common_descent_refuted_within_patterns():
    inst = VOPInstance((smooth(af([1, 0])), smooth(af([0, 1]))),
                       PolyhedralSet((), ()), ORTHANT2, 2)
    assert certify(inst, qv(0, 0)).status == NOT_ROBUST_CERTIFIED
    rep = robust_oracle(inst, qv(0, 0), Q(1, 1000), budget=0)
    assert rep.refuted and rep.samples_tried == 0
    _assert_dominates(inst, rep.matrix, qv(0, 0), rep.witness)


def test_robust_instance_survives_full_budget():
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))), WHOLE_LINE,
                       ORTHANT2, 1)
    rep = robust_oracle(inst, qv(0), Q(1, 1000), budget=300, seed=5)
    assert rep.outcome == NO_COUNTEREXAMPLE
    assert rep.patterns_tried == 9 and rep.samples_tried == 300


def test_reports_are_reproducible():
    a = robust_oracle(EX_INSTANCE, qv(0), Q(1, 10), budget=50, seed=3,
                      patterns=False)
    b = robust_oracle(EX_INSTANCE, qv(0), Q(1, 10), budget=50, seed=3,
                      patterns=False)
    assert a == b and a.refuted and a.samples_tried > 0


def _count_draws(monkeypatch):
    draws = []

    def counted(rng, p, n, r):
        draws.append(None)
        return _random_matrix(rng, p, n, r)

    monkeypatch.setattr(oracle, "_random_matrix", counted)
    return draws


def test_scan_draws_only_the_samples_it_evaluates(monkeypatch):
    draws = _count_draws(monkeypatch)
    rep = robust_oracle(EX_INSTANCE, qv(0), Q(1, 10), budget=50, seed=3)
    assert rep.refuted and rep.samples_tried == 0 and len(draws) == 0
    rep = robust_oracle(EX_INSTANCE, qv(0), Q(1, 10), budget=50, seed=3,
                        patterns=False)
    assert rep.refuted and rep.samples_tried == 2 and len(draws) == 2
    del draws[:]
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))), WHOLE_LINE,
                       ORTHANT2, 1)
    rep = robust_oracle(inst, qv(0), Q(1, 10), budget=40, seed=5)
    assert rep.outcome == NO_COUNTEREXAMPLE and len(draws) == 40


def test_candidate_outside_ball_raises(monkeypatch):
    far = PerturbationMatrix((qv(Q(1, 10)), qv(0)))
    monkeypatch.setattr(oracle, "_random_matrix", lambda rng, p, n, r: far)
    with pytest.raises(ConsistencyError):
        robust_oracle(EX_INSTANCE, qv(0), Q(1, 10), budget=1, patterns=False)


def test_nonaffine_reports_are_suggestive():
    inst = VOPInstance((smooth(qp([[1]], [0])), smooth(af([1]))),
                       WHOLE_LINE, ORTHANT2, 1)
    rep = robust_oracle(inst, qv(0), Q(1, 10), budget=2, seed=0)
    assert not rep.exact and rep.note == "suggestive"


def test_rejects_nonpositive_radius():
    with pytest.raises(InstanceFormatError):
        robust_oracle(EX_INSTANCE, qv(0), 0)


def test_rejects_negative_sample_budget():
    with pytest.raises(InstanceFormatError, match="sample budget"):
        robust_oracle(EX_INSTANCE, qv(0), Q(1, 10), budget=-5)
    with pytest.raises(InstanceFormatError, match="sample budget"):
        radius_estimate(EX_INSTANCE, qv(0), Q(1, 10), budget=-3)


def test_radius_estimate_example_refuted_everywhere():
    est = radius_estimate(EX_INSTANCE, qv(0), Q(1, 10), budget=20)
    assert est.refuted_at == Q(1, 320) and est.clean_below == 0
    assert len(est.trace) == 6
    assert all(out == REFUTED for _, out in est.trace)
    assert est.refuted_at <= min(r for r, _ in est.trace)


def test_radius_estimate_clean_instance():
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))), WHOLE_LINE,
                       ORTHANT2, 1)
    est = radius_estimate(inst, qv(0), Q(1, 100), budget=50)
    assert est.refuted_at is None and est.clean_below == Q(1, 100)
    assert est.trace == ((Q(1, 100), NO_COUNTEREXAMPLE),)


def test_radius_estimate_degenerate_bound():
    est = radius_estimate(EX_INSTANCE, qv(0), 0)
    assert est.refuted_at is None and est.clean_below == 0 and est.trace == ()


def test_radius_estimate_trace_is_monotone():
    # efficient unperturbed, fragile once a coefficient sign can flip
    inst = VOPInstance((smooth(af([1])), smooth(af([-1]))), UNIT_01,
                       ORTHANT2, 1)
    est = radius_estimate(inst, qv(Q(1, 2)), Q(3), budget=10, seed=1)
    clean = [r for r, out in est.trace if out == NO_COUNTEREXAMPLE]
    refuted = [r for r, out in est.trace if out == REFUTED]
    if clean and refuted:
        assert max(clean) < min(refuted)
    if est.refuted_at is not None:
        assert est.clean_below < est.refuted_at


def test_zero_matrix_shape():
    z = zero_matrix(2, 3)
    assert z.rows == (qv(0, 0, 0), qv(0, 0, 0)) and z.frobenius_sq() == 0
