"""Ball certificates: the zero matrix's kept dual supports prove a whole
open Frobenius ball, exactly where their affine forms say, and never at a
point that is not robust."""

import math
import random
from fractions import Fraction

import pytest

from helpers import Q, af, maxfn, minfn, qv, random_instance
from vopcert import oracle
from vopcert.certify import (
    NOT_ROBUST_CERTIFIED, ROBUST_CERTIFIED, Domination, VOPInstance, certify,
    efficiency_check,
)
from vopcert.errors import ConsistencyError
from vopcert.geometry import PolyhedralSet, validate_ordering_cone
from vopcert.oracle import (
    NO_COUNTEREXAMPLE, PerturbationMatrix, _random_matrix, perturbed_instance,
    radius_estimate, robust_oracle,
)

MODES = ("generic", "descent", "span")
ORTHANT2 = validate_ordering_cone(2, rows=(qv(-1, 0), qv(0, -1)))
ABS_PAIR = VOPInstance((maxfn(af([1, 0]), af([-1, 0])),
                        maxfn(af([0, 1]), af([0, -1]))),
                       PolyhedralSet((), ()), ORTHANT2, 2)


def _sqrt_below(x: Fraction) -> Fraction:
    """A positive rational q with q^2 <= x, within 10^-6 relative."""
    scale = 10 ** 6
    return Fraction(math.isqrt(x.numerator * x.denominator * scale * scale),
                    x.denominator * scale)


def _certified_problem(inst, xbar):
    """(problem, certificate) after the zero matrix, or (problem, None)."""
    problem = Domination(inst, xbar)
    if not problem.point().efficient:
        return problem, None
    return problem, problem.ball_certificate()


def _kept(problem, cert):
    """Each remaining region with the support its certificate names."""
    out = []
    for region, (pieces, rows) in zip(problem._regions, cert.regions):
        assert region.pieces == pieces
        (support,) = [s for s in region.supports
                      if tuple(i for i, _ in s) == rows]
        out.append((region, support))
    return out


def _settled_by_certificates(problem, cert, shift):
    lift = problem._lift(shift)
    return all(problem._certified(region, support, shift, lift)
               for region, support in _kept(problem, cert))


def _along(problem, a, lam):
    """The least-norm C with ssum C = -lam a: ssum (-lam a)^T / |ssum|^2."""
    ssum = problem._ssum
    s2 = sum(s * s for s in ssum)
    return PerturbationMatrix(tuple(tuple(-lam * si * x / s2 for x in a)
                                    for si in ssum))


def _seeded_certified(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        inst, xbar = random_instance(rng, MODES[i % 3])
        problem, cert = _certified_problem(inst, xbar)
        if cert is not None:
            yield inst, xbar, problem, cert


def test_certificate_holds_inside_the_ball_and_is_tight():
    # random C at several fractions of the proven radius: every region is
    # settled by its certificate support and x stays efficient; along the
    # worst direction of each form the support fails just past the form's
    # own bound, and holds just inside it when that bound is the ball's
    rng = random.Random(404)
    covered = tight = binding = 0
    cases = [(ABS_PAIR, qv(0, 0), *_certified_problem(ABS_PAIR, qv(0, 0)))]
    cases += list(_seeded_certified(2026, 90))
    for inst, xbar, problem, cert in cases:
        covered += 1
        assert cert.radius_sq > 0
        for frac in (Q(1, 10), Q(1, 2), Q(9, 10), Q(999, 1000)):
            r = _sqrt_below(cert.radius_sq * frac * frac)
            for _ in range(3):
                shift = _random_matrix(rng, inst.p, inst.n, r)
                assert cert.covers(r) and shift.in_ball(r)
                assert _settled_by_certificates(problem, cert, shift)
                assert efficiency_check(perturbed_instance(inst, shift),
                                        xbar).efficient
        ssum2 = sum(s * s for s in problem._ssum)
        for region, support in _kept(problem, cert):
            for g0, a in problem._settling_forms(region, support):
                a2 = sum(x * x for x in a)
                if not a2:
                    continue
                edge = Fraction(g0, a2)     # g0 - lam |a|^2 = 0
                outside = _along(problem, a, edge * Q(1001, 1000))
                assert not problem._certified(region, support, outside,
                                              problem._lift(outside))
                tight += 1
                # |C|_F^2 = lam^2 |a|^2 / |ssum|^2 at the edge
                if edge * edge * a2 / ssum2 == cert.radius_sq:
                    inside = _along(problem, a, edge * Q(999, 1000))
                    assert inside.frobenius_sq() < cert.radius_sq
                    assert _settled_by_certificates(problem, cert, inside)
                    assert efficiency_check(perturbed_instance(inst, inside),
                                            xbar).efficient
                    binding += 1
    assert covered >= 25 and tight >= 3 * covered and binding >= covered


def _reference_radius_sq(problem):
    """The least over regions of the largest over kept supports of the
    least g0^2 / (|ssum|^2 |a|^2) over its forms, in Fractions; a support
    with a form negative at C = 0 proves nothing."""
    ssum2 = sum(s * s for s in problem._ssum)
    least = None
    for region in problem._regions:
        proven = [Fraction(0)]
        for support in region.supports:
            forms = problem._settling_forms(region, support)
            if forms is None or min(g0 for g0, _ in forms) < 0:
                continue
            proven.append(min(Fraction(g0 * g0)
                              / (ssum2 * sum(x * x for x in a))
                              for g0, a in forms if any(a)))
        least = max(proven) if least is None else min(least, max(proven))
    return least


def test_long_lived_problem_proves_a_sound_ball():
    # a Domination that decided other shifts first keeps several supports
    # per region, some of which do not settle C = 0; the certificate takes
    # the best one that does, and its ball is still robust
    rng = random.Random(31)
    seen = {"covered": 0, "several": 0, "unsettled at 0": 0}
    for i in range(90):
        inst, xbar = random_instance(rng, MODES[i % 3])
        problem = Domination(inst, xbar)
        for r in (Q(2), Q(1, 2), Q(1, 10)) * 2:
            problem.point(_random_matrix(rng, inst.p, inst.n, r))
        if not problem.point().efficient:
            continue
        cert = problem.ball_certificate()
        assert (cert.radius_sq if cert else 0) == _reference_radius_sq(problem)
        for region in problem._regions:
            seen["several"] += len(region.supports) > 1
            for support in region.supports:
                forms = problem._settling_forms(region, support)
                seen["unsettled at 0"] += bool(forms) and \
                    min(g0 for g0, _ in forms) < 0
        if cert is None:
            continue
        seen["covered"] += 1
        r = _sqrt_below(cert.radius_sq * Q(999, 1000) ** 2)
        for _ in range(4):
            shift = _random_matrix(rng, inst.p, inst.n, r)
            assert _settled_by_certificates(problem, cert, shift)
            assert efficiency_check(perturbed_instance(inst, shift),
                                    xbar).efficient
    assert seen["covered"] >= 20 and seen["several"] >= 20
    assert seen["unsettled at 0"] >= 8


def test_second_preimage_off_the_support_vertex_refuses_the_ball():
    # f = (tent, tent) with f(5) = f(1) = (0, 0): each region is settled at
    # C = 0 by one fixed row, x >= 1 and x <= 5, and the dual forms of
    # both stay positive near C = 0. Only the weak-duality bound of the far
    # region, 0 at C = 0 and moving with C, shows that a shift can make
    # y = 5 dominate; the oracle finds one
    tent = minfn(af([1], -1), af([-1], 5))
    inst = VOPInstance((tent, tent), PolyhedralSet((qv(1), qv(-1)), qv(5, -1)),
                       ORTHANT2, 1)
    problem = Domination(inst, qv(1))
    assert problem.point().efficient
    (near,), (far,) = [[problem._settling_forms(region, support)
                        for support in region.supports]
                       for region in problem._regions]
    assert near[-1] == (0, [0]) and far[0][0] > 0
    assert far[-1][0] == 0 and any(far[-1][1])
    assert problem.ball_certificate() is None
    rep = robust_oracle(inst, qv(1), Q(1, 1000), budget=50)
    assert rep.refuted and rep.witness == qv(5) and rep.certificate is None


def _scan_only(monkeypatch, inst, xbar, r, budget, seed, patterns=True):
    """The oracle with the ball certificate withheld, so that every
    candidate of its scan is decided."""
    with monkeypatch.context() as m:
        m.setattr(Domination, "ball_certificate", lambda problem: None)
        return robust_oracle(inst, xbar, r, budget=budget, seed=seed,
                             patterns=patterns)


def test_no_refuted_point_is_covered_and_the_scan_agrees(monkeypatch):
    # seeds 7-16: a NotRobust point never gets a certificate, and below a
    # certificate's radius the scan never refutes while the oracle returns
    # the proof without a sample
    statuses = {NOT_ROBUST_CERTIFIED: 0, ROBUST_CERTIFIED: 0, "covered": 0}
    for seed in range(7, 17):
        rng = random.Random(seed)
        for i in range(30):
            inst, xbar = random_instance(rng, MODES[i % 3])
            status = certify(inst, xbar).status
            _, cert = _certified_problem(inst, xbar)
            statuses[status] = statuses.get(status, 0) + 1
            if cert is None:
                continue
            assert status != NOT_ROBUST_CERTIFIED
            statuses["covered"] += 1
            r = _sqrt_below(cert.radius_sq * Q(99, 100) ** 2)
            scan = _scan_only(monkeypatch, inst, xbar, r, 20, seed,
                              i % 2 == 0)
            assert not scan.refuted and scan.samples_tried == 20
            rep = robust_oracle(inst, xbar, r, budget=20, seed=seed)
            assert rep.outcome == NO_COUNTEREXAMPLE and rep.certificate == cert
            assert (rep.patterns_tried, rep.samples_tried) == (1, 0)
    assert statuses[NOT_ROBUST_CERTIFIED] >= 140
    assert statuses["covered"] >= 90


def test_uncovered_radius_scans_as_before(monkeypatch):
    _, cert = _certified_problem(ABS_PAIR, qv(0, 0))
    assert cert.radius_sq == Q(1, 2) and not cert.covers(Q(3, 4))
    rep = robust_oracle(ABS_PAIR, qv(0, 0), Q(3, 4), budget=10, seed=1)
    scan = _scan_only(monkeypatch, ABS_PAIR, qv(0, 0), Q(3, 4), 10, 1)
    assert rep == scan and rep.certificate is None
    assert (rep.patterns_tried, rep.samples_tried) == (33, 10)


def test_radius_levels_inside_the_ball_skip_the_scan(monkeypatch):
    # every level of the bisection lies inside the proven ball: the trace
    # is that of the scans, and no sample is drawn
    draws = []
    original = oracle._random_matrix

    def counted(rng, p, n, r):
        draws.append(r)
        return original(rng, p, n, r)

    monkeypatch.setattr(oracle, "_random_matrix", counted)
    est = radius_estimate(ABS_PAIR, qv(0, 0), Q(1, 10), budget=20)
    assert draws == [] and est.trace == ((Q(1, 10), NO_COUNTEREXAMPLE),)
    with monkeypatch.context() as m:
        m.setattr(Domination, "ball_certificate", lambda problem: None)
        assert radius_estimate(ABS_PAIR, qv(0, 0), Q(1, 10), budget=20) == est
    assert len(draws) == 20


def _bump(k, delta):
    """Mutate dual form k of every support: its g0 or an entry of a."""
    def mutate(forms):
        forms = list(forms)
        g0, a = forms[k]
        forms[k] = (g0 + 1, a) if delta == "g0" else (g0, a[:-1] + [a[-1] + 1])
        return forms
    return mutate


@pytest.mark.parametrize("mutate", [
    _bump(0, "g0"), _bump(1, "g0"), _bump(0, "a"), _bump(1, "a"),
], ids=["g0-first", "g0-last", "a-first", "a-last"])
def test_mutated_forms_raise(monkeypatch, mutate):
    # the dual forms are re-checked against the support's own rows by
    # explicit comparisons, so a wrong one raises ConsistencyError also
    # under -O
    forms = Domination._ball_forms
    monkeypatch.setattr(Domination, "_ball_forms",
                        lambda self, region, support:
                        mutate(forms(self, region, support)))
    problem = Domination(ABS_PAIR, qv(0, 0))
    assert problem.point().efficient
    with pytest.raises(ConsistencyError):
        problem.ball_certificate()


def test_mutated_elimination_raises():
    problem, cert = _certified_problem(ABS_PAIR, qv(0, 0))
    assert cert is not None
    support = problem._regions[0].supports[0]
    support.system.e[0][0] += 1
    with pytest.raises(ConsistencyError):
        problem.ball_certificate()
