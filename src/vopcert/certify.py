"""Certification core: exact efficiency and robustness condition checks.

The verdict logic is deliberately one-directional. A violated necessary
condition refutes robustness with a re-checkable direction witness; a
sufficient condition certifies robustness only when every hypothesis it
needs (convex feasible set, cone-convex objective, exact cones) has been
established, never merely assumed. Anything else is Inconclusive and points
at the sampling oracle.

Every intersection-form condition is recomputed in its dual span form
through a double-description round trip, and the two verdicts must agree
exactly; a mismatch raises ConsistencyError because it can only be a bug.

Efficiency is one `Domination` problem per (instance, candidate), decided
for f + C x: unshifted by `efficiency_check`, per perturbation C by the
oracle, per scalarization matrix by the gap check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .cones import (
    ConeHRep, cone_is_trivial, dd_generators_from_halfspaces,
    dd_halfspaces_from_generators, is_trivial,
)
from .errors import (
    CapabilityError, ConsistencyError, InfeasiblePointError,
    InstanceFormatError,
)
from .funcs import (
    CONVEX, NOT_CONVEX, PieceFn, _all_affine,
    clarke_subdiff_component, eval_components, full_dim_selections,
    kconvexity_check,
)
from .geometry import (
    ConicBlockSet, DISCRETIZATION_NOTE, DiscretizedSet, FeasibleSet,
    G2Result, NormalCone, OrderingCone, PolyhedralSet, TangentCone,
    cones_coincide, feasible_contains, g1_cone, g2_cone, polar_normal,
    tangent_cone,
)
from .linprog import INFEASIBLE, OPTIMAL, le, lp_solve
from .rationals import (
    Mat, Q1, Vec, eliminator, integer_row, is_zero_vec, lincomb, mat_vec,
    vadd, vdot, vneg, vscale, vsub,
)

ROBUST_CERTIFIED = "RobustCertified"
NOT_ROBUST_CERTIFIED = "NotRobustCertified"
INCONCLUSIVE = "Inconclusive"

NECESSARY_INTERSECTION = "necessary-intersection"
NECESSARY_SPAN = "necessary-span"
SUFFICIENT_INTERSECTION = "sufficient-intersection"
SUFFICIENT_SPAN = "sufficient-span"
CONES_COINCIDE = "nonascent-cones-coincide"
CONIC_GATE = "conic-gate"
DISCRETIZED = "discretized"


@dataclass(frozen=True)
class VOPInstance:
    """A vector problem: minimize the objective vector over the feasible set
    with respect to the ordering cone."""

    objectives: Tuple[PieceFn, ...]
    feasible: FeasibleSet
    cone: OrderingCone
    n: int

    def __post_init__(self):
        if len(self.objectives) < 2:
            raise InstanceFormatError("need at least two objective components")
        if self.cone.dim != len(self.objectives):
            raise InstanceFormatError("ordering cone dimension != objective count")
        for fn in self.objectives:
            for piece in fn.pieces:
                if len(piece.a) != self.n:
                    raise InstanceFormatError("objective piece arity != n")
        if isinstance(self.feasible, PolyhedralSet):
            for r in self.feasible.rows:
                if len(r) != self.n:
                    raise InstanceFormatError("feasible row arity != n")

    @property
    def p(self) -> int:
        return len(self.objectives)


@dataclass(frozen=True)
class EfficiencyResult:
    efficient: bool
    witness: Optional[Vec] = None   # dominating feasible point when not efficient
    exact: bool = True


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: Optional[bool]           # None = Unknown
    witness: Optional[Vec] = None
    exact: bool = True
    note: Optional[str] = None


@dataclass(frozen=True)
class Verdict:
    status: str
    applied_rule: Optional[str]
    hypotheses: Dict[str, Optional[bool]]
    reports: Tuple[ConditionReport, ...]
    oracle_referral: bool
    witness: Optional[Vec] = None
    stamps: Tuple[str, ...] = ()
    # the cones the verdict was decided on, reused by report_document
    _analysis: Optional[_Analysis] = field(default=None, compare=False,
                                           repr=False)


# ---------------------------------------------------------------------------
# feasible-set reduction

def polyhedral_reduction(omega: FeasibleSet) -> Optional[Tuple[Tuple[Vec, ...], Vec]]:
    """(rows, rhs) with the set equal to {x : rows x <= rhs}, or None."""
    if isinstance(omega, PolyhedralSet):
        return omega.rows, omega.rhs
    if isinstance(omega, DiscretizedSet):
        rows = []
        rhs = []
        for c in omega.constraints:
            if is_zero_vec(c.a):  # 0 . x + b <= 0: vacuous or empty
                if c.b > 0:
                    raise InstanceFormatError("discretized family is empty")
                continue
            rows.append(c.a)
            rhs.append(-c.b)
        return tuple(rows), tuple(rhs)
    if isinstance(omega, ConicBlockSet):
        if not all(fn.is_affine() and len(fn.pieces) == 1 for fn in omega.g):
            return None
        rows = []
        rhs = []
        n = len(omega.g[0].pieces[0].a)
        pieces = [fn.pieces[0] for fn in omega.g]
        for lam in omega.q_cone.dual_neg_gens.generators:
            row = lincomb(lam, [p.a for p in pieces], n)
            off = vdot(lam, [p.b for p in pieces])
            if is_zero_vec(row):
                if off > 0:
                    raise InstanceFormatError("conic block is empty")
                continue
            rows.append(row)
            rhs.append(-off)
        return tuple(rows), tuple(rhs)
    return None


# ---------------------------------------------------------------------------
# exact efficiency decision

def _verify_domination(inst: VOPInstance, xbar: Vec, y: Vec,
                       shift: Optional[Mat] = None) -> bool:
    """Whether y dominates xbar for f + C. (C = shift), by substitution."""
    if not feasible_contains(inst.feasible, y):
        return False

    def value(x):   # f(x) + C x
        fx = eval_components(inst.objectives, x)
        return fx if shift is None else vadd(fx, mat_vec(shift, x))
    w = vsub(value(xbar), value(y))
    if is_zero_vec(w):
        return False
    return all(vdot(m, w) <= 0 for m in inst.cone.hrep.rows)


def _grid_efficiency(inst: VOPInstance, xbar: Vec) -> EfficiencyResult:
    """Flagged fallback for shapes outside the exact path: finite probes only."""
    step = Fraction(1, 8) if inst.n <= 2 else Fraction(1, 4)
    span = int(1 / step)
    for ks in itertools.product(range(-span, span + 1), repeat=inst.n):
        y = vadd(xbar, tuple(k * step for k in ks))
        if _verify_domination(inst, xbar, y):
            return EfficiencyResult(False, y, exact=True)
    return EfficiencyResult(True, exact=False)


class PerturbationMatrix:
    """A p x n rational matrix C, added row-wise to the objective as Cx.

    Held as integer numerators `nums` (p rows of n) over one positive
    denominator `den` in lowest terms, the form `integer_row` gives, so two
    matrices are equal exactly when their entries are. `rows`, the entries
    as Fractions, is built on first use and kept.
    """

    __slots__ = ("nums", "den", "_rows")

    def __init__(self, rows: Mat):
        self._rows = tuple(tuple(row) for row in rows)
        flat, self.den = integer_row([v for row in self._rows for v in row])
        entries = iter(flat)
        self.nums = tuple(tuple(next(entries) for _ in row)
                          for row in self._rows)

    @classmethod
    def from_ints(cls, nums, den: int) -> "PerturbationMatrix":
        """The matrix nums / den for integer rows nums and den > 0."""
        g = math.gcd(den, *(k for row in nums for k in row))
        matrix = cls.__new__(cls)
        matrix.nums = tuple(tuple(k // g for k in row) for row in nums)
        matrix.den = den // g
        matrix._rows = None
        return matrix

    @property
    def rows(self) -> Tuple[Vec, ...]:
        if self._rows is None:
            den = self.den
            self._rows = tuple(tuple(Fraction(k, den) for k in row)
                               for row in self.nums)
        return self._rows

    def frobenius_sq(self) -> Fraction:
        return Fraction(sum(k * k for row in self.nums for k in row),
                        self.den * self.den)

    def in_ball(self, r: Fraction) -> bool:
        # strict: the ball of radius r is open, and empty for r <= 0;
        # sum(nums^2) / den^2 < r^2, decided in integers
        rn, rd = r.numerator, r.denominator
        return rn > 0 and (sum(k * k for row in self.nums for k in row)
                           * rd * rd < rn * rn * self.den * self.den)

    def __eq__(self, other):
        if not isinstance(other, PerturbationMatrix):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"PerturbationMatrix(rows={self.rows!r})"


# settling dual supports a region keeps, newest first
KEPT_SUPPORTS = 4


class _DualSystem:
    """The dual system of a support S, A_S u = c on the first n entries of
    its columns, eliminated once by `eliminator`, with the weak-duality
    weights w_i = b_i L / d_i, L = lcm(d)."""

    __slots__ = ("e", "k", "s", "w", "lcm")

    def __init__(self, cols, n: int):
        elim = eliminator(cols, n)
        self.e = None            # dependent columns: never a unique u
        if elim is not None:
            self.e, d = elim
            self.k, self.lcm = len(d), math.lcm(*d)
            self.s = [self.lcm // di for di in d]     # L u_i = s_i e_i
            self.w = [col[n] * si for col, si in zip(cols, self.s)]

    def settles(self, target) -> bool:
        """Whether the unique u with A_S u = target[:n] exists, is >= 0 and
        has u . b_S <= target[n]: with e = E target, u_i = e_i / d_i."""
        if self.e is None:
            return False
        # each row of E has n entries, so zip reads target[:n]
        e = [sum(a * b for a, b in zip(row, target)) for row in self.e]
        k = self.k
        return (not any(e[k:]) and all(x >= 0 for x in e[:k])
                and sum(w * x for w, x in zip(self.w, e))
                <= self.lcm * target[-1])


class _Support:
    """The support of a dual that settled a region. Iterates as (i, (row,
    rhs) for C = 0, as `integer_row` gives them) for each row i where that
    dual is nonzero.

    A support of fixed relations only is the same system under every
    shift; its `_DualSystem` is built on first use and kept in `system`.
    """

    __slots__ = ("rows", "fixed", "system")

    def __init__(self, rows: tuple, fixed: bool):
        self.rows, self.fixed, self.system = rows, fixed, None

    def __iter__(self):
        return iter(self.rows)


@dataclass
class _Region:
    """One full-dimensional selection region of a Domination: its LP for
    C = 0 and what its past solves proved."""

    pieces: Tuple[int, ...]     # the selection: one piece per component
    fixed: list                 # the region's and Omega's relations
    cone_a: Tuple[Vec, ...]     # -M A_s: the cone rows' coefficients
    cone_b: Vec                 # M (b_s - f(xbar)): their right-hand sides
    c: Vec                      # ssum A_s, the objective
    const: Fraction             # ssum (b_s - f(xbar))
    # up to KEPT_SUPPORTS distinct `_Support`s of past settling duals,
    # newest first; and (c, -const) as `integer_row` gives it
    supports: list = field(default_factory=list)
    obj: Optional[tuple] = None

    def settle(self, dual: Vec):
        """Put the support of the dual of an optimum that settled the
        region first among the kept ones."""
        nfixed = len(self.fixed)
        rows = []
        for i, v in enumerate(dual):
            if v:
                if i < nfixed:
                    row, _, rhs = self.fixed[i]
                else:
                    row, rhs = self.cone_a[i - nfixed], self.cone_b[i - nfixed]
                rows.append((i, integer_row((*row, rhs))))
        rows = tuple(rows)
        support = next((s for s in self.supports if s.rows == rows), None)
        if support is None:
            support = _Support(rows, all(i < nfixed for i, _ in rows))
        older = [s for s in self.supports if s is not support]
        self.supports = [support] + older[:KEPT_SUPPORTS - 1]
        self.obj = integer_row((*self.c, -self.const))


@dataclass(frozen=True)
class BallCertificate:
    """A proof that xbar is efficient for f + C. for every C with
    ||C||_F^2 < radius_sq, where radius_sq > 0: for each region that was
    not dropped, its selection pieces and the fixed rows of the kept
    support that settles it on that whole open ball."""

    radius_sq: Fraction
    regions: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]

    def covers(self, r: Fraction) -> bool:
        """Whether the open ball of radius r lies inside the proven one."""
        return r * r <= self.radius_sq


class Domination:
    """Whether xbar is efficient for f + C. with any p x n shift C.

    A shift adds c_i . x to every piece of component i, so the selection
    regions (their closures cover space) do not move with C. Built once:
    the feasibility of xbar, the reduced feasible set, and per
    full-dimensional region its fixed relations, cone rows and objective
    for C = 0. With M the ordering cone's rows and ssum their sum, a shift
    subtracts (M C, M C xbar) from the cone rows and adds their sum to
    (objective, -constant), the same for every region.

    A settled region (its LP optimum shows no domination) keeps the support
    S of that optimum's dual, with up to three earlier distinct ones, and
    tries them newest first. Under a later shift, the unique u with
    A_S(C)^T u = c(C), with u >= 0 and u . b_S(C) + const(C) <= 0, proves
    by weak duality that the region's LP is infeasible or has a value that
    cannot dominate, so the region is settled without an LP; the check
    runs on integer rows, each pair (row, rhs) scaled by a positive factor,
    which moves no sign. A support of fixed relations only has the same
    A_S under every shift: it is eliminated once, on first use, with the
    identity E A_S = [diag(d); 0] checked by substitution then, and each
    later shift costs n + 1 integer dot products. A region whose
    infeasibility a Farkas vector proves from its fixed relations alone is
    empty under every shift and is dropped. Neither shortcut can report a
    domination, so the first dominating region and its LP are those of a
    problem built afresh.

    The same supports can prove a whole ball: see `ball_certificate`.
    """

    def __init__(self, inst: VOPInstance, xbar: Vec):
        if not _all_affine(inst.objectives):
            raise CapabilityError("domination program needs piecewise-affine objectives")
        if not feasible_contains(inst.feasible, xbar):
            raise InfeasiblePointError("candidate point is infeasible")
        reduced = polyhedral_reduction(inst.feasible)
        if reduced is None:
            raise CapabilityError("feasible set has no exact polyhedral reduction")
        self.inst, self.xbar = inst, xbar
        n = inst.n
        omega = [le(row, rhs) for row, rhs in zip(*reduced)]
        fxbar = eval_components(inst.objectives, xbar)
        cone_rows = inst.cone.hrep.rows
        self._neg_cone = tuple(vneg(m) for m in cone_rows)
        self._ssum = lincomb([Q1] * len(cone_rows), cone_rows, inst.p)
        # M = mi / md and xbar = xi / xd in integers
        flat, self._md = integer_row([v for m in cone_rows for v in m])
        self._mi = [flat[k:k + inst.p] for k in range(0, len(flat), inst.p)]
        self._si = [sum(col) for col in zip(*self._mi)]   # ssum = si / md
        self._xi, self._xd = integer_row(xbar)
        self._regions = []
        for sel in full_dim_selections(inst.objectives, n):
            pieces = [fn.pieces[s] for fn, s in zip(inst.objectives, sel.indices)]
            a = [p.a for p in pieces]
            gap = [p.b - fi for p, fi in zip(pieces, fxbar)]
            self._regions.append(_Region(
                sel.indices, [le(row, rhs) for row, rhs in sel.rows] + omega,
                tuple(lincomb(m, a, n) for m in self._neg_cone),
                tuple(vdot(m, gap) for m in cone_rows),
                lincomb(self._ssum, a, n), vdot(self._ssum, gap)))

    def _move(self, mrow, shift: PerturbationMatrix):
        """(m C, m C xbar) for an integer row m over the cone's p entries,
        as integers over md * den * xd, where M = mi / md and C, xbar are
        nums / den and xi / xd."""
        mk = [sum(m * krow[j] for m, krow in zip(mrow, shift.nums))
              for j in range(self.inst.n)]
        return ([v * self._xd for v in mk] +
                [sum(v * x for v, x in zip(mk, self._xi))])

    def _lift(self, shift: PerturbationMatrix):
        """(ssum C, ssum C xbar) and its denominator: what a shift adds to
        every region's (objective, -constant), in integers."""
        return self._move(self._si, shift), self._md * shift.den * self._xd

    def point(self, shift=None) -> EfficiencyResult:
        """Decide f + C. with C = shift, or f itself.

        shift is a PerturbationMatrix or p rows of n rationals, converted
        once here; the certificates read its integer form, and its Fraction
        rows are built only for an LP or a witness re-check.

        On each region, maximize the summed cone violation of
        w = f(xbar) + C xbar - f(y) - C y subject to w in the cone and y in
        the region and feasible; pointedness makes a positive value
        equivalent to domination. A dominating y is re-checked on the
        instance's objectives plus C.
        """
        inst, xbar, n = self.inst, self.xbar, self.inst.n
        if shift is not None:
            if not isinstance(shift, PerturbationMatrix):
                shift = PerturbationMatrix(shift)
            if [len(c) for c in shift.nums] != [n] * inst.p:
                raise InstanceFormatError("shift must have p rows of n entries")
        lift = deltas = None    # built when a region first needs them
        for region in self._regions:
            if region.supports:
                if shift is not None and lift is None:
                    lift = self._lift(shift)
                if any(self._certified(region, support, shift, lift)
                       for support in region.supports):
                    continue
            # cone rows on w = f(xbar) - (A y + b): m.w <= 0; objective
            # sigma(y) = -(sum of cone rows) . w, linear part c, constant const
            cone_a, cone_b = region.cone_a, region.cone_b
            c, const = region.c, region.const
            if shift is not None:
                if deltas is None:   # -M C, M C xbar, ssum C, ssum C xbar
                    rows = shift.rows
                    cx = mat_vec(rows, xbar)
                    deltas = ([lincomb(m, rows, n) for m in self._neg_cone],
                              [vdot(m, cx) for m in inst.cone.hrep.rows],
                              lincomb(self._ssum, rows, n),
                              vdot(self._ssum, cx))
                da, db, dc, dconst = deltas
                cone_a = [vadd(a, d) for a, d in zip(cone_a, da)]
                cone_b = [b - d for b, d in zip(cone_b, db)]
                c, const = vadd(c, dc), const - dconst
            nfixed = len(region.fixed)
            res = lp_solve(c, region.fixed + [le(a, b) for a, b in
                                              zip(cone_a, cone_b)])
            if res.status == INFEASIBLE:
                if is_zero_vec(res.farkas[nfixed:]):
                    # empty region: no shift can make it dominate
                    self._regions = [r for r in self._regions if r is not region]
                continue
            if res.status == OPTIMAL:
                if res.value + const <= 0:
                    region.settle(res.dual)
                    continue
                y = res.x
            else:
                sigma0 = vdot(c, res.x) + const
                rate = vdot(c, res.ray)
                t = Q1 if sigma0 + rate > 0 else (Q1 - sigma0) / rate
                y = vadd(res.x, vscale(t, res.ray))
            if not _verify_domination(inst, xbar, y,
                                      None if shift is None else shift.rows):
                raise ConsistencyError("domination witness failed substitution")
            return EfficiencyResult(False, y)
        return EfficiencyResult(True)

    def _certified(self, region: _Region, support: _Support, shift,
                   lift) -> bool:
        """Whether support, one of the region's, settles it under shift,
        whose `_lift` is lift (both None for no shift).

        Under C the target is (c(C), -const(C)) and each cone row of the
        support moves by (M_i C, M_i C xbar). The unique u with
        sum_i u_i cols_i = target on the first n entries is a dual point
        when u >= 0; weak duality then bounds the LP value plus const by
        u . b_S + const, which is sum_i u_i cols_i[n] - target[n]. A
        support of fixed rows is eliminated once, on first use; one that
        touches a cone row is eliminated under each shift.
        """
        target, tden = region.obj
        if lift is not None:
            total, dv = lift
            target = [a * dv + b * tden for a, b in zip(target, total)]
        system = support.system
        if system is None:
            nfixed = len(region.fixed)
            cols = []
            for i, (ints, rden) in support:
                if lift is not None and i >= nfixed:
                    move = self._move(self._mi[i - nfixed], shift)
                    ints = [a * dv - b * rden for a, b in zip(ints, move)]
                cols.append(ints)
            system = _DualSystem(cols, self.inst.n)
            if support.fixed:
                support.system = system
        return system.settles(target)

    def ball_certificate(self) -> Optional[BallCertificate]:
        """The ball on which the kept supports settle every region, or None.

        Meant for after xbar was found efficient at C = 0, when each region
        that was not dropped keeps the support of its LP's dual. Only a
        support of n fixed rows with a unique dual can serve: its A_S does
        not move with C, and a shift moves the target only by (v, v . xbar)
        with v = ssum C, so each settling condition is an affine form
        g(v) = g0 + a . v (`_settling_forms`). As ||v|| <= ||ssum|| ||C||_F
        and the ball is open, g >= 0 on the ball of radius r iff g0 >= 0
        and g0^2 >= r^2 ||ssum||^2 ||a||^2. A support proves the least such
        bound on r^2 over its forms, a region the largest over its
        supports, and the certificate the least over the regions; None
        when that is not positive or some region has no such support.
        """
        si2 = sum(s * s for s in self._si)      # ||ssum||^2 = si2 / md^2
        if not si2:         # ssum = 0 only for the cone {0}
            return None
        md2 = self._md * self._md
        least, regions = None, []
        for region in self._regions:
            best = None
            for support in region.supports:
                forms = self._settling_forms(region, support)
                if forms is None or any(g0 < 0 for g0, _ in forms):
                    continue
                # the dual forms' a are the rows of an invertible matrix
                r2 = min(Fraction(g0 * g0 * md2, si2 * sum(x * x for x in a))
                         for g0, a in forms if any(a))
                if best is None or r2 > best[0]:
                    best = (r2, support)
            if best is None:
                return None
            regions.append((region.pieces, tuple(i for i, _ in best[1])))
            least = best[0] if least is None else min(least, best[0])
        if not least:
            return None
        return BallCertificate(least, tuple(regions))

    def _settling_forms(self, region: _Region, support: _Support):
        """The conditions under which support settles region at v = ssum C,
        as affine forms (g0, a), each g0 + a . v >= 0 up to a positive
        integer factor, or None for a support that cannot serve.

        The dual forms of `_ball_forms` are first checked against the
        support's own integer rows (A_S their first n entries, b_S the
        last): L u(v) must solve A_S u = t(v)[:n] for every v, an affine
        identity checked on its constant part and on each coordinate; a
        failure raises ConsistencyError. So u(v) is a dual point wherever
        u(v) >= 0, the first n forms. The last is the weak-duality bound
        xd (L t(v)[n] - b_S . L u(v)) >= 0.
        """
        forms = self._ball_forms(region, support)
        if forms is None:
            return None
        n, (t0, tden), lcm = self.inst.n, region.obj, support.system.lcm
        cols = [ints for _, (ints, _) in support]
        u0 = [g0 for g0, _ in forms]
        u1 = list(zip(*(a for _, a in forms)))   # u1[k]: coefficients of v_k

        def through(j, u):      # row j of [A_S; b_S] times u
            return sum(col[j] * ui for col, ui in zip(cols, u))

        if (len(forms) != n
                or any(through(j, u0) != lcm * t0[j] for j in range(n))
                or any(through(j, u1[k]) != lcm * tden * (j == k)
                       for j in range(n) for k in range(n))):
            raise ConsistencyError("ball certificate failed substitution")
        xd = self._xd
        return forms + [(xd * (lcm * t0[n] - through(n, u0)),
                         [lcm * tden * x - xd * through(n, u1[k])
                          for k, x in enumerate(self._xi)])]

    def _ball_forms(self, region: _Region, support: _Support):
        """L u(v), the dual of support under a shift, as n affine forms
        (g0, a) in v = ssum C; None unless support has n fixed rows and a
        unique dual.

        With (t0, tden) = region.obj, the shifted target is
        t(v) = t0 + tden (v, v . xbar), and L u_i(v) = s_i (E t(v))_i.
        """
        n = self.inst.n
        if not support.fixed or len(support.rows) != n:
            return None
        system = support.system
        if system is None:
            system = support.system = _DualSystem(
                [ints for _, (ints, _) in support], n)
        if system.e is None:
            return None
        t0, tden = region.obj
        return [(si * sum(a * b for a, b in zip(row, t0)),
                 [si * tden * a for a in row])
                for si, row in zip(system.s, system.e)]


def efficiency_check(inst: VOPInstance, xbar: Vec) -> EfficiencyResult:
    """Exact efficiency decision for piecewise-affine objectives (the
    unshifted Domination); quadratic pieces fall back to a flagged grid."""
    if _all_affine(inst.objectives):
        return Domination(inst, xbar).point()
    if not feasible_contains(inst.feasible, xbar):
        raise InfeasiblePointError("candidate point is infeasible")
    return _grid_efficiency(inst, xbar)


# ---------------------------------------------------------------------------
# cone conditions

def _span_form(cone: ConeHRep, trivial: bool, branch: str):
    """Dual route: the sum of the generated cone and nothing else fills space
    iff the polar (the cone's rows as halfspaces) is trivial; decided after
    a full double-description round trip so it is a genuinely independent
    path, and it must agree with the intersection form. Returns (verdict,
    note), the note set when double description is out of reach."""
    try:
        gens = dd_generators_from_halfspaces(cone)
        span_ok = is_trivial(dd_halfspaces_from_generators(gens))
    except CapabilityError as exc:
        return None, f"capability: {exc}"
    if span_ok != trivial:
        raise ConsistencyError(f"intersection and span forms disagree ({branch})")
    return span_ok, None


@dataclass(frozen=True)
class _Analysis:
    """The local cones of one (instance, candidate) pair, built once and read
    by the conditions, the hypotheses, reports and describe."""

    inst: VOPInstance
    xbar: Vec
    tangent: TangentCone
    normal: NormalCone
    subdiffs: Tuple[Mat, ...]      # gradient vertices per component
    g1: ConeHRep
    g2: G2Result
    tangent_exact: bool            # exactness the conditions rely on
    stamps: Tuple[str, ...]


def _analyze(inst: VOPInstance, xbar: Vec) -> _Analysis:
    tangent = tangent_cone(inst.feasible, xbar)
    # the sampled family is handled exactly as the polyhedron it is;
    # the whole verdict carries the discretization stamp instead
    sampled = isinstance(inst.feasible, DiscretizedSet)
    return _Analysis(
        inst, xbar, tangent, polar_normal(tangent),
        tuple(clarke_subdiff_component(fn, xbar).vertices
              for fn in inst.objectives),
        g1_cone(inst.objectives, inst.cone, xbar),
        g2_cone(inst.objectives, inst.cone, xbar),
        tangent.exact or sampled, (DISCRETIZATION_NOTE,) if sampled else ())


def _necessary_reports(a: _Analysis):
    if a.tangent.gate is False:
        # surrogate tangent not valid: the branch is reported, not decided
        note = "conic gate failed; necessary branch skipped"
        return (ConditionReport(NECESSARY_INTERSECTION, None, exact=False, note=note),
                ConditionReport(NECESSARY_SPAN, None, exact=False, note=note))
    cone = ConeHRep(a.inst.n, a.g1.rows + a.tangent.cone.rows)
    trivial, witness = cone_is_trivial(cone)
    if trivial:
        inter = ConditionReport(NECESSARY_INTERSECTION, True,
                                exact=a.tangent_exact, note=a.tangent.note)
    else:
        if is_zero_vec(witness) or not cone.contains(witness):
            raise ConsistencyError("necessary witness failed substitution")
        inter = ConditionReport(NECESSARY_INTERSECTION, False, witness)
    span_ok, note = _span_form(cone, trivial, "necessary")
    if note:
        return inter, ConditionReport(NECESSARY_SPAN, None, exact=False, note=note)
    return inter, ConditionReport(NECESSARY_SPAN, span_ok,
                                  None if span_ok else witness)


def _sufficient_reports(a: _Analysis, hypotheses_ok: Optional[bool]):
    cone = ConeHRep(a.inst.n, a.g2.hrep.rows + a.tangent.cone.rows)
    trivial, witness = cone_is_trivial(cone)
    exact = a.g2.exact and a.tangent_exact
    if trivial and hypotheses_ok and exact:
        inter = ConditionReport(SUFFICIENT_INTERSECTION, True)
    elif not trivial:
        # a nonzero direction: the condition itself fails regardless of flags
        inter = ConditionReport(SUFFICIENT_INTERSECTION, False, witness,
                                exact=exact)
    else:
        why = "hypotheses not established" if not hypotheses_ok else \
            "cones not exact"
        inter = ConditionReport(SUFFICIENT_INTERSECTION, None, exact=exact,
                                note=why)
    span_ok, note = _span_form(cone, trivial, "sufficient")
    if note:
        return inter, ConditionReport(SUFFICIENT_SPAN, None, exact=False, note=note)
    if inter.holds is None:
        span = ConditionReport(SUFFICIENT_SPAN, None, exact=exact, note=inter.note)
    else:
        span = ConditionReport(SUFFICIENT_SPAN, span_ok,
                               None if span_ok else witness, exact=exact)
    return inter, span


def check_necessary_intersection(inst: VOPInstance, xbar: Vec) -> ConditionReport:
    inter, _ = _necessary_reports(_analyze(inst, xbar))
    return inter


def check_sufficient_intersection(inst: VOPInstance, xbar: Vec) -> ConditionReport:
    a = _analyze(inst, xbar)
    inter, _ = _sufficient_reports(a, _hypotheses_ok(_hypotheses(a)))
    return inter


def check_span_forms(inst: VOPInstance, xbar: Vec):
    a = _analyze(inst, xbar)
    ok = _hypotheses_ok(_hypotheses(a))
    _, nspan = _necessary_reports(a)
    _, sspan = _sufficient_reports(a, ok)
    return nspan, sspan


_CONVEXITY = {CONVEX: True, NOT_CONVEX: False}   # anything else: unknown


def _hypotheses(a: _Analysis):
    inst = a.inst
    omega_convex = True  # explicit halfspace systems are convex
    if isinstance(inst.feasible, ConicBlockSet):
        conv = a.tangent.map_convexity
        if conv is None:  # the tangent cone's flags stopped before it
            conv = kconvexity_check(
                inst.feasible.g, inst.feasible.q_cone.dual_neg_gens.generators,
                inst.n).status
        omega_convex = _CONVEXITY.get(conv)
    kconv = kconvexity_check(inst.objectives,
                             inst.cone.dual_neg_gens.generators, inst.n)
    return {
        "feasible-set-convex": omega_convex,
        "objective-cone-convex": _CONVEXITY.get(kconv.status),
        CONES_COINCIDE: cones_coincide(a.g1, a.g2),
    }


def _hypotheses_ok(hyp) -> bool:
    return (hyp["feasible-set-convex"] is True
            and hyp["objective-cone-convex"] is True)


def certify(inst: VOPInstance, xbar: Vec) -> Verdict:
    """Decision tree: necessary refutation first, then hypothesis-gated
    sufficiency, otherwise Inconclusive with an oracle referral."""
    if not feasible_contains(inst.feasible, xbar):
        raise InfeasiblePointError("candidate point is infeasible")
    a = _analyze(inst, xbar)
    hyp = _hypotheses(a)
    reports = []
    gate = a.tangent.gate
    if gate is not None:
        reports.append(ConditionReport(
            CONIC_GATE, gate,
            note=None if gate else
            "0 in the support scalarization subdifferential"))
    if isinstance(inst.feasible, DiscretizedSet):
        reports.append(ConditionReport(DISCRETIZED, True, exact=False,
                                       note=DISCRETIZATION_NOTE))
    inter_nec, span_nec = _necessary_reports(a)
    inter_suf, span_suf = _sufficient_reports(a, _hypotheses_ok(hyp))
    reports += [inter_nec, span_nec, inter_suf, span_suf]
    reports.append(ConditionReport(CONES_COINCIDE, hyp[CONES_COINCIDE]))
    reports = tuple(sorted(reports, key=lambda r: r.condition))

    if inter_nec.holds is False:
        # weaker condition failing forces the stronger one to fail too
        if inter_suf.holds is not False:
            raise ConsistencyError("necessary condition fails, sufficient does not")
        return Verdict(NOT_ROBUST_CERTIFIED, NECESSARY_INTERSECTION, hyp,
                       reports, False, inter_nec.witness, a.stamps, a)
    if inter_suf.holds is True:
        return Verdict(ROBUST_CERTIFIED, SUFFICIENT_INTERSECTION, hyp,
                       reports, False, None, a.stamps, a)
    return Verdict(INCONCLUSIVE, None, hyp, reports, True, None, a.stamps, a)
