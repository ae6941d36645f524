"""Set-valued gap function over polytopes and its necessary condition.

For a feasible x and a matrix xi whose columns are picked from the component
generalized gradients, the gap set collects xi^T(x - y) over the points y
that are efficient for the linear vector problem max_y xi^T(x - y).  A
robust candidate must admit some xi placing zero in that set.  Zero lies in
it exactly when x itself is efficient for the linear problem: an efficient
y with xi^T y = xi^T x gives x the image of y, so x is efficient too, and
an efficient x is its own such y.  For one matrix that is one exact
efficiency check at x, the shift xi of one `certify.Domination` over the
zero objective (`zero_in_gap`).

`gap_necessary_check` decides the condition over the whole continuum of
matrices.  By Isermann's theorem (Oper. Res. 22(1), 1974), x is efficient
for a linear problem over a polytope with a pointed polyhedral cone K iff
it minimizes lambda^T xi^T y there for some lambda in int K*: up to scale,
lambda = sum_l mu_l d_l over the dual generators d_l with every mu_l >= 1.
Writing lambda_j xi_j = sum_k beta_jk v_jk over the vertices v_jk of the
j-th gradient polytope, every beta_jk of the sign of lambda_j, the
first-order condition at x, sum_jk beta_jk v_jk + sum_i u_i a_i = 0 with
u >= 0 on the active rows a_i, is linear: one LP per sign pattern of
lambda decides it.  The face lattice of the polytope (`enumerate_faces`,
`efficient_faces`) is public for inspection; the check never walks it.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .certify import ConditionReport, Domination, VOPInstance, polyhedral_reduction
from .cones import ConeHRep, dd_generators_from_halfspaces, is_trivial
from .errors import (
    CapabilityError, ConsistencyError, InfeasiblePointError,
    InstanceFormatError,
)
from .funcs import (
    AffinePiece, CONVEX, PieceFn, SMOOTH, SubdiffPolytope,
    clarke_subdiff_component, kconvexity_check,
    polytopes_equal, scalarized_subdiffs, subdiff_contains,
    _minkowski_vertices, _regular_convex_route,
)
from .geometry import (
    FeasibleSet, OrderingCone, PolyhedralSet, feasible_contains,
    polyhedral_active_rows,
)
from .linprog import OPTIMAL, eq, feasible_point, ge, le, lp_solve
from .rationals import Q0, Q1, Vec, lincomb, unit, vdot, vscale, zeros

GAP_NECESSARY = "gap-necessary"

# face enumeration walks row subsets; beyond this many rows the polytope
# is out of desk scale for it
MAX_FACE_ROWS = 16


@dataclass(frozen=True)
class GapQuery:
    """A base point with one scalarization column per objective component."""

    x: Vec
    columns: Tuple[Vec, ...]


def gap_query(components: Sequence[PieceFn], x: Vec,
              columns: Sequence[Vec]) -> GapQuery:
    """Validated query: column j must lie in the j-th generalized gradient."""
    if len(columns) != len(components):
        raise InstanceFormatError("one scalarization column per component")
    for j, (fn, col) in enumerate(zip(components, columns)):
        if len(col) != len(x):
            raise InstanceFormatError(f"column {j} needs {len(x)} entries")
        if not subdiff_contains(clarke_subdiff_component(fn, x), col):
            raise InstanceFormatError(
                f"column {j} is outside the component's generalized gradient")
    return GapQuery(tuple(x), tuple(tuple(c) for c in columns))


@dataclass(frozen=True)
class Face:
    """A nonempty face: the rows it makes tight and the vertices it holds."""

    tight: Tuple[int, ...]
    vertices: Tuple[Vec, ...]

    def barycenter(self) -> Vec:
        k = len(self.vertices)
        acc = lincomb([Fraction(1)] * k, self.vertices, len(self.vertices[0]))
        return vscale(Fraction(1, k), acc)


EfficientFaceList = Tuple[Face, ...]


def polytope_vertices(rows, rhs, n: int) -> Tuple[Vec, ...]:
    """Vertex set via double description of the homogenization cone."""
    hom_rows = [tuple(row) + (-b,) for row, b in zip(rows, rhs)]
    hom_rows.append(tuple(zeros(n)) + (Fraction(-1),))
    gens = dd_generators_from_halfspaces(ConeHRep(n + 1, tuple(hom_rows)))
    verts = []
    for g in gens.generators:
        t = g[n]
        if t == 0:
            # the recession cone was proved {0}, so no recession directions
            raise ConsistencyError("bounded polytope has a recession direction")
        verts.append(tuple(c / t for c in g[:n]))
    return tuple(sorted(set(verts)))


def enumerate_faces(rows, rhs, n: int) -> Tuple[Face, ...]:
    """All nonempty faces, the whole polytope included, deduplicated.

    Every face is the convex hull of the polytope vertices lying on it and
    is cut out by some subset of rows turned tight, so walking row subsets
    and grouping by the resulting vertex set reaches each face once.
    """
    if len(rows) > MAX_FACE_ROWS:
        raise CapabilityError("too many rows for face enumeration")
    verts = polytope_vertices(rows, rhs, n)
    if not verts:
        return ()
    tight_sets = [tuple(i for i, (row, b) in enumerate(zip(rows, rhs))
                        if vdot(row, v) == b) for v in verts]
    seen = {}
    for mask in range(1 << len(rows)):
        sel = [i for i in range(len(rows)) if mask >> i & 1]
        group = tuple(k for k, ts in enumerate(tight_sets)
                      if all(i in ts for i in sel))
        if not group or group in seen:
            continue
        common = set(tight_sets[group[0]])
        for k in group[1:]:
            common &= set(tight_sets[k])
        seen[group] = Face(tuple(sorted(common)),
                           tuple(verts[k] for k in group))
    return tuple(seen.values())


def _bounded_polytope(omega: FeasibleSet, n: int) -> PolyhedralSet:
    """The feasible set as the bounded polytope the gap machinery needs:
    reduced to rows {x : A x <= b}, and bounded.

    Boundedness is decided on the recession cone {d : A d <= 0}, by
    `is_trivial` (a rank test and one boxed LP). Proof. If x is in the set
    and A d <= 0, then x + t d is in it for every t >= 0, so a nonempty
    bounded set has recession cone {0}. If the set is unbounded, take x_k
    in it with |x_k| -> oo; a limit point d of x_k / |x_k| has |d| = 1 and
    A d = lim A x_k / |x_k| <= lim b / |x_k| = 0. So a nonempty set is
    bounded iff its recession cone is {0}. An empty set is bounded, so a
    nonzero recession cone costs one feasibility probe to tell an empty set
    from an unbounded one. Every caller but `efficient_faces` has checked
    a point of the set first.
    """
    reduced = polyhedral_reduction(omega)
    if reduced is None:
        raise CapabilityError("gap machinery needs a polyhedral feasible set")
    rows, rhs = reduced
    if not is_trivial(ConeHRep(n, tuple(rows))) and feasible_point(
            [le(row, b) for row, b in zip(rows, rhs)], n) is not None:
        raise CapabilityError("gap machinery needs a bounded polytope")
    return PolyhedralSet(tuple(rows), tuple(rhs))


def _linear_problem(poly: PolyhedralSet, cone: OrderingCone,
                    xbar: Vec) -> Domination:
    """The linear problems of every matrix xi at xbar: max xi^T(x - y) is
    decided through its mirror y -> xi^T y, the zero objective shifted by
    xi, whose one selection region is the whole space. 0 is in the gap set
    iff xbar is efficient for it (see the module docstring)."""
    n = len(xbar)
    zero = PieceFn(SMOOTH, (AffinePiece(zeros(n), Fraction(0)),))
    return Domination(VOPInstance((zero,) * cone.dim, poly, cone, n), xbar)


def efficient_faces(columns: Sequence[Vec], omega: FeasibleSet,
                    cone: OrderingCone) -> EfficientFaceList:
    """Faces whose relative interior is efficient for the linear problem."""
    n = len(columns[0])
    poly = _bounded_polytope(omega, n)
    # efficiency is constant on the relative interior of a face, so the
    # vertex barycenter decides for the whole face
    return tuple(face for face in enumerate_faces(poly.rows, poly.rhs, n)
                 if _linear_problem(poly, cone, face.barycenter())
                 .point(columns).efficient)


def zero_in_gap(xbar: Vec, columns: Sequence[Vec], omega: FeasibleSet,
                cone: OrderingCone) -> bool:
    """Whether some efficient y for the linear problem has xi^T(xbar-y) = 0,
    that is, whether xbar itself is efficient for it; see _linear_problem.
    """
    if not feasible_contains(omega, xbar):
        raise InfeasiblePointError("gap base point is infeasible")
    poly = _bounded_polytope(omega, len(xbar))
    return _linear_problem(poly, cone, xbar).point(columns).efficient


def scalarization_equality(components: Sequence[PieceFn], xbar: Vec,
                           cone: OrderingCone, seed: int = 0):
    """Probe whether scalarized gradients split as weighted Minkowski sums.

    Returns (established, exact): the convex smooth/max shapes with
    nonnegative dual generators carry the equality structurally; anything
    else is probed on the dual generators plus 20 seeded nonnegative
    combinations, which can refute exactly but confirm only sampled.
    """
    gens = cone.dual_neg_gens.generators
    ones = tuple(Fraction(1) for _ in components)
    if all(all(c >= 0 for c in g) for g in gens) and \
            _regular_convex_route(components, ones):
        return True, True
    rng = random.Random(seed)
    mus = list(gens)
    for _ in range(20):
        weights = [Fraction(rng.randint(0, 8)) for _ in gens]
        if all(w == 0 for w in weights):
            weights[0] = Fraction(1)
        mus.append(lincomb(weights, gens, len(components)))
    n = len(xbar)
    decided_all = True
    for mu, scal in zip(mus, scalarized_subdiffs(mus, components, xbar)):
        if not scal.exact:
            decided_all = False
            continue
        mink = SubdiffPolytope(n, _minkowski_vertices(components, mu, xbar))
        if not polytopes_equal(scal, mink):
            return False, True
    return (True, False) if decided_all else (None, False)


def _sign_choices(gens, vertex_sets):
    """Per component, the signs of lambda_j one LP must be run for: 0 (no
    sign row) for a one-vertex gradient, where beta_j1 = lambda_j; the one
    sign every dual generator's j-th entry allows; otherwise both."""
    choices = []
    for j, verts in enumerate(vertex_sets):
        col = [d[j] for d in gens]
        if len(verts) == 1:
            choices.append((0,))
        elif all(c >= 0 for c in col):
            choices.append((1,))
        elif all(c <= 0 for c in col):
            choices.append((-1,))
        else:
            choices.append((1, -1))
    return choices


def _scalarization_lp(gens, vertex_sets, normals, signs, n: int):
    """Relations over (mu, beta, u) for one sign pattern: mu >= 1,
    sum_k beta_jk = lambda_j = sum_l mu_l d_lj, s_j beta_jk >= 0,
    sum_jk beta_jk v_jk + sum_i u_i a_i = 0 and u >= 0. Every bound is a
    row, so a Farkas vector covers them all."""
    nmu, nbeta = len(gens), sum(map(len, vertex_sets))
    nvar = nmu + nbeta + len(normals)
    rels = [ge(unit(nvar, l), Q1) for l in range(nmu)]
    at = nmu
    for j, (verts, s) in enumerate(zip(vertex_sets, signs)):
        row = [-d[j] for d in gens] + [Q0] * (nvar - nmu)
        row[at:at + len(verts)] = [Q1] * len(verts)
        rels.append(eq(row, Q0))
        if s:
            rels.extend(ge(unit(nvar, at + k, s), Q0)
                        for k in range(len(verts)))
        at += len(verts)
    rels.extend(ge(unit(nvar, at + i), Q0) for i in range(len(normals)))
    vertices = [v for verts in vertex_sets for v in verts]
    for i in range(n):
        rels.append(eq([Q0] * nmu + [v[i] for v in vertices]
                       + [a[i] for a in normals], Q0))
    return rels, nvar


def _scalarization(gens, vertex_sets, x, n: int):
    """The matrix of a feasible point: xi_j = sum_k beta_jk v_jk / lambda_j,
    or the first vertex where lambda_j = 0, so that xi_j drops out of
    lambda^T xi^T."""
    lam = lincomb(x[:len(gens)], gens, len(vertex_sets))
    at, xi = len(gens), []
    for lam_j, verts in zip(lam, vertex_sets):
        beta = x[at:at + len(verts)]
        at += len(verts)
        xi.append(verts[0] if lam_j == 0 else
                  vscale(Q1 / lam_j, lincomb(beta, verts, n)))
    return tuple(xi)


def gap_necessary_check(inst: VOPInstance, xbar: Vec, seed: int = 0,
                        samples: int = 100) -> ConditionReport:
    """Decide whether some matrix xi, xi_j in the j-th generalized gradient,
    places zero in the gap set, by one exact LP per sign pattern of lambda.

    holds=True comes with a witness matrix re-checked twice (`gap_query`,
    and efficiency of xbar for its linear problem); a failed re-check
    raises ConsistencyError. holds=False, always exact, rests on the
    Farkas vectors that lp_solve checks by substitution: no sign pattern's
    LP is feasible, so by Isermann's theorem no matrix works. Either
    answer holds regardless of the regularity hypotheses, which only
    control whether failure refutes robustness. seed drives the hypothesis
    probes; samples is ignored and kept only so that existing callers
    keep working: the LP covers the whole matrix continuum, so nothing is
    sampled.
    """
    if not feasible_contains(inst.feasible, xbar):
        raise InfeasiblePointError("candidate point is infeasible")
    poly = _bounded_polytope(inst.feasible, inst.n)

    if all(fn.kind == SMOOTH for fn in inst.objectives):
        regular = True
    else:
        conv = kconvexity_check(inst.objectives,
                                inst.cone.dual_neg_gens.generators,
                                inst.n, seed=seed)
        regular = True if conv.status == CONVEX else None
    eq3, eq3_exact = scalarization_equality(inst.objectives, xbar, inst.cone,
                                            seed=seed)
    hyp_note = (f"regularity={_word(regular)}; "
                f"scalarization-equality={_word(eq3)}"
                + ("" if eq3_exact else " (sampled)"))

    gens = inst.cone.dual_neg_gens.generators
    vertex_sets = [clarke_subdiff_component(fn, xbar).vertices
                   for fn in inst.objectives]
    normals = [poly.rows[i] for i in polyhedral_active_rows(poly, xbar)]
    choices = _sign_choices(gens, vertex_sets)
    total = math.prod(map(len, choices))
    for k, signs in enumerate(itertools.product(*choices), 1):
        rels, nvar = _scalarization_lp(gens, vertex_sets, normals, signs,
                                       inst.n)
        res = lp_solve(zeros(nvar), rels)
        if res.status != OPTIMAL:
            continue
        xi = _scalarization(gens, vertex_sets, res.x, inst.n)
        try:
            gap_query(inst.objectives, xbar, xi)
        except InstanceFormatError as exc:
            raise ConsistencyError(
                f"gap witness failed re-check: {exc}") from exc
        if not _linear_problem(poly, inst.cone, xbar).point(xi).efficient:
            raise ConsistencyError(
                "gap witness leaves the candidate dominated")
        return ConditionReport(GAP_NECESSARY, True, witness=xi,
                               note=f"{hyp_note}; scalarization LP feasible "
                                    f"on sign pattern {k} of {total}")
    return ConditionReport(GAP_NECESSARY, False,
                           note=f"{hyp_note}; scalarization LP infeasible on "
                                f"{total} of {total} sign patterns")


def _word(flag: Optional[bool]) -> str:
    if flag is None:
        return "unknown"
    return "established" if flag else "failed"
