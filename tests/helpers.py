"""Shared test utilities: builders, random families, and slope oracles.

The slope oracles work by evaluation only (no gradient calls), so they form
an independent check on the generalized-gradient machinery for piecewise
affine functions.
"""

import itertools
import random
from fractions import Fraction
from typing import List, Optional, Tuple

from fraction_reference import _check_farkas, normalize_relations
from vopcert.certify import VOPInstance, polyhedral_reduction
from vopcert.cones import (
    DD_DIMENSION_CAP, ConeHRep, ConeVRep, dd_generators_from_halfspaces,
    dd_halfspaces_from_generators, hrep_subset,
)
from vopcert.errors import (
    CapabilityError, ConeValidationError, ConsistencyError,
    EmptyInteriorError, NotPointedError, TrivialConeError,
)
from vopcert.funcs import (
    MAX, MIN, SMOOTH, AffinePiece, PieceFn, QuadPiece,
    clarke_subdiff_component,
)
from vopcert.geometry import (
    OrderingCone, PolyhedralSet, g1_cone, g2_cone, validate_ordering_cone,
)
from vopcert.linprog import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, eq, feasible_point, le, lp_solve,
)
from vopcert.rationals import (
    Mat, Q0, Q1, Vec, dedup_rows, invert, is_zero_vec, lincomb, matrix_rank,
    nullspace_basis, primitive, unit, vadd, vdot, vneg, vscale, zeros,
)

Q = Fraction


def af(coeffs, b=0) -> AffinePiece:
    return AffinePiece(tuple(Q(c) for c in coeffs), Q(b))


def qp(h, a, b=0) -> QuadPiece:
    return QuadPiece(tuple(tuple(Q(v) for v in row) for row in h),
                     tuple(Q(c) for c in a), Q(b))


def maxfn(*pieces) -> PieceFn:
    return PieceFn(MAX, tuple(pieces))


def minfn(*pieces) -> PieceFn:
    return PieceFn(MIN, tuple(pieces))


def smooth(piece) -> PieceFn:
    return PieceFn(SMOOTH, (piece,))


def qv(*vals):
    return tuple(Q(v) for v in vals)


# f = (1/2 x^T h x, -x1) on [0, 1]^2 at (1, 0) under the orthant, with the
# asymmetric h = [[0, 2], [0, 0]]: f1 = x1 x2 rises along (0, 1), and h x
# is not its gradient; taken for one, it refutes with witness (0, 1)
ASYMMETRIC_H_DOC = {
    "dims": {"n": 2, "p": 2},
    "objectives": [
        {"kind": "smooth", "pieces": [{"h": [[0, 2], [0, 0]], "a": [0, 0]}]},
        {"kind": "smooth", "pieces": [{"a": [-1, 0]}]},
    ],
    "cone": {"hrep": [[-1, 0], [0, -1]]},
    "feasible": {"type": "polyhedral",
                 "rows": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                 "rhs": [1, 0, 1, 0]},
    "candidate": [1, 0],
}


def support_of(vertices, d) -> Fraction:
    return max(vdot(v, d) for v in vertices)


def stable_quotient(fn, x, d) -> Fraction:
    """(f(x+td)-f(x))/t with t halved until exact; terminates for piecewise
    affine f because the quotient is constant below the first breakpoint."""
    t = Q(1, 2)
    prev = None
    for _ in range(80):
        quot = (fn.value(vadd(x, vscale(t, d))) - fn.value(x)) / t
        if quot == prev:
            return quot
        prev = quot
        t /= 2
    raise AssertionError("difference quotient did not stabilize")


_STAR8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def slope_sweep(fn, x, d) -> Fraction:
    """Largest one-sided slope along d over base points near x.

    For piecewise affine f whose regions around x each contain a star
    direction, this equals the support of the generalized gradient at x in
    direction d. Evaluation-only; used as the independent oracle.
    """
    star = ((1,), (-1,)) if len(x) == 1 else _STAR8
    delta = Q(1, 4)
    prev = None
    for _ in range(60):
        pts = [x] + [vadd(x, vscale(delta, qv(*s))) for s in star]
        vals = sorted(stable_quotient(fn, p, d) for p in pts)
        if vals == prev:
            return vals[-1]
        prev = vals
        delta /= 2
    raise AssertionError("slope sweep did not stabilize")


DIRS16 = tuple(qv(a, b) for a, b in (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
    (2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)))

DIRS24 = DIRS16 + tuple(qv(a, b) for a, b in (
    (3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3), (1, -3), (3, -1)))


def random_cone(rng, p):
    """Pointed full-interior ordering cone from p random integer generators."""
    while True:
        gens = tuple(tuple(Q(rng.randint(-3, 3)) for _ in range(p))
                     for _ in range(p))
        try:
            return validate_ordering_cone(p, generators=gens)
        except ConeValidationError:
            continue


def orthant_containing_cone(rng, p):
    """Random pointed cone that contains the nonnegative orthant.

    Generators form a column-dominant Z-matrix, so the orthant basis vectors
    have nonnegative coordinates in them and every dual generator is
    componentwise nonnegative.
    """
    offs = [[0 if i == j else rng.randint(0, 1) for i in range(p)]
            for j in range(p)]
    gens = []
    for j in range(p):
        col = [Q(-offs[j][i]) for i in range(p)]
        col[j] = Q(sum(offs[j]) + rng.randint(1, 2))
        gens.append(tuple(col))
    return validate_ordering_cone(p, generators=tuple(gens))


def random_box(rng, n):
    """Axis-aligned box -lo <= x <= hi with integer bounds straddling zero.

    Returns the set, its upper corner (a vertex candidate), and the per-axis
    (low, high) bounds as plain ints.
    """
    rows, rhs, bounds = [], [], []
    for i in range(n):
        hi = rng.randint(1, 2)
        lo = rng.randint(1, 2)
        e = [Q(0)] * n
        e[i] = Q(1)
        rows.append(tuple(e))
        rhs.append(Q(hi))
        e = [Q(0)] * n
        e[i] = Q(-1)
        rows.append(tuple(e))
        rhs.append(Q(lo))
        bounds.append((-lo, hi))
    corner = tuple(Q(hi) for _, hi in bounds)
    return PolyhedralSet(tuple(rows), tuple(rhs)), corner, tuple(bounds)


def random_pa_components(rng, n, p, mode="generic"):
    """Piecewise affine components with 1-2 pieces each.

    mode "descent" forces every gradient to ascend along e1 so the candidate
    tends to admit a common descent direction; mode "span" pairs each piece
    with its negation so subdifferentials straddle zero and certifications
    become likely; "generic" draws freely.
    """
    comps = []
    for k in range(p):
        npieces = 2 if mode == "span" else rng.randint(1, 2)
        pieces = []
        for j in range(npieces):
            if mode == "span" and j == 1:
                a = [-c for c in pieces[0].a]
                b = 0
            elif mode == "span":
                a = [rng.randint(-2, 2) for _ in range(n)]
                a[k % n] = rng.choice((-2, -1, 1, 2))  # straddling axis k
                b = 0
            else:
                a = [rng.randint(-2, 2) for _ in range(n)]
                if mode == "descent":
                    a[0] = abs(a[0]) + 1
                b = 0 if j == 0 else rng.randint(-1, 1)
            pieces.append(af(a, b))
        if mode == "span":
            comps.append(maxfn(*pieces))
        else:
            comps.append(maxfn(*pieces) if rng.random() < 0.5
                         else minfn(*pieces))
    return tuple(comps)


def random_instance(rng, mode="generic", nmax=4, pmax=3):
    """Seeded piecewise-affine instance over a box with a feasible candidate.

    Span mode keeps n <= p and an orthant-containing cone so the convexity
    hypotheses can hold and certifications actually occur; the other modes
    draw dimensions and cones freely.
    """
    if mode == "span":
        n = 2
        p = rng.randint(2, min(3, pmax))
        cone = orthant_containing_cone(rng, p)
        xbar = tuple([Q(0)] * n)
    else:
        n = rng.randint(2, nmax)
        p = rng.randint(2, pmax)
        cone = random_cone(rng, p)
    omega, corner, _ = random_box(rng, n)
    if mode != "span":
        xbar = corner if rng.random() < 0.5 else tuple([Q(0)] * n)
    comps = random_pa_components(rng, n, p, mode)
    return VOPInstance(comps, omega, cone, n), xbar


def verify_farkas(relations, n, y) -> bool:
    """Substitution-only re-check of an infeasibility certificate."""
    rows, rhs = normalize_relations(relations, n)
    return _check_farkas(rows, rhs, tuple(y))


def nonascent_containment(components, cone, xbar) -> bool:
    """Componentwise cone is contained in the scalarized cone (invariant)."""
    g2 = g2_cone(components, cone, xbar)
    if not g2.exact:
        return True  # cannot be checked exactly; not a violation
    g1 = g1_cone(components, cone, xbar)
    ok, _ = hrep_subset(g1, g2.hrep)
    return ok


def _vertex_sets(components, xbar):
    return [clarke_subdiff_component(fn, xbar).vertices for fn in components]


def vertex_scalarizations(components, xbar):
    """Every choice of one gradient-polytope vertex per component."""
    return tuple(itertools.product(*_vertex_sets(components, xbar)))


def _sampled_columns(vertex_sets, seed, count):
    """Lazily drawn convex combinations, one column per vertex set."""
    rng = random.Random(seed)
    for _ in range(count):
        cols = []
        for verts in vertex_sets:
            weights = [rng.randint(0, 16) for _ in verts]
            total = sum(weights)
            if total == 0:
                weights[0] = total = 1
            cols.append(tuple(vdot(weights, coords) / total
                              for coords in zip(*verts)))
        yield tuple(cols)


def sampled_scalarizations(components, xbar, seed, count):
    """Seeded random convex combinations inside each gradient polytope."""
    return tuple(_sampled_columns(_vertex_sets(components, xbar), seed, count))


def searched_matrix(components, xbar, linear, seed=0, samples=100):
    """The matrix search the gap check once ran, kept as a reference: the
    vertex matrices, then seeded convex combinations, stopping at the first
    for which xbar is efficient in the linear problem `linear` (a
    `certify.Domination` over the zero objective). None when none works."""
    vertex_sets = _vertex_sets(components, xbar)
    if all(len(verts) == 1 for verts in vertex_sets):
        samples = 0     # the gradient matrix is the only candidate
    for xi in itertools.chain(itertools.product(*vertex_sets),
                              _sampled_columns(vertex_sets, seed, samples)):
        if linear.point(xi).efficient:
            return xi
    return None


def sweep_validate_ordering_cone(dim, rows=None, generators=None):
    """The ordering-cone validation the package once ran, kept as a
    reference: triviality and pointedness by the box probes of
    `reference_cone_is_trivial` (pointedness on the cone doubled by its
    negated rows), and the dual generators from a third double description
    even for a V-rep."""
    if rows is None and generators is None:
        raise ValueError("need an H-rep or a V-rep")
    if rows is None:
        vrep0 = ConeVRep(dim, dedup_rows(generators))
        hrep = dd_halfspaces_from_generators(vrep0)
    else:
        hrep = ConeHRep(dim, dedup_rows(rows))
    vrep = dd_generators_from_halfspaces(hrep)

    trivial, _ = reference_cone_is_trivial(hrep)
    if trivial:
        raise TrivialConeError("ordering cone is {0}")
    doubled = ConeHRep(dim, hrep.rows + tuple(vneg(r) for r in hrep.rows))
    line_free, witness = reference_cone_is_trivial(doubled)
    if not line_free:
        raise NotPointedError("ordering cone contains a line", witness)
    # nonempty interior: rows x <= -1 feasible (scaling); Farkas on failure
    res = lp_solve(zeros(dim), [le(r, Fraction(-1)) for r in hrep.rows])
    if res.status == INFEASIBLE:
        raise EmptyInteriorError("ordering cone has empty interior", res.farkas)

    polar = dd_generators_from_halfspaces(ConeHRep(dim, vrep.generators))
    dual_gens = tuple(sorted(vneg(g) for g in polar.generators))
    sample = lincomb([Q1] * len(dual_gens), dual_gens, dim)
    if any(vdot(sample, v) <= 0 for v in vrep.generators):
        raise ConsistencyError("dual sample not strictly positive on the cone")
    return OrderingCone(dim, hrep, vrep, ConeVRep(dim, dual_gens), sample)


def sweep_bounded_polytope(omega, n: int) -> PolyhedralSet:
    """The boundedness test the gap machinery once ran, kept as a
    reference: the feasible set reduced to rows, and bounded in every
    coordinate direction (2n LPs). An empty set makes every LP infeasible,
    so it passes."""
    reduced = polyhedral_reduction(omega)
    if reduced is None:
        raise CapabilityError("gap machinery needs a polyhedral feasible set")
    rows, rhs = reduced
    rels = [le(row, b) for row, b in zip(rows, rhs)]
    for i in range(n):
        for sign in (1, -1):
            if lp_solve(unit(n, i, sign), rels).status == UNBOUNDED:
                raise CapabilityError("gap machinery needs a bounded polytope")
    return PolyhedralSet(tuple(rows), tuple(rhs))


# ---------------------------------------------------------------------------
# The cone decisions the package once made, kept as references: triviality
# by 2n box probes, inclusion by one boxed LP per outer row (listed or not),
# and double description with adjacency decided by exact rank.

def reference_box(n: int):
    """The rows -1 <= d_j <= 1 of the unit box, coordinate by coordinate."""
    return [le(unit(n, j, sign), Q1) for j in range(n) for sign in (1, -1)]


def reference_cone_is_trivial(cone: ConeHRep) -> Tuple[bool, Optional[Vec]]:
    """Is {d : rows d <= 0} equal to {0}?

    For each coordinate k and sign s the box system
    {rows d <= 0, s*d_k = 1, -1 <= d_j <= 1} is probed; the cone is trivial
    iff all 2n probes are infeasible. A feasible probe point is the witness.
    An empty row list describes the whole space: witness e_1.
    """
    n = cone.dim
    rows = dedup_rows(cone.rows)
    if not rows:
        return False, unit(n, 0)
    base = [le(r, Q0) for r in rows]
    box = reference_box(n)
    for k in range(n):
        for s in (1, -1):
            rels = base + [eq(unit(n, k), Fraction(s))] + box
            x = feasible_point(rels, n)
            if x is not None:
                return False, x
    return True, None


def reference_adjacent(p: Vec, m: Vec, processed: List[Vec], dim: int) -> bool:
    tight = [r for r in processed if vdot(r, p) == 0 and vdot(r, m) == 0]
    if len(tight) < dim - 2:
        return False
    return matrix_rank(tight) == dim - 2


def reference_dd_pointed(rows: Mat, dim: int) -> Mat:
    """Extreme rays of a pointed cone {d : rows d <= 0} with rank(rows) = dim."""
    # deterministic choice of an initial nonsingular row basis
    chosen: List[int] = []
    acc: List[Vec] = []
    for i, r in enumerate(rows):
        if matrix_rank(acc + [r]) > len(acc):
            acc.append(r)
            chosen.append(i)
            if len(acc) == dim:
                break
    binv = invert(acc)
    gens = [primitive(tuple(-binv[i][k] for i in range(dim))) for k in range(dim)]
    processed = list(acc)
    for i, row in enumerate(rows):
        if i in chosen:
            continue
        vals = [vdot(row, g) for g in gens]
        plus = [g for g, v in zip(gens, vals) if v > 0]
        zero = [g for g, v in zip(gens, vals) if v == 0]
        minus = [g for g, v in zip(gens, vals) if v < 0]
        if not plus:
            processed.append(row)
            continue
        new = list(zero) + list(minus)
        for gp in plus:
            sp = vdot(row, gp)
            for gm in minus:
                if not reference_adjacent(gp, gm, processed, dim):
                    continue
                sm = vdot(row, gm)
                w = primitive(tuple(sp * b - sm * a for a, b in zip(gp, gm)))
                if not is_zero_vec(w):
                    new.append(w)
        seen = set()
        gens = []
        for g in new:
            if g not in seen:
                seen.add(g)
                gens.append(g)
        processed.append(row)
    return tuple(gens)


def reference_dd(rows: Mat, dim: int) -> Mat:
    """Extreme rays (plus lineality pairs) of {d : rows d <= 0}."""
    if dim > DD_DIMENSION_CAP:
        raise CapabilityError(
            f"double description capped at ambient dimension {DD_DIMENSION_CAP}; "
            f"got {dim} (sampling-only checks remain available)")
    rows = dedup_rows(rows)
    if not rows:
        out = []
        for k in range(dim):
            out.append(unit(dim, k))
            out.append(unit(dim, k, -1))
        return tuple(out)
    lin = nullspace_basis(rows, dim)
    work = list(rows)
    for l in lin:
        lp = primitive(l)
        work.append(lp)
        work.append(vneg(lp))
    pointed = reference_dd_pointed(dedup_rows(tuple(work)), dim)
    out = list(pointed)
    for l in lin:
        lp = primitive(l)
        out.append(lp)
        out.append(primitive(vneg(lp)))
    return tuple(sorted(set(out)))


def reference_hrep_subset(inner: ConeHRep, outer: ConeHRep) -> Tuple[bool, Optional[Vec]]:
    """Is {inner} a subset of {outer}? Witness lies in inner but not outer.

    Pure LP route: for each outer row, maximize its value over the inner
    cone boxed to [-1,1]^n; any positive optimum separates.
    """
    n = inner.dim
    rels = [le(r, Q0) for r in dedup_rows(inner.rows)] + reference_box(n)
    for row in dedup_rows(outer.rows):
        res = lp_solve(row, rels)
        if res.status != OPTIMAL:  # boxed and contains 0
            raise ConsistencyError("boxed subset probe is not optimal")
        if res.value > 0:
            return False, res.x
    return True, None
