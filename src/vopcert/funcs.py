"""Piecewise function calculus: values, generalized gradients, convexity.

Supported scalar components are finite max/min families of affine or
quadratic pieces (a single piece is the smooth case). For such functions the
generalized gradient at a point is the convex hull of the active piece
gradients, represented here as an explicit vertex list (possibly redundant;
the meaning is always the hull).

Scalarizations m^T f are exact on three routes (all-smooth, all-affine
pieces via essentially active selections, nonnegative weights over convex
components via the Minkowski sum); anything else degrades to a flagged
outer bound that downstream certification refuses to build on.
Every route scalarizes with one weighted sum, `rationals.lincomb`, of the
gradients it selects. The essentially active selections depend on the
components and the point but not on the weights, so `scalarized_subdiffs`
enumerates them once for a whole list of weights.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import ConsistencyError
from .linprog import OPTIMAL, eq, le, lp_solve, feasible_point
from .rationals import (
    Mat, Q0, Q1, Vec, is_zero_vec, lincomb, mat_vec, psd_witness, unit,
    vadd, vdot, vneg, vscale, vsub,
)


@dataclass(frozen=True)
class AffinePiece:
    a: Vec
    b: Fraction

    def value(self, x) -> Fraction:
        return vdot(self.a, x) + self.b

    def grad(self, x) -> Vec:
        return self.a


@dataclass(frozen=True)
class QuadPiece:
    """value = 1/2 x^T h x + a^T x + b with h symmetric."""

    h: Mat
    a: Vec
    b: Fraction

    def value(self, x) -> Fraction:
        hx = mat_vec(self.h, x)
        return vdot(x, hx) / 2 + vdot(self.a, x) + self.b

    def grad(self, x) -> Vec:
        return vadd(mat_vec(self.h, x), self.a)


Piece = Union[AffinePiece, QuadPiece]

SMOOTH = "smooth"
MAX = "max"
MIN = "min"


@dataclass(frozen=True)
class PieceFn:
    kind: str
    pieces: Tuple[Piece, ...]

    def __post_init__(self):
        if self.kind not in (SMOOTH, MAX, MIN):
            raise ValueError(f"unknown piece kind {self.kind!r}")
        if not self.pieces:
            raise ValueError("a piece function needs at least one piece")
        if self.kind == SMOOTH and len(self.pieces) != 1:
            raise ValueError("smooth functions carry exactly one piece")

    def value(self, x) -> Fraction:
        vals = [p.value(x) for p in self.pieces]
        if self.kind == MIN:
            return min(vals)
        return max(vals)

    def active_indices(self, x) -> Tuple[int, ...]:
        vals = [p.value(x) for p in self.pieces]
        target = min(vals) if self.kind == MIN else max(vals)
        return tuple(i for i, v in enumerate(vals) if v == target)

    def is_affine(self) -> bool:
        return all(isinstance(p, AffinePiece) for p in self.pieces)


def eval_components(components: Sequence[PieceFn], x) -> Vec:
    return tuple(fn.value(x) for fn in components)


@dataclass(frozen=True)
class SubdiffPolytope:
    """conv(vertices); when exact is False, vertices is only an outer bound."""

    dim: int
    vertices: Mat
    exact: bool = True


def clarke_subdiff_component(fn: PieceFn, x) -> SubdiffPolytope:
    """Hull of the active piece gradients (exact for max/min of C1 pieces)."""
    n = len(x)
    grads = [fn.pieces[i].grad(x) for i in fn.active_indices(x)]
    seen = set()
    verts = []
    for g in grads:
        if g not in seen:
            seen.add(g)
            verts.append(g)
    return SubdiffPolytope(n, tuple(verts))


def subdiff_contains(poly: SubdiffPolytope, v: Sequence[Fraction]) -> bool:
    verts = poly.vertices
    if not verts:
        return False
    m = len(verts)
    rels = [eq(tuple(verts[i][j] for i in range(m)), v[j]) for j in range(poly.dim)]
    rels.append(eq((Q1,) * m, Q1))
    return feasible_point(rels, m, nonneg=[True] * m) is not None


def polytopes_equal(p: SubdiffPolytope, q: SubdiffPolytope) -> bool:
    return (all(subdiff_contains(q, v) for v in p.vertices)
            and all(subdiff_contains(p, v) for v in q.vertices))


# ---------------------------------------------------------------------------
# selection machinery (affine pieces)

@dataclass(frozen=True)
class Selection:
    """One piece index per component plus its (affine) agreement region."""

    indices: Tuple[int, ...]
    rows: Tuple[Tuple[Vec, Fraction], ...]  # row.x <= rhs
    point: Vec   # strictly inside the region


def _selection_rows(components, indices) -> Optional[List[Tuple[Vec, Fraction]]]:
    """Region constraints, or None if the selection region is plainly empty."""
    rows: List[Tuple[Vec, Fraction]] = []
    for fn, s in zip(components, indices):
        if len(fn.pieces) == 1:
            continue
        ps = fn.pieces[s]
        for o, po in enumerate(fn.pieces):
            if o == s:
                continue
            if fn.kind == MIN:
                row = vsub(ps.a, po.a)
                rhs = po.b - ps.b
            else:
                row = vsub(po.a, ps.a)
                rhs = ps.b - po.b
            if is_zero_vec(row):
                if rhs < 0:
                    return None
                continue
            rows.append((row, rhs))
    return rows


def _interiority(rows, n):
    """A point maximizing the uniform slack of rows, or None if no slack
    is positive."""
    rels = []
    for row, rhs in rows:
        rels.append(le(tuple(row) + (Q1,), rhs))
    tcol = unit(n + 1, n)
    rels.append(le(tcol, Q1))
    res = lp_solve(tcol, rels)
    if res.status != OPTIMAL:  # t <= 1 bounds the slack, and t can go down
        raise ConsistencyError("interiority program is not optimal")
    if res.value <= 0:
        return None
    return res.x[:n]


def _selections(components, n, active=None) -> Tuple[Selection, ...]:
    """Full-dimensional selections among the index tuples `active` accepts."""
    out = []
    for indices in itertools.product(*(range(len(fn.pieces)) for fn in components)):
        if active is not None and not active(indices):
            continue
        rows = _selection_rows(components, indices)
        if rows is None:
            continue
        point = _interiority(rows, n)
        if point is not None:
            out.append(Selection(indices, tuple(rows), point))
    return tuple(out)


def full_dim_selections(components: Sequence[PieceFn], n: int) -> Tuple[Selection, ...]:
    """All selections whose agreement region has nonempty interior."""
    return _selections(components, n)


def essentially_active_selections(components: Sequence[PieceFn], xbar: Vec) -> Tuple[Selection, ...]:
    """Selections active at xbar whose region is full-dimensional.

    Activity is checked by substitution, which puts xbar in the selection
    region R (every selected piece attains its component's value there).
    Full dimension is decided by the plain slack LP, and that is already
    the essential-activity test: xbar must lie in the closure of R's
    interior. R is a polyhedron, so it is closed and convex. If some z is
    interior to R, every point xbar + t(z - xbar) with 0 < t <= 1 is
    interior too, and these points tend to xbar as t -> 0. So xbar is in
    the closure of the interior as soon as the interior is nonempty, and
    confining the search to a box around xbar decides nothing more.
    """
    values = [fn.value(xbar) for fn in components]
    return _selections(components, len(xbar), lambda indices: all(
        fn.pieces[s].value(xbar) == v
        for fn, s, v in zip(components, indices, values)))


def _all_affine(components) -> bool:
    return all(fn.is_affine() for fn in components)


def _all_smooth(components) -> bool:
    return all(len(fn.pieces) == 1 for fn in components)


def _piece_convex(p: Piece) -> bool:
    if isinstance(p, AffinePiece):
        return True
    return psd_witness(p.h) is None


def _regular_convex_route(components, mu) -> bool:
    if any(m < 0 for m in mu):
        return False
    for fn in components:
        if len(fn.pieces) == 1:
            continue
        if fn.kind != MAX or not all(_piece_convex(p) for p in fn.pieces):
            return False
    return True


def _minkowski_vertices(components, mu, xbar) -> Mat:
    weighted = [(m, clarke_subdiff_component(fn, xbar).vertices)
                for m, fn in zip(mu, components) if m]
    weights = [m for m, _ in weighted]
    choices = itertools.product(*(verts for _, verts in weighted))
    return tuple(dict.fromkeys(lincomb(weights, choice, len(xbar))
                               for choice in choices))


def scalarized_subdiffs(mus: Sequence[Vec], components: Sequence[PieceFn],
                        xbar: Vec) -> Tuple[SubdiffPolytope, ...]:
    """Generalized gradient of x -> mu^T f(x) at xbar, one per weight mu.

    Exact on the three supported routes; otherwise the Minkowski sum of
    the weighted component gradients, flagged exact=False: a flagged outer
    bound that must never feed a certificate. With all weights zero the
    result is the origin. On the affine route the gradient is the hull of
    sum_i mu_i a_{i,s_i} over the essentially active selections s
    (Scholtes 2012, ch. 4). The selections do not depend on mu, so they
    are enumerated once for all weights.
    """
    n = len(xbar)
    if not mus:
        return ()
    if _all_smooth(components):
        grads = [fn.pieces[0].grad(xbar) for fn in components]
        return tuple(SubdiffPolytope(n, (lincomb(mu, grads, n),)) for mu in mus)
    if _all_affine(components):
        selected = [[fn.pieces[s].a for fn, s in zip(components, sel.indices)]
                    for sel in essentially_active_selections(components, xbar)]
        return tuple(SubdiffPolytope(n, tuple(dict.fromkeys(
            lincomb(mu, grads, n) for grads in selected))) for mu in mus)
    return tuple(SubdiffPolytope(n, _minkowski_vertices(components, mu, xbar),
                                 _regular_convex_route(components, mu))
                 for mu in mus)


def scalarized_subdiff(mu: Vec, components: Sequence[PieceFn], xbar: Vec) -> SubdiffPolytope:
    """Generalized gradient of x -> mu^T f(x) at xbar; the one-weight form
    of scalarized_subdiffs."""
    return scalarized_subdiffs((mu,), components, xbar)[0]


# ---------------------------------------------------------------------------
# convexity

CONVEX = "convex"
NOT_CONVEX = "not_convex"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConvexityReport:
    status: str
    # midpoint violation: value at the blend exceeds the blended values
    witness: Optional[Tuple[Vec, Vec, Fraction]] = None
    generator: Optional[Vec] = None


def _scalar_value(components, g, x) -> Fraction:
    total = Q0
    for gi, fn in zip(g, components):
        if gi:
            total += gi * fn.value(x)
    return total


def _segment_midpoint_witness(components, g, w, z):
    """Exact nonconvexity witness on the segment [w, z].

    The scalarized function is piecewise affine along the segment; a slope
    drop across a breakpoint yields interval midpoints u, v whose 1/2-blend
    violates convexity strictly.
    """
    d = vsub(z, w)
    cuts = {Q0, Q1}
    for fn in components:
        for i in range(len(fn.pieces)):
            for j in range(i + 1, len(fn.pieces)):
                pi, pj = fn.pieces[i], fn.pieces[j]
                num = (pj.b + vdot(pj.a, w)) - (pi.b + vdot(pi.a, w))
                den = vdot(vsub(pi.a, pj.a), d)
                if den != 0:
                    t = num / den
                    if 0 < t < 1:
                        cuts.add(t)
    ts = sorted(cuts)
    mids = [(ts[i] + ts[i + 1]) / 2 for i in range(len(ts) - 1)]
    pts = [vadd(w, vscale(t, d)) for t in mids]
    vals = [_scalar_value(components, g, p) for p in pts]
    for i in range(len(pts) - 1):
        u, v = pts[i], pts[i + 1]
        mid = vscale(Fraction(1, 2), vadd(u, v))
        if _scalar_value(components, g, mid) * 2 > vals[i] + vals[i + 1]:
            return u, v, Fraction(1, 2)
    return None


def _pa_scalar_convexity(components, g, cells, n):
    """Exact convexity of a piecewise-affine scalarization.

    Convex iff every full-dimensional cell's affine piece stays below the
    function on every other cell; violations are converted to midpoint
    witnesses along a segment into the offending cell.
    """
    linear = []
    for sel in cells:
        pieces = [fn.pieces[s] for fn, s in zip(components, sel.indices)]
        linear.append((lincomb(g, [p.a for p in pieces], n),
                       vdot(g, [p.b for p in pieces])))
    for j, (gj, oj) in enumerate(linear):
        for k, (gk, ok) in enumerate(linear):
            if j == k:
                continue
            diff = vsub(gj, gk)
            if is_zero_vec(diff) and oj <= ok:
                continue
            rels = [le(row, rhs) for row, rhs in cells[k].rows]
            res = lp_solve(diff, rels)
            if res.status == OPTIMAL:
                if res.value + oj - ok <= 0:
                    continue
                z = res.x
            else:  # unbounded: walk the ray far enough to expose the gap
                gap0 = vdot(diff, res.x) + oj - ok
                rate = vdot(diff, res.ray)
                t = Q1
                while gap0 + t * rate <= 0:
                    t *= 2
                z = vadd(res.x, vscale(t, res.ray))
            wit = _segment_midpoint_witness(components, g, cells[j].point, z)
            if wit is None:
                raise ConsistencyError("affine convexity violation without midpoint witness")
            return NOT_CONVEX, wit
    return CONVEX, None


def _quad_scalar_convexity(components, g, n):
    h = [[Q0] * n for _ in range(n)]
    for gi, fn in zip(g, components):
        p = fn.pieces[0]
        if gi and isinstance(p, QuadPiece):
            for r in range(n):
                for c in range(n):
                    if p.h[r][c]:
                        h[r][c] += gi * p.h[r][c]
    v = psd_witness(h)
    if v is None:
        return CONVEX, None
    return NOT_CONVEX, (vneg(v), v, Fraction(1, 2))


def _piece_concave(p: Piece) -> bool:
    if isinstance(p, AffinePiece):
        return True
    neg = tuple(tuple(-v for v in row) for row in p.h)
    return psd_witness(neg) is None


def _syntactic_convex_scalarization(components, g) -> bool:
    """Sound, incomplete: every term g_i f_i convex by shape alone."""
    for gi, fn in zip(g, components):
        if gi == 0:
            continue
        if gi > 0:
            ok = (all(_piece_convex(p) for p in fn.pieces)
                  and (len(fn.pieces) == 1 or fn.kind == MAX))
        else:
            ok = (all(_piece_concave(p) for p in fn.pieces)
                  and (len(fn.pieces) == 1 or fn.kind == MIN))
        if not ok:
            return False
    return True


def _sampled_scalar_convexity(components, g, n, rng):
    for _ in range(1000):
        x = tuple(Fraction(rng.randint(-32, 32), 16) for _ in range(n))
        y = tuple(Fraction(rng.randint(-32, 32), 16) for _ in range(n))
        lam = Fraction(rng.randint(1, 7), 8)
        mid = vadd(vscale(lam, x), vscale(1 - lam, y))
        lhs = _scalar_value(components, g, mid)
        rhs = lam * _scalar_value(components, g, x) + (1 - lam) * _scalar_value(components, g, y)
        if lhs > rhs:
            return NOT_CONVEX, (x, y, lam)
    return UNKNOWN, None


def kconvexity_check(components: Sequence[PieceFn], dual_gens: Mat, n: int,
                     seed: int = 0) -> ConvexityReport:
    """Cone-convexity of the component vector, decided per dual generator.

    The vector function is cone-convex iff every generator scalarization is
    convex. Piecewise-affine and smooth-quadratic scalarizations are decided
    exactly; mixed shapes fall back to seeded midpoint falsification, which
    can only refute or abstain.
    """
    affine = _all_affine(components)
    smooth = _all_smooth(components)
    cells = ()   # built for the first generator the syntax cannot settle
    unknown = False
    for g in dual_gens:
        if _syntactic_convex_scalarization(components, g):
            continue
        if affine:
            cells = cells or full_dim_selections(components, n)
            status, wit = _pa_scalar_convexity(components, g, cells, n)
        elif smooth:
            status, wit = _quad_scalar_convexity(components, g, n)
        else:
            rng = random.Random(seed)
            status, wit = _sampled_scalar_convexity(components, g, n, rng)
        if status == NOT_CONVEX:
            return ConvexityReport(NOT_CONVEX, wit, tuple(g))
        if status == UNKNOWN:
            unknown = True
    return ConvexityReport(UNKNOWN if unknown else CONVEX)
