"""Ordering cones, feasible sets, and the derived variational cones.

An ordering cone is validated on construction (nontrivial, pointed, full
interior) and carries both representations plus the generators of its
positive dual, which supply the scalarization weights used everywhere else.

The two non-ascent cones built from a candidate point are the heart of the
certification logic: the componentwise cone crosses dual generators with
component gradient vertices, while the scalarized cone takes the gradient
vertices of each scalarized objective directly. The first always contains
the second's polar relationships the right way around: componentwise is a
subset of scalarized, with equality exactly when the qualification holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Tuple, Union

from .cones import (
    ConeHRep, ConeVRep, dd_generators_from_halfspaces,
    dd_halfspaces_from_generators, hrep_equal, is_trivial,
)
from .errors import (
    ConsistencyError, EmptyInteriorError, InfeasiblePointError, NotPointedError,
    TrivialConeError,
)
from .funcs import (
    CONVEX, AffinePiece, PieceFn, SubdiffPolytope, clarke_subdiff_component,
    eval_components, kconvexity_check, scalarized_subdiffs, subdiff_contains,
)
from .linprog import INFEASIBLE, le, lp_solve, feasible_point
from .rationals import (
    Mat, Q0, Q1, Vec, is_zero_vec, lincomb, nullspace_basis, vdot, vneg,
    zeros,
)


# ---------------------------------------------------------------------------
# ordering cones

@dataclass(frozen=True)
class OrderingCone:
    dim: int
    hrep: ConeHRep
    vrep: ConeVRep
    dual_neg_gens: ConeVRep       # generators of the positive dual cone
    strict_polar_sample: Vec      # strictly positive on every nonzero cone point

    def contains(self, y) -> bool:
        return self.hrep.contains(y)


def validate_ordering_cone(dim: int, rows: Optional[Mat] = None,
                           generators: Optional[Mat] = None) -> OrderingCone:
    """Build a validated ordering cone from either representation.

    Raises TrivialConeError / NotPointedError / EmptyInteriorError with an
    exact witness when an axiom fails. The cone {d : rows d <= 0} holds a
    line iff the rows have a nonzero null vector, which is the witness. It
    has nonempty interior iff rows x <= -1 is feasible, so {0} is told
    apart from a thin cone only when that LP fails. The negated facet rows
    generate the positive dual; a V-rep's double description already
    yields them.
    """
    if rows is None and generators is None:
        raise ValueError("need an H-rep or a V-rep")
    if rows is None:
        hrep = dd_halfspaces_from_generators(ConeVRep(dim, generators))
    else:
        hrep = ConeHRep(dim, rows)
    vrep = dd_generators_from_halfspaces(hrep)

    lines = nullspace_basis(hrep.rows, dim)
    if lines:
        raise NotPointedError("ordering cone contains a line", lines[0])
    # nonempty interior: rows x <= -1 feasible (scaling); Farkas on failure
    res = lp_solve(zeros(dim), [le(r, Fraction(-1)) for r in hrep.rows])
    if res.status == INFEASIBLE:
        if is_trivial(hrep):
            raise TrivialConeError("ordering cone is {0}")
        raise EmptyInteriorError("ordering cone has empty interior", res.farkas)

    facets = hrep if rows is None else dd_halfspaces_from_generators(vrep)
    dual_gens = tuple(sorted(vneg(g) for g in facets.rows))
    sample = lincomb([Q1] * len(dual_gens), dual_gens, dim)
    if any(vdot(sample, v) <= 0 for v in vrep.generators):
        raise ConsistencyError("dual sample not strictly positive on the cone")
    return OrderingCone(dim, hrep, vrep, ConeVRep(dim, dual_gens), sample)


# ---------------------------------------------------------------------------
# feasible sets

@dataclass(frozen=True)
class PolyhedralSet:
    """{x : rows x <= rhs}"""

    rows: Mat
    rhs: Vec

    def __post_init__(self):
        if any(is_zero_vec(r) for r in self.rows):
            raise ValueError("polyhedral rows must be nonzero")
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs length mismatch")


@dataclass(frozen=True)
class ConicBlockSet:
    """{x : g(x) in -Q} for a validated cone Q."""

    g: Tuple[PieceFn, ...]
    q_cone: OrderingCone

    def __post_init__(self):
        if len(self.g) != self.q_cone.dim:
            raise ValueError("constraint map dimension != cone dimension")


@dataclass(frozen=True)
class DiscretizedSet:
    """Finite sample of an infinite affine constraint family, g_j(x) <= 0.

    Anything proved from this set is stamped discretization-dependent: the
    sample can miss constraints of the underlying family.
    """

    constraints: Tuple[AffinePiece, ...]
    tau: Fraction = Q0

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("discretized family needs at least one member")
        if self.tau < 0:
            raise ValueError("near-activity tolerance must be >= 0")


FeasibleSet = Union[PolyhedralSet, ConicBlockSet, DiscretizedSet]

DISCRETIZATION_NOTE = "discretization-dependent"


def feasible_contains(omega: FeasibleSet, x: Vec) -> bool:
    if isinstance(omega, PolyhedralSet):
        return all(vdot(r, x) <= b for r, b in zip(omega.rows, omega.rhs))
    if isinstance(omega, ConicBlockSet):
        gx = eval_components(omega.g, x)
        return all(vdot(m, gx) >= 0 for m in omega.q_cone.hrep.rows)
    return all(c.value(x) <= 0 for c in omega.constraints)


def polyhedral_active_rows(omega: PolyhedralSet, x: Vec) -> Tuple[int, ...]:
    return tuple(j for j, (r, b) in enumerate(zip(omega.rows, omega.rhs))
                 if vdot(r, x) == b)


# ---------------------------------------------------------------------------
# conic support machinery

@dataclass(frozen=True)
class ConicSupport:
    """The cone the active scalarizations of a conic block induce."""

    dcone: ConeHRep                # rows: active scalarized gradient vertices
    zero_in_subdiff: bool          # support-function gate (hypothesis check)
    exact: bool


def conic_support(block: ConicBlockSet, xbar: Vec) -> ConicSupport:
    n = len(xbar)
    gx = eval_components(block.g, xbar)
    reps = block.q_cone.dual_neg_gens.generators
    vals = [vdot(lam, gx) for lam in reps]
    if any(v > 0 for v in vals):
        raise InfeasiblePointError("base point violates the conic block")
    subs = scalarized_subdiffs(reps, block.g, xbar)
    exact = all(sub.exact for sub in subs)
    verts_by_rep = [sub.vertices for sub in subs]
    up = []
    for v, verts in zip(vals, verts_by_rep):
        if v == 0:
            up.extend(verts)
    dcone = ConeHRep(n, up)
    # gate: 0 in the hull of gradient vertices over the maximizing reps
    gmax = max(vals)
    hull = []
    for v, verts in zip(vals, verts_by_rep):
        if v == gmax:
            hull.extend(verts)
    zero_in = subdiff_contains(SubdiffPolytope(n, hull), zeros(n))
    return ConicSupport(dcone, zero_in, exact)


def slater_point(block: ConicBlockSet) -> Optional[Vec]:
    """A point with g(x) strictly interior to -Q; affine maps only."""
    if not all(fn.is_affine() and len(fn.pieces) == 1 for fn in block.g):
        return None
    n = len(block.g[0].pieces[0].a)
    pieces = [fn.pieces[0] for fn in block.g]
    # m . (-g(x)) <= -1, with g affine: -(sum m_i (a_i x + b_i)) <= -1
    rels = [le(lincomb(vneg(m), [p.a for p in pieces], n),
               vdot(m, [p.b for p in pieces]) - 1)
            for m in block.q_cone.hrep.rows]
    return feasible_point(rels, n)


# ---------------------------------------------------------------------------
# tangent and normal cones

@dataclass(frozen=True)
class TangentCone:
    cone: ConeHRep
    exact: bool = True
    note: Optional[str] = None
    gate: Optional[bool] = None    # support-scalarization gate; conic only
    # kconvexity_check status of a conic constraint map, when the flags
    # below got as far as deciding it
    map_convexity: Optional[str] = None


@dataclass(frozen=True)
class NormalCone:
    cone: ConeVRep
    exact: bool = True
    note: Optional[str] = None


def _conic_flags(block: ConicBlockSet, sup: ConicSupport):
    """(exact, note, constraint-map convexity status or None if not reached)."""
    if sup.zero_in_subdiff:
        return False, "support-scalarization gate failed: 0 in its subdifferential", None
    if not sup.exact:
        return False, "scalarized subdifferential only bounded, not exact", None
    conv = kconvexity_check(block.g, block.q_cone.dual_neg_gens.generators,
                            len(block.g[0].pieces[0].a)).status
    if conv != CONVEX:
        return False, "constraint map cone-convexity not established", conv
    if slater_point(block) is None:
        return False, "no strictly feasible point established", conv
    return True, None, conv


def tangent_cone(omega: FeasibleSet, xbar: Vec) -> TangentCone:
    n = len(xbar)
    if not feasible_contains(omega, xbar):
        raise InfeasiblePointError("base point is outside the feasible set")
    if isinstance(omega, PolyhedralSet):
        act = polyhedral_active_rows(omega, xbar)
        return TangentCone(ConeHRep(n, [omega.rows[j] for j in act]))
    if isinstance(omega, ConicBlockSet):
        sup = conic_support(omega, xbar)
        exact, note, conv = _conic_flags(omega, sup)
        return TangentCone(sup.dcone, exact, note, not sup.zero_in_subdiff, conv)
    near = [c.a for c in omega.constraints if c.value(xbar) >= -omega.tau]
    return TangentCone(ConeHRep(n, near), False, DISCRETIZATION_NOTE)


def polar_normal(tangent: TangentCone) -> NormalCone:
    """The rows cutting out the tangent cone generate the normal cone."""
    t = tangent.cone
    return NormalCone(ConeVRep(t.dim, t.rows), tangent.exact, tangent.note)


def normal_cone(omega: FeasibleSet, xbar: Vec) -> NormalCone:
    return polar_normal(tangent_cone(omega, xbar))


# ---------------------------------------------------------------------------
# non-ascent cones

def g1_cone(components: Sequence[PieceFn], cone: OrderingCone, xbar: Vec) -> ConeHRep:
    """Componentwise non-ascent cone.

    Rows are all products (dual generator) x (one gradient vertex per
    component); bilinearity makes the generator/vertex grid equivalent to
    quantifying over the whole dual cone and whole gradient sets.
    """
    n = len(xbar)
    per_comp = [clarke_subdiff_component(fn, xbar).vertices for fn in components]
    rows = [lincomb(mu, choice, n) for mu in cone.dual_neg_gens.generators
            for choice in product(*per_comp)]
    return ConeHRep(n, rows)


@dataclass(frozen=True)
class G2Result:
    """Scalarized non-ascent cone; hrep is exact when exact is True.

    When a scalarized subdifferential is only a flagged outer bound, hrep is
    built from it and is then only an inner bound of the cone (more
    gradient rows make a smaller cone).
    """

    hrep: ConeHRep
    exact: bool = True


def g2_cone(components: Sequence[PieceFn], cone: OrderingCone, xbar: Vec) -> G2Result:
    """Scalarized non-ascent cone over the dual generators.

    The sum rule for scalarized gradients makes generator rows imply the
    rows of every nonnegative combination, so generators suffice.
    """
    subs = scalarized_subdiffs(cone.dual_neg_gens.generators, components, xbar)
    rows = [v for sub in subs for v in sub.vertices]
    return G2Result(ConeHRep(len(xbar), rows), all(sub.exact for sub in subs))


def cones_coincide(g1: ConeHRep, g2: G2Result) -> Optional[bool]:
    """True/False when decidable; None when the scalarized cone is inexact."""
    if not g2.exact:
        return None
    same, _ = hrep_equal(g1, g2.hrep)
    return same


def cones_coincide_check(components: Sequence[PieceFn],
                         cone: OrderingCone, xbar: Vec) -> Optional[bool]:
    return cones_coincide(g1_cone(components, cone, xbar),
                          g2_cone(components, cone, xbar))
