"""Polyhedral cones: triviality, inclusion and double-description conversion.

Cones live in two exact representations:
  ConeHRep: {d : rows @ d <= 0}
  ConeVRep: pos(generators)
Both hold their rows canonical: primitive, nonzero and distinct, in
first-appearance order (`rationals.dedup_rows`). The constructor sets that
form once, as it leaves the cone as it was, and every kernel below reads a
cone's rows as they are.
Conversion both ways goes through one core routine (_dd) computing the
extreme rays of an intersection of homogeneous halfspaces, Motzkin-style
with lineality factored out first. It runs on primitive integer rows and
rays, and each ray carries its incidence set: the processed rows it makes
tight, as a bitmask. Two rays are adjacent iff their common set has at
least dim - 2 rows and no third ray's set contains it (the combinatorial
test of Fukuda and Prodon), so adjacency costs no elimination.

Triviality is decided by the rank of the rows and one boxed LP in the
cone's own n variables (`is_trivial`); box probes run only to find the
witness of a cone that is not {0} (`cone_is_trivial`). Inclusion solves one
boxed LP per outer row that the inner cone does not list (`hrep_subset`).

Ambient dimensions above DD_DIMENSION_CAP raise CapabilityError; sampling
paths that do not need conversions stay available at any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import CapabilityError, ConsistencyError
from .linprog import eq, feasible_point, le, lp_solve, OPTIMAL
from .rationals import (
    Mat, Q0, Q1, Vec, dedup_rows, integer_row, invert, is_zero_vec, lincomb,
    matrix_rank, nullspace_basis, primitive, row_echelon, unit, vdot, vneg,
)

DD_DIMENSION_CAP = 6


@dataclass(frozen=True)
class ConeHRep:
    dim: int
    rows: Mat

    def __post_init__(self):
        object.__setattr__(self, "rows", dedup_rows(self.rows))

    def contains(self, d) -> bool:
        return all(vdot(r, d) <= 0 for r in self.rows)


@dataclass(frozen=True)
class ConeVRep:
    dim: int
    generators: Mat

    def __post_init__(self):
        object.__setattr__(self, "generators", dedup_rows(self.generators))

    def contains(self, d) -> bool:
        gens = self.generators
        if not gens:
            return is_zero_vec(d)
        rels = [eq(tuple(g[j] for g in gens), d[j]) for j in range(self.dim)]
        return feasible_point(rels, len(gens), nonneg=[True] * len(gens)) is not None


def _box(n: int):
    """The rows -1 <= d_j <= 1 of the unit box, coordinate by coordinate."""
    return [le(unit(n, j, sign), Q1) for j in range(n) for sign in (1, -1)]


def is_trivial(cone: ConeHRep) -> bool:
    """Is {d : R d <= 0} equal to {0}? The verdict alone, from one LP.

    With r_i the rows of R, the cone is {0} iff rank R = n and the maximum
    of -1^T R d over {R d <= 0, -1 <= d_j <= 1} is 0.
    Proof. If rank R < n, a nonzero null vector of R lies in the cone. If
    rank R = n, every nonzero d in the cone has R d <= 0 and R d != 0, so
    -1^T R d > 0, and a positive multiple of d lies in the box: the maximum
    is positive. If the cone is {0}, the boxed set is {0} and the maximum
    is 0. This LP is the primal of Stiemke's alternative, in the cone's own
    n variables. The origin is feasible, so no phase 1 is needed, and the
    box bounds the LP, so any status but OPTIMAL raises ConsistencyError.
    """
    rows, n = cone.rows, cone.dim
    if matrix_rank(rows) < n:
        return False
    objective = vneg(lincomb([Q1] * len(rows), rows, n))
    res = lp_solve(objective, [le(r, Q0) for r in rows] + _box(n))
    if res.status != OPTIMAL:  # boxed and contains 0
        raise ConsistencyError("boxed triviality LP is not optimal")
    return res.value == 0


def cone_is_trivial(cone: ConeHRep) -> Tuple[bool, Optional[Vec]]:
    """Is {d : rows d <= 0} equal to {0}? A witness point when it is not.

    The verdict is `is_trivial`'s. Only when the cone is not {0} is the box
    system {rows d <= 0, s*d_k = 1, -1 <= d_j <= 1} probed, for each
    coordinate k and sign s in turn; the first feasible probe point is the
    witness. Some probe is feasible: a nonzero cone point, scaled so that
    its largest coordinate has absolute value 1, solves one of them. So a
    nontrivial verdict that no probe confirms raises ConsistencyError.
    An empty row list describes the whole space: witness e_1.
    """
    n, rows = cone.dim, cone.rows
    if not rows:
        return False, unit(n, 0)
    if is_trivial(cone):
        return True, None
    base = [le(r, Q0) for r in rows]
    box = _box(n)
    for k in range(n):
        for s in (1, -1):
            rels = base + [eq(unit(n, k), Fraction(s))] + box
            x = feasible_point(rels, n)
            if x is not None:
                return False, x
    raise ConsistencyError("nontrivial cone but no box probe is feasible")


def _primitive_ints(v) -> Tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _third_contains(common: int, masks: List[int]) -> bool:
    """Does a ray besides the two whose sets meet in `common` contain it?"""
    found = 0
    for z in masks:
        if z & common == common:
            found += 1
            if found > 2:
                return True
    return False


def _dd_pointed(rows: Mat, dim: int) -> List[Tuple[int, ...]]:
    """Extreme rays of a pointed cone {d : rows d <= 0} with rank(rows) = dim,
    as primitive integer tuples; rows are primitive, as a cone holds them.

    Each ray carries the bitmask of the processed rows it makes tight. The
    rays kept after each row are the extreme rays of the cone of the rows
    processed so far, so two of them are adjacent iff no third one's set
    contains their common set, which then has rank dim - 2 (Fukuda and
    Prodon, Proposition 7); fewer than dim - 2 common rows rule a pair out
    at once. The new ray on the edge between an adjacent pair, one ray
    violating the row being processed and one satisfying it strictly,
    makes tight the pair's common rows and that row.
    """
    # the first rows that are independent, in order: the transpose's pivots
    _, chosen, _ = row_echelon(tuple(zip(*rows)))
    binv = invert([rows[i] for i in chosen])
    ints = [tuple(x.numerator for x in r) for r in rows]
    basis = sum(1 << i for i in chosen)
    # column k of -B^-1 is tight on every chosen row but the k-th
    gens = [_primitive_ints(integer_row([-binv[i][k] for i in range(dim)])[0])
            for k in range(dim)]
    masks = [basis & ~(1 << i) for i in chosen]
    for i, row in enumerate(ints):
        bit = 1 << i
        if basis & bit:
            continue
        vals = [sum(a * b for a, b in zip(row, g)) for g in gens]
        # rays that satisfy the row stay; a zero value makes it tight
        new_gens = [g for g, v in zip(gens, vals) if v <= 0]
        new_masks = [z | bit if v == 0 else z
                     for z, v in zip(masks, vals) if v <= 0]
        for gp, zp, sp in zip(gens, masks, vals):
            if sp <= 0:
                continue
            for gm, zm, sm in zip(gens, masks, vals):
                if sm >= 0:
                    continue
                common = zp & zm
                if (common.bit_count() < dim - 2
                        or _third_contains(common, masks)):
                    continue
                new_gens.append(_primitive_ints(
                    [sp * b - sm * a for a, b in zip(gp, gm)]))
                new_masks.append(common | bit)
        gens, masks = new_gens, new_masks
    return gens


def _dd(rows: Mat, dim: int) -> Mat:
    """Extreme rays (plus lineality pairs) of {d : rows d <= 0}, as the
    sorted primitive rows; `rows` are a cone's canonical rows."""
    if dim > DD_DIMENSION_CAP:
        raise CapabilityError(
            f"double description capped at ambient dimension {DD_DIMENSION_CAP}; "
            f"got {dim} (sampling-only checks remain available)")
    if not rows:
        out = []
        for k in range(dim):
            out.append(unit(dim, k))
            out.append(unit(dim, k, -1))
        return tuple(out)
    # independent lineality vectors, each orthogonal to every row: adding
    # them and their negatives keeps the rows primitive and distinct
    lin = [primitive(l) for l in nullspace_basis(rows, dim)]
    work = list(rows)
    for l in lin:
        work.append(l)
        work.append(vneg(l))
    out = {tuple(Fraction(x) for x in g) for g in _dd_pointed(work, dim)}
    for l in lin:
        out.add(l)
        out.add(vneg(l))
    return tuple(sorted(out))


def dd_generators_from_halfspaces(cone: ConeHRep) -> ConeVRep:
    return ConeVRep(cone.dim, _dd(cone.rows, cone.dim))


def dd_halfspaces_from_generators(cone: ConeVRep) -> ConeHRep:
    # polar of pos(V) has H-rep rows V; its extreme rays are the facet
    # normals of the original cone
    return ConeHRep(cone.dim, _dd(cone.generators, cone.dim))


def hrep_subset(inner: ConeHRep, outer: ConeHRep) -> Tuple[bool, Optional[Vec]]:
    """Is {inner} a subset of {outer}? Witness lies in inner but not outer.

    Pure LP route over the cones' canonical rows: for each outer row b,
    maximize b d over the inner cone boxed to [-1,1]^n. The box holds a
    positive multiple of every inner point, so inner lies in
    {b d <= 0} iff that maximum is 0, and a positive optimum's point is the
    witness. An outer row that inner lists holds on inner by definition:
    its maximum would be 0, so it is skipped without an LP, and the result
    is the one the full sweep gives.
    """
    listed = set(inner.rows)
    rels = [le(r, Q0) for r in inner.rows] + _box(inner.dim)
    for row in outer.rows:
        if row in listed:
            continue
        res = lp_solve(row, rels)
        if res.status != OPTIMAL:  # boxed and contains 0
            raise ConsistencyError("boxed subset probe is not optimal")
        if res.value > 0:
            return False, res.x
    return True, None


def hrep_equal(a: ConeHRep, b: ConeHRep) -> Tuple[bool, Optional[Vec]]:
    ok, wit = hrep_subset(a, b)
    if not ok:
        return False, wit
    ok, wit = hrep_subset(b, a)
    if not ok:
        return False, wit
    return True, None
