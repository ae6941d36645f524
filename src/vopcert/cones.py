"""Polyhedral cones: triviality tests and double-description conversion.

Cones live in two exact representations:
  ConeHRep: {d : rows @ d <= 0}
  ConeVRep: pos(generators)
Conversion both ways goes through one core routine (_dd) computing the
extreme rays of an intersection of homogeneous halfspaces, Motzkin-style
with lineality factored out first and adjacency decided by exact rank.

Ambient dimensions above DD_DIMENSION_CAP raise CapabilityError; sampling
paths that do not need conversions stay available at any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import CapabilityError, ConsistencyError
from .linprog import eq, feasible_point, le, lp_solve, OPTIMAL
from .rationals import (
    Mat, Q0, Q1, Vec, dedup_rows, invert, is_zero_vec, matrix_rank,
    nullspace_basis, primitive, unit, vdot, vneg,
)

DD_DIMENSION_CAP = 6


@dataclass(frozen=True)
class ConeHRep:
    dim: int
    rows: Mat

    def contains(self, d) -> bool:
        return all(vdot(r, d) <= 0 for r in self.rows)


@dataclass(frozen=True)
class ConeVRep:
    dim: int
    generators: Mat

    def contains(self, d) -> bool:
        gens = self.generators
        if not gens:
            return is_zero_vec(d)
        rels = [eq(tuple(g[j] for g in gens), d[j]) for j in range(self.dim)]
        return feasible_point(rels, len(gens), nonneg=[True] * len(gens)) is not None


def _box(n: int):
    """The rows -1 <= d_j <= 1 of the unit box, coordinate by coordinate."""
    return [le(unit(n, j, sign), Q1) for j in range(n) for sign in (1, -1)]


def cone_is_trivial(cone: ConeHRep) -> Tuple[bool, Optional[Vec]]:
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
    box = _box(n)
    for k in range(n):
        for s in (1, -1):
            rels = base + [eq(unit(n, k), Fraction(s))] + box
            x = feasible_point(rels, n)
            if x is not None:
                return False, x
    return True, None


def _adjacent(p: Vec, m: Vec, processed: List[Vec], dim: int) -> bool:
    tight = [r for r in processed if vdot(r, p) == 0 and vdot(r, m) == 0]
    if len(tight) < dim - 2:
        return False
    return matrix_rank(tight) == dim - 2


def _dd_pointed(rows: Mat, dim: int) -> Mat:
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
                if not _adjacent(gp, gm, processed, dim):
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


def _dd(rows: Mat, dim: int) -> Mat:
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
    pointed = _dd_pointed(dedup_rows(tuple(work)), dim)
    out = list(pointed)
    for l in lin:
        lp = primitive(l)
        out.append(lp)
        out.append(primitive(vneg(lp)))
    return tuple(sorted(set(out)))


def dd_generators_from_halfspaces(cone: ConeHRep) -> ConeVRep:
    return ConeVRep(cone.dim, _dd(cone.rows, cone.dim))


def dd_halfspaces_from_generators(cone: ConeVRep) -> ConeHRep:
    # polar of pos(V) has H-rep rows V; its extreme rays are the facet
    # normals of the original cone
    return ConeHRep(cone.dim, _dd(cone.generators, cone.dim))


def hrep_subset(inner: ConeHRep, outer: ConeHRep) -> Tuple[bool, Optional[Vec]]:
    """Is {inner} a subset of {outer}? Witness lies in inner but not outer.

    Pure LP route: for each outer row, maximize its value over the inner
    cone boxed to [-1,1]^n; any positive optimum separates.
    """
    n = inner.dim
    rels = [le(r, Q0) for r in dedup_rows(inner.rows)] + _box(n)
    for row in dedup_rows(outer.rows):
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
