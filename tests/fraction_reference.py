"""Fraction reference for the exact LP and elimination kernels.

The simplex core, `lp_solve` and `feasible_point` below are the
`fractions.Fraction` tableau that `vopcert.linprog` used before its
integer-row kernel, kept verbatim except that an infeasible `lp_solve` with
`nonneg` takes its Farkas vector over the sign rows too, as the kernel's
does; the elimination helpers are the matching
Fraction Gauss-Jordan from `vopcert.rationals`. `test_kernel_differential.py`
requires the library kernels to return exactly what these return.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from vopcert.linprog import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, LpInternalError, LpResult, Relation, eq, le,
)
from vopcert.rationals import Mat, Q0, Q1, Vec, unit, vdot


def normalize_relations(relations: Sequence[Relation], n: int):
    """Expand to (rows, rhs) in pure <= form. Row order is deterministic."""
    rows: List[Vec] = []
    rhs: List[Fraction] = []
    for coeffs, op, b in relations:
        row = tuple(coeffs)
        if len(row) != n:
            raise ValueError(f"relation arity {len(row)} != {n}")
        b = Fraction(b)
        if op == "<=":
            rows.append(row)
            rhs.append(b)
        elif op == ">=":
            rows.append(tuple(-c for c in row))
            rhs.append(-b)
        elif op in ("==", "="):
            rows.append(row)
            rhs.append(b)
            rows.append(tuple(-c for c in row))
            rhs.append(-b)
        else:
            raise ValueError(f"unknown relation op {op!r}")
    return rows, rhs


def _pivot(tab, basis, r, e, zrow):
    prow = tab[r]
    piv = prow[e]
    if piv != Q1:
        inv = Q1 / piv
        tab[r] = prow = [x * inv for x in prow]
    nz = [(j, prow[j]) for j in range(len(prow)) if prow[j]]
    for i in range(len(tab)):
        if i == r:
            continue
        row = tab[i]
        f = row[e]
        if f:
            for j, pv in nz:
                row[j] -= f * pv
    f = zrow[e]
    if f:
        for j, pv in nz:
            zrow[j] -= f * pv
    basis[r] = e


class _Core:
    """Standard-form tableau for max c^T x, A x <= b with per-variable sign."""

    def __init__(self, rows, rhs, n, nonneg):
        self.n = n
        # structural columns: nonneg vars get one, free vars a +/- pair
        self.colmap: List[Tuple[int, int]] = []
        for j in range(n):
            self.colmap.append((j, 1))
            if nonneg is None or not nonneg[j]:
                self.colmap.append((j, -1))
        ns = len(self.colmap)
        m = len(rows)
        width = ns + m  # artificials appended after
        tab: List[List[Fraction]] = []
        basis: List[int] = []
        art_cols: List[int] = []
        flipped: List[bool] = []
        for i in range(m):
            flip = rhs[i] < 0
            flipped.append(flip)
            sgn = -Q1 if flip else Q1
            row = [Q0] * (width + 1)
            for cidx, (j, s) in enumerate(self.colmap):
                v = rows[i][j]
                if v:
                    row[cidx] = sgn * v * s
            row[ns + i] = sgn  # slack
            row[-1] = -rhs[i] if flip else rhs[i]
            tab.append(row)
            basis.append(ns + i)
        # artificials for flipped rows (slack coefficient is -1 there)
        for i in range(m):
            if flipped[i]:
                for row in tab:
                    row.insert(-1, Q0)
                col = len(tab[0]) - 2
                tab[i][col] = Q1
                basis[i] = col
                art_cols.append(col)
        self.tab = tab
        self.basis = basis
        self.art_cols = art_cols
        self.ns = ns
        self.ncols = len(tab[0]) - 1 if tab else ns
        self.banned = set(art_cols)

    def _simplex(self, zrow, phase1: bool):
        tab, basis = self.tab, self.basis
        ncols = self.ncols
        banned = self.banned if not phase1 else set()
        while True:
            e = -1
            for j in range(ncols):
                if j in banned:
                    continue
                if zrow[j] > 0:
                    e = j
                    break
            if e < 0:
                return OPTIMAL, -1
            r = -1
            best = None
            for i in range(len(tab)):
                a = tab[i][e]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                        best = ratio
                        r = i
            if r < 0:
                if phase1:
                    raise LpInternalError("phase 1 unbounded")
                return UNBOUNDED, e
            _pivot(tab, basis, r, e, zrow)

    def run_phase1(self) -> bool:
        """True if the system is feasible."""
        if not self.art_cols:
            return True
        zrow = [Q0] * (self.ncols + 1)
        for c in self.art_cols:
            zrow[c] = -Q1
        for i, b in enumerate(self.basis):
            if b in self.banned:  # artificial basic: add its row back
                for j in range(self.ncols + 1):
                    if self.tab[i][j]:
                        zrow[j] += self.tab[i][j]
        status, _ = self._simplex(zrow, phase1=True)
        if status != OPTIMAL:
            raise LpInternalError("phase 1 did not reach an optimum")
        if -zrow[-1] != 0:  # leftover artificial mass
            return False
        self._drive_out_artificials()
        return True

    def _drive_out_artificials(self):
        tab, basis = self.tab, self.basis
        drop = []
        for i in range(len(tab)):
            if basis[i] in self.banned:
                target = -1
                for j in range(self.ncols):
                    if j not in self.banned and tab[i][j] != 0:
                        target = j
                        break
                if target >= 0:
                    dummy = [Q0] * (self.ncols + 1)
                    _pivot(tab, basis, i, target, dummy)
                else:
                    drop.append(i)
        for i in reversed(drop):
            del tab[i]
            del basis[i]

    def run_phase2(self, c_structural):
        zrow = [Q0] * (self.ncols + 1)
        for cidx, (j, s) in enumerate(self.colmap):
            if c_structural[j]:
                zrow[cidx] = c_structural[j] * s
        for i, b in enumerate(self.basis):
            if b >= self.ns:
                continue  # slack/artificial basic: zero cost
            j, s = self.colmap[b]
            cb = c_structural[j] * s
            if cb:
                for jj in range(self.ncols + 1):
                    if self.tab[i][jj]:
                        zrow[jj] -= cb * self.tab[i][jj]
        status, e = self._simplex(zrow, phase1=False)
        return status, e, zrow

    def solution(self) -> Vec:
        x = [Q0] * self.n
        for i, b in enumerate(self.basis):
            if b < self.ns:
                j, s = self.colmap[b]
                x[j] += s * self.tab[i][-1]
        return tuple(x)

    def ray(self, e: int) -> Vec:
        d = [Q0] * self.n
        if e < self.ns:
            j, s = self.colmap[e]
            d[j] += s
        for i, b in enumerate(self.basis):
            if b < self.ns:
                j, s = self.colmap[b]
                d[j] += s * (-self.tab[i][e])
        return tuple(d)


def _check_farkas(rows, rhs, y) -> bool:
    if len(y) != len(rows) or any(v < 0 for v in y):
        return False
    n = len(rows[0]) if rows else 0
    for j in range(n):
        s = Q0
        for i, yi in enumerate(y):
            if yi and rows[i][j]:
                s += yi * rows[i][j]
        if s != 0:
            return False
    return sum(yi * bi for yi, bi in zip(y, rhs)) < 0


def _farkas_certificate(rows, rhs) -> Vec:
    """Solve the alternative system {y >= 0, y^T A = 0, y^T b <= -1} exactly."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    alt: List[Relation] = []
    for j in range(n):
        alt.append(eq(tuple(rows[i][j] for i in range(m)), Q0))
    alt.append(le(tuple(rhs), Fraction(-1)))
    alt_rows, alt_rhs = normalize_relations(alt, m)
    core = _Core(alt_rows, alt_rhs, m, [True] * m)
    if not core.run_phase1():
        raise LpInternalError("alternative system infeasible; Farkas extraction failed")
    y = core.solution()
    if not _check_farkas(rows, rhs, y):
        raise LpInternalError("Farkas certificate failed substitution check")
    return y


def lp_solve(objective: Sequence[Fraction], relations: Sequence[Relation],
             nonneg: Optional[Sequence[bool]] = None) -> LpResult:
    """Exact LP solve of max objective . x; minimize by negating the objective.

    Witnesses are re-checked by substitution before return.
    """
    n = len(objective)
    c = tuple(Fraction(v) for v in objective)
    rows, rhs = normalize_relations(relations, n)
    if n == 0:
        bad = next((i for i, b in enumerate(rhs) if b < 0), None)
        if bad is None:
            return LpResult(OPTIMAL, Q0, ())
        y = tuple(Q1 if i == bad else Q0 for i in range(len(rows)))
        return LpResult(INFEASIBLE, farkas=y)
    core = _Core(rows, rhs, n, nonneg)
    if not core.run_phase1():
        # the sign constraints -x_j <= 0 are rows of the system as well
        signs = [j for j in range(n) if nonneg is not None and nonneg[j]]
        y = _farkas_certificate(rows + [unit(n, j, -1) for j in signs],
                                rhs + [Q0] * len(signs))
        return LpResult(INFEASIBLE, farkas=y)
    status, e, zrow = core.run_phase2(c)
    if status == UNBOUNDED:
        d = core.ray(e)
        x0 = core.solution()
        if vdot(c, d) <= 0 or any(vdot(r, d) > 0 for r in rows):
            raise LpInternalError("unbounded ray failed substitution check")
        return LpResult(UNBOUNDED, x=x0, ray=d)
    x = core.solution()
    for r, b in zip(rows, rhs):
        if vdot(r, x) > b:
            raise LpInternalError("optimal point failed substitution check")
    return LpResult(OPTIMAL, vdot(c, x), x)


def feasible_point(relations: Sequence[Relation], n: int,
                   nonneg: Optional[Sequence[bool]] = None) -> Optional[Vec]:
    """Phase-1-only feasibility probe; returns a feasible point or None.

    Used by cone triviality sweeps where the Farkas object is not needed;
    lp_solve remains the path that carries certificates.
    """
    rows, rhs = normalize_relations(relations, n)
    if n == 0:
        return () if all(b >= 0 for b in rhs) else None
    core = _Core(rows, rhs, n, nonneg)
    if not core.run_phase1():
        return None
    x = core.solution()
    for r, b in zip(rows, rhs):
        if vdot(r, x) > b:
            raise LpInternalError("feasible point failed substitution check")
    return x


def row_echelon(m: Sequence[Sequence[Fraction]]):
    """Fraction Gaussian elimination.

    Returns (rank, pivot column list, reduced rows) with reduced rows in RREF.
    """
    rows = [list(r) for r in m]
    if not rows:
        return 0, [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Q1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows


def matrix_rank(m: Sequence[Sequence[Fraction]]) -> int:
    return row_echelon(m)[0]


def nullspace_basis(m: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> Mat:
    """Basis of {x : m x = 0}. ncols is required when m has no rows."""
    if not m:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        return tuple(unit(ncols, k) for k in range(ncols))
    ncols = len(m[0])
    rank, pivots, rows = row_echelon(m)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [Q0] * ncols
        v[fc] = Q1
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return tuple(basis)


def invert(m: Sequence[Sequence[Fraction]]) -> Mat:
    """Inverse of a square nonsingular matrix (raises ValueError otherwise)."""
    n = len(m)
    aug = [list(row) + [Q1 if i == j else Q0 for j in range(n)] for i, row in enumerate(m)]
    rank, pivots, rows = row_echelon(aug)
    if rank < n or pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(rows[i][n:]) for i in range(n))
