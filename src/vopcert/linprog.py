"""Exact simplex over the rationals with Farkas and ray witnesses.

Relations are (coeffs, op, rhs) triples with op in {"<=", ">=", "=="}; they are
normalized to a pure <= system (equalities become two rows) so that every
infeasibility certificate has the uniform shape y >= 0, y^T A = 0, y^T b < 0.

The tableau is fraction-free: row i is a list of Python ints over one
positive int denominator, built straight from the numerators and
denominators of the input and divided by the gcd of its entries and its
denominator after every update. Fractions appear only at the interface: in
the returned point, ray and value, and in the substitution re-checks.

Every OPTIMAL result carries a dual vector y over the normalized <= rows
(with nonneg, one more entry per sign-constrained variable, as for Farkas
vectors). It is read from the phase-2 cost row at the slack columns and
checked on the integer rows before return: y >= 0, y^T A = c and
y^T b = value. By weak duality it proves the optimum on its own, and its
support names the rows that bind.

Pivots follow Bland's rule with a fixed variable order, so identical inputs
pivot identically and produce bit-identical results. They are the pivots of
the Fraction tableau this kernel replaced, because every decision reads a
rational value whose sign or order the integer rows give exactly: a positive
denominator leaves the sign of each reduced cost to its numerator, and in
the ratio test b_i / a_i the row denominator cancels, so rows i and k
compare as b_i * a_k < b_k * a_i. Ties break on the lower basic variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .rationals import Q0, Q1, Vec, integer_row, unit, vdot

Relation = Tuple[Sequence[Fraction], str, Fraction]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpInternalError(RuntimeError):
    """A witness failed its own substitution check; indicates a solver bug."""


def le(coeffs: Sequence[Fraction], rhs: Fraction) -> Relation:
    return (tuple(coeffs), "<=", rhs)


def ge(coeffs: Sequence[Fraction], rhs: Fraction) -> Relation:
    return (tuple(coeffs), ">=", rhs)


def eq(coeffs: Sequence[Fraction], rhs: Fraction) -> Relation:
    return (tuple(coeffs), "==", rhs)


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Optional[Fraction] = None
    x: Optional[Vec] = None
    # Farkas certificate over the normalized <= rows when infeasible; with
    # nonneg, one more entry per sign-constrained variable j, in order of j,
    # for its row -x_j <= 0 (the normalization of ge(e_j, 0))
    farkas: Optional[Vec] = None
    # improving direction (structural variables) when unbounded
    ray: Optional[Vec] = None
    # when optimal: multipliers y >= 0 over the normalized <= rows, then the
    # sign rows as for farkas, with y^T A = objective and y^T b = value
    dual: Optional[Vec] = None


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


def _reduced(nums, den):
    g = gcd(*nums, den)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _pivot(tab, dens, basis, r, e, zrow=None):
    """Make column e a unit column with its 1 in row r; zrow is [nums, den]."""
    prow = tab[r]
    dp = prow[e]
    if dp < 0:
        prow = [-v for v in prow]
        dp = -dp
    # the pivot row over dp has a 1 at column e
    prow, dp = _reduced(prow, dp)
    tab[r], dens[r] = prow, dp
    for i, row in enumerate(tab):
        if i != r and row[e]:
            tab[i], dens[i] = _eliminate(row, dens[i], prow, dp, e)
    if zrow is not None and zrow[0][e]:
        zrow[0], zrow[1] = _eliminate(zrow[0], zrow[1], prow, dp, e)
    basis[r] = e


def _eliminate(row, den, prow, dp, e):
    """row/den - (row[e]/den) * (prow/dp), reduced; prow[e] == dp > 0."""
    f = row[e]
    g = gcd(f, dp)
    a, b = dp // g, f // g
    return _reduced([x * a - b * y for x, y in zip(row, prow)], den * a)


class _Core:
    """Standard-form tableau for max c^T x, A x <= b with per-variable sign.

    Row i of the tableau is tab[i] / dens[i], integers over a positive
    denominator; column `basis[i]` of row i holds dens[i] (the value 1).
    """

    def __init__(self, rows, rhs, n, nonneg):
        self.n = n
        # structural columns: nonneg vars get one, free vars a +/- pair
        self.colmap: List[Tuple[int, int]] = []
        # j -> the one column of sign-constrained variable j, in order of j
        self.sign_cols: Dict[int, int] = {}
        for j in range(n):
            if nonneg is not None and nonneg[j]:
                self.sign_cols[j] = len(self.colmap)
            self.colmap.append((j, 1))
            if nonneg is None or not nonneg[j]:
                self.colmap.append((j, -1))
        ns = len(self.colmap)
        m = len(rows)
        scaled = [integer_row((*row, b)) for row, b in zip(rows, rhs)]
        flipped = [ints[-1] < 0 for ints, _ in scaled]
        # columns: structural, one slack per row, one artificial per flipped
        # row (its slack coefficient is -1 there), then the right-hand side
        ncols = ns + m + sum(flipped)
        tab: List[List[int]] = []
        dens: List[int] = []
        basis: List[int] = []
        art_cols: List[int] = []
        for i, (ints, den) in enumerate(scaled):
            if flipped[i]:
                ints = [-v for v in ints]
            row = [ints[j] if s > 0 else -ints[j] for j, s in self.colmap]
            row += [0] * (ncols - ns)
            row.append(ints[-1])
            row[ns + i] = -den if flipped[i] else den  # slack
            if flipped[i]:
                col = ns + m + len(art_cols)
                row[col] = den
                art_cols.append(col)
                basis.append(col)
            else:
                basis.append(ns + i)
            tab.append(row)
            dens.append(den)
        self.scaled = scaled
        self.tab = tab
        self.dens = dens
        self.basis = basis
        self.art_cols = art_cols
        self.ns = ns
        self.ncols = ncols
        self.banned = set(art_cols)

    def _simplex(self, zrow, phase1: bool):
        tab, basis = self.tab, self.basis
        ncols = self.ncols
        banned = self.banned if not phase1 else set()
        z = zrow[0]
        while True:
            # Bland: lowest improving column; dens > 0, so signs are exact
            e = -1
            for j in range(ncols):
                if z[j] > 0 and j not in banned:
                    e = j
                    break
            if e < 0:
                return OPTIMAL, -1
            # ratio b_i / a_i: the row denominators cancel
            r = -1
            for i, row in enumerate(tab):
                a = row[e]
                if a > 0:
                    if r < 0:
                        r, ba, bb = i, a, row[-1]
                        continue
                    left, right = row[-1] * ba, bb * a
                    if left < right or (left == right and basis[i] < basis[r]):
                        r, ba, bb = i, a, row[-1]
            if r < 0:
                if phase1:
                    raise LpInternalError("phase 1 unbounded")
                return UNBOUNDED, e
            _pivot(tab, self.dens, basis, r, e, zrow)
            z = zrow[0]

    def _price_out(self, zrow):
        """Subtract basic rows from zrow until every basic column reads 0.

        zrow[b] / den is the cost of basic column b, and row i has a 1 there,
        so this is zrow - cost * row for each basic row.
        """
        for i, b in enumerate(self.basis):
            if zrow[0][b]:
                zrow[0], zrow[1] = _eliminate(zrow[0], zrow[1], self.tab[i],
                                              self.dens[i], b)

    def run_phase1(self) -> bool:
        """True if the system is feasible."""
        if not self.art_cols:
            return True
        z = [0] * (self.ncols + 1)
        for c in self.art_cols:
            z[c] = -1
        zrow = [z, 1]
        self._price_out(zrow)
        status, _ = self._simplex(zrow, phase1=True)
        if status != OPTIMAL:
            raise LpInternalError("phase 1 did not reach an optimum")
        if zrow[0][-1] != 0:  # leftover artificial mass
            return False
        self._drive_out_artificials()
        return True

    def _drive_out_artificials(self):
        # every row keeps a nonzero entry outside the artificial columns: the
        # slack columns start as a signed identity, and row operations keep
        # the non-artificial block at full row rank
        tab, basis = self.tab, self.basis
        for i in range(len(tab)):
            if basis[i] in self.banned:
                target = next((j for j in range(self.ncols)
                               if j not in self.banned and tab[i][j]), -1)
                if target < 0:
                    raise LpInternalError("artificial row has no pivot")
                _pivot(tab, self.dens, basis, i, target)

    def run_phase2(self, c_structural):
        self.c_ints = ints, den = integer_row(c_structural)
        z = [ints[j] if s > 0 else -ints[j] for j, s in self.colmap]
        z += [0] * (self.ncols + 1 - len(z))
        self.zrow = zrow = [z, den]
        self._price_out(zrow)
        return self._simplex(zrow, phase1=False)

    def dual(self, value: Fraction) -> Vec:
        """The optimal multipliers, checked on the integer rows.

        The reduced cost of slack i is -y_i, and that of the column of a
        sign-constrained variable j is -mu_j, the multiplier of its row
        -x_j <= 0. Row i is ints_i / d_i, y_i = Y_i / den and L is the lcm of
        the d_i on the support, so sum_i Y_i (L / d_i) ints_i holds
        (y^T A, y^T b) over den * L, and the checks are integer identities.
        """
        z, den = self.zrow
        ns, scaled, m = self.ns, self.scaled, len(self.tab)
        support = [i for i in range(m) if z[ns + i]]
        mus = [-z[k] for k in self.sign_cols.values()]
        if any(z[ns + i] > 0 for i in support) or any(v < 0 for v in mus):
            raise LpInternalError("dual failed its sign check")
        big = lcm(*(scaled[i][1] for i in support))
        sums = [0] * (self.n + 1)
        for i in support:
            w = -z[ns + i] * (big // scaled[i][1])
            sums = [t + w * v for t, v in zip(sums, scaled[i][0])]
        for j, mu in zip(self.sign_cols, mus):
            sums[j] -= mu * big
        cints, cden = self.c_ints
        scale = den * big
        if any(t * cden != c * scale for t, c in zip(sums, cints)):
            raise LpInternalError("dual failed substitution check")
        if sums[-1] * value.denominator != value.numerator * scale:
            raise LpInternalError("dual value differs from the optimum")
        y = [Q0] * (m + len(mus))
        for i in support:
            y[i] = Fraction(-z[ns + i], den)
        for t, mu in enumerate(mus, m):
            if mu:
                y[t] = Fraction(mu, den)
        return tuple(y)

    def solution(self) -> Vec:
        x = [Q0] * self.n
        for i, b in enumerate(self.basis):
            if b < self.ns:
                j, s = self.colmap[b]
                x[j] += s * Fraction(self.tab[i][-1], self.dens[i])
        return tuple(x)

    def ray(self, e: int) -> Vec:
        d = [Q0] * self.n
        if e < self.ns:
            j, s = self.colmap[e]
            d[j] += s
        for i, b in enumerate(self.basis):
            if b < self.ns:
                j, s = self.colmap[b]
                d[j] += s * Fraction(-self.tab[i][e], self.dens[i])
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

    Witnesses are re-checked by substitution before return: the point, the
    Farkas vector or the ray, and on OPTIMAL the dual vector as well.
    """
    n = len(objective)
    c = tuple(Fraction(v) for v in objective)
    rows, rhs = normalize_relations(relations, n)
    if n == 0:
        bad = next((i for i, b in enumerate(rhs) if b < 0), None)
        if bad is None:
            return LpResult(OPTIMAL, Q0, (), dual=(Q0,) * len(rows))
        y = tuple(Q1 if i == bad else Q0 for i in range(len(rows)))
        return LpResult(INFEASIBLE, farkas=y)
    core = _Core(rows, rhs, n, nonneg)
    if not core.run_phase1():
        # the sign constraints -x_j <= 0 are rows of the system as well
        signs = [j for j in range(n) if nonneg is not None and nonneg[j]]
        y = _farkas_certificate(rows + [unit(n, j, -1) for j in signs],
                                rhs + [Q0] * len(signs))
        return LpResult(INFEASIBLE, farkas=y)
    status, e = core.run_phase2(c)
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
    value = vdot(c, x)
    return LpResult(OPTIMAL, value, x, dual=core.dual(value))


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
