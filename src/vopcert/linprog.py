"""Exact simplex over the rationals with Farkas and ray witnesses.

Relations are (coeffs, op, rhs) triples with op in {"<=", ">=", "=="}.
`_scaled`, the one normalization, scales each to integers once, at entry:
<= rows (ints, den), ints over one positive denominator with the
right-hand side last; a >= relation is its negation and an equality both.
So every infeasibility certificate has the uniform shape y >= 0,
y^T A = 0, y^T b < 0.

The tableau is fraction-free: row i is a list of Python ints over one
positive int denominator, starting from those scaled rows and divided by
the gcd of its entries and its denominator after every update. Every
witness is solved and checked on the integer rows. A point or a ray is
read as integer numerators over one positive denominator and re-checked by
substitution on the scaled rows and on the sign rows -x_j <= 0 of the
sign-constrained variables, each an integer inequality. A Farkas vector is
the checked point of the alternative system built on the integer rows:
that is the Fraction alternative with column i scaled by the denominator
d_i > 0 of row i, which moves no Bland pivot, so y_i = d_i z_i is exactly
the Fraction alternative's vector (`_farkas_certificate`). Fractions
appear only in the returned point, value, dual, Farkas vector and ray.

Every OPTIMAL result carries a dual vector y over the rows `_scaled` gives,
in the same order (with nonneg, one more entry per sign-constrained
variable, as for Farkas vectors). It is read from the phase-2 cost row at
the slack columns and checked on the integer rows before return: y >= 0,
y^T A = c and y^T b = value. By weak duality it proves the optimum on its
own, and its support names the rows that bind.

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

from .rationals import Q0, Q1, Vec, integer_row

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
    # Farkas certificate over the <= rows `_scaled` gives, in the same
    # order, when infeasible; with nonneg, one more entry per
    # sign-constrained variable j, in order of j, for its row -x_j <= 0
    farkas: Optional[Vec] = None
    # improving direction (structural variables) when unbounded
    ray: Optional[Vec] = None
    # when optimal: multipliers y >= 0 over the rows `_scaled` gives, in the
    # same order, then the sign rows as for farkas, with y^T A = objective
    # and y^T b = value
    dual: Optional[Vec] = None


def _scaled(relations: Sequence[Relation], n: int):
    """The system as <= rows (ints, den), ints / den == (*coeffs, rhs) with
    den > 0 the lcm of the relation's denominators: a <= relation gives its
    row, a >= relation the negation and an == relation both, the row first.
    Rows follow the relations in order."""
    scaled = []
    for coeffs, op, b in relations:
        if len(coeffs) != n:
            raise ValueError(f"relation arity {len(coeffs)} != {n}")
        ints, den = integer_row((*coeffs, b))
        if op == "<=":
            scaled.append((ints, den))
        elif op == ">=":
            scaled.append(([-v for v in ints], den))
        elif op == "==":
            scaled.append((ints, den))
            scaled.append(([-v for v in ints], den))
        else:
            raise ValueError(f"unknown relation op {op!r}")
    return scaled


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
    `scaled` holds the <= rows as `_scaled` gives them.
    """

    def __init__(self, scaled, n, nonneg):
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
        m = len(scaled)
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

    def point(self, col: int = -1):
        """Column col of the rows whose basic column is structural, as
        (nums, den): entry j is nums[j] / den, den > 0 the lcm of their
        denominators. Column -1 is the basic point."""
        rows = [(i, b) for i, b in enumerate(self.basis) if b < self.ns]
        den = lcm(*(self.dens[i] for i, _ in rows))
        nums = [0] * self.n
        for i, b in rows:
            j, s = self.colmap[b]
            nums[j] += s * self.tab[i][col] * (den // self.dens[i])
        return nums, den

    def checked(self, what: str, col: int = -1):
        """`point(col)`, re-checked by substitution on the scaled rows and
        the sign rows. For col >= 0 it is the ray of entering column col:
        the unit column of col minus `point(col)`, which must improve the
        objective too. Row ints holds iff ints . nums <= ints[-1] * s, with
        s = den for a point and 0 for a ray; sign row -x_j <= 0 iff
        nums[j] >= 0."""
        nums, den = self.point(col)
        s = den
        if col >= 0:
            nums, s = [-v for v in nums], 0
            if col < self.ns:
                j, sign = self.colmap[col]
                nums[j] += sign * den
        if (any(sum(a * v for a, v in zip(ints, nums) if a) > ints[-1] * s
                for ints, _ in self.scaled)
                or any(nums[j] < 0 for j in self.sign_cols)
                or col >= 0 and sum(c * v for c, v in
                                    zip(self.c_ints[0], nums)) <= 0):
            raise LpInternalError(f"{what} failed substitution check")
        return nums, den


def _fractions(nums, den) -> Vec:
    return tuple(Fraction(v, den) for v in nums)


def _farkas_certificate(scaled, n: int) -> Vec:
    """Solve the alternative system of the integer rows exactly.

    `scaled` is the system's rows as `_scaled` gives them, the sign rows
    -x_j <= 0 included. The alternative {z >= 0, sum_i z_i ints_i[:n] = 0,
    sum_i z_i ints_i[n] <= -1} is built directly as integer rows, and its
    basic point is re-checked on them; with d_i the denominator of row i,
    y_i = d_i z_i then satisfies y >= 0, y^T A = 0 and y^T b <= -1 < 0.

    This y is the one the alternative over the Fraction rows gives: ints_i
    is d_i times Fraction row i, so the system above is that alternative
    with column i scaled by d_i > 0. Under Bland's rule a positive column
    scaling moves no pivot: it multiplies the column's reduced cost by d_i,
    which keeps its sign, and the ratio test scales every entry of the
    entering column alike, which keeps the argmin and its ties. The basic
    values are then those of the Fraction alternative over d_i: z = y / d.
    """
    m = len(scaled)
    alt = []
    for j in range(n):
        col = [ints[j] for ints, _ in scaled]
        alt.append(([*col, 0], 1))
        alt.append(([*(-v for v in col), 0], 1))
    alt.append(([ints[n] for ints, _ in scaled] + [-1], 1))
    core = _Core(alt, m, [True] * m)
    if not core.run_phase1():
        raise LpInternalError("alternative system infeasible; Farkas extraction failed")
    nums, den = core.checked("Farkas certificate")
    return tuple(Fraction(v * d, den) for v, (_, d) in zip(nums, scaled))


def lp_solve(objective: Sequence[Fraction], relations: Sequence[Relation],
             nonneg: Optional[Sequence[bool]] = None) -> LpResult:
    """Exact LP solve of max objective . x; minimize by negating the objective.

    Witnesses are re-checked on the integer rows before return: the point,
    the Farkas vector or the ray, and on OPTIMAL the dual vector as well.
    """
    n = len(objective)
    scaled = _scaled(relations, n)
    if n == 0:
        bad = next((i for i, (ints, _) in enumerate(scaled) if ints[-1] < 0),
                   None)
        if bad is None:
            return LpResult(OPTIMAL, Q0, (), dual=(Q0,) * len(scaled))
        y = tuple(Q1 if i == bad else Q0 for i in range(len(scaled)))
        return LpResult(INFEASIBLE, farkas=y)
    core = _Core(scaled, n, nonneg)
    if not core.run_phase1():
        # the sign constraints -x_j <= 0 are rows of the system as well
        signs = [([0] * j + [-1] + [0] * (n - j), 1) for j in core.sign_cols]
        y = _farkas_certificate(scaled + signs, n)
        return LpResult(INFEASIBLE, farkas=y)
    status, e = core.run_phase2(objective)
    if status == UNBOUNDED:
        x = _fractions(*core.checked("unbounded point"))
        d = _fractions(*core.checked("unbounded ray", e))
        return LpResult(UNBOUNDED, x=x, ray=d)
    nums, den = core.checked("optimal point")
    cints, cden = core.c_ints
    value = Fraction(sum(c * v for c, v in zip(cints, nums) if c), cden * den)
    return LpResult(OPTIMAL, value, _fractions(nums, den),
                    dual=core.dual(value))


def feasible_point(relations: Sequence[Relation], n: int,
                   nonneg: Optional[Sequence[bool]] = None) -> Optional[Vec]:
    """Phase-1-only feasibility probe; returns a feasible point or None.

    Used where the Farkas object is not needed; lp_solve remains the path
    that carries certificates.
    """
    scaled = _scaled(relations, n)
    if n == 0:
        return () if all(ints[-1] >= 0 for ints, _ in scaled) else None
    core = _Core(scaled, n, nonneg)
    if not core.run_phase1():
        return None
    return _fractions(*core.checked("feasible point"))
