"""Exact rational vectors and matrices on top of fractions.Fraction.

Everything downstream (LP, cones, certificates) goes through these helpers, so
no float ever enters the certificate path. Elimination (`row_echelon`,
`matrix_rank`, `nullspace_basis`, `invert`) runs on integer rows and converts
back to Fractions only for its result; `eliminator` keeps the integer row
operations that reduce a system, so it can be solved for many targets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .errors import ConsistencyError

Q = Fraction
Vec = Tuple[Fraction, ...]
Mat = Tuple[Vec, ...]

Q0 = Fraction(0)
Q1 = Fraction(1)


class RationalParseError(ValueError):
    """Raised for text that is not an integer or 'num/den' rational."""


def parse_rational(value) -> Fraction:
    """Parse an int or a 'num/den' / 'num' string. Floats are rejected."""
    if isinstance(value, bool):
        raise RationalParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise RationalParseError(f"decimal float not accepted here: {value!r}")
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise RationalParseError(f"decimal notation not accepted: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalParseError(f"malformed rational: {value!r}") from exc
    raise RationalParseError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render as 'num' or 'num/den' (den > 0 is a Fraction invariant)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def zeros(n: int) -> Vec:
    return (Q0,) * n


def unit(n: int, k: int, sign: int = 1) -> Vec:
    return tuple(Fraction(sign) if j == k else Q0 for j in range(n))


def vdot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    # caller guarantees equal lengths; zip would hide a mismatch
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    total = Q0
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: Fraction, a: Sequence[Fraction]) -> Vec:
    return tuple(c * x for x in a)


def lincomb(weights: Sequence[Fraction], vectors: Sequence[Sequence[Fraction]],
            n: int) -> Vec:
    """sum_i weights[i] * vectors[i] in dimension n; zero weights are skipped,
    so an empty or all-zero combination is zeros(n)."""
    total = [Q0] * n
    for w, v in zip(weights, vectors):
        if not w:
            continue
        if len(v) != n:
            raise ValueError("dimension mismatch")
        for j, x in enumerate(v):
            if x:
                total[j] += w * x
    return tuple(total)


def vneg(a: Sequence[Fraction]) -> Vec:
    return tuple(-x for x in a)


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vec:
    return tuple(vdot(row, x) for row in m)


def primitive(v: Sequence[Fraction]) -> Vec:
    """Canonical representative of the ray through v: integer entries, gcd 1.

    Direction (sign) is preserved; only positive scaling is normalized away.
    The zero vector maps to itself.
    """
    if is_zero_vec(v):
        return tuple(Q0 for _ in v)
    ints, _ = integer_row(v)
    g = math.gcd(*ints)
    return tuple(Fraction(k // g) for k in ints)


def dedup_rows(rows: Iterable[Sequence[Fraction]]) -> Mat:
    """Primitive-canonicalize, drop zero rows and duplicates.

    Output order follows first appearance, so the result is deterministic.
    """
    seen = set()
    out = []
    for r in rows:
        p = primitive(r)
        if is_zero_vec(p):
            continue
        if p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def integer_row(values: Sequence[Fraction]):
    """(nums, den) with nums / den == values entrywise and den > 0 the lcm of
    their denominators; built from numerators and denominators alone."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _echelon_ints(m: Sequence[Sequence[Fraction]]):
    """Fraction-free Gauss-Jordan elimination.

    Works on the rows scaled to integers, each kept up to a nonzero scale and
    divided by its content after every update, so the entries stay small.
    Scaling a row keeps the rank, the null space and the reduced form, and
    pivot choice reads only zero tests. Returns (rank, pivot columns, rows).
    """
    return _gauss_jordan([integer_row(row)[0] for row in m])


def _gauss_jordan(rows):
    """`_echelon_ints` on rows that are already lists of ints, in place."""
    if not rows:
        return 0, [], rows
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
        prow = rows[r]
        p = prow[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows


def eliminator(vectors: Sequence[Sequence[int]], n: int):
    """(E, d) for the n x k matrix A whose column i is the first n entries of
    integer vector i: E an invertible n x n integer matrix and d k positive
    ints with E A = [diag(d); 0].

    So A u = t exactly when (E t)_i = d_i u_i for i < k and (E t)_i = 0 for
    i >= k: a system is eliminated once and then solved for any number of
    targets by dot products. None when the columns are dependent.

    Gauss-Jordan runs on [A | I]: the first k pivots fall on A's columns
    and the rest on unit columns e_j, j in J, so E [A | e_J] is diagonal
    with a nonzero diagonal. That identity is checked by substitution
    before return; it proves both E A = [diag(d); 0] and that E is
    invertible, and a failure raises ConsistencyError.
    """
    k = len(vectors)
    _, pivots, rows = _gauss_jordan(
        [[v[j] for v in vectors] + [int(i == j) for i in range(n)]
         for j in range(n)])
    if pivots[:k] != list(range(k)):
        return None
    e = [row[k:] for row in rows]
    for i in range(k):
        if rows[i][i] < 0:
            e[i] = [-x for x in e[i]]
    basis = [v[:n] for v in vectors] + \
        [[int(i == j - k) for i in range(n)] for j in pivots[k:]]
    if len(basis) != n:     # E [A | e_J] must be square to prove E invertible
        raise ConsistencyError("eliminator failed substitution")
    d = []
    for i, erow in enumerate(e):
        for j, col in enumerate(basis):
            v = sum(a * b for a, b in zip(erow, col))
            if (v != 0) != (i == j) or (i == j < k and v < 0):
                raise ConsistencyError("eliminator failed substitution")
            if i == j < k:
                d.append(v)
    return e, d


def row_echelon(m: Sequence[Sequence[Fraction]]):
    """Exact Gauss-Jordan elimination on integer rows.

    Returns (rank, pivot column list, reduced rows) with reduced rows in RREF
    as Fractions; the rows below the rank are zero.
    """
    rank, pivots, rows = _echelon_ints(m)
    out = []
    for i, row in enumerate(rows):
        if i < rank:
            p = row[pivots[i]]
            out.append([Fraction(x, p) if x else Q0 for x in row])
        else:
            out.append([Q0] * len(row))
    return rank, pivots, out


def matrix_rank(m: Sequence[Sequence[Fraction]]) -> int:
    return _echelon_ints(m)[0]


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


def psd_witness(h: Sequence[Sequence[Fraction]]) -> Optional[Vec]:
    """None if the symmetric matrix is PSD, else v with v^T h v < 0.

    Exact congruence elimination: positive diagonal pivots are eliminated;
    a negative diagonal or an unmatched off-diagonal entry yields a witness,
    lifted back through the accumulated eliminations.
    """
    n = len(h)
    work = [[Fraction(h[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    # elimination steps recorded as (pivot index, row of multipliers over active set)
    steps = []

    def lift(vec_by_index: dict) -> Vec:
        v = dict(vec_by_index)
        for piv, coeffs in reversed(steps):
            s = Q0
            for j, c in coeffs.items():
                s += c * v.get(j, Q0)
            v[piv] = -s
        out = [Q0] * n
        for j, val in v.items():
            out[j] = val
        return tuple(out)

    while active:
        neg = next((i for i in active if work[i][i] < 0), None)
        if neg is not None:
            return lift({neg: Q1})
        pos = next((i for i in active if work[i][i] > 0), None)
        if pos is None:
            # all active diagonals are zero; any off-diagonal entry is indefinite
            for i in active:
                for j in active:
                    if j > i and work[i][j] != 0:
                        s = Q1 if work[i][j] > 0 else -Q1
                        return lift({i: Q1, j: -s})
            return None
        d = work[pos][pos]
        coeffs = {j: work[pos][j] / d for j in active if j != pos}
        steps.append((pos, coeffs))
        rest = [j for j in active if j != pos]
        for i in rest:
            fi = work[i][pos] / d
            if fi:
                for j in rest:
                    work[i][j] -= fi * work[pos][j]
        active = rest
    return None
