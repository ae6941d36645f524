"""Perturbation search against the robust-efficiency definition, and a
proof of the whole ball where the zero matrix's duals give one.

Robustness of a candidate demands that it stay efficient for every additive
perturbation Cx whose Frobenius norm is strictly below a radius. The scan
is the refuting half of that quantifier: it walks a deterministic family of
sparse perturbation matrices, then seeded random lattice ones drawn one at a
time, decides efficiency exactly per candidate, and stops at the first
dominated one under that fixed order; the candidates are shifts of one
`certify.Domination`. A scan that finds nothing proves nothing.

`robust_oracle` first tries to prove the other half. Once the zero matrix
is found efficient, `Domination.ball_certificate` reads the kept dual
supports as affine forms in ssum C and bounds them on the ball: when the
proven radius covers r, no counterexample exists, and the report says so
with the certificate, without drawing a pattern or a sample. Otherwise
the scan runs as it would without the check.

Most candidates cost no LP. Once a selection region's LP shows no
domination, the support S of its dual is kept. For a later candidate C,
the exact unique u >= 0 with A_S(C)^T u = c(C) is a dual feasible point,
so by weak duality the region's LP value is at most u . b_S(C). If that
bound plus the objective's constant is <= 0, the region cannot dominate
and the LP is skipped. That is the same verdict the LP would give, so
the reports do not depend on it. A region keeps up to four such supports.
When S holds only the region's and the feasible set's rows, A_S does not
move with C: the system is eliminated once, its identity checked by
substitution then, and each candidate solves it by integer dot products.

Candidates are `PerturbationMatrix` values: integer numerators over one
denominator. The draw, the ball check and the certificates run on those
integers. Fractions are made only where they are consumed: the rows of an
LP that a certificate could not spare, the substitution re-check of a
refutation, `perturbed_instance`, and reports.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .certify import (
    BallCertificate, Domination, PerturbationMatrix, VOPInstance,
    _verify_domination, efficiency_check,
)
from .errors import ConsistencyError, InstanceFormatError
from .funcs import AffinePiece, PieceFn, QuadPiece
from .rationals import Vec, vadd

REFUTED = "RefutedWithWitness"
NO_COUNTEREXAMPLE = "NoCounterexampleFound"

# random entries live on the k/2^20 grid before rescaling
LATTICE_BITS = 20


@dataclass(frozen=True)
class OracleReport:
    outcome: str
    matrix: Optional[PerturbationMatrix]
    witness: Optional[Vec]
    patterns_tried: int
    samples_tried: int
    budget: int
    seed: int
    exact: bool = True
    note: Optional[str] = None
    # the proof of the whole ball, when it covers the radius
    certificate: Optional[BallCertificate] = None

    @property
    def refuted(self) -> bool:
        return self.outcome == REFUTED


@dataclass(frozen=True)
class RadiusEstimate:
    """One-sided radius probe: a refuted level and the largest clean level.

    clean_below records absence of a found counterexample, never a
    certificate of robustness.
    """

    refuted_at: Optional[Fraction]
    clean_below: Fraction
    trace: Tuple[Tuple[Fraction, str], ...]


def zero_matrix(p: int, n: int) -> PerturbationMatrix:
    return PerturbationMatrix.from_ints(((0,) * n,) * p, 1)


def _entry_matrix(p: int, n: int, den: int, entries) -> PerturbationMatrix:
    nums = [[0] * n for _ in range(p)]
    for (i, j), k in entries:
        nums[i][j] = k
    return PerturbationMatrix.from_ints(nums, den)


class _Patterns:
    """The sparse patterns of `structured_patterns`, built one at a time as
    they are iterated; len() counts them without building any."""

    def __init__(self, p: int, n: int, r: Fraction):
        self.p, self.n, self.rho = p, n, Fraction(r) / 2

    def __len__(self) -> int:
        c = self.p * self.n
        return 2 * c * c    # 2c singles, 4 signs for each of c(c-1)/2 pairs

    def __iter__(self) -> Iterator[PerturbationMatrix]:
        p, n = self.p, self.n
        k, den = self.rho.numerator, self.rho.denominator
        cells = [(i, j) for i in range(p) for j in range(n)]
        for cell in cells:
            for s in (1, -1):
                yield _entry_matrix(p, n, den, ((cell, s * k),))
        for a, b in itertools.combinations(cells, 2):
            for s1, s2 in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
                yield _entry_matrix(p, n, den, ((a, s1 * k), (b, s2 * k)))


def structured_patterns(p: int, n: int, r: Fraction) -> _Patterns:
    """Sparse one- and two-entry matrices at magnitude r/2, fixed order.

    Single entries come first in row-major cell order with the positive sign
    before the negative; then every ordered cell pair with the four sign
    combinations. Both shapes stay strictly inside the Frobenius ball. The
    matrices are built lazily, so a scan that stops early builds only the
    ones it reaches.
    """
    return _Patterns(p, n, r)


def _random_matrix(rng: random.Random, p: int, n: int, r: Fraction) -> PerturbationMatrix:
    den = 1 << LATTICE_BITS
    ks = [[rng.randint(-den, den) for _ in range(n)] for _ in range(p)]
    total = sum(k * k for row in ks for k in row)
    if total == 0:
        return zero_matrix(p, n)
    # the entries k / den have squared norm fro = total / den^2 < t^2, so
    # scaling them by r * (mag / den) / t keeps it strictly below r^2; all
    # in integers: entry = r.num * mag * k / (r.den * den^2 * t)
    t = math.isqrt(total >> 2 * LATTICE_BITS) + 1
    scale = r.numerator * rng.randint(1, den)
    return PerturbationMatrix.from_ints(
        [[scale * k for k in row] for row in ks],
        r.denominator * den * den * t)


def perturbed_instance(inst: VOPInstance, matrix: PerturbationMatrix) -> VOPInstance:
    """Shift every piece of component i by the affine term rows[i] . x."""
    comps = []
    for fn, crow in zip(inst.objectives, matrix.rows):
        pieces = []
        for pc in fn.pieces:
            if isinstance(pc, AffinePiece):
                pieces.append(AffinePiece(vadd(pc.a, crow), pc.b))
            else:
                pieces.append(QuadPiece(pc.h, vadd(pc.a, crow), pc.b))
        comps.append(PieceFn(fn.kind, tuple(pieces)))
    return VOPInstance(tuple(comps), inst.feasible, inst.cone, inst.n)


def robust_oracle(inst: VOPInstance, xbar: Vec, r, budget: int = 1000,
                  seed: int = 0, patterns: bool = True) -> OracleReport:
    """Search the open Frobenius ball of radius r for a refuting C, or
    prove that none exists.

    The candidates are the zero matrix, then the structured patterns, then
    `budget` seeded lattice samples drawn one at a time. Each is checked
    against the ball before it is evaluated, and the scan stops at the
    first refutation, so the report is the first refuting candidate in that
    order and no sample after it is drawn. With piecewise-affine
    objectives each candidate is a shift of one Domination built before
    the scan. A refuting point is re-checked on the perturbed instance.
    When the zero matrix is efficient and the Domination's ball
    certificate covers r, the report is NoCounterexampleFound with that
    certificate, one pattern and no sample tried.
    """
    r = Fraction(r)
    if r <= 0:
        raise InstanceFormatError("perturbation radius must be positive")
    _check_budget(budget)
    return _scan(inst, xbar, _problem(inst, xbar), r, budget, seed, patterns)


def _check_budget(budget: int):
    if budget < 0:
        raise InstanceFormatError("sample budget must be nonnegative")


def _problem(inst: VOPInstance, xbar: Vec) -> Optional[Domination]:
    """The Domination the candidates shift, or None without an exact one."""
    if all(fn.is_affine() for fn in inst.objectives):
        return Domination(inst, xbar)
    return None


def _scan(inst: VOPInstance, xbar: Vec, problem: Optional[Domination],
          r: Fraction, budget: int, seed: int, patterns: bool) -> OracleReport:
    """`robust_oracle` on a problem built by `_problem`, which several scans
    may share: its settled regions carry over, its answers do not change."""
    exact = problem is not None
    pats = structured_patterns(inst.p, inst.n, r) if patterns else ()
    npat = 1 + len(pats)
    rng = random.Random(seed)
    samples = (_random_matrix(rng, inst.p, inst.n, r) for _ in range(budget))
    note = None if exact else "suggestive"
    candidates = itertools.chain((zero_matrix(inst.p, inst.n),), pats, samples)
    for idx, matrix in enumerate(candidates):
        if not matrix.in_ball(r):
            raise ConsistencyError("perturbation candidate outside the open ball")
        res = (problem.point(matrix) if exact else
               efficiency_check(perturbed_instance(inst, matrix), xbar))
        if res.efficient:
            if idx == 0 and exact:
                cert = problem.ball_certificate()
                if cert is not None and cert.covers(r):
                    return OracleReport(NO_COUNTEREXAMPLE, None, None,
                                        patterns_tried=1, samples_tried=0,
                                        budget=budget, seed=seed,
                                        certificate=cert)
            continue
        y = res.witness
        if y is None or not _verify_domination(perturbed_instance(inst, matrix),
                                               xbar, y):
            raise ConsistencyError("oracle refutation failed substitution")
        return OracleReport(REFUTED, matrix, y,
                            patterns_tried=min(idx + 1, npat),
                            samples_tried=max(0, idx + 1 - npat),
                            budget=budget, seed=seed, exact=exact, note=note)
    return OracleReport(NO_COUNTEREXAMPLE, None, None,
                        patterns_tried=npat, samples_tried=budget,
                        budget=budget, seed=seed, exact=exact, note=note)


def radius_estimate(inst: VOPInstance, xbar: Vec, r_max, budget: int = 200,
                    seed: int = 0) -> RadiusEstimate:
    """Bisect [0, r_max] in at most 6 probes, each with the structured
    patterns and a fixed sample budget.

    Probes start at r_max and walk the bisection interval; a refuted probe
    lowers the top, a clean probe raises the bottom, so every clean level
    sits strictly below every refuted one and the trace is monotone. All
    probes scan one Domination; a level its ball certificate covers is
    clean without a scan.
    """
    r_max = Fraction(r_max)
    if r_max < 0:
        raise InstanceFormatError("radius bound must be nonnegative")
    if r_max == 0:
        return RadiusEstimate(None, Fraction(0), ())
    _check_budget(budget)
    problem = _problem(inst, xbar)
    lo, hi = Fraction(0), r_max
    refuted_at: Optional[Fraction] = None
    clean_below = Fraction(0)
    trace = []
    probe = r_max
    for level in range(6):
        rep = _scan(inst, xbar, problem, probe, budget, seed + level, True)
        trace.append((probe, rep.outcome))
        if rep.refuted:
            refuted_at = probe if refuted_at is None else min(refuted_at, probe)
            hi = probe
        else:
            clean_below = max(clean_below, probe)
            lo = probe
        nxt = (lo + hi) / 2
        if nxt in (lo, hi):
            break
        probe = nxt
    if refuted_at is not None and clean_below >= refuted_at:
        raise ConsistencyError("clean radius level above a refuted one")
    return RadiusEstimate(refuted_at, clean_below, tuple(trace))
