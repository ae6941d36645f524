"""Seeded instance documents for the benchmark workloads.

The family mirrors the acceptance-test distribution of piecewise-affine
instances (three rotating modes, n in 2..4, p in 2..3, integer boxes that
straddle zero, random pointed ordering cones) and consumes the random
stream in the same order, so a seed names one fixed sequence of
documents. Documents are the JSON instance format of the README. Every
number the family draws is an integer, so none needs the "num/den"
string form; the cone is given by its generators.
"""

import itertools
import json
import random
from fractions import Fraction

MODES = ("generic", "descent", "span")


def _random_cone_gens(rng, p, validate, rejected):
    """Integer generators of a pointed full-interior cone, by rejection."""
    while True:
        gens = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(p)]
        try:
            validate(p, generators=tuple(tuple(Fraction(c) for c in g)
                                         for g in gens))
        except rejected:
            continue
        return gens


def _orthant_cone_gens(rng, p):
    """Generators of a pointed cone containing the nonnegative orthant:
    a column-dominant Z-matrix, so every dual generator is nonnegative."""
    offs = [[0 if i == j else rng.randint(0, 1) for i in range(p)]
            for j in range(p)]
    gens = []
    for j in range(p):
        col = [-offs[j][i] for i in range(p)]
        col[j] = sum(offs[j]) + rng.randint(1, 2)
        gens.append(col)
    return gens


def _box(rng, n):
    rows, rhs, corner = [], [], []
    for i in range(n):
        hi = rng.randint(1, 2)
        lo = rng.randint(1, 2)
        rows.append([1 if k == i else 0 for k in range(n)])
        rhs.append(hi)
        rows.append([-1 if k == i else 0 for k in range(n)])
        rhs.append(lo)
        corner.append(hi)
    return rows, rhs, corner


def _components(rng, n, p, mode):
    comps = []
    for k in range(p):
        npieces = 2 if mode == "span" else rng.randint(1, 2)
        pieces = []
        for j in range(npieces):
            if mode == "span" and j == 1:
                a = [-c for c in pieces[0]["a"]]
                b = 0
            elif mode == "span":
                a = [rng.randint(-2, 2) for _ in range(n)]
                a[k % n] = rng.choice((-2, -1, 1, 2))
                b = 0
            else:
                a = [rng.randint(-2, 2) for _ in range(n)]
                if mode == "descent":
                    a[0] = abs(a[0]) + 1
                b = 0 if j == 0 else rng.randint(-1, 1)
            pieces.append({"a": a, "b": b})
        if mode == "span":
            kind = "max"
        else:
            kind = "max" if rng.random() < 0.5 else "min"
        comps.append({"kind": kind, "pieces": pieces})
    return comps


def instance_doc(rng, mode, validate, rejected):
    """One instance document; draws from rng exactly once per random choice."""
    if mode == "span":
        n = 2
        p = rng.randint(2, 3)
        gens = _orthant_cone_gens(rng, p)
        xbar = [0] * n
    else:
        n = rng.randint(2, 4)
        p = rng.randint(2, 3)
        gens = _random_cone_gens(rng, p, validate, rejected)
    rows, rhs, corner = _box(rng, n)
    if mode != "span":
        xbar = corner if rng.random() < 0.5 else [0] * n
    comps = _components(rng, n, p, mode)
    return {
        "dims": {"n": n, "p": p},
        "objectives": comps,
        "cone": {"vrep": gens},
        "feasible": {"type": "polyhedral", "rows": rows, "rhs": rhs},
        "candidate": xbar,
    }


def stream(seed, vopcert):
    """Endless seeded stream of instance documents, as JSON text.

    Modes rotate generic, descent, span by index. `vopcert` supplies the
    ordering-cone validator the rejection sampler needs.
    """
    rng = random.Random(seed)
    for i in itertools.count():
        yield json.dumps(instance_doc(rng, MODES[i % 3],
                                      vopcert.validate_ordering_cone,
                                      vopcert.ConeValidationError),
                         sort_keys=True)


def family(seed, count, vopcert):
    """The first `count` documents of the seeded stream."""
    return list(itertools.islice(stream(seed, vopcert), count))
