"""The integer-row LP and elimination kernels against the Fraction reference.

Every `lp_solve`, `feasible_point`, `row_echelon`, `matrix_rank`,
`nullspace_basis` and `invert` call that certify, the oracle and the gap
check make on seeded acceptance families is recorded with its result, then
replayed through `fraction_reference`. Results must match exactly: the
same status, value, point, Farkas vector and ray, the same reduced rows,
down to the type of every entry. The reference has no duals, so every
OPTIMAL `dual` is compared with `dual` stripped and checked on its own by
substitution in Fractions.

Functions are wrapped wherever a vopcert module binds them, and modules are
reached through sys.modules (the package attribute `vopcert.certify` is the
function, not the submodule).
"""

import dataclasses
import random
import sys
from fractions import Fraction

import fraction_reference as ref
from helpers import Q, random_instance
from vopcert.certify import NOT_ROBUST_CERTIFIED, certify
from vopcert.gapfn import gap_necessary_check
from vopcert.linprog import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, LpInternalError, LpResult, feasible_point,
    lp_solve,
)
from vopcert.oracle import robust_oracle

KERNEL = {
    "linprog": ("lp_solve", "feasible_point"),
    "rationals": ("row_echelon", "matrix_rank", "nullspace_basis", "invert"),
}
MODES = ("generic", "descent", "span")


def _frozen(value):
    """Snapshot of an argument, so a caller mutating it later cannot
    change what is replayed."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _capture(monkeypatch):
    calls = []
    modules = [mod for key, mod in sys.modules.items()
               if key == "vopcert" or key.startswith("vopcert.")]
    for module, names in KERNEL.items():
        for name in names:
            original = getattr(sys.modules[f"vopcert.{module}"], name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                snapshot = (_name, _frozen(args), _frozen(sorted(kwargs.items())))
                try:
                    out = _original(*args, **kwargs)
                except (ValueError, LpInternalError) as exc:
                    calls.append(snapshot + (type(exc),))
                    raise
                calls.append(snapshot + (out,))
                return out

            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
    return calls


def _run_families():
    rng = random.Random(20261018)
    for i in range(250):
        inst, xbar = random_instance(rng, MODES[i % 3])
        verdict = certify(inst, xbar)
        if verdict.status == NOT_ROBUST_CERTIFIED or i % 9 == 2:
            robust_oracle(inst, xbar, Q(1, 1000), budget=30, seed=11)
        if i % 2 == 0:
            gap_necessary_check(inst, xbar)


def _dual_ok(args, kwargs, out):
    """y >= 0, y^T A = c and y^T b = value over the normalized rows and,
    with nonneg, the sign rows -x_j <= 0, in plain Fraction arithmetic."""
    objective, relations = args[0], args[1]
    nonneg = args[2] if len(args) > 2 else dict(kwargs).get("nonneg")
    n = len(objective)
    rows, rhs = ref.normalize_relations(relations, n)
    for j in range(n):
        if nonneg is not None and nonneg[j]:
            rows.append(tuple(Fraction(-1 if k == j else 0) for k in range(n)))
            rhs.append(Fraction(0))
    y = out.dual
    return (len(y) == len(rows) and all(v >= 0 for v in y)
            and all(sum((v * row[j] for v, row in zip(y, rows)), Fraction(0))
                    == objective[j] for j in range(n))
            and sum((v * b for v, b in zip(y, rhs)), Fraction(0)) == out.value)


def _without_dual(out):
    if isinstance(out, LpResult):
        return dataclasses.replace(out, dual=None)
    return out


def _replay(name, args, kwargs):
    try:
        return getattr(ref, name)(*args, **dict(kwargs))
    except (ValueError, LpInternalError) as exc:
        return type(exc)


def _entries(value):
    if isinstance(value, tuple):
        for v in value:
            yield from _entries(v)
    elif value is not None:
        yield value


def test_kernels_match_the_fraction_reference(monkeypatch):
    calls = _capture(monkeypatch)
    _run_families()
    monkeypatch.undo()
    lps = [c for c in calls if c[0] in KERNEL["linprog"]]
    statuses = {c[3].status for c in lps if c[0] == "lp_solve"}
    assert len(lps) >= 10_000
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert {c[0] for c in calls} >= {"row_echelon", "matrix_rank",
                                     "nullspace_basis", "invert"}
    for name, args, kwargs, out in calls:
        expected = _replay(name, args, kwargs)
        # repr as well as ==: Fraction(2) == 2, but an int in a witness
        # would be a different result
        got = _without_dual(out)
        assert got == expected and repr(got) == repr(expected), (name, args)
    optimal = [c for c in lps if c[0] == "lp_solve" and c[3].status == OPTIMAL]
    assert all(_dual_ok(args, kwargs, out) for _, args, kwargs, out in optimal)
    assert all(c[3].dual is None for c in lps
               if c[0] == "lp_solve" and c[3].status != OPTIMAL)
    # every number the LP kernel returns is a Fraction
    for name, _, _, out in lps:
        fields = ((out.value, out.x, out.farkas, out.ray, out.dual)
                  if name == "lp_solve" else (out,))
        assert all(type(v) is Fraction for v in _entries(fields))


def _random_system(rng, n):
    rels = []
    for _ in range(rng.randint(1, 6)):
        coeffs = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                       if rng.random() < 0.8 else Q(0) for _ in range(n))
        rels.append((coeffs, rng.choice(("<=", "<=", ">=", "==")),
                     Q(rng.randint(-6, 6), rng.randint(1, 2))))
    return rels


def test_random_systems_match_the_fraction_reference():
    rng = random.Random(20261019)
    seen = set()
    signed = 0    # optima whose dual uses a sign row
    farkas_signed = 0    # Farkas vectors that use a sign row
    seen_signed = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        rels = _random_system(rng, n)
        c = tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        out = lp_solve(c, rels)
        got, expected = _without_dual(out), ref.lp_solve(c, rels)
        assert got == expected and repr(got) == repr(expected)
        assert out.status != OPTIMAL or _dual_ok((c, rels), (), out)
        seen.add(got.status)
        nonneg = [rng.random() < 0.5 for _ in range(n)]
        point = feasible_point(rels, n, nonneg)
        assert point == ref.feasible_point(rels, n, nonneg)
        assert repr(point) == repr(ref.feasible_point(rels, n, nonneg))
        # with sign rows: the same result, a Farkas vector over the sign
        # rows as well, and a dual that may use them
        out = lp_solve(c, rels, nonneg)
        got, expected = _without_dual(out), ref.lp_solve(c, rels, nonneg)
        assert got == expected and repr(got) == repr(expected)
        if out.status == OPTIMAL:
            assert _dual_ok((c, rels, nonneg), (), out)
            signed += any(out.dual[len(out.dual) - sum(nonneg):])
        elif out.status == INFEASIBLE:
            signs = out.farkas[len(out.farkas) - sum(nonneg):]
            farkas_signed += any(signs) and any(nonneg)
        seen_signed.add(got.status)
    assert seen == seen_signed == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert signed and farkas_signed
