"""Write golden.json: CLI output for a fixed corpus of instance documents.

Each case is one instance document and one command line; the fixture keeps
the exit code and the exact stdout. `certify --json` output drops its
`timings` entry, which is the only part that varies between runs.

Run from the repository root against the code whose output is the
reference:

    PYTHONPATH=src python tests/fixtures/make_golden.py
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from helpers import af, maxfn, minfn, qp, qv, random_instance, smooth  # noqa: E402
from vopcert.certify import ROBUST_CERTIFIED, VOPInstance, certify  # noqa: E402
from vopcert.cli import main  # noqa: E402
from vopcert.funcs import AffinePiece  # noqa: E402
from vopcert.geometry import (  # noqa: E402
    ConicBlockSet, DiscretizedSet, PolyhedralSet, validate_ordering_cone,
)
from vopcert.instances import encode  # noqa: E402

OUT = os.path.join(HERE, "golden.json")

ORTHANT2 = validate_ordering_cone(2, rows=(qv(-1, 0), qv(0, -1)))
K_EX = validate_ordering_cone(2, rows=(qv(-1, -1), qv(-1, 0)))
Q1CONE = validate_ordering_cone(1, rows=(qv(-1),))
WHOLE_LINE = PolyhedralSet((), ())
BOX_SYM = PolyhedralSet((qv(1), qv(-1)), qv(1, 1))
TRIANGLE = PolyhedralSet((qv(-1, 0), qv(0, -1), qv(1, 1)), qv(0, 0, 1))
F_EX = (maxfn(af([0]), af([1])), minfn(af([-1]), af([0])))


def _piece_doc(piece):
    doc = {"a": piece.a, "b": piece.b}
    if not isinstance(piece, AffinePiece):
        doc["h"] = piece.h
    return doc


def _fn_doc(fn):
    return {"kind": fn.kind, "pieces": [_piece_doc(p) for p in fn.pieces]}


def _cone_doc(cone):
    return {"hrep": cone.hrep.rows}


def _feasible_doc(omega):
    if isinstance(omega, PolyhedralSet):
        return {"type": "polyhedral", "rows": omega.rows, "rhs": omega.rhs}
    if isinstance(omega, ConicBlockSet):
        return {"type": "conic", "g": [_fn_doc(fn) for fn in omega.g],
                "cone": _cone_doc(omega.q_cone)}
    return {"type": "discretized",
            "constraints": [_piece_doc(c) for c in omega.constraints],
            "tau": omega.tau}


def instance_doc(inst, xbar):
    dims = {"n": inst.n, "p": inst.p}
    if isinstance(inst.feasible, ConicBlockSet):
        dims["q"] = inst.feasible.q_cone.dim
    return encode({
        "dims": dims,
        "objectives": [_fn_doc(fn) for fn in inst.objectives],
        "cone": _cone_doc(inst.cone),
        "feasible": _feasible_doc(inst.feasible),
        "candidate": xbar,
    })


def cone_cases():
    """(name, instance, candidate) for certify and describe."""
    cases = []
    for mode in ("generic", "descent", "span"):
        for k in range(9):
            rng = random.Random(4000 + 100 * k)
            inst, xbar = random_instance(rng, mode, nmax=3)
            cases.append((f"{mode}-{k}", inst, xbar))
    cases.append(("worked-example", VOPInstance(F_EX, WHOLE_LINE, K_EX, 1),
                  qv(0)))
    cases.append(("quadratic", VOPInstance(
        (smooth(qp([[2, 0], [0, 1]], [1, 0])), smooth(af([-1, 1]))),
        PolyhedralSet((qv(1, 0), qv(0, 1)), qv(1, 1)), ORTHANT2, 2),
        qv(1, Fraction(1, 2))))
    gate_pass = ConicBlockSet((smooth(af([1, 1], -1)), smooth(af([0, -1]))),
                              ORTHANT2)
    cases.append(("conic-gate-passing", VOPInstance(
        (smooth(af([-1, 0])), smooth(af([0, -1]))), gate_pass, ORTHANT2, 2),
        qv(1, 0)))
    gate_fail = ConicBlockSet((maxfn(af([1, 0], -1), af([-1, 0], -1)),),
                              Q1CONE)
    cases.append(("conic-gate-failing", VOPInstance(
        (smooth(af([1, 0])), smooth(af([0, 1]))), gate_fail, ORTHANT2, 2),
        qv(0, 0)))
    zero_map = ConicBlockSet((smooth(af([0, 0])),), Q1CONE)
    cases.append(("conic-zero-map", VOPInstance(
        (smooth(af([1, 0])), smooth(af([0, 1]))), zero_map, ORTHANT2, 2),
        qv(0, 0)))
    skew = validate_ordering_cone(2, generators=(qv(1, 1), qv(0, 1)))
    cases.append(("inexact-scalarization", VOPInstance(
        (maxfn(qp([[1]], [0]), af([1])), smooth(af([1]))), BOX_SYM, skew, 1),
        qv(1)))
    cases.append(("discretized", VOPInstance(
        (maxfn(af([1]), af([-1])), maxfn(af([1]), af([0]))),
        DiscretizedSet((af([1], -1), af([-1], -2)), Fraction(1, 8)),
        ORTHANT2, 1), qv(0)))
    return cases


def gap_cases():
    """(name, instance, candidate) on bounded polytopes for gap."""
    cases = [
        ("gap-worked-example-box",
         VOPInstance(F_EX, BOX_SYM, K_EX, 1), qv(0)),
        ("gap-smooth-aligned",
         VOPInstance((smooth(af([1])), smooth(af([1]))), BOX_SYM,
                     ORTHANT2, 1), qv(1)),
        ("gap-triangle",
         VOPInstance((maxfn(af([1, 0]), af([0, 1])), smooth(af([-1, -1]))),
                     TRIANGLE, ORTHANT2, 2), qv(0, 0)),
    ]
    # non-smooth at the candidate: no matrix places zero in the gap set of
    # the first (its name is from the vertex-and-sample search that gave up
    # there), and a vertex matrix is the witness of the second
    for name, seed in (("gap-search-exhausted", 8), ("gap-vertex-witness", 37)):
        inst, xbar = random_instance(random.Random(seed), "generic", nmax=2,
                                     pmax=2)
        cases.append((name, inst, xbar))
    seed = 0
    while True:
        inst, xbar = random_instance(random.Random(seed), "span", pmax=2)
        if inst.p == 2 and certify(inst, xbar).status == ROBUST_CERTIFIED:
            cases.append((f"gap-certified-span-{seed}", inst, xbar))
            return cases
        seed += 1


def oracle_cases():
    """(name, instance, candidate, argv) for oracle and radius."""
    example = VOPInstance(F_EX, WHOLE_LINE, K_EX, 1)
    opposed = VOPInstance((smooth(af([1])), smooth(af([-1]))), WHOLE_LINE,
                          ORTHANT2, 1)
    quadratic = VOPInstance((smooth(qp([[1]], [0])), smooth(af([1]))),
                            WHOLE_LINE, ORTHANT2, 1)
    return [
        ("worked-example-pattern", example, qv(0),
         ["oracle", "--json", "--radius", "1/10"]),
        ("worked-example-sample", example, qv(0),
         ["oracle", "--json", "--radius", "1/10", "--no-patterns",
          "--samples", "50", "--seed", "3"]),
        ("opposed-full-budget", opposed, qv(0),
         ["oracle", "--json", "--radius", "1/10"]),
        ("quadratic-suggestive", quadratic, qv(0),
         ["oracle", "--json", "--radius", "1/10", "--samples", "2"]),
        ("worked-example-trace", example, qv(0),
         ["radius", "--json", "--max", "1/10", "--samples", "20"]),
    ]


def run(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.vop")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([argv[0], path] + argv[1:])
    out = buf.getvalue()
    if argv[0] == "certify":
        report = json.loads(out)
        report.pop("timings", None)
        out = json.dumps(report, indent=1) + "\n"
    return code, out


def build():
    entries = []
    for name, inst, xbar in cone_cases():
        doc = instance_doc(inst, xbar)
        for argv in (["certify", "--json"], ["describe", "--json"]):
            code, out = run(argv, doc)
            entries.append({"name": name, "argv": argv, "instance": doc,
                            "exit": code, "stdout": out})
    for name, inst, xbar in gap_cases():
        doc = instance_doc(inst, xbar)
        code, out = run(["gap", "--json"], doc)
        entries.append({"name": name, "argv": ["gap", "--json"],
                        "instance": doc, "exit": code, "stdout": out})
    for name, inst, xbar, argv in oracle_cases():
        doc = instance_doc(inst, xbar)
        code, out = run(argv, doc)
        entries.append({"name": name, "argv": argv, "instance": doc,
                        "exit": code, "stdout": out})
    return entries


if __name__ == "__main__":
    entries = build()
    with open(OUT, "w", encoding="ascii") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(entries)} cases to {OUT}")
