"""zero_in_gap against the face-lattice evaluation of the gap set.

The reference walks every face whose relative interior is efficient for the
linear problem and asks an LP whether the convex hull of the face's
vertices holds a point y with xi^T y = xi^T xbar. zero_in_gap decides the
same question with one efficiency check at xbar; the two must agree on
every (instance, matrix) pair of the seeded acceptance families, in both
directions.
"""

import random

from fractions import Fraction

from helpers import random_instance
from vopcert.gapfn import (
    efficient_faces, sampled_scalarizations, vertex_scalarizations,
    zero_in_gap,
)
from vopcert.linprog import eq, feasible_point
from vopcert.rationals import vdot


def face_stage(xbar, columns, omega, cone):
    """Whether an efficient face holds some y with xi^T y = xi^T xbar."""
    targets = tuple(vdot(col, xbar) for col in columns)
    for face in efficient_faces(columns, omega, cone):
        k = len(face.vertices)
        rels = [eq(tuple(vdot(col, v) for v in face.vertices), t)
                for col, t in zip(columns, targets)]
        rels.append(eq(tuple(Fraction(1) for _ in range(k)), 1))
        if feasible_point(rels, k, nonneg=[True] * k) is not None:
            return True
    return False


def test_zero_in_gap_agrees_with_the_face_lattice():
    outcomes = []
    for mode in ("generic", "descent", "span"):
        for seed in range(20):
            inst, xbar = random_instance(random.Random(7000 + seed), mode,
                                         nmax=3)
            xis = vertex_scalarizations(inst.objectives, xbar) + \
                sampled_scalarizations(inst.objectives, xbar, seed, 4)
            for xi in xis:
                fast = zero_in_gap(xbar, xi, inst.feasible, inst.cone)
                slow = face_stage(xbar, xi, inst.feasible, inst.cone)
                assert fast == slow, (mode, seed, xi)
                outcomes.append(fast)
    assert len(outcomes) >= 300
    assert outcomes.count(False) >= 100 and outcomes.count(True) >= 50
