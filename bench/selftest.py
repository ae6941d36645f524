"""Tests of the benchmark itself (not of vopcert).

    python3 bench/selftest.py

They check that the generator is byte-deterministic per seed, that two
traced passes give identical per-layer counts, and that corrupted oracle
and gap witnesses are counted as failures, so the checks really check.
The file name keeps it out of the repository's own pytest collection.
"""

import copy
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

vopcert = run.load_vopcert()

import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class SmallRefute(workloads.OracleRefute):
    pool_size = 4


class SmallGap(workloads.GapCertified):
    pool_size = 1


def _serve_all(workload, docs):
    tally = run.Tally(workload)
    for doc in docs:
        run.serve(workload, doc, tally)
    return tally


def _first_instance():
    parsed = vopcert.parse_instance_text(gen.family(1, 1, vopcert)[0])
    return parsed.instance, parsed.candidate


def _corrupting(workload, corrupt):
    """The workload with every output passed through corrupt(doc, output)."""
    clean = workload.request
    workload.request = lambda doc: corrupt(doc, clean(doc))
    return workload


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(gen.family(5, 30, vopcert), gen.family(5, 30, vopcert))

    def test_seeds_differ(self):
        self.assertNotEqual(gen.family(5, 10, vopcert),
                            gen.family(6, 10, vopcert))

    def test_documents_parse_as_readme_format(self):
        for doc in gen.family(3, 12, vopcert):
            self.assertNotIn(".", doc)
            vopcert.parse_instance_text(doc)


class TracedCountsTest(unittest.TestCase):
    def _counts(self, workload):
        with tempfile.TemporaryDirectory() as tmp:
            metrics, stable = run.traced_run(
                workload, run.Tally(workload), os.path.join(tmp, "spans.json"))
        self.assertTrue(stable)
        return {k: v for k, v in metrics.items() if isinstance(v, int)}

    def test_two_traced_runs_count_alike(self):
        for cls, requests in ((workloads.CertifyMix, 12), (SmallRefute, 3)):
            wl = cls(vopcert, 2)
            wl.trace_requests = requests
            first = self._counts(wl)
            self.assertEqual(first, self._counts(wl))
            self.assertGreater(first["linprog.lp_solve.calls"], 0)

    def test_tracer_restores_every_binding(self):
        import vopcert.linprog as linprog
        solve = linprog.lp_solve
        cones = sys.modules["vopcert.cones"]
        with tracer.Tracer() as tr:
            self.assertIsNot(cones.lp_solve, solve)
            vopcert.certify(*_first_instance())
        self.assertIs(cones.lp_solve, solve)
        self.assertIs(sys.modules["vopcert"].certify,
                      sys.modules["vopcert.certify"].certify)
        self.assertEqual(tr.calls["certify.certify"], 1)
        self.assertEqual(tr.calls["geometry.g2_cone"], 2)


class ChecksCatchCorruptionTest(unittest.TestCase):
    def test_clean_refutations_pass(self):
        wl = SmallRefute(vopcert, 1)
        tally = _serve_all(wl, wl.pool)
        self.assertEqual((tally.attempted, tally.failed), (4, 0))

    def test_corrupted_oracle_witness_is_a_failure(self):
        def witness_at_candidate(doc, out):
            return dict(out, witness=json.loads(doc)["candidate"])

        def matrix_outside_ball(doc, out):
            return dict(out, matrix=[[1] * len(row) for row in out["matrix"]])

        def witness_outside_box(doc, out):
            return dict(out, witness=[100] * len(out["witness"]))

        for corrupt in (witness_at_candidate, matrix_outside_ball,
                        witness_outside_box):
            wl = _corrupting(SmallRefute(vopcert, 1), corrupt)
            tally = _serve_all(wl, wl.pool)
            self.assertEqual(tally.failed, tally.attempted, corrupt.__name__)

    def test_corrupted_gap_witness_is_a_failure(self):
        def column_outside_gradient(doc, out):
            out = copy.deepcopy(out)
            out["witness"][0] = [str(workloads._q(c) + 7)
                                 for c in out["witness"][0]]
            return out

        def no_witness(doc, out):
            return dict(out, holds=None, witness=None)

        clean = SmallGap(vopcert, 1)
        self.assertEqual(_serve_all(clean, clean.pool).failed, 0)
        for corrupt in (column_outside_gradient, no_witness):
            wl = _corrupting(SmallGap(vopcert, 1), corrupt)
            tally = _serve_all(wl, wl.pool)
            self.assertEqual(tally.failed, 1, corrupt.__name__)

    def test_raising_request_is_counted_and_run_goes_on(self):
        wl = workloads.CertifyMix(vopcert, 1)
        docs = gen.family(1, 3, vopcert)
        calls = []

        def flaky(doc):
            calls.append(doc)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return workloads.CertifyMix.request(wl, doc)
        wl.request = flaky
        tally = _serve_all(wl, docs)
        self.assertEqual((tally.attempted, tally.failed), (3, 1))

    def test_changed_output_on_repeat_is_a_failure(self):
        wl = workloads.CertifyMix(vopcert, 1)
        doc = gen.family(1, 1, vopcert)[0]
        tally = _serve_all(wl, [doc])
        _corrupting(wl, lambda doc, out: dict(out, report=dict(
            out["report"], status="Inconclusive" if out["report"]["status"]
            != "Inconclusive" else "RobustCertified")))
        run.serve(wl, doc, tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


if __name__ == "__main__":
    unittest.main()
