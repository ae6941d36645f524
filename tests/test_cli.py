"""Command-line driver: exit codes, text output, JSON round trips."""

import json

import pytest

from helpers import ASYMMETRIC_H_DOC
from vopcert import cli
from vopcert.cli import main
from vopcert.errors import ConsistencyError
from vopcert.instances import parse_instance, verify_report
from vopcert.linprog import LpInternalError

EX1 = {
    "dims": {"n": 1, "p": 2},
    "objectives": [
        {"kind": "max", "pieces": [{"a": [0]}, {"a": [1]}]},
        {"kind": "min", "pieces": [{"a": [-1]}, {"a": [0]}]},
    ],
    "cone": {"hrep": [[-1, -1], [-1, 0]]},
    "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
    "candidate": [0],
}

ROBUST = {
    "dims": {"n": 1, "p": 2},
    "objectives": [
        {"kind": "smooth", "pieces": [{"a": [1]}]},
        {"kind": "smooth", "pieces": [{"a": [-1]}]},
    ],
    "cone": {"hrep": [[-1, 0], [0, -1]]},
    "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
    "candidate": [0],
}

DESCENT = {
    "dims": {"n": 2, "p": 2},
    "objectives": [
        {"kind": "smooth", "pieces": [{"a": [1, 0]}]},
        {"kind": "smooth", "pieces": [{"a": [0, 1]}]},
    ],
    "cone": {"hrep": [[-1, 0], [0, -1]]},
    "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
    "candidate": [0, 0],
}


# (|x1|, |x2|) as maxima: the zero matrix's duals prove the ball r^2 < 1/2
ABS_PAIR = {
    "dims": {"n": 2, "p": 2},
    "objectives": [
        {"kind": "max", "pieces": [{"a": [1, 0]}, {"a": [-1, 0]}]},
        {"kind": "max", "pieces": [{"a": [0, 1]}, {"a": [0, -1]}]},
    ],
    "cone": {"hrep": [[-1, 0], [0, -1]]},
    "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
    "candidate": [0, 0],
}


def _write(tmp_path, doc, name="inst.vop"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_text_inconclusive(tmp_path, capsys):
    assert main(["certify", _write(tmp_path, EX1)]) == 2
    out = capsys.readouterr().out
    assert "Inconclusive" in out
    assert "necessary-intersection: yes" in out
    assert "sufficient-intersection: no" in out
    assert "nonascent-cones-coincide: no" in out
    assert "oracle" in out  # referral line


def test_certify_exit_codes_span_statuses(tmp_path, capsys):
    assert main(["certify", _write(tmp_path, ROBUST, "r.vop")]) == 0
    assert "RobustCertified" in capsys.readouterr().out
    assert main(["certify", _write(tmp_path, DESCENT, "d.vop")]) == 1
    out = capsys.readouterr().out
    assert "NotRobustCertified" in out and "witness direction" in out


def test_certify_json_verifies(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    assert main(["certify", path, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Inconclusive"
    assert verify_report(parse_instance(path), doc) == []


def test_oracle_refutes_and_reports(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    assert main(["oracle", path, "--radius", "1/10", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert "RefutedWithWitness" in out
    assert main(["oracle", path, "--radius", "1/10", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "RefutedWithWitness"
    assert doc["matrix"] == [["1/20"], [0]]


def test_oracle_clean_is_inconclusive(tmp_path, capsys):
    path = _write(tmp_path, ROBUST, "r.vop")
    code = main(["oracle", path, "--radius", "1/2", "--samples", "50"])
    assert code == 2
    assert "NoCounterexampleFound" in capsys.readouterr().out


def test_oracle_accepts_decimal_radius(tmp_path, capsys):
    assert main(["oracle", _write(tmp_path, EX1), "--radius", "0.1"]) == 1
    assert "1/20" in capsys.readouterr().out


def test_radius_command(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    assert main(["radius", path, "--max", "1/10", "--samples", "20"]) == 1
    out = capsys.readouterr().out
    assert "1/320" in out
    assert main(["radius", _write(tmp_path, ROBUST, "r.vop"),
                 "--max", "1/2", "--samples", "20", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["refuted_at"] is None and doc["clean_below"] == "1/2"


def test_negative_sample_budget_exits_65(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    assert main(["oracle", path, "--radius", "1/10", "--samples", "-5"]) == 65
    assert "sample budget" in capsys.readouterr().err
    assert main(["radius", path, "--max", "1/10", "--samples", "-3"]) == 65
    assert "sample budget" in capsys.readouterr().err


def test_zero_radius_still_checks_the_budget(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    assert main(["radius", path, "--max", "0", "--samples", "-5"]) == 65
    assert "sample budget" in capsys.readouterr().err


def test_asymmetric_quadratic_exits_65(tmp_path, capsys):
    assert main(["certify", _write(tmp_path, ASYMMETRIC_H_DOC)]) == 65
    assert "objectives[0].pieces[0].h: expected a symmetric" in \
        capsys.readouterr().err


def test_describe_round_trip(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    assert main(["describe", path]) == 0
    out = capsys.readouterr().out
    assert "dual" in out and "(1, 0); (1, 1)" in out
    assert main(["describe", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dual_neg_generators"] == [[1, 0], [1, 1]]


def test_gap_command_is_advisory(tmp_path, capsys):
    boxed = dict(EX1)
    boxed["feasible"] = {"type": "polyhedral",
                         "rows": [[1], [-1]], "rhs": [1, 1]}
    assert main(["gap", _write(tmp_path, boxed)]) == 2
    out = capsys.readouterr().out
    assert "gap-necessary" in out


def test_gap_on_discretized_family_with_a_vacuous_member(tmp_path, capsys):
    # the member 0*x - 1 <= 0 holds everywhere and is dropped, not turned
    # into a zero polyhedral row
    disc = {**EX1, "feasible": {"type": "discretized", "constraints": [
        {"a": [0], "b": -1}, {"a": [1], "b": -1}, {"a": [-1], "b": -1}]}}
    assert main(["gap", _write(tmp_path, disc)]) in (0, 1, 2)
    captured = capsys.readouterr()
    assert "gap-necessary" in captured.out and not captured.err


def test_gap_needs_bounded_polytope(tmp_path, capsys):
    assert main(["gap", _write(tmp_path, EX1)]) == 70
    assert "bounded polytope" in capsys.readouterr().err


def test_verify_report_round_trip(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    assert main(["certify", path, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 0
    assert "re-validated" in capsys.readouterr().out
    doc["candidate"] = [3]
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 65
    assert "FAIL" in capsys.readouterr().out


DESCENT3 = {
    "dims": {"n": 3, "p": 2},
    "objectives": [
        {"kind": "smooth", "pieces": [{"a": [1, 0, 0]}]},
        {"kind": "smooth", "pieces": [{"a": [0, 1, 0]}]},
    ],
    "cone": {"hrep": [[-1, 0], [0, -1]]},
    "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
    "candidate": [0, 0, 0],
}


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d.update(witness=d["witness"][:2]),
     "verdict witness: expected 3 entries, got 2"),
    (lambda d: d["cones"].update(tangent_rows=[[1, 0]]),
     "tangent_rows[0]: expected 3 entries, got 2"),
    (lambda d: d["oracle"].update(matrix=[[0], [0]]),
     "oracle: oracle.matrix[0]: expected 3 entries, got 1"),
    (lambda d: d["oracle"].update(matrix=d["oracle"]["matrix"] * 2),
     "oracle: oracle.matrix: expected 2 rows, got 4"),
    (lambda d: d["oracle"].update(witness=d["oracle"]["witness"][:2]),
     "oracle: oracle.witness: expected 3 entries, got 2"),
], ids=["verdict-witness", "tangent-width", "matrix-width", "matrix-rows",
        "oracle-witness"])
def test_verify_report_wrong_length_data_exits_65(tmp_path, capsys, mangle,
                                                  message):
    path = _write(tmp_path, DESCENT3)
    assert main(["certify", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert main(["oracle", path, "--radius", "1/10", "--json"]) == 1
    doc["oracle"] = json.loads(capsys.readouterr().out)
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 0
    capsys.readouterr()
    mangle(doc)
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 65
    assert f"FAIL {message}" in capsys.readouterr().out.splitlines()


def test_oracle_proves_the_ball_without_a_sample(tmp_path, capsys):
    path = _write(tmp_path, ABS_PAIR)
    assert main(["oracle", path, "--radius", "1/1000"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "outcome: NoCounterexampleFound",
        "proved: efficient for every C with ||C||_F^2 < 1/2",
        "tried: 1 patterns, 0 samples (budget 1000, seed 0)",
    ]
    assert main(["oracle", path, "--radius", "1/1000", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["patterns_tried"], doc["samples_tried"]) == (1, 0)
    assert doc["certificate"] == {
        "radius_sq": "1/2",
        "regions": [{"pieces": pieces, "support": [0, 1]}
                    for pieces in ([0, 0], [0, 1], [1, 0], [1, 1])]}
    # a radius the certificate does not cover is scanned as before
    assert main(["oracle", path, "--radius", "1", "--samples", "5",
                 "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["patterns_tried"], doc["samples_tried"]) == (33, 5)
    assert "certificate" not in doc


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d["certificate"].update(radius_sq="1"),
     "oracle: certificate: radius_sq 1 is above the derived 1/2"),
    (lambda d: d.update(radius="3/4"),
     "oracle: radius is above the certificate's"),
    (lambda d: d["certificate"]["regions"][0].update(support=[1]),
     "oracle: certificate: supports differ from the derived ones"),
    (lambda d: d["certificate"].update(radius_sq=[1, 2]),
     "oracle: not a rational: [1, 2]"),
], ids=["radius-sq-above-derived", "radius-above-certificate",
        "support-rows", "radius-sq-not-rational"])
def test_verify_report_rederives_the_ball_certificate(tmp_path, capsys,
                                                      mangle, message):
    path = _write(tmp_path, ABS_PAIR)
    assert main(["certify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["oracle", path, "--radius", "1/1000", "--json"]) == 2
    doc["oracle"] = json.loads(capsys.readouterr().out)
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 0
    capsys.readouterr()
    mangle(doc["oracle"])
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 65
    assert f"FAIL {message}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("instance, radius, code, bad", [
    (EX1, "1/10", 1, "-1/10"),
    (EX1, "1/10", 1, "0"),
    (ABS_PAIR, "1/1000", 2, "-1/1000"),
    (ABS_PAIR, "1/1000", 2, "0"),
], ids=["refutation-negative", "refutation-zero", "certificate-negative",
        "certificate-zero"])
def test_verify_report_rejects_a_nonpositive_radius(tmp_path, capsys,
                                                    instance, radius, code,
                                                    bad):
    # the open ball of radius r <= 0 is empty: no matrix lies in it and no
    # certificate proves anything about it
    path = _write(tmp_path, instance)
    assert main(["oracle", path, "--radius", radius, "--json"]) == code
    odoc = json.loads(capsys.readouterr().out)
    doc = {"candidate": instance["candidate"], "oracle": odoc}
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 0
    capsys.readouterr()
    odoc["radius"] = bad
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 65
    assert capsys.readouterr().out.splitlines() == [
        "FAIL oracle.radius: expected a positive rational"]


def test_verify_report_rejects_a_certificate_the_instance_lacks(tmp_path,
                                                                 capsys):
    # f = (x, -x) is efficient at every shift of the line, but its zero
    # matrix keeps an empty support: no certificate to derive
    path = _write(tmp_path, ROBUST)
    assert main(["certify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["oracle", path, "--radius", "1/10", "--samples", "3",
                 "--json"]) == 2
    doc["oracle"] = json.loads(capsys.readouterr().out)
    doc["oracle"]["certificate"] = {"radius_sq": "1", "regions": []}
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 65
    assert "FAIL oracle: certificate: the instance gives none" in \
        capsys.readouterr().out.splitlines()


def test_usage_errors_exit_64(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", _write(tmp_path, EX1)])  # --radius is required
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_bad_files_exit_65(tmp_path, capsys):
    path = tmp_path / "broken.vop"
    path.write_text("{not json")
    assert main(["certify", str(path)]) == 65
    assert main(["certify", str(tmp_path / "missing.vop")]) == 65
    path.write_text(json.dumps({**EX1, "candidate": [0.5]}))
    assert main(["certify", str(path)]) == 65
    assert "decimal float" in capsys.readouterr().err


def test_infeasible_candidate_exits_65(tmp_path, capsys):
    doc = dict(EX1)
    doc["feasible"] = {"type": "polyhedral", "rows": [[-1]], "rhs": [-1]}
    assert main(["certify", _write(tmp_path, doc)]) == 65
    assert "feasible" in capsys.readouterr().err


def test_conic_and_discretized_paths(tmp_path, capsys):
    conic = {
        "dims": {"n": 2, "p": 2, "q": 2},
        "objectives": [
            {"kind": "smooth", "pieces": [{"a": [-1, 0]}]},
            {"kind": "smooth", "pieces": [{"a": [0, -1]}]},
        ],
        "cone": {"hrep": [[-1, 0], [0, -1]]},
        "feasible": {"type": "conic",
                     "g": [{"kind": "smooth",
                            "pieces": [{"a": [1, 1], "b": -1}]},
                           {"kind": "smooth", "pieces": [{"a": [0, -1]}]}],
                     "cone": {"hrep": [[-1, 0], [0, -1]]}},
        "candidate": [1, 0],
    }
    assert main(["certify", _write(tmp_path, conic, "c.vop")]) == 0
    assert "conic-gate: yes" in capsys.readouterr().out
    disc = {
        "dims": {"n": 1, "p": 2},
        "objectives": [
            {"kind": "max", "pieces": [{"a": [1]}, {"a": [-1]}]},
            {"kind": "max", "pieces": [{"a": [1]}, {"a": [0]}]},
        ],
        "cone": {"hrep": [[-1, 0], [0, -1]]},
        "feasible": {"type": "discretized",
                     "constraints": [{"a": [1], "b": -1}], "tau": "1/8"},
        "candidate": [0],
    }
    code = main(["certify", _write(tmp_path, disc, "disc.vop")])
    out = capsys.readouterr().out
    assert "discretization-dependent" in out
    assert code in (0, 1, 2)


def _report_path(tmp_path, capsys, text=None, **changes):
    path = _write(tmp_path, EX1)
    assert main(["certify", path, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    doc.update(changes)
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(doc) if text is None else text,
                     encoding="utf-8")
    return path, str(rpath)


def test_non_ascii_instance_exits_65(tmp_path, capsys):
    path = tmp_path / "inst.vop"
    path.write_text(json.dumps(EX1)[:-1] + ', "café": 1}', encoding="utf-8")
    assert main(["certify", str(path)]) == 65
    assert "cannot read input" in capsys.readouterr().err


def test_non_ascii_report_exits_65(tmp_path, capsys):
    path, rpath = _report_path(tmp_path, capsys, text='{"note": "café"}')
    assert main(["verify-report", path, rpath]) == 65
    assert "cannot read input" in capsys.readouterr().err


def test_report_that_is_a_list_exits_65(tmp_path, capsys):
    path, rpath = _report_path(tmp_path, capsys, text="[]")
    assert main(["verify-report", path, rpath]) == 65
    assert "report: expected an object" in capsys.readouterr().err


def test_report_cones_list_exits_65(tmp_path, capsys):
    path, rpath = _report_path(tmp_path, capsys, cones=[])
    assert main(["verify-report", path, rpath]) == 65
    assert "FAIL cones: expected an object" in capsys.readouterr().out


def test_report_entry_not_object_exits_65(tmp_path, capsys):
    path, rpath = _report_path(tmp_path, capsys, reports=["necessary-span"])
    assert main(["verify-report", path, rpath]) == 65
    assert "FAIL reports[0]: expected an object" in capsys.readouterr().out


@pytest.mark.parametrize("condition", [[], {}, None],
                         ids=["list", "object", "missing"])
def test_report_condition_not_a_string_exits_65(tmp_path, capsys, condition):
    path = _write(tmp_path, EX1)
    assert main(["certify", path, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    doc["reports"][0]["condition"] = condition
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps(doc))
    assert main(["verify-report", path, str(rpath)]) == 65
    assert "FAIL reports[0].condition: expected a string" in \
        capsys.readouterr().out.splitlines()


def test_consistency_error_exits_70(tmp_path, capsys, monkeypatch):
    def broken(inst, xbar):
        raise ConsistencyError("two routes disagree")
    monkeypatch.setattr(cli, "certify", broken)
    assert main(["certify", _write(tmp_path, EX1)]) == 70
    assert "internal error: two routes disagree" in capsys.readouterr().err


def test_lp_internal_error_exits_70(tmp_path, capsys, monkeypatch):
    def broken(inst, xbar, seed=0):
        raise LpInternalError("witness failed substitution")
    monkeypatch.setattr(cli, "gap_necessary_check", broken)
    assert main(["gap", _write(tmp_path, EX1)]) == 70
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("feasible", [
    {"type": "polyhedral", "rows": [[0]], "rhs": [1]},
    {"type": "discretized", "constraints": []},
])
def test_set_rejected_by_its_constructor_exits_65(tmp_path, capsys, feasible):
    assert main(["certify", _write(tmp_path, {**EX1, "feasible": feasible})]) == 65
    assert "invalid input: feasible:" in capsys.readouterr().err


@pytest.mark.parametrize("constraints", [5, None, True, "x"],
                         ids=["int", "null", "bool", "string"])
def test_discretized_constraints_not_a_list_exits_65(tmp_path, capsys,
                                                     constraints):
    feasible = {"type": "discretized", "constraints": constraints}
    assert main(["certify", _write(tmp_path, {**EX1, "feasible": feasible})]) == 65
    assert ("invalid input: feasible.constraints: expected a nonempty list"
            in capsys.readouterr().err)
