"""Instance files, report documents, and substitution-only verification."""

import json

import pytest

from helpers import ASYMMETRIC_H_DOC, Q, qv
from vopcert.certify import INCONCLUSIVE, NOT_ROBUST_CERTIFIED, certify
from vopcert.errors import (
    EmptyInteriorError, InstanceFormatError, NotPointedError,
)
from vopcert.geometry import ConicBlockSet, DiscretizedSet, PolyhedralSet
from vopcert.instances import (
    cone_data, decode_vector, describe_document, encode,
    oracle_document, parse_instance, parse_instance_text, report_document,
    verify_report,
)
from vopcert.oracle import robust_oracle


def _ex1_doc():
    return {
        "dims": {"n": 1, "p": 2},
        "objectives": [
            {"kind": "max", "pieces": [{"a": [0]}, {"a": [1]}]},
            {"kind": "min", "pieces": [{"a": [-1]}, {"a": [0]}]},
        ],
        "cone": {"hrep": [[-1, -1], [-1, 0]]},
        "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
        "candidate": [0],
    }


def _parse(doc):
    return parse_instance_text(json.dumps(doc))


def test_example_instance_parses():
    parsed = _parse(_ex1_doc())
    inst = parsed.instance
    assert inst.n == 1 and inst.p == 2
    assert parsed.candidate == qv(0)
    assert inst.cone.dual_neg_gens.generators == (qv(1, 0), qv(1, 1))
    assert isinstance(inst.feasible, PolyhedralSet)


def test_parse_instance_from_file(tmp_path):
    path = tmp_path / "ex1.vop"
    path.write_text(json.dumps(_ex1_doc()))
    parsed = parse_instance(str(path))
    assert parsed.candidate == qv(0)


def test_malformed_rational_rejected():
    doc = _ex1_doc()
    doc["cone"]["hrep"][0][0] = "1/0"
    with pytest.raises(InstanceFormatError, match="malformed rational"):
        _parse(doc)


def test_decimal_float_rejected_everywhere():
    doc = _ex1_doc()
    doc["candidate"] = [0.5]
    with pytest.raises(InstanceFormatError, match="decimal float"):
        _parse(doc)
    with pytest.raises(InstanceFormatError, match="decimal"):
        parse_instance_text(json.dumps(_ex1_doc()).replace("[0]", '["1.5"]', 1))


def test_invalid_cones_rejected_by_name():
    doc = _ex1_doc()
    doc["cone"] = {"hrep": [[0, 1], [0, -1], [-1, 0]]}  # halfline
    with pytest.raises(EmptyInteriorError):
        _parse(doc)
    doc["cone"] = {"hrep": [[-1, 0]]}  # halfspace holds a line
    with pytest.raises(NotPointedError):
        _parse(doc)


def test_unknown_fields_rejected():
    doc = _ex1_doc()
    doc["extra"] = 1
    with pytest.raises(InstanceFormatError, match="unknown field"):
        _parse(doc)
    doc = _ex1_doc()
    doc["objectives"][0]["pieces"][0]["c"] = 3
    with pytest.raises(InstanceFormatError, match="unknown field"):
        _parse(doc)


def test_dimension_mismatches_named():
    doc = _ex1_doc()
    doc["objectives"][0]["pieces"][0]["a"] = [1, 2]
    with pytest.raises(InstanceFormatError, match="expected 1 entries"):
        _parse(doc)
    doc = _ex1_doc()
    doc["objectives"].pop()
    with pytest.raises(InstanceFormatError, match="expected 2 components"):
        _parse(doc)


def test_smooth_kind_checks_piece_count():
    doc = _ex1_doc()
    doc["objectives"][0] = {"kind": "smooth",
                            "pieces": [{"a": [0]}, {"a": [1]}]}
    with pytest.raises(InstanceFormatError, match="exactly one piece"):
        _parse(doc)


def test_asymmetric_quadratic_is_rejected():
    with pytest.raises(InstanceFormatError,
                       match=r"objectives\[0\]\.pieces\[0\]\.h: expected a symmetric"):
        _parse(ASYMMETRIC_H_DOC)
    # the symmetric form of the same function parses, and refutes nothing
    doc = json.loads(json.dumps(ASYMMETRIC_H_DOC))
    doc["objectives"][0]["pieces"][0]["h"] = [[0, 1], [1, 0]]
    parsed = _parse(doc)
    assert certify(parsed.instance, parsed.candidate).status == INCONCLUSIVE


def test_conic_feasible_parses_and_needs_q():
    doc = _ex1_doc()
    doc["dims"] = {"n": 1, "p": 2, "q": 1}
    doc["feasible"] = {"type": "conic",
                       "g": [{"kind": "smooth", "pieces": [{"a": [1]}]}],
                       "cone": {"hrep": [[-1]]}}
    parsed = _parse(doc)
    assert isinstance(parsed.instance.feasible, ConicBlockSet)
    doc["dims"] = {"n": 1, "p": 2}
    with pytest.raises(InstanceFormatError, match="dims.q"):
        _parse(doc)


def test_discretized_feasible_parses():
    doc = _ex1_doc()
    doc["feasible"] = {"type": "discretized",
                       "constraints": [{"a": [1], "b": -1}], "tau": "1/4"}
    parsed = _parse(doc)
    fam = parsed.instance.feasible
    assert isinstance(fam, DiscretizedSet) and fam.tau == Q(1, 4)
    doc["feasible"]["tau"] = -1
    with pytest.raises(InstanceFormatError, match="nonnegative"):
        _parse(doc)


def test_unknown_feasible_type_rejected():
    doc = _ex1_doc()
    doc["feasible"] = {"type": "fancy"}
    with pytest.raises(InstanceFormatError, match="unknown feasible-set type"):
        _parse(doc)


def test_encode_rationals():
    assert encode(Q(1, 3)) == "1/3"
    assert encode(Q(4)) == 4
    assert encode((qv(1, Q(-2, 7)),)) == [[1, "-2/7"]]
    assert encode({"a": None, "b": True}) == {"a": None, "b": True}


def _decode_rows(value):
    return tuple(decode_vector(row) for row in value)


def test_decode_round_trip():
    rows = (qv(1, Q(-2, 7)), qv(0, 3))
    assert _decode_rows(encode(rows)) == rows
    assert decode_vector(encode(qv(Q(5, 2)))) == qv(Q(5, 2))


def test_describe_document_reparses_to_same_sets():
    parsed = _parse(_ex1_doc())
    raw = cone_data(parsed.instance, parsed.candidate)
    doc = json.loads(json.dumps(
        describe_document(parsed.instance, parsed.candidate)))
    for key in ("cone_hrep", "dual_neg_generators", "g1_rows", "g2_rows",
                "tangent_rows", "normal_generators"):
        assert _decode_rows(doc[key]) == tuple(raw[key])
    assert [_decode_rows(m) for m in doc["subdifferentials"]] == \
        [tuple(v) for v in raw["subdifferentials"]]


def test_report_round_trip_verifies():
    parsed = _parse(_ex1_doc())
    verdict = certify(parsed.instance, parsed.candidate)
    orc = robust_oracle(parsed.instance, parsed.candidate, Q(1, 10), budget=0)
    doc = json.loads(json.dumps(report_document(
        parsed.instance, parsed.candidate, verdict, elapsed=0.5,
        oracle=orc, radius=Q(1, 10))))
    assert verify_report(parsed, doc) == []
    assert doc["tool"]["name"] == "vopcert"
    assert doc["oracle"]["outcome"] == "RefutedWithWitness"


def test_corrupted_reports_are_caught():
    parsed = _parse(_ex1_doc())
    verdict = certify(parsed.instance, parsed.candidate)
    orc = robust_oracle(parsed.instance, parsed.candidate, Q(1, 10), budget=0)
    base = json.dumps(report_document(parsed.instance, parsed.candidate,
                                      verdict, oracle=orc, radius=Q(1, 10)))
    bad = json.loads(base)
    bad["oracle"]["witness"] = [5]
    assert any("oracle" in p for p in verify_report(parsed, bad))
    bad = json.loads(base)
    bad["oracle"]["matrix"] = [[1], [0]]
    assert any("ball" in p for p in verify_report(parsed, bad))
    bad = json.loads(base)
    bad["candidate"] = [7]
    assert any("candidate" in p for p in verify_report(parsed, bad))


def test_refuting_verdict_witness_is_checked():
    doc = {
        "dims": {"n": 2, "p": 2},
        "objectives": [
            {"kind": "smooth", "pieces": [{"a": [1, 0]}]},
            {"kind": "smooth", "pieces": [{"a": [0, 1]}]},
        ],
        "cone": {"hrep": [[-1, 0], [0, -1]]},
        "feasible": {"type": "polyhedral", "rows": [], "rhs": []},
        "candidate": [0, 0],
    }
    parsed = _parse(doc)
    verdict = certify(parsed.instance, parsed.candidate)
    assert verdict.status == NOT_ROBUST_CERTIFIED
    rep = json.loads(json.dumps(report_document(
        parsed.instance, parsed.candidate, verdict)))
    assert verify_report(parsed, rep) == []
    rep["witness"] = [1, 1]  # ascent direction cannot pass the row check
    assert any("direction fails" in p for p in verify_report(parsed, rep))
    rep["witness"] = None
    assert any("no witness" in p for p in verify_report(parsed, rep))


def test_oracle_document_shape():
    parsed = _parse(_ex1_doc())
    orc = robust_oracle(parsed.instance, parsed.candidate, Q(1, 10), budget=0)
    doc = oracle_document(orc, Q(1, 10))
    assert doc["radius"] == "1/10" and doc["matrix"] == [["1/20"], [0]]
