"""Golden CLI outputs stay byte-identical.

The fixture holds instance documents with the exit code and stdout the CLI
produced for them; tests/fixtures/make_golden.py regenerates it.
"""

import contextlib
import io
import json
import os

import pytest

from vopcert.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden.json")

with open(FIXTURE, encoding="ascii") as _fh:
    CASES = json.load(_fh)


def _run(argv, doc, tmp_path):
    path = tmp_path / "inst.vop"
    path.write_text(json.dumps(doc), encoding="ascii")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], str(path)] + argv[1:])
    out = buf.getvalue()
    if argv[0] == "certify":
        report = json.loads(out)
        assert "timings" in report
        del report["timings"]
        out = json.dumps(report, indent=1) + "\n"
    return code, out


def test_corpus_covers_every_command():
    commands = [case["argv"][0] for case in CASES]
    assert commands.count("certify") >= 30
    assert commands.count("describe") >= 30
    assert commands.count("gap") >= 4
    assert commands.count("oracle") >= 4
    assert commands.count("radius") >= 1


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{c['argv'][0]}-{c['name']}" for c in CASES])
def test_output_matches_golden(case, tmp_path):
    code, out = _run(case["argv"], case["instance"], tmp_path)
    assert code == case["exit"]
    assert out == case["stdout"]
