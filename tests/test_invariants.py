"""Source-level invariants that must hold under `python -O` as well."""

import ast
from pathlib import Path

import vopcert

SRC = Path(vopcert.__file__).parent


def test_no_bare_assert_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "bare assert vanishes under -O: " + ", ".join(found)
