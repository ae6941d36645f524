"""Source-level invariants that must hold under `python -O` as well."""

import ast
import importlib
import importlib.util
from pathlib import Path

import vopcert

SRC = Path(vopcert.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_no_bare_assert_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "bare assert vanishes under -O: " + ", ".join(found)


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def test_no_float_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _nodes(path):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno} float(...)")
    assert not found, "float in the exact pipeline: " + ", ".join(found)


def test_no_true_division_in_linprog():
    # the tableau holds ints, and int / int is a float
    found = [node.lineno for node in _nodes(SRC / "linprog.py")
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div)]
    assert not found, f"'/' in linprog.py at lines {found}"


def test_every_tracer_target_resolves():
    # bench/tracer.py looks each target up by name; one that is gone makes
    # every traced benchmark run fail with AttributeError
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{fname}" for layer, fname, _ in tracer.targets()
               if not hasattr(importlib.import_module(f"vopcert.{layer}"), fname)]
    assert not missing, "tracer targets missing from vopcert: " + ", ".join(missing)
