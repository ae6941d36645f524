"""Source-level invariants that must hold under `python -O` as well."""

import ast
import importlib
import importlib.util
from pathlib import Path

import vopcert

SRC = Path(vopcert.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_assert_in_src():
    # a bare assert vanishes under -O, and an AssertionError escapes the CLI
    # as a traceback with exit 1, which reads as NotRobustCertified
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{node.lineno}" for node in _nodes(path)
                  if isinstance(node, ast.Assert)
                  or (isinstance(node, ast.Raise) and node.exc is not None
                      and _raises_assertion_error(node))]
    assert not found, "assert or AssertionError in src: " + ", ".join(found)


def test_single_process_without_environment_knobs():
    pools = ("concurrent", "multiprocessing", "threading")
    knobs = ("environ", "getenv")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _nodes(path):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                found += [f"{where} imports {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] in pools]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                root = node.module.split(".")[0]
                if root in pools or (root == "os" and any(
                        alias.name in knobs for alias in node.names)):
                    found.append(f"{where} imports from {node.module}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "os" and node.attr in knobs):
                found.append(f"{where} reads os.{node.attr}")
    assert not found, "a second process or an environment knob: " + ", ".join(found)


def test_no_hand_rolled_weighted_sums():
    # a weighted sum is rationals.lincomb; an `x = vadd(x, ...)` fold is a
    # copy of it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _nodes(path):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "vadd"
                    and any(isinstance(arg, ast.Name)
                            and arg.id == node.targets[0].id
                            for arg in node.value.args)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "vadd fold instead of lincomb: " + ", ".join(found)


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
