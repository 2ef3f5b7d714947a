"""The benchmark's entry points into tck still resolve and still bind.

``perfbench/common.py`` names every layer function the benchmark calls, and
``perfbench/certify.py`` calls the witness entry points with fixed argument
shapes.  Both files are read here, not imported as packages, so a change to
tck that would break the benchmark fails tier-1 instead.
"""

import ast
import inspect
import types
from pathlib import Path

import tck.witness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_common():
    """perfbench/common.py as a module, compiled from its text so that no
    bytecode is written next to it."""
    path = PERFBENCH / "common.py"
    module = types.ModuleType("perfbench_common")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _witness_calls():
    """(function, positional count, keyword names) for each call of the form
    L.witness.<function>(...) in perfbench/certify.py."""
    tree = ast.parse((PERFBENCH / "certify.py").read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "witness"):
            yield (node.func.attr, len(node.args),
                   tuple(keyword.arg for keyword in node.keywords))


def test_every_layer_function_resolves():
    common = _load_common()
    for name in common.LAYER_FUNCTIONS:
        assert callable(common._resolve(name)), name


def test_witness_entry_points_bind_the_benchmark_calls():
    calls = set(_witness_calls())
    names = {name for name, _, _ in calls}
    assert {"obstruction_check", "project_product_to_first_factor",
            "reduced_obstruction_check"} <= names
    for name, positional, keywords in calls:
        signature = inspect.signature(getattr(tck.witness, name))
        signature.bind(*range(positional), **dict.fromkeys(keywords))
