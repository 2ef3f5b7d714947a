"""The benchmark's entry points into tck still resolve and still bind.

``perfbench/common.py`` names every layer function the benchmark calls, the
workloads call them as ``L.<module>.<function>(...)`` with fixed argument
shapes, and they read public names as ``tck.<Name>``.  The files are read
here, not imported as packages, so a change to tck that would break the
benchmark fails tier-1 instead.
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


def _trees():
    """(file name, syntax tree) for each perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _layer_calls():
    """(file name, "<module>.<function>", positional count, keyword names)
    for each call of the form L.<module>.<function>(...) in perfbench, the
    layers being named L or layers there."""
    for file, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id in ("L", "layers")):
                yield (file, f"{node.func.value.attr}.{node.func.attr}", len(node.args),
                       tuple(keyword.arg for keyword in node.keywords))


def test_every_layer_function_resolves():
    common = _load_common()
    for name in common.LAYER_FUNCTIONS:
        assert callable(common._resolve(name)), name


def test_witness_entry_points_bind_the_benchmark_calls():
    calls = {(name.split(".")[1], positional, keywords)
             for file, name, positional, keywords in _layer_calls()
             if file == "certify.py" and name.startswith("witness.")}
    names = {name for name, _, _ in calls}
    assert {"obstruction_check", "project_product_to_first_factor",
            "reduced_obstruction_check"} <= names
    for name, positional, keywords in calls:
        signature = inspect.signature(getattr(tck.witness, name))
        signature.bind(*range(positional), **dict.fromkeys(keywords))


def test_every_layer_call_binds_its_entry_point():
    common = _load_common()
    calls = set(_layer_calls())
    assert {"twisted.isogredience_count", "spectrum.metabelian_spectrum",
            "chevalley.commutator_relation_check", "cli.main"} <= {c[1] for c in calls}
    for file, name, positional, keywords in calls:
        # a name outside LAYER_FUNCTIONS is an AttributeError on the layers
        assert name in common.LAYER_FUNCTIONS, (file, name)
        signature = inspect.signature(common._resolve(name))
        signature.bind(*range(positional), **dict.fromkeys(keywords))


def test_every_tck_name_the_benchmark_reads_is_exported():
    read = {(file, node.attr) for file, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "tck" and not node.attr.startswith("__")}
    assert {"closure", "GroupAutomorphism", "ProductAutomorphism"} <= {name for _, name in read}
    for file, name in read:
        assert name in tck.__all__, (file, name)
