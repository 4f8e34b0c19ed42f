"""The library keeps no surface that only tests reach.

An AST scan of src/nonstab: every function and method must be read by code
elsewhere in src (outside its own body), by perfbench/, or by a per-layer
metric of BENCHMARK.json; or be a `cmd_*` handler, which `cli.main` looks up
by name; or be on ALLOWED.  Names are matched as identifiers and attribute
names, so a method that shares its name with something read elsewhere
counts as read.  A function that only tests need lives in tests/conftest.py.
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "nonstab"
# the error-group law and the subgroup elements s_a, public for users of the
# library although no command reads them
ALLOWED = {"compose", "gamma", "GottesmanSpec.element", "GottesmanSpec.rho"}


def parsed(paths):
    return {path: ast.parse(path.read_text()) for path in paths}


def definitions(tree):
    """(qualified name, node) of every module-level function and method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{node.name}.{item.name}", item


def read_names(tree):
    """Identifiers and attribute names read in `tree`, with their counts."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def benchmark_names():
    """The function names in the per-layer metrics, `<module>.<function>.<stat>`."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"].split(".")[-2] for m in contract["per_layer"] if m["name"].count(".") >= 2}


def unread_functions():
    sources = parsed(sorted(SOURCE.glob("*.py")))
    everywhere = Counter(dict.fromkeys(benchmark_names(), 1))
    for tree in [*sources.values(), *parsed(sorted((ROOT / "perfbench").glob("*.py"))).values()]:
        everywhere += read_names(tree)
    for path, tree in sources.items():
        for name, node in definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if short.startswith("__") or short.startswith("cmd_") or name in ALLOWED:
                continue
            if everywhere[short] <= read_names(node)[short]:  # read only in its own body
                yield f"{path.stem}.{name}"


def test_every_library_function_has_a_reader_outside_the_tests():
    defined = {f"{path.stem}.{name}" for path, tree in parsed(SOURCE.glob("*.py")).items()
               for name, _ in definitions(tree)}
    assert {"oracle.kl_check", "oracle.SparseState.inner", "weyl.compose"} <= defined
    assert sorted(unread_functions()) == []
