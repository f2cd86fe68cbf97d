"""The benchmark's view of the package: every function ``bench/spans.py``
wraps exists and is callable, and every name a ``bench/*.py`` script
imports from ``blisslp`` exists.  The scripts are read with ``ast`` and
never run, so a rename or a deletion fails here instead of in a traced
benchmark run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def parsed(path):
    return ast.parse(path.read_text(), filename=path.name)


def resolve(module, name=None):
    """The module, or its attribute ``name``; None if either is missing."""
    try:
        loaded = importlib.import_module(module)
    except ImportError:
        return None
    return loaded if name is None else getattr(loaded, name, None)


def package_imports():
    """(script, module, name) per import of the package in ``bench/``; the
    name is None for a plain ``import``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "blisslp")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "blisslp"):
                yield from ((path.name, node.module, alias.name)
                            for alias in node.names)


def test_every_wrapped_function_resolves():
    [wraps] = [node.value for node in ast.walk(parsed(BENCH / "spans.py"))
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["WRAPS"]]
    pairs = [(entry.elts[0].value, entry.elts[1].value)
             for entry in wraps.elts]
    assert ("blisslp.l1min", "solve_lp") in pairs
    assert [pair for pair in pairs if not callable(resolve(*pair))] == []


def test_every_name_bench_imports_from_the_package_exists():
    imports = list(package_imports())
    assert ("record_goldens.py", "blisslp", "ScipyLinprogSolver") in imports
    assert [entry for entry in imports if resolve(*entry[1:]) is None] == []
