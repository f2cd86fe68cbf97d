"""The benchmark's view of the package: every function ``bench/spans.py``
wraps exists and is callable, every name a ``bench/*.py`` script imports
from ``blisslp`` exists, and the spectral jobs reach the functions the
bench times through their module attributes.  The scripts are read with
``ast`` and never run, so a rename, a deletion or a bypassed wrapper fails
here instead of in a traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

import oracles
from blisslp import fcidump, spectral, write_fcidump
from blisslp.cli import main

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


def decay_dump(tmp_path, n_orb):
    path = tmp_path / f"decay{n_orb}.fcidump"
    path.write_text(write_fcidump(
        oracles.decay_hamiltonian(np.random.default_rng(0), n_orb)))
    return path


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's
    arguments, as ``bench/spans.py`` wraps it, and return the record."""
    calls, function = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_exact_compare_builds_h_blocks_through_sector_matrix(
        tmp_path, monkeypatch, capsys):
    """An exact compare, as the bench runs it, looks ``sector_matrix`` up
    on the module for H's block of each odd sector and for nothing else:
    the shifts take their one-body pass on H's block."""
    calls = counting(monkeypatch, spectral, "sector_matrix")
    path = decay_dump(tmp_path, 3)
    assert main(["compare", "--methods", "none,flr-bliss,ffr-bliss,df-lrps",
                 "--spectral", "exact", "--input", str(path)]) == 0
    capsys.readouterr()
    assert [args[1] for args in calls] == [1, 3, 5]
    assert len({id(args[0]) for args in calls}) == 1


def test_library_lanczos_range_runs_truncated_lanczos(tmp_path, monkeypatch):
    """The bench's Lanczos job, a ``spectral_range`` of the 7-electron
    sector of decay N=7 (block 1225), looks ``truncated_lanczos`` up on
    the module; ``spectral_range`` keeps the (hamiltonian, sector, method)
    order that the bench's ``_range_counts`` reads by position."""
    assert list(inspect.signature(spectral.spectral_range).parameters) == [
        "hamiltonian", "sector", "method", "options"]
    calls = counting(monkeypatch, spectral, "truncated_lanczos")
    hamiltonian = fcidump.parse_fcidump(decay_dump(tmp_path, 7).read_text())
    result = spectral.spectral_range(
        hamiltonian, sector=hamiltonian.n_elec, method="lanczos",
        options=spectral.LanczosOptions(max_iters=2))
    [(called, sector, *_)] = calls
    assert called is hamiltonian and sector == 7
    assert result.sector_extremes[0][0] == 7
