"""The lazy ``blisslp`` namespace: what each entry point loads, and where
each public name comes from.  Every check runs in a fresh interpreter, since
the test process has long since imported every submodule."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracles
from blisslp import write_fcidump

SRC = Path(__file__).resolve().parents[1] / "src"

# The names ``from blisslp import *`` binds.
PUBLIC_API = """
    BLISS_METHODS BlissParams BlissSummary CIVector CompareReport
    DFFragment EXIT_INVALID EXIT_IO EXIT_OK EXIT_SOLVER
    FERMIONIC_METHODS FcidumpError FermionicNormReport FragmentNorm
    IterationLimitError L1Problem LanczosOptions
    LanczosResult LpBlissIterationLimit LpBlissVarMap LpResult LpStatus
    LrpsCorrection METHODS MolecularHamiltonian NormPair OneBodySpectrum
    PauliNormBreakdown RangeResult RunConfig RunReport
    SPECTRAL_CHOICES ScipyLinprogSolver SolverOptions SpectralReport
    __version__ apply_bliss apply_hamiltonian assemble_global_bliss
    build_fermionic_report build_lp_bliss_problem build_spectral_report
    build_spectral_reports canonical_median compare deviation_metric
    double_factorize dump_problem evaluate_objective factorize_two_body_tensor
    fragment_hamiltonian l1_minimize lambda_csa lambda_df lp_bliss
    lrbs_shift lrps_one_body_correction lrps_shift main merge_duplicate_rows
    one_electron_shift params_from_solution parse_fcidump pauli_one_norm
    reconstruct_two_body run run_pipeline sector_determinants sector_matrix
    solve_lp spectral_range spectral_ranges strip_volatile symmetrize_two_body
    to_json truncated_lanczos two_body_symmetry_deviation
    weighted_median write_fcidump
""".split()

# Prints the package's loaded submodules and whether numpy and numpy.ma
# are loaded.
LOADED = """
import json, sys
print(json.dumps({
    "blisslp": sorted(m for m in sys.modules if m.startswith("blisslp")),
    "numpy": "numpy" in sys.modules, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def fresh(*parts: str):
    """Run the code ``parts``, each dedented, in a new interpreter that finds
    this checkout's package; return its last stdout line, parsed as JSON."""
    code = "\n".join(textwrap.dedent(part) for part in parts)
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    assert fresh("import blisslp", LOADED) == {"blisslp": ["blisslp"],
                                                 "numpy": False,
                                                 "numpy.ma": False}


def test_every_export_resolves_to_its_defining_submodule():
    """Each public name is listed by exactly one submodule's ``__all__``,
    and the package attribute is that submodule's object."""
    problems = fresh("""
        import importlib, json, pkgutil
        import blisslp
        listed = set(dir(blisslp))
        names = [name for name in blisslp.__all__ if name != "__version__"]
        resolved = {name: getattr(blisslp, name) for name in names}
        modules = [importlib.import_module(f"blisslp.{info.name}")
                   for info in pkgutil.iter_modules(blisslp.__path__)]
        problems = [name for name in blisslp.__all__ if name not in listed]
        for name, value in resolved.items():
            owners = [m for m in modules if name in m.__all__]
            if len(owners) != 1 or getattr(owners[0], name) is not value:
                problems.append(name)
        print(json.dumps(problems))
    """)
    assert problems == []


def test_unknown_name_raises_attribute_error():
    message = fresh("""
        import json
        import blisslp
        try:
            blisslp.nope
        except AttributeError as exc:
            print(json.dumps(str(exc)))
    """)
    assert "nope" in message


def test_star_import_binds_the_public_api():
    names = fresh("""
        import json
        namespace = {}
        exec("from blisslp import *", namespace)
        print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
    """)
    assert names == sorted(PUBLIC_API)


@pytest.mark.parametrize("first", [
    "import blisslp.lp_bliss",
    "import blisslp.cli",
    "from blisslp.lp_bliss import lp_bliss_shifted",
])
def test_lp_bliss_stays_the_function(first):
    """Importing the submodule ``lp_bliss`` binds it on the package; the
    package attribute must stay the function of that name."""
    kinds = fresh(first, """
        import importlib, json, types
        import blisslp
        module = importlib.import_module("blisslp.lp_bliss")
        print(json.dumps([getattr(blisslp.lp_bliss, "__module__", None),
                          callable(blisslp.lp_bliss),
                          isinstance(module, types.ModuleType)]))
    """)
    assert kinds == ["blisslp.lp_bliss", True, True]


@pytest.fixture
def small_dump(tmp_path):
    H = oracles.random_hamiltonian(np.random.default_rng(14), 3, 3)
    path = tmp_path / "h.fcidump"
    path.write_text(write_fcidump(H))
    return path


@pytest.mark.parametrize("spectral, loaded", [("off", False),
                                              ("exact", True)])
def test_cli_loads_spectral_only_for_spectra(small_dump, spectral, loaded):
    argv = ["run", "--method", "lp-bliss", "--input", str(small_dump),
            "--spectral", spectral,
            "--out-report", str(small_dump.with_suffix(".json"))]
    modules = fresh(f"""
        import contextlib, io
        from blisslp.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
    """, LOADED)
    assert ("blisslp.spectral" in modules["blisslp"]) is loaded
    assert "blisslp.lp_bliss" in modules["blisslp"]
    # Plain np.unique imports numpy.ma, about a tenth of a small job.
    assert not modules["numpy.ma"]


def test_library_lanczos_loads_three_submodules(small_dump):
    modules = fresh(f"""
        from blisslp import fcidump, spectral
        H = fcidump.parse_fcidump(open({str(small_dump)!r}).read())
        spectral.spectral_range(H, sector=H.n_elec, method="lanczos",
                                options=spectral.LanczosOptions(max_iters=5))
    """, LOADED)["blisslp"]
    assert modules == ["blisslp", "blisslp.fcidump", "blisslp.hamiltonian",
                       "blisslp.spectral"]
