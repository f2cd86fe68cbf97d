"""End-to-end tests for the command-line pipeline."""

import argparse
import json
import re
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import oracles
from blisslp import (
    BLISS_METHODS,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    METHODS,
    RunConfig,
    SolverOptions,
    compare,
    parse_fcidump,
    pauli_one_norm,
    run_pipeline,
    strip_volatile,
    write_fcidump,
)
from blisslp.cli import _build_parser, main
from blisslp.spectral import SpectralReport
from blisslp.report import _CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report_schema.json").read_text())


def dump_file(tmp_path, seed=3, n_orb=2, name="h.fcidump"):
    rng = np.random.default_rng(seed)
    hamiltonian = oracles.random_hamiltonian(rng, n_orb, n_elec=2)
    path = tmp_path / name
    path.write_text(write_fcidump(hamiltonian))
    return str(path)


def run_report(capsys, argv):
    assert main(argv) == EXIT_OK
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_exits_zero(tmp_path, method):
    path = dump_file(tmp_path)
    out = tmp_path / "report.json"
    code = main(["run", "--input", path, "--method", method,
                 "--out-report", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["method"] == method
    assert report["schema_version"] == 2
    assert report["lambda_pauli"]["before"] > 0.0


def test_report_goes_to_stdout_by_default(tmp_path, capsys):
    path = dump_file(tmp_path)
    assert main(["run", "--input", path]) == EXIT_OK
    document = capsys.readouterr().out
    assert document.endswith("\n")
    report = json.loads(document)
    # Canonical form: sorted keys, two-space indent, trailing newline.
    assert document == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["method"] == "none"
    assert report["bliss"] is None
    assert report["fermionic"] is None
    assert report["spectral"] is None


def test_passthrough_with_exact_spectral(tmp_path, capsys):
    report = run_report(capsys, ["run", "--input", dump_file(tmp_path),
                                 "--method", "none", "--spectral", "exact"])
    assert report["lambda_pauli"]["after"] is None
    assert report["lambda_pauli"]["ratio"] is None
    assert report["lambda_df"]["after"] is None
    spectral = report["spectral"]
    assert spectral["method"] == "exact"
    assert spectral["delta_e"] >= spectral["delta_e_ens"] >= 0.0
    assert spectral["delta_e_shifted"] is None
    assert spectral["deviation"] is None
    # The Pauli 1-norm bounds half the spectral range.
    assert (report["lambda_pauli"]["before"]
            >= spectral["delta_e"] / 2.0 - 1e-10)


@pytest.mark.parametrize("method", BLISS_METHODS)
def test_bliss_methods_populate_after_fields(tmp_path, capsys, method):
    report = run_report(capsys, ["run", "--input", dump_file(tmp_path),
                                 "--method", method])
    pair = report["lambda_pauli"]
    assert pair["after"] is not None
    assert pair["ratio"] == pytest.approx(pair["after"] / pair["before"])
    assert report["lambda_df"]["after"] is not None
    assert set(report["bliss"]) == {"mu1", "mu2", "xi_max_abs",
                                    "xi_one_norm"}
    assert report["bliss"]["xi_one_norm"] >= report["bliss"]["xi_max_abs"]


def test_lp_bliss_never_increases_pauli_norm(tmp_path, capsys):
    report = run_report(capsys, ["run", "--input", dump_file(tmp_path),
                                 "--method", "lp-bliss"])
    pair = report["lambda_pauli"]
    assert pair["after"] <= pair["before"] + 1e-8
    assert pair["ratio"] <= 1.0 + 1e-12


def test_shifted_fcidump_matches_reported_norm(tmp_path, capsys):
    path = dump_file(tmp_path)
    out = tmp_path / "shifted.fcidump"
    report = run_report(capsys, ["run", "--input", path,
                                 "--method", "lp-bliss",
                                 "--out-fcidump", str(out)])
    shifted = parse_fcidump(out.read_text())
    assert shifted.n_elec == report["input"]["n_elec"]
    assert pauli_one_norm(shifted).lambda_total == pytest.approx(
        report["lambda_pauli"]["after"], abs=1e-9)


@pytest.mark.parametrize("method", ["none", "df", "df-lrps", "df-lrbs"])
def test_fcidump_output_skipped_for_analysis_methods(tmp_path, capsys,
                                                     method):
    path = dump_file(tmp_path)
    out = tmp_path / "shifted.fcidump"
    code = main(["run", "--input", path, "--method", method,
                 "--out-fcidump", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert not out.exists()
    assert "warning" in captured.err


def test_dump_lp_writes_problem_text(tmp_path, capsys):
    path = dump_file(tmp_path)
    dump = tmp_path / "problem.l1p"
    assert main(["run", "--input", path, "--method", "lp-bliss",
                 "--dump-lp", str(dump)]) == EXIT_OK
    capsys.readouterr()
    lines = dump.read_text().splitlines()
    assert lines[0] == "l1problem 1"
    assert lines[1].startswith("vars ")
    assert any(line.startswith("row ") for line in lines)


def test_dump_lp_warns_for_other_methods(tmp_path, capsys):
    path = dump_file(tmp_path)
    dump = tmp_path / "problem.l1p"
    assert main(["run", "--input", path, "--method", "df",
                 "--dump-lp", str(dump)]) == EXIT_OK
    assert "warning" in capsys.readouterr().err
    assert not dump.exists()


def test_missing_input_exits_io(tmp_path, capsys):
    code = main(["run", "--input", str(tmp_path / "absent.fcidump")])
    assert code == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_malformed_fcidump_names_line(tmp_path, capsys):
    path = tmp_path / "bad.fcidump"
    path.write_text(" &FCI NORB=1,NELEC=2,MS2=0,\n &END\n"
                    "oops 1 1 0 0\n")
    code = main(["run", "--input", str(path)])
    assert code == EXIT_INVALID
    assert "line 3" in capsys.readouterr().err
    path.write_text(" &FCI NORB=100000,NELEC=2,\n &END\n 0.0 0 0 0 0\n")
    assert main(["run", "--input", str(path)]) == EXIT_INVALID
    assert "line 1: NORB=100000" in capsys.readouterr().err


def test_solver_iteration_limit_exits_solver(tmp_path, capsys):
    code = main(["run", "--input", dump_file(tmp_path),
                 "--method", "lp-bliss", "--lp-max-iters", "1"])
    assert code == EXIT_SOLVER
    assert "error:" in capsys.readouterr().err


def test_invalid_option_value_exits_invalid(tmp_path, capsys):
    path = dump_file(tmp_path)
    for option, value in (("--lanczos-tol", "-1.0"), ("--lanczos-tol", "inf"),
                          ("--lanczos-tol", "nan"), ("--df-tol", "nan"),
                          ("--df-tol", "inf")):
        assert main(["run", "--input", path, "--spectral", "lanczos",
                     option, value]) == EXIT_INVALID
        assert "both finite" in capsys.readouterr().err
    for budget in ("0", "-3"):
        assert main(["run", "--input", path, "--method", "lp-bliss",
                     "--lp-max-iters", budget]) == EXIT_INVALID
        assert "lp_max_iters must be >= 1" in capsys.readouterr().err


def test_exact_spectral_size_cap_exits_invalid(tmp_path, capsys):
    path = dump_file(tmp_path, n_orb=9)
    code = main(["run", "--input", path, "--spectral", "exact"])
    assert code == EXIT_INVALID
    assert "capped at 16 spin-orbitals" in capsys.readouterr().err


def test_oversize_lanczos_exits_invalid_fast(tmp_path, capsys):
    """N=12 Lanczos would need ~20 GiB; it is refused before allocating."""
    path = dump_file(tmp_path, n_orb=12)
    start = time.perf_counter()
    code = main(["run", "--input", path, "--spectral", "lanczos"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert "SPECTRAL_MEMORY_LIMIT_BYTES" in err
    assert "12-electron sector of 24 spin-orbitals" in err


def unconverged_reports(hamiltonian, shifted=(), *args, **kwargs):
    report = SpectralReport(delta_e=2.0, delta_e_ens=1.0, delta_e_shifted=None,
                            deviation=None, method="lanczos", converged=False,
                            sector_extremes=((2, -0.5, 0.5),))
    return (report,) * (1 + len(shifted))


def test_unconverged_lanczos_warns_on_stderr(tmp_path, capsys, monkeypatch):
    path = dump_file(tmp_path)
    argv = ["run", "--input", path, "--spectral", "lanczos"]
    assert main(argv + ["--method", "df"]) == EXIT_OK
    quiet = capsys.readouterr()
    assert quiet.err == ""
    monkeypatch.setattr("blisslp.cli.build_spectral_reports",
                        unconverged_reports)
    assert main(argv + ["--method", "df"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: method df: the lanczos spectral range did not converge; "
        "its energies are variational estimates"]
    report = json.loads(captured.out)
    assert report["spectral"]["converged"] is False
    assert strip_volatile({**report, "spectral": None}) == strip_volatile(
        {**json.loads(quiet.out), "spectral": None})
    assert main(["compare", "--input", path, "--spectral", "lanczos",
                 "--methods", "none,df"]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in lines] == [
        ["warning", " method none"], ["warning", " method df"]]


def test_nelec_override(tmp_path, capsys):
    path = dump_file(tmp_path)
    report = run_report(capsys, ["run", "--input", path, "--nelec", "1"])
    assert report["input"]["n_elec"] == 1
    assert parse_fcidump(Path(path).read_text()).n_elec == 2


def test_seed_recorded(tmp_path, capsys):
    path = dump_file(tmp_path)
    assert run_report(capsys, ["run", "--input", path,
                               "--seed", "11"])["seed"] == 11
    assert run_report(capsys, ["run", "--input", path])["seed"] is None


def test_reruns_are_deterministic(tmp_path):
    path = dump_file(tmp_path)
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["run", "--input", path, "--method", "lp-bliss",
                     "--spectral", "exact", "--seed", "5",
                     "--out-report", str(out)]) == EXIT_OK
    docs = [strip_volatile(json.loads(out.read_text())) for out in outs]
    assert docs[0] == docs[1]


def test_out_report_prints_summary_line(tmp_path, capsys):
    path = dump_file(tmp_path)
    out = tmp_path / "report.json"
    assert main(["run", "--input", path, "--method", "lp-bliss",
                 "--out-report", str(out)]) == EXIT_OK
    summary = capsys.readouterr().out
    assert "method=lp-bliss" in summary
    assert "lambda_pauli_before=" in summary
    assert "pauli_ratio=" in summary


def test_lanczos_spectral_mode(tmp_path, capsys):
    report = run_report(capsys, ["run", "--input", dump_file(tmp_path),
                                 "--method", "flr-bliss",
                                 "--spectral", "lanczos"])
    spectral = report["spectral"]
    assert spectral["method"] == "lanczos"
    assert isinstance(spectral["converged"], bool)
    assert spectral["delta_e_shifted"] is not None
    assert set(report["metadata"]) == {"mu1_convention"}
    assert set(report["options"]) == {"df_tol", "lanczos_tol", "lp_max_iters"}


def test_df_methods_report_fragments(tmp_path, capsys):
    path = dump_file(tmp_path)
    plain = run_report(capsys, ["run", "--input", path, "--method", "df"])
    assert plain["lambda_pauli"]["after"] is None
    assert plain["lambda_df"]["after"] is None
    assert plain["fermionic"]["fragments"]
    shifted = run_report(capsys, ["run", "--input", path,
                                  "--method", "df-lrps"])
    assert shifted["lambda_df"]["after"] == pytest.approx(
        shifted["fermionic"]["lambda_total"])
    assert shifted["lambda_df"]["after"] <= plain["lambda_df"]["before"] + 1e-8


def test_compare_writes_rows_and_csv(tmp_path, capsys):
    path = dump_file(tmp_path)
    csv_path = tmp_path / "table.csv"
    assert main(["compare", "--input", path,
                 "--methods", "none,lp-bliss,df-lrps",
                 "--out-csv", str(csv_path)]) == EXIT_OK
    document = json.loads(capsys.readouterr().out)
    assert [row["method"] for row in document["rows"]] == [
        "none", "lp-bliss", "df-lrps"]
    assert len(document["runs"]) == 3
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(_CSV_COLUMNS)
    assert len(lines) == 4
    lp_row = dict(zip(_CSV_COLUMNS, lines[2].split(",")))
    assert lp_row["method"] == "lp-bliss"
    assert float(lp_row["lambda_pauli_ratio"]) <= 1.0 + 1e-12
    none_row = dict(zip(_CSV_COLUMNS, lines[1].split(",")))
    assert none_row["lambda_pauli_after"] == ""
    assert none_row["delta_e"] == ""


def test_compare_needs_two_methods(tmp_path, capsys):
    code = main(["compare", "--input", dump_file(tmp_path),
                 "--methods", "none"])
    assert code == EXIT_INVALID
    assert "two" in capsys.readouterr().err


def test_compare_rejects_mismatched_inputs(tmp_path):
    first = dump_file(tmp_path, seed=1, name="a.fcidump")
    second = dump_file(tmp_path, seed=2, name="b.fcidump")
    with pytest.raises(ValueError, match="share"):
        compare([RunConfig(input=first), RunConfig(input=second)])


def test_compare_equals_separate_runs_and_builds_baseline_once(
        tmp_path, monkeypatch):
    from blisslp import spectral

    path = dump_file(tmp_path)
    configs = [RunConfig(input=path, method=m, spectral="exact")
               for m in ("none", "lp-bliss", "ffr-bliss")]
    separate = [strip_volatile(run_pipeline(c)[0].to_dict()) for c in configs]
    calls = []
    sector_matrix = spectral.sector_matrix

    def counting(hamiltonian, n_elec, n_alpha=None, plan=None):
        calls.append(n_elec)
        return sector_matrix(hamiltonian, n_elec, n_alpha, plan)

    monkeypatch.setattr(spectral, "sector_matrix", counting)
    comparison = compare(configs)
    assert [strip_volatile(r.to_dict()) for r in comparison.runs] == separate
    # One full-Fock sweep over sectors 0..4 of two orbitals, each sector
    # computed for the unshifted H and both shifted ones before the next.
    assert calls == [n for n in range(5) for _ in range(3)]
    with pytest.raises(ValueError, match="share"):
        compare([configs[0], RunConfig(input=path, method="df",
                                       spectral="exact", df_tol=1e-6)])


def test_compare_builds_one_plan_per_sector_and_keeps_none(
        tmp_path, monkeypatch):
    """A 3-method exact compare builds each sector's block plan once, for
    H and both shifted Hamiltonians, holds at most one at a time and none
    after it returns."""
    import weakref

    from blisslp import spectral

    path = dump_file(tmp_path)
    plans = []
    block_plan = spectral._block_plan

    def recording(*args):
        assert all(plan() is None for plan in plans)
        plan = block_plan(*args)
        plans.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(spectral, "_block_plan", recording)
    compare([RunConfig(input=path, method=m, spectral="exact")
             for m in ("none", "lp-bliss", "ffr-bliss")])
    assert len(plans) == 5
    assert all(plan() is None for plan in plans)


def test_compare_factorizes_once_and_shifts_each_fragment_once(
        tmp_path, monkeypatch):
    """A 7-method compare factorizes each distinct g once (H and its three
    global shifts) and shifts each fragment once per family: flr-bliss and
    df-lrps share the median shifts, ffr-bliss and df-lrbs the LPs.  An
    lp-bliss run factorizes H and H - K and shifts no fragment."""
    from blisslp import fermionic

    hamiltonian = oracles.decay_hamiltonian(np.random.default_rng(0), 5)
    path = tmp_path / "decay5.fcidump"
    path.write_text(write_fcidump(hamiltonian))
    n_fragments = len(fermionic.double_factorize(hamiltonian))
    calls = {"factorize": [], "lrps": 0, "lrbs": 0}
    double_factorize = fermionic.double_factorize
    lrps_shift, lrbs_shift = fermionic.lrps_shift, fermionic.lrbs_shift

    def factorize(hamiltonian, tol=1e-8):
        calls["factorize"].append(hash(hamiltonian.g.tobytes()))
        return double_factorize(hamiltonian, tol)

    def counting(name, shift):
        def counted(*args):
            calls[name] += 1
            return shift(*args)
        return counted

    monkeypatch.setattr(fermionic, "double_factorize", factorize)
    monkeypatch.setattr(fermionic, "lrps_shift", counting("lrps", lrps_shift))
    monkeypatch.setattr(fermionic, "lrbs_shift", counting("lrbs", lrbs_shift))
    configs = [RunConfig(input=str(path), method=m) for m in METHODS]
    compare(configs)
    assert len(calls["factorize"]) == len(set(calls["factorize"])) == 4
    assert calls["lrps"] == calls["lrbs"] == n_fragments == 15

    calls.update(factorize=[], lrps=0, lrbs=0)
    run_pipeline(configs[METHODS.index("lp-bliss")])
    assert (len(calls["factorize"]), calls["lrps"], calls["lrbs"]) == (2, 0, 0)
    with pytest.raises(ValueError, match="share"):
        compare([configs[0], RunConfig(input=str(path), method="df-lrbs",
                                       lp_max_iters=10)])


def test_bench_trace_wraps_resolve(monkeypatch):
    """Every function the benchmark tracer wraps must exist where it looks."""
    import importlib

    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "bench"))
    spans = importlib.import_module("spans")
    for module_name, attr, _, _ in spans.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_run_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        RunConfig(input="x", method="mystery")
    with pytest.raises(ValueError, match="unknown spectral"):
        RunConfig(input="x", spectral="always")
    assert RunConfig(input="x", df_tol=0.0).df_tol == 0.0
    bad = [{"df_tol": -1.0}, {"df_tol": float("nan")}, {"df_tol": float("inf")},
           {"lanczos_tol": float("nan")}, {"lanczos_tol": float("inf")}]
    for fields in bad:
        with pytest.raises(ValueError, match="lanczos_tol must be positive "
                                             "and df_tol non-negative"):
            RunConfig(input="x", **fields)
    assert RunConfig(input="x", lp_max_iters=1).lp_max_iters == 1
    for budget in (0, -3):
        with pytest.raises(ValueError, match="lp_max_iters must be >= 1"):
            RunConfig(input="x", lp_max_iters=budget)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            SolverOptions(max_iters=budget)


def test_reports_validate_against_schema(tmp_path, capsys):
    path = dump_file(tmp_path)
    report = run_report(capsys, ["run", "--input", path,
                                 "--method", "lp-bliss",
                                 "--spectral", "exact"])
    jsonschema.validate(report, SCHEMA)
    fermionic = run_report(capsys, ["run", "--input", path,
                                    "--method", "df-lrbs"])
    jsonschema.validate(fermionic, SCHEMA)
    assert main(["compare", "--input", path,
                 "--methods", "df,df-lrps"]) == EXIT_OK
    jsonschema.validate(json.loads(capsys.readouterr().out), SCHEMA)


def test_readme_flags_name_every_option():
    """The README's Flags paragraph names exactly the options of the run and
    compare subcommands."""
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("\nFlags:", 1)[1].split("\n\n", 1)[0]
    subcommands = next(action for action in _build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {option for parser in subcommands.choices.values()
               for action in parser._actions
               for option in action.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == options
