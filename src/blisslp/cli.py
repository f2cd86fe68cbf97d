"""Command-line pipeline: load an FCIDUMP, shift, decompose, report.

Exit codes: 0 success, 1 file I/O failure, 2 parse or validation failure
(including the exact-diagonalization size cap), 3 solver stopped without an
optimum (iteration limit, infeasible, unbounded).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import fermionic
from .fcidump import parse_fcidump, write_fcidump
# assemble_global_bliss and lp_bliss stay importable for stage wrappers.
from .fermionic import (FermionicNormReport, assemble_global_bliss,
                        build_fermionic_report)
from .hamiltonian import BlissParams, MolecularHamiltonian, apply_bliss
from .l1min import SolverOptions, dump_problem, merge_duplicate_rows
from .lp_bliss import build_lp_bliss_problem, lp_bliss, lp_bliss_shifted
from .pauli import PauliNormBreakdown, pauli_one_norm
from .report import (BlissSummary, CompareReport, NormPair, RunReport,
                     fermionic_section, spectral_section, to_json)
# build_spectral_report stays importable for stage wrappers.
from .spectral import (LanczosOptions, SpectralReport, build_spectral_report,
                       build_spectral_reports)

__all__ = [
    "METHODS",
    "BLISS_METHODS",
    "SPECTRAL_CHOICES",
    "EXIT_OK",
    "EXIT_IO",
    "EXIT_INVALID",
    "EXIT_SOLVER",
    "RunConfig",
    "run_pipeline",
    "run",
    "compare",
    "main",
]

SPECTRAL_CHOICES = ("off", "exact", "lanczos")

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_SOLVER = 3


@dataclass(frozen=True)
class RunConfig:
    """One pipeline invocation, fully determined and reproducible."""

    input: str
    method: str = "none"
    spectral: str = "off"
    n_elec: int | None = None
    out_fcidump: str | None = None
    out_report: str | None = None
    dump_lp: str | None = None
    seed: int | None = None
    lanczos_tol: float = 1e-5
    df_tol: float = 1e-8
    lp_max_iters: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one "
                             f"of {METHODS}")
        if self.spectral not in SPECTRAL_CHOICES:
            raise ValueError(f"unknown spectral mode {self.spectral!r}; "
                             f"expected one of {SPECTRAL_CHOICES}")
        if not (0.0 < self.lanczos_tol < math.inf
                and 0.0 <= self.df_tol < math.inf):
            raise ValueError("lanczos_tol must be positive and df_tol "
                             "non-negative, both finite")
        if self.lp_max_iters is not None and self.lp_max_iters < 1:
            raise ValueError(f"lp_max_iters must be >= 1, got "
                             f"{self.lp_max_iters}")


# The RunConfig fields a Baseline is built from; compared runs must agree.
_BASELINE_FIELDS = ("input", "n_elec", "df_tol", "spectral", "lanczos_tol",
                    "lp_max_iters")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class Baseline:
    """The unshifted input every method is measured against.  ``family``
    maps a fermionic method to its report on the baseline's DF fragments,
    computed on first use.  Its spectral ranges come from the sweep that
    also covers every shifted Hamiltonian (``_spectra``)."""

    hamiltonian: MolecularHamiltonian
    pauli: PauliNormBreakdown
    family: Callable[[str], FermionicNormReport]
    lanczos: LanczosOptions
    timings_s: Mapping[str, float]

    @classmethod
    def load(cls, config: RunConfig) -> "Baseline":
        t_start = time.perf_counter()
        hamiltonian = parse_fcidump(Path(config.input).read_bytes())
        if config.n_elec is not None:
            hamiltonian = hamiltonian.with_n_elec(config.n_elec)
        t_parsed = time.perf_counter()
        pauli = pauli_one_norm(hamiltonian)
        fragments = fermionic.double_factorize(hamiltonian, config.df_tol)
        solver = SolverOptions(max_iters=config.lp_max_iters)
        family = functools.cache(lambda method: build_fermionic_report(
            hamiltonian, method, fragments, solver))
        family("df")
        return cls(hamiltonian, pauli, family,
                   LanczosOptions(residual_tol=config.lanczos_tol),
                   {"parse": t_parsed - t_start,
                    "baseline": time.perf_counter() - t_parsed})


# A method maps (baseline, config) to (BlissParams, shifted H, its Pauli
# breakdown) for a "global" shift of H, to the report of its shifted DF
# fragments for a "fragments" shift, and otherwise to the fermionic report it
# adds, or None.  It looks stages up as module attributes when it runs, so
# that wrappers installed on this module see every call.
def _lp_bliss(base: Baseline, config: RunConfig):
    if config.dump_lp is not None:
        problem, _ = build_lp_bliss_problem(base.hamiltonian)
        Path(config.dump_lp).write_text(
            dump_problem(merge_duplicate_rows(problem)))
    return lp_bliss_shifted(base.hamiltonian,
                            SolverOptions(max_iters=config.lp_max_iters))


def _global_from_fragments(family: str):
    def method(base: Baseline, config: RunConfig):
        params = fermionic.global_bliss(base.hamiltonian, base.family(family))
        shifted = apply_bliss(base.hamiltonian, params)
        return params, shifted, pauli_one_norm(shifted)
    return method


def _family(name: str):
    return lambda base, config: base.family(name)


_MU1_CONVENTION = {"mu1_convention": (
    "median of the eigenvalues of the Pauli effective one-body term "
    "h_ij + 2 sum_k g_ijkk after the fragment (mu2, xi) shift")}

# name -> (shift kind, method, report metadata).
_METHOD_TABLE = {
    "none": (None, lambda base, config: None, {}),
    "lp-bliss": ("global", _lp_bliss, {}),
    "flr-bliss": ("global", _global_from_fragments("df-lrps"),
                  _MU1_CONVENTION),
    "ffr-bliss": ("global", _global_from_fragments("df-lrbs"),
                  _MU1_CONVENTION),
    "df": (None, _family("df"), {}),
    "df-lrps": ("fragments", _family("df-lrps"), {}),
    "df-lrbs": ("fragments", _family("df-lrbs"), {}),
}
METHODS = tuple(_METHOD_TABLE)
# Methods that produce a global shift operator and hence a shifted FCIDUMP.
BLISS_METHODS = tuple(name for name, (shift, _, _) in _METHOD_TABLE.items()
                      if shift == "global")


def run_pipeline(config: RunConfig) -> tuple[RunReport, MolecularHamiltonian | None]:
    """Execute one configuration; returns the report and, for shift-producing
    methods, the shifted Hamiltonian."""
    return _run_methods((config,), Baseline.load(config))[0]


@dataclass(frozen=True)
class _Shift:
    """What one method adds to the baseline, before any spectrum."""

    params: BlissParams | None
    shifted: MolecularHamiltonian | None
    pauli_after: float | None
    df_after: float | None
    family: FermionicNormReport | None
    seconds: float


def _apply_method(config: RunConfig, base: Baseline) -> _Shift:
    if config.dump_lp is not None and config.method != "lp-bliss":
        print(f"warning: --dump-lp only applies to lp-bliss, ignoring",
              file=sys.stderr)
    shift, method, _ = _METHOD_TABLE[config.method]
    t_method = time.perf_counter()
    result = method(base, config)
    if shift != "global":
        df_after = result.lambda_total if shift == "fragments" else None
        return _Shift(None, None, None, df_after, result,
                      time.perf_counter() - t_method)
    params, shifted, pauli = result
    fragments = fermionic.double_factorize(shifted, config.df_tol)
    df_after = build_fermionic_report(shifted, "df", fragments).lambda_total
    return _Shift(params, shifted, pauli.lambda_total, df_after, None,
                  time.perf_counter() - t_method)


def _spectra(base: Baseline, spectral: str,
             shifts: Sequence[_Shift]) -> list[SpectralReport | None]:
    """Each run's spectral report, from one sweep over H and every shifted
    H: the unshifted report for a run without a shifted Hamiltonian."""
    if spectral == "off":
        return [None] * len(shifts)
    reports = iter(build_spectral_reports(
        base.hamiltonian, [s.shifted for s in shifts if s.shifted is not None],
        spectral, options=base.lanczos))
    unshifted = next(reports)
    return [unshifted if s.shifted is None else next(reports) for s in shifts]


def _run_methods(configs: Sequence[RunConfig], base: Baseline
                 ) -> list[tuple[RunReport, MolecularHamiltonian | None]]:
    """``run_pipeline`` of each configuration against ``base``, which must
    have been loaded from a configuration that agrees with every one of
    them on ``_BASELINE_FIELDS``."""
    shifts = [_apply_method(config, base) for config in configs]
    t_spectral = time.perf_counter()
    spectra = _spectra(base, configs[0].spectral, shifts)
    spectral_s = time.perf_counter() - t_spectral
    return [(_report(config, base, shift, spectral, spectral_s), shift.shifted)
            for config, shift, spectral in zip(configs, shifts, spectra)]


def _report(config: RunConfig, base: Baseline, shift: _Shift,
            spectral: SpectralReport | None, spectral_s: float) -> RunReport:
    # The sweep is shared, so every run reports its whole time, as parse.
    timings = {**base.timings_s, "method": shift.seconds,
               "spectral": spectral_s}
    timings["total"] = sum(timings.values())
    hamiltonian = base.hamiltonian
    return RunReport(
        generated_at=_now(),
        input_path=config.input,
        n_orb=hamiltonian.n_orb,
        n_elec=hamiltonian.n_elec,
        ms2=hamiltonian.ms2,
        e_const=hamiltonian.e_const,
        method=config.method,
        spectral_method=config.spectral,
        seed=config.seed,
        lambda_pauli=NormPair(base.pauli.lambda_total, shift.pauli_after),
        lambda_df=NormPair(base.family("df").lambda_total, shift.df_after),
        bliss=(None if shift.params is None
               else BlissSummary.from_params(shift.params)),
        fermionic=(None if shift.family is None
                   else fermionic_section(shift.family)),
        spectral=None if spectral is None else spectral_section(spectral),
        options={"df_tol": config.df_tol,
                 "lanczos_tol": config.lanczos_tol,
                 "lp_max_iters": config.lp_max_iters},
        metadata=dict(_METHOD_TABLE[config.method][2]),
        timings_s=timings)


def _summary_line(report: RunReport) -> str:
    parts = [f"method={report.method}",
             f"lambda_pauli_before={report.lambda_pauli.before:.12g}"]
    if report.lambda_pauli.after is not None:
        parts.append(f"lambda_pauli_after={report.lambda_pauli.after:.12g}")
        parts.append(f"pauli_ratio={report.lambda_pauli.ratio:.6g}")
    if report.lambda_df.after is not None:
        parts.append(f"lambda_df_after={report.lambda_df.after:.12g}")
    if report.spectral is not None and report.spectral["deviation"] is not None:
        parts.append(f"deviation={report.spectral['deviation']:.6g}")
    return " ".join(parts)


def _warn_unconverged(report: RunReport) -> None:
    if report.spectral is not None and not report.spectral["converged"]:
        print(f"warning: method {report.method}: the "
              f"{report.spectral['method']} spectral range did not converge; "
              "its energies are variational estimates", file=sys.stderr)


def run(config: RunConfig) -> int:
    """Run one configuration and write its artifacts."""
    report, shifted = run_pipeline(config)
    _warn_unconverged(report)
    if config.out_fcidump is not None:
        if shifted is not None:
            Path(config.out_fcidump).write_text(write_fcidump(shifted))
        else:
            print(f"warning: method {config.method} produces no shifted "
                  "Hamiltonian, skipping FCIDUMP output", file=sys.stderr)
    document = to_json(report.to_dict())
    if config.out_report is not None:
        Path(config.out_report).write_text(document)
        print(_summary_line(report))
    else:
        sys.stdout.write(document)
    return EXIT_OK


def compare(configs: Sequence[RunConfig]) -> CompareReport:
    """Run several methods against one baseline, built from the first config.

    Raises:
        ValueError: fewer than two configs, or configs that disagree on
            input, n_elec, df_tol, spectral, lanczos_tol or
            lp_max_iters.
    """
    if len(configs) < 2:
        raise ValueError("compare needs at least two configurations")
    for field in _BASELINE_FIELDS:
        values = {getattr(c, field) for c in configs}
        if len(values) != 1:
            raise ValueError(f"compare configurations must share one "
                             f"{field}, got {sorted(values, key=repr)}")
    runs = tuple(report for report, _ in
                 _run_methods(configs, Baseline.load(configs[0])))
    for report in runs:
        _warn_unconverged(report)
    return CompareReport(generated_at=_now(), input_path=configs[0].input,
                         runs=runs)


def _add_shared_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input FCIDUMP path")
    parser.add_argument("--spectral", choices=SPECTRAL_CHOICES, default="off",
                        help="spectral-range estimator (default: off)")
    parser.add_argument("--nelec", type=int, default=None,
                        help="override the FCIDUMP electron count")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the report for reproducibility")
    parser.add_argument("--lanczos-tol", type=float, default=1e-5,
                        help="Lanczos Ritz-residual threshold (default: 1e-5)")
    parser.add_argument("--df-tol", type=float, default=1e-8,
                        help="double-factorization eigenvalue cutoff "
                             "(default: 1e-8)")
    parser.add_argument("--lp-max-iters", type=int, default=None,
                        help="LP pivot budget override")
    parser.add_argument("--out-report", default=None,
                        help="write the JSON report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blisslp",
        description="Shift and decompose second-quantized Hamiltonians to "
                    "minimize LCU 1-norms.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="run one method pipeline on an FCIDUMP")
    _add_shared_options(run_parser)
    run_parser.add_argument("--method", choices=METHODS, default="none",
                            help="shift or decomposition method "
                                 "(default: none)")
    run_parser.add_argument("--out-fcidump", default=None,
                            help="write the shifted FCIDUMP here "
                                 "(shift-producing methods only)")
    run_parser.add_argument("--dump-lp", default=None,
                            help="write the whole, unsplit lp-bliss "
                                 "problem in sparse triplet text form")

    compare_parser = sub.add_parser(
        "compare", help="run several methods on one FCIDUMP and tabulate")
    _add_shared_options(compare_parser)
    compare_parser.add_argument("--methods", required=True,
                                help="comma-separated method list (>= 2)")
    compare_parser.add_argument("--out-csv", default=None,
                                help="write the comparison table as CSV")
    return parser


def _config_from_args(args: argparse.Namespace, method: str,
                      out_fcidump: str | None = None,
                      dump_lp: str | None = None,
                      out_report: str | None = None) -> RunConfig:
    return RunConfig(
        input=args.input, method=method, spectral=args.spectral,
        n_elec=args.nelec, out_fcidump=out_fcidump, out_report=out_report,
        dump_lp=dump_lp, seed=args.seed, lanczos_tol=args.lanczos_tol,
        df_tol=args.df_tol, lp_max_iters=args.lp_max_iters)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run(_config_from_args(
                args, args.method, out_fcidump=args.out_fcidump,
                dump_lp=args.dump_lp, out_report=args.out_report))
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        configs = [_config_from_args(args, m) for m in methods]
        comparison = compare(configs)
        if args.out_csv is not None:
            Path(args.out_csv).write_text(comparison.to_csv())
        document = to_json(comparison.to_dict())
        if args.out_report is not None:
            Path(args.out_report).write_text(document)
            for report in comparison.runs:
                print(_summary_line(report))
        else:
            sys.stdout.write(document)
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # FcidumpError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:  # LP iteration limits included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
