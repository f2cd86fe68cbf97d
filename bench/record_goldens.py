"""Record ``goldens.json``: input-fixed values for the default seed.

Usage::

    python3 bench/record_goldens.py

Regenerates every workload's inputs for the default seed and stores what the
input alone fixes: the Pauli and DF norms before any shift, the unshifted
full-Fock and sector ranges, the LP-BLISS optimum and the exact sector
extremes behind ``lanczos_range_frac``.  Each LP optimum of the dense simplex
is cross-checked against HiGHS (``ScipyLinprogSolver``) before it is stored.
Run it only when the inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads

LP_CROSS_CHECK_RTOL = 1e-7


def golden_values(jobs, path: Path) -> dict:
    from blisslp import (ScipyLinprogSolver, SolverOptions,
                         build_fermionic_report, build_spectral_report,
                         lp_bliss, parse_fcidump, pauli_one_norm)

    hamiltonian = parse_fcidump(path.read_bytes())
    if jobs is workloads.lanczos_jobs:
        exact_min, exact_max = checks.exact_sector_range(path)
        return {"exact_min": exact_min, "exact_max": exact_max}
    out = {"lambda_pauli_before": pauli_one_norm(hamiltonian).lambda_total,
           "lambda_df_before": build_fermionic_report(
               hamiltonian, "df").lambda_total}
    if jobs is workloads.lp_jobs:
        simplex = lp_bliss(hamiltonian)[1].lambda_total
        highs = lp_bliss(hamiltonian, SolverOptions(
            solver=ScipyLinprogSolver()))[1].lambda_total
        if abs(simplex - highs) > LP_CROSS_CHECK_RTOL * highs:
            raise RuntimeError(f"{path.name}: simplex optimum {simplex!r} "
                               f"disagrees with HiGHS {highs!r}")
        out["lp_optimum"] = simplex
    if jobs is workloads.exact_jobs:
        report = build_spectral_report(hamiltonian, None, "exact")
        out["delta_e"] = report.delta_e
        out["delta_e_ens"] = report.delta_e_ens
    return out


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]
    goldens = {}
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp:
        for name, workload in workloads.WORKLOADS.items():
            inputs = workloads.make_inputs(workload, run.DEFAULT_SEED,
                                           Path(tmp), workload.inputs)
            for spec, inp in zip(workload.inputs, inputs):
                try:
                    goldens[f"{name}/{inp.name}"] = golden_values(spec.jobs,
                                                                  inp.path)
                except ValueError as exc:
                    # The package rejects this input; its jobs fail in the
                    # benchmark and no golden is stored.
                    print(f"{name}/{inp.name}: no golden: {exc}",
                          file=sys.stderr)
                print(f"{name}/{inp.name}", file=sys.stderr)
    checks.GOLDENS_PATH.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "inputs": goldens}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
