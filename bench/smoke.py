"""Smoke test of the benchmark itself.

Usage::

    python3 bench/smoke.py

Checks the hydrogen generator against the textbook H2 energy, then runs
each workload on tiny inputs, one per job type, untraced and traced, and
asserts that every metric ``BENCHMARK.json`` names is emitted with its unit
and that no job failed.  Takes about half a minute; exits non-zero on the
first broken assertion.
"""

from __future__ import annotations

import json
import shutil
import sys

import hchain
import run
import spans
import workloads
from workloads import InputSpec

# One small input per job type.  The Lanczos job keeps N=7: below a sector
# dimension of 1000 the package diagonalizes densely and Lanczos never runs.
TINY = {
    "lp-dense": (InputSpec("decay", 3, workloads.lp_jobs),),
    "certify-exact": (InputSpec("decay", 3, workloads.exact_jobs),
                      InputSpec("decay", 7, workloads.lanczos_jobs)),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def main() -> int:
    print(f"H2 STO-3G RHF energy {hchain.h2_self_test():.6f} Eh")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    check(end_to_end == run.END_TO_END,
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(per_layer == spans.LAYER_METRICS,
          "BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    check(set(TINY) == set(workloads.WORKLOADS)
          == {w["name"] for w in declared["workloads"]},
          "workload names differ between smoke.py, workloads.py and "
          "BENCHMARK.json")

    sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]
    work = run.ROOT / ".bench_build" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, specs in TINY.items():
            for trace, expected in ((0, end_to_end), (1, per_layer)):
                result, _ = run.run_workload(name, 0, 0, trace,
                                             work / f"{name}-{trace}", specs)
                check(result["correct"] and result["failed"] == 0,
                      f"{name} trace={trace}: {result['failed']} failed jobs")
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                check(emitted == expected,
                      f"{name} trace={trace}: metrics or units differ")
                if trace:
                    layer = {k: v["value"] for k, v in result["metrics"].items()}
                    check(layer["job.wall_s"] > 0.0, f"{name}: no wall time")
                    if name == "lp-dense":
                        check(layer["simplex.pivots"] > 0, "no simplex span")
                    if name == "certify-exact":
                        check(layer["spectral.sector_matrix_calls"] > 0
                              and layer["spectral.lanczos_calls"] > 0,
                              "an exact or Lanczos span is missing")
                print(f"smoke: {name} trace={trace}: ok")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
