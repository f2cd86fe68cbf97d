"""blisslp benchmark: one workload, one seed, a fixed measuring time.

Usage::

    python3 bench/run.py --workload lp-dense --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all

One client runs the workload's jobs in a closed loop, one process at a time,
and repeats the whole job list (a pass) while another pass still fits in
``--seconds``; at least one pass always runs.  Each job is a fresh Python
process with BLAS pinned to one thread, so every job pays interpreter start
and ``import blisslp`` as a CLI user does.  Every output is checked
(checks.py).

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` each job runs once untraced and once traced, and the last line
holds the per-layer metrics (spans.py).  The line before it records the
environment.  ``--workload all`` runs every workload and prints a table of
every metric, failed_frac included.
"""

from __future__ import annotations

import os

# Before numpy loads, here and in every job: a single-threaded baseline.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 55
# Fresh-interpreter imports timed per untraced run for setup_s, spread
# evenly over the measuring time so that one busy moment of the machine
# cannot set the median.
IMPORT_SAMPLES = 24
# Bare interpreters timed per traced run, for job.interpreter_s.
INTERPRETER_SAMPLES = 7
# Interval at which a job's peak RSS is sampled.
RSS_SAMPLE_S = 0.01
CLI = "import sys; from blisslp.cli import main; sys.exit(main())"

END_TO_END = {
    "batch_s": "s", "job_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "lambda_pauli_ratio": "ratio", "lambda_df_ratio": "ratio",
    "deviation": "ratio", "lanczos_range_frac": "ratio",
}
# Quality metrics a workload has no jobs for are reported as this constant,
# so every workload prints every metric; the environment line names them.
NOT_APPLICABLE = 1.0


def job_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _sample_peak_rss(pid: int, stop: threading.Event, peak_kb: list) -> None:
    """Keep the largest VmHWM of ``pid`` until ``stop`` is set.

    VmHWM belongs to the job's own address space.  ``ru_maxrss`` from
    ``wait4`` also counts the harness's pages at fork, so it would report
    the harness's size whenever that is larger than the job's.
    """
    status = f"/proc/{pid}/status"
    while not stop.wait(RSS_SAMPLE_S):
        try:
            with open(status) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb[0] = max(peak_kb[0], int(line.split()[1]))
                        break
        except OSError:
            return


def spawn(argv: list[str], cwd: Path, stderr_path: Path
          ) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS MB)."""
    peak_kb = [0]
    stop = threading.Event()
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=job_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        sampler = threading.Thread(target=_sample_peak_rss,
                                   args=(proc.pid, stop, peak_kb))
        sampler.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            stop.set()
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, peak_kb[0] / 1024.0


def job_argv(job, spans: Path | None = None) -> list[str]:
    if job.kind != "lanczos" and spans is None:
        return [sys.executable, "-c", CLI, *job.args]
    argv = [sys.executable, str(BENCH_DIR / "job.py")]
    if spans is not None:
        argv += ["--spans", str(spans), "--job-id", spans.stem]
    return argv + ["cli" if job.kind != "lanczos" else "lanczos", *job.args]


def interpreter_wall(work: Path, code: str) -> float:
    """Wall time of one fresh interpreter running ``code``.  No RSS sampler
    runs beside it: its reads of the child's status add noise."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=work,
                          env=job_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"python3 -c {code!r} failed: "
                           + proc.stderr.decode(errors="replace"))
    return wall


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(inputs, workload: str, seed: int, seconds: int, trace: int,
                passes: int, jobs: int, not_applicable: list[str]) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "passes": passes, "jobs": jobs,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "not_applicable": not_applicable,
        "inputs": [{"name": i.name, "n_orb": i.n_orb, "n_elec": i.n_elec,
                    "bytes": i.size_bytes} for i in inputs],
    }


class Runner:
    """Runs one workload's passes and checks every output."""

    def __init__(self, workload, seed: int, work: Path, specs=None):
        import checks
        import workloads

        self.work = work
        goldens = checks.load_goldens(seed) if specs is None else {}
        specs = specs or workload.inputs
        self.inputs = workloads.make_inputs(workload, seed, work, specs)
        self.jobs = [job for spec, inp in zip(specs, self.inputs)
                     for job in spec.jobs(inp, work)]
        self.checker = checks.Checker(ROOT, goldens, workload.name)
        self.references = {}
        for inp in self.inputs:
            if any(job.kind == "lanczos" and job.input is inp
                   for job in self.jobs):
                golden = self.checker.golden(inp.name)
                self.references[inp.name] = (
                    (golden["exact_min"], golden["exact_max"]) if golden
                    else checks.exact_sector_range(inp.path))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.values: list[tuple[object, dict]] = []
        self.rss_mb: list[float] = []
        self.import_s: list[float] = []
        # Start and exit of a bare interpreter, for the traced runs.
        self.interpreter_s = 0.0
        # End-to-end quality metrics this workload has no jobs for.
        self.not_applicable: list[str] = []
        self._count = 0

    def run_job(self, job, traced: bool) -> tuple[float, list[dict] | None]:
        self._count += 1
        tag = f"job{self._count}"
        spans = self.work / f"{tag}.spans.json" if traced else None
        for path in (job.report, job.fcidump_out, spans):
            if path is not None:
                path.unlink(missing_ok=True)
        stderr = self.work / f"{tag}.stderr"
        wall, code, rss = spawn(job_argv(job, spans), self.work, stderr)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            tail = stderr.read_text(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED {job.kind} {' '.join(job.methods)} on "
                  f"{job.input.name}: exit {code} {tail}", file=sys.stderr)
            return wall, None
        errors, values = self.checker.check(
            job, self.references.get(job.input.name))
        if errors:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG {job.kind} on {job.input.name}: {errors}",
                  file=sys.stderr)
        else:
            self.values.append((job, values))
        if not traced:
            self.rss_mb.append(rss)
        return wall, (json.loads(spans.read_text()) if traced else None)

    def sample_imports(self, elapsed: float, seconds: float) -> float:
        """Time the ``import blisslp`` samples due after ``elapsed`` of
        ``seconds`` (sample k is due at k/IMPORT_SAMPLES of them) and
        return the time that took."""
        begin = time.perf_counter()
        while (len(self.import_s) < IMPORT_SAMPLES
               and elapsed >= len(self.import_s) * seconds / IMPORT_SAMPLES):
            self.import_s.append(interpreter_wall(self.work, "import blisslp"))
        return time.perf_counter() - begin

    def run_passes(self, seconds: float, traced: bool) -> list[dict]:
        """Passes while the previous one still fits in ``seconds``.

        Untraced runs time the import samples between jobs, and the ones
        still due after the last pass at its end.  Their time does not count
        against ``seconds``, so they leave the number of passes as it is."""
        import spans as spans_module

        passes = []
        start = time.perf_counter()
        sampling = 0.0

        def clock() -> float:
            return time.perf_counter() - start - sampling

        while True:
            begin = clock()
            walls, traced_jobs = [], []
            for job in self.jobs:
                if traced:
                    # Alternate which run goes first, so neither always
                    # finds the page cache warm.
                    order = (False, True) if len(passes) % 2 == 0 else (True, False)
                    for with_trace in order:
                        wall, spans = self.run_job(job, with_trace)
                        if with_trace:
                            traced_jobs.append((wall, spans or []))
                        else:
                            walls.append(wall)
                else:
                    walls.append(self.run_job(job, False)[0])
                    sampling += self.sample_imports(clock(), seconds)
            record = {"walls": walls}
            if traced:
                layer = spans_module.pass_metrics(traced_jobs,
                                                  self.interpreter_s)
                layer["trace.overhead_s"] = layer["job.wall_s"] - sum(walls)
                record["layer"] = layer
            passes.append(record)
            now = clock()
            if now + (now - begin) > seconds:
                if not traced:
                    self.sample_imports(0.0, 0.0)
                return passes


def end_to_end(runner: Runner, passes: list[dict]) -> dict:
    # Each job's median over the passes: a job list that mixes long and
    # short jobs then has no median that falls between the two kinds.
    job_walls = [statistics.median(p["walls"][k] for p in passes)
                 for k in range(len(runner.jobs))]
    pauli = [v["pauli_ratio"] for job, v in runner.values
             if job.kind == "run" and job.methods == ("lp-bliss",)]
    df = [v["df_ratio"] for _, v in runner.values if "df_ratio" in v]
    deviation = [v["deviation"] for _, v in runner.values
                 if v.get("deviation") is not None]
    lanczos = [v["range_frac"] for _, v in runner.values if "range_frac" in v]
    values = {
        "batch_s": statistics.median(sum(p["walls"]) for p in passes),
        "job_s_p50": statistics.median(job_walls),
        "setup_s": statistics.median(runner.import_s),
        "peak_rss_mb": max(runner.rss_mb, default=0.0),
        "lambda_pauli_ratio": statistics.fmean(pauli) if pauli else None,
        "lambda_df_ratio": statistics.fmean(df) if df else None,
        "deviation": statistics.median(deviation) if deviation else None,
        "lanczos_range_frac": statistics.fmean(lanczos) if lanczos else None,
    }
    runner.not_applicable = [name for name, value in values.items()
                             if value is None]
    values = {name: NOT_APPLICABLE if value is None else value
              for name, value in values.items()}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(passes: list[dict]) -> dict:
    import spans

    return {name: {"value": statistics.median(p["layer"][name]
                                              for p in passes),
                   "unit": unit}
            for name, unit in spans.LAYER_METRICS.items()}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 work: Path, specs=None) -> tuple[dict, dict]:
    """Set up, measure and check one workload: (result, environment)."""
    import workloads

    workload = workloads.WORKLOADS[name]
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work, specs)
    # Untimed warm-up: the first import in a fresh checkout compiles the
    # package and reads numpy and scipy from disk.
    interpreter_wall(work, "import blisslp")
    if trace:
        runner.interpreter_s = statistics.median(
            interpreter_wall(work, "pass") for _ in range(INTERPRETER_SAMPLES))
    passes = runner.run_passes(seconds, traced=bool(trace))
    metrics = per_layer(passes) if trace else end_to_end(runner, passes)
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    env = environment(runner.inputs, name, seed, seconds, trace, len(passes),
                      runner.attempted, runner.not_applicable)
    return result, env


def _check_tree() -> None:
    for needed in (SRC / "blisslp" / "cli.py", ROOT / "tests" / "oracles.py",
                   ROOT / "docs" / "report_schema.json"):
        if not needed.is_file():
            sys.exit(f"error: {needed.relative_to(ROOT)} not found; run from "
                     "a checkout of the blisslp repository")


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description="blisslp benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception so the running job is killed and
    # waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _check_tree()
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    work_root = ROOT / ".bench_build" / f"bench-{os.getpid()}"
    results = {}
    try:
        for name in names:
            result, env = run_workload(name, args.seed, args.seconds,
                                       args.trace, work_root / name)
            results[name] = result
            print(json.dumps({"environment": env}))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        metrics = dict(result["metrics"])
        metrics["failed_frac"] = {"value": result["failed"]
                                  / result["attempted"], "unit": "ratio"}
        for metric, entry in metrics.items():
            print(f"{name:16s} {metric:34s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
