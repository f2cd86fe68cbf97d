"""Spans around the package's public functions, and the per-layer metrics
computed from them.

Tracing is installed from the benchmark's own job script: each function is
replaced, at the module attribute its callers look it up under, by a wrapper
that records a span (name, start, end, parent span, job id) and a few
counts read from the arguments and the returned object.  Package code is not
edited.  Spans stay in memory and are written once, when the job ends.

A span's self time is its duration minus the time its child spans cover.
The self times of a job's spans, its import span and the start and exit of
a bare interpreter add up to its wall time, except for what no span covers
(argument parsing, output files, tracing itself): ``trace.unspanned_s``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _digest(*parts) -> str:
    sha = hashlib.sha1()
    for part in parts:
        sha.update(part.tobytes() if isinstance(part, np.ndarray)
                   else repr(part).encode())
    return sha.hexdigest()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Count functions take (args, kwargs, result) and return {count name: value};
# a "key" entry is a digest of the input, used for the *_unique_frac ratios.
def _parse_counts(args, kwargs, result):
    text = _arg(args, kwargs, 0, "text")
    data = text if isinstance(text, bytes) else text.encode()
    return {"key": hashlib.sha1(data).hexdigest(), "bytes": len(data)}


def _write_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _build_counts(args, kwargs, result):
    return {"rows": result[0].n_rows}


def _merge_counts(args, kwargs, result):
    return {"rows": result.n_rows,
            "rows_no_vars": sum(1 for row in result.rows if not row)}


def _minimize_counts(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    n, m = problem.n_vars, problem.n_rows
    # G = [[A, -I], [-A, -I]] is 2m x (n + m) float64.
    return {"lp_bytes": 8 * 2 * m * (n + m)}


def _solve_counts(args, kwargs, result):
    from blisslp.simplex import LpStatus

    q, p = np.shape(_arg(args, kwargs, 1, "G"))
    n_art = int(np.count_nonzero(np.asarray(_arg(args, kwargs, 2, "h")) < 0))
    # Tableau: q rows by z+, z-, slacks, artificials and the right-hand side.
    return {"pivots": result.iterations,
            "nonoptimal": int(result.status is not LpStatus.OPTIMAL),
            "tableau_bytes": 8 * q * (2 * p + q + n_art + 1)}


def _factorize_counts(args, kwargs, result):
    hamiltonian = _arg(args, kwargs, 0, "hamiltonian")
    tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-8)
    return {"key": _digest(hamiltonian.g, tol), "fragments": len(result)}


def _range_counts(args, kwargs, result):
    hamiltonian = _arg(args, kwargs, 0, "hamiltonian")
    sector = args[1] if len(args) > 1 else kwargs.get("sector")
    method = args[2] if len(args) > 2 else kwargs.get("method", "exact")
    return {"key": _digest(hamiltonian.e_const, hamiltonian.h, hamiltonian.g,
                           sector, method)}


def _sector_matrix_counts(args, kwargs, result):
    dim = len(result[1])
    return {"dim": dim, "matrix_bytes": 8 * dim * dim}


def _lanczos_counts(args, kwargs, result):
    return {"iters": result.iterations, "converged": int(result.converged)}


def _json_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute, span name, count function).  Each function is wrapped
# under the name its caller looks it up by, so a span sits at the boundary
# between two modules.
WRAPS = (
    ("blisslp.cli", "run_pipeline", "cli.pipeline", None),
    ("blisslp.cli", "parse_fcidump", "fcidump.parse", _parse_counts),
    ("blisslp.fcidump", "parse_fcidump", "fcidump.parse", _parse_counts),
    ("blisslp.cli", "write_fcidump", "fcidump.write", _write_counts),
    ("blisslp.cli", "pauli_one_norm", "pauli.norm", None),
    ("blisslp.cli", "build_fermionic_report", "fermionic.report", None),
    ("blisslp.cli", "assemble_global_bliss", "fermionic.assemble", None),
    ("blisslp.cli", "apply_bliss", "hamiltonian.apply_bliss", None),
    ("blisslp.cli", "lp_bliss", "lp_bliss.lp_bliss", None),
    ("blisslp.cli", "build_spectral_report", "spectral.report", None),
    ("blisslp.cli", "to_json", "report.to_json", _json_counts),
    ("blisslp.lp_bliss", "build_lp_bliss_problem", "lp_bliss.build",
     _build_counts),
    ("blisslp.lp_bliss", "merge_duplicate_rows", "l1min.merge", _merge_counts),
    ("blisslp.lp_bliss", "l1_minimize", "l1min.minimize", _minimize_counts),
    ("blisslp.l1min", "solve_lp", "simplex.solve", _solve_counts),
    ("blisslp.fermionic", "double_factorize", "fermionic.factorize",
     _factorize_counts),
    ("blisslp.fermionic", "lrbs_shift", "fermionic.lrbs", None),
    ("blisslp.fermionic", "l1_minimize", "l1min.minimize", _minimize_counts),
    ("blisslp.spectral", "spectral_range", "spectral.range", _range_counts),
    ("blisslp.spectral", "sector_matrix", "spectral.sector_matrix",
     _sector_matrix_counts),
    ("blisslp.spectral", "truncated_lanczos", "spectral.lanczos",
     _lanczos_counts),
)


class Tracer:
    """Collects the spans of one job process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": None, "job": self.job_id,
                           "start": start, "end": end})

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "job": self.job_id}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, counts in WRAPS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), counts))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


# Per-layer metrics: name -> unit.  Times are self times summed over a pass;
# counts are summed over a pass except spectral.sector_dim_max.
LAYER_METRICS = {
    "cli.pipeline_self_s": "s", "cli.pipeline_calls": "count",
    "fcidump.parse_s": "s", "fcidump.parse_calls": "count",
    "fcidump.parse_unique_frac": "ratio", "fcidump.bytes_read": "B",
    "fcidump.write_s": "s", "fcidump.bytes_written": "B",
    "pauli.norm_s": "s", "pauli.norm_calls": "count",
    "hamiltonian.apply_bliss_s": "s", "hamiltonian.apply_bliss_calls": "count",
    "lp_bliss.build_s": "s", "lp_bliss.rows_raw": "count",
    "lp_bliss.self_s": "s",
    "l1min.merge_s": "s", "l1min.rows_merged": "count",
    "l1min.rows_no_vars": "count", "l1min.rows_useful_frac": "ratio",
    "l1min.minimize_self_s": "s", "l1min.minimize_calls": "count",
    "l1min.lp_bytes": "B",
    "simplex.solve_s": "s", "simplex.pivots": "count",
    "simplex.nonoptimal": "count", "simplex.tableau_bytes": "B",
    "fermionic.factorize_s": "s", "fermionic.factorize_calls": "count",
    "fermionic.factorize_unique_frac": "ratio", "fermionic.fragments": "count",
    "fermionic.report_self_s": "s", "fermionic.assemble_self_s": "s",
    "fermionic.lrbs_s": "s", "fermionic.lrbs_calls": "count",
    "spectral.report_self_s": "s",
    "spectral.sector_matrix_s": "s", "spectral.sector_matrix_calls": "count",
    "spectral.sector_dim_max": "count", "spectral.matrix_bytes": "B",
    "spectral.range_self_s": "s", "spectral.range_calls": "count",
    "spectral.range_unique_frac": "ratio",
    "spectral.lanczos_s": "s", "spectral.lanczos_calls": "count",
    "spectral.lanczos_iters": "count", "spectral.lanczos_converged_frac": "ratio",
    "report.to_json_s": "s", "report.bytes": "B",
    "job.import_s": "s", "job.interpreter_s": "s", "job.wall_s": "s",
    "trace.unspanned_s": "s", "trace.overhead_s": "s",
}

# Span name -> (self-time metric, call-count metric or None).
_SPAN_METRICS = {
    "cli.pipeline": ("cli.pipeline_self_s", "cli.pipeline_calls"),
    "fcidump.parse": ("fcidump.parse_s", "fcidump.parse_calls"),
    "fcidump.write": ("fcidump.write_s", None),
    "pauli.norm": ("pauli.norm_s", "pauli.norm_calls"),
    "hamiltonian.apply_bliss": ("hamiltonian.apply_bliss_s",
                                "hamiltonian.apply_bliss_calls"),
    "lp_bliss.lp_bliss": ("lp_bliss.self_s", None),
    "lp_bliss.build": ("lp_bliss.build_s", None),
    "l1min.merge": ("l1min.merge_s", None),
    "l1min.minimize": ("l1min.minimize_self_s", "l1min.minimize_calls"),
    "simplex.solve": ("simplex.solve_s", None),
    "fermionic.factorize": ("fermionic.factorize_s",
                            "fermionic.factorize_calls"),
    "fermionic.report": ("fermionic.report_self_s", None),
    "fermionic.assemble": ("fermionic.assemble_self_s", None),
    "fermionic.lrbs": ("fermionic.lrbs_s", "fermionic.lrbs_calls"),
    "spectral.report": ("spectral.report_self_s", None),
    "spectral.range": ("spectral.range_self_s", "spectral.range_calls"),
    "spectral.sector_matrix": ("spectral.sector_matrix_s",
                               "spectral.sector_matrix_calls"),
    "spectral.lanczos": ("spectral.lanczos_s", "spectral.lanczos_calls"),
    "report.to_json": ("report.to_json_s", None),
    "job.import": ("job.import_s", None),
}

# (span name, count) -> summed metric.
_COUNT_METRICS = {
    ("fcidump.parse", "bytes"): "fcidump.bytes_read",
    ("fcidump.write", "bytes"): "fcidump.bytes_written",
    ("lp_bliss.build", "rows"): "lp_bliss.rows_raw",
    ("l1min.merge", "rows"): "l1min.rows_merged",
    ("l1min.merge", "rows_no_vars"): "l1min.rows_no_vars",
    ("l1min.minimize", "lp_bytes"): "l1min.lp_bytes",
    ("simplex.solve", "pivots"): "simplex.pivots",
    ("simplex.solve", "nonoptimal"): "simplex.nonoptimal",
    ("simplex.solve", "tableau_bytes"): "simplex.tableau_bytes",
    ("fermionic.factorize", "fragments"): "fermionic.fragments",
    ("spectral.sector_matrix", "matrix_bytes"): "spectral.matrix_bytes",
    ("spectral.lanczos", "iters"): "spectral.lanczos_iters",
    ("report.to_json", "bytes"): "report.bytes",
}

# Unique-input ratio -> span whose "key" count identifies its input.
_UNIQUE_METRICS = {
    "fcidump.parse_unique_frac": "fcidump.parse",
    "fermionic.factorize_unique_frac": "fermionic.factorize",
    "spectral.range_unique_frac": "spectral.range",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(jobs: list[tuple[float, list[dict]]],
                 interpreter_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``jobs`` holds, per job, its wall time as the harness measured it and
    the spans the job wrote; ``interpreter_s`` is the wall time of a bare
    ``python3 -c pass``.  Distinct inputs are counted per job, since a cache
    inside the program can only reuse work within one process.
    """
    out: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    converged = 0
    for wall, spans in jobs:
        out["job.wall_s"] += wall
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        keys: dict[str, set] = defaultdict(set)
        top_level = 0.0
        for span in spans:
            duration = span["end"] - span["start"]
            if span["parent"] is None:
                top_level += duration
            time_metric, calls_metric = _SPAN_METRICS[span["name"]]
            out[time_metric] += duration - child_time[span["id"]]
            calls[span["name"]] += 1
            if calls_metric is not None:
                out[calls_metric] += 1
            counts = span.get("counts", {})
            for count, value in counts.items():
                metric = _COUNT_METRICS.get((span["name"], count))
                if metric is not None:
                    out[metric] += value
            if "key" in counts:
                keys[span["name"]].add(counts["key"])
            if span["name"] == "spectral.sector_matrix":
                out["spectral.sector_dim_max"] = max(
                    out["spectral.sector_dim_max"], counts["dim"])
            converged += counts.get("converged", 0)
        out["job.interpreter_s"] += interpreter_s
        out["trace.unspanned_s"] += wall - top_level - interpreter_s
        for metric, name in _UNIQUE_METRICS.items():
            out[metric] += len(keys[name])
    for metric, name in _UNIQUE_METRICS.items():
        out[metric] = _ratio(out[metric], calls[name])
    out["l1min.rows_useful_frac"] = _ratio(
        out["l1min.rows_merged"] - out["l1min.rows_no_vars"],
        out["l1min.rows_merged"])
    out["spectral.lanczos_converged_frac"] = _ratio(
        converged, calls["spectral.lanczos"])
    return {name: float(out[name]) for name in LAYER_METRICS}
