"""Output checks.  A job whose output fails one counts as failed.

Every report is validated against ``docs/report_schema.json``.  Quantities
the input alone fixes (the "before" norms, the unshifted spectral ranges, the
LP optimum and the exact sector range behind ``lanczos_range_frac``) are
compared with ``goldens.json`` when the run uses the seed the goldens were
recorded for.  Values that depend on which optimal vertex a degenerate LP
returns (shift parameters, ffr results) are checked by invariants only, and
so is everything on any other seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS_PATH = BENCH_DIR / "goldens.json"
GOLDEN_RTOL = 1e-8
# Slack for bounds that hold exactly in exact arithmetic.
BOUND_RTOL = 1e-9
# Shifted Hamiltonians up to this size are also checked on a few determinant
# matrix elements inside the electron-number sector, which a BLISS shift
# must leave unchanged.
SECTOR_CHECK_MAX_ORB = 8


def load_goldens(seed: int) -> dict:
    """Goldens keyed "workload/input" for ``seed``; empty for other seeds."""
    data = json.loads(GOLDENS_PATH.read_text())
    return data["inputs"] if data["seed"] == seed else {}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


class Checker:
    """Checks the outputs of one workload's jobs."""

    def __init__(self, root: Path, goldens: dict, workload: str):
        import jsonschema

        self.validator = jsonschema.Draft7Validator(json.loads(
            (root / "docs" / "report_schema.json").read_text()))
        self.goldens = goldens
        self.workload = workload
        # Cross-pass determinism: job key -> checked values of the first pass.
        self._first: dict[tuple, tuple] = {}
        # Shifted FCIDUMPs already parsed and checked: path -> file bytes.
        self._checked_fcidumps: dict[str, bytes] = {}

    def golden(self, input_name: str) -> dict:
        return self.goldens.get(f"{self.workload}/{input_name}", {})

    def check(self, job, reference: tuple[float, float] | None = None
              ) -> tuple[list[str], dict]:
        """Errors found in ``job``'s output, and the values the workload's
        quality metrics are computed from."""
        try:
            document = json.loads(job.report.read_text())
        except (OSError, ValueError) as exc:
            return [f"no readable output: {exc}"], {}
        if job.kind == "lanczos":
            errors, values = self._check_lanczos(job, document, reference)
        else:
            errors = [f"schema: {e.message}"
                      for e in self.validator.iter_errors(document)]
            if errors:
                return errors, {}
            if job.kind == "run":
                errors, values = self._check_run(job, document)
            else:
                errors, values = self._check_compare(job, document)
        key = (job.kind, job.input.name, job.methods)
        fingerprint = tuple(sorted(values.items()))
        if self._first.setdefault(key, fingerprint) != fingerprint:
            errors.append("output differs from the first pass on this input")
        return errors, values

    def _check_input_fields(self, job, report: dict) -> list[str]:
        errors = []
        if report["input"]["n_orb"] != job.input.n_orb:
            errors.append(f"n_orb {report['input']['n_orb']} != "
                          f"{job.input.n_orb}")
        if report["input"]["n_elec"] != job.input.n_elec:
            errors.append(f"n_elec {report['input']['n_elec']} != "
                          f"{job.input.n_elec}")
        return errors

    def _check_norm_pair(self, name: str, pair: dict) -> list[str]:
        errors = []
        if not pair["before"] > 0.0:
            errors.append(f"{name}.before {pair['before']} is not positive")
        if pair["after"] is not None:
            if not pair["after"] > 0.0:
                errors.append(f"{name}.after {pair['after']} is not positive")
            elif not _close(pair["ratio"], pair["after"] / pair["before"],
                            1e-12):
                errors.append(f"{name}.ratio is not after / before")
        return errors

    def _check_before(self, golden: dict, pauli: float, df: float
                      ) -> list[str]:
        errors = []
        for key, value in (("lambda_pauli_before", pauli),
                           ("lambda_df_before", df)):
            if key in golden and not _close(value, golden[key], GOLDEN_RTOL):
                errors.append(f"{key} {value!r} != golden {golden[key]!r}")
        return errors

    def _check_run(self, job, report: dict) -> tuple[list[str], dict]:
        golden = self.golden(job.input.name)
        errors = self._check_input_fields(job, report)
        errors += self._check_norm_pair("lambda_pauli", report["lambda_pauli"])
        errors += self._check_norm_pair("lambda_df", report["lambda_df"])
        pauli = report["lambda_pauli"]
        errors += self._check_before(golden, pauli["before"],
                                     report["lambda_df"]["before"])
        if report["method"] != job.methods[0]:
            errors.append(f"method {report['method']} != {job.methods[0]}")
        if pauli["after"] is None or report["bliss"] is None:
            return errors + ["shift method reported no shifted norm"], {}
        if job.methods[0] == "lp-bliss":
            # x = 0 is feasible, so the LP optimum never exceeds the start.
            if pauli["after"] > pauli["before"] * (1.0 + BOUND_RTOL):
                errors.append("lp-bliss increased the Pauli norm")
            if "lp_optimum" in golden and not _close(
                    pauli["after"], golden["lp_optimum"], GOLDEN_RTOL):
                errors.append(f"LP optimum {pauli['after']!r} != golden "
                              f"{golden['lp_optimum']!r}")
        errors += self._check_shifted_fcidump(job, pauli["after"])
        return errors, {"pauli_ratio": pauli["ratio"],
                        "pauli_after": pauli["after"]}

    def _check_shifted_fcidump(self, job, pauli_after: float) -> list[str]:
        from blisslp import parse_fcidump, pauli_one_norm

        try:
            data = job.fcidump_out.read_bytes()
        except OSError as exc:
            return [f"shifted FCIDUMP missing: {exc}"]
        key = str(job.fcidump_out)
        if key in self._checked_fcidumps:
            if self._checked_fcidumps[key] != data:
                return ["shifted FCIDUMP differs from the first pass"]
            return []
        self._checked_fcidumps[key] = data
        try:
            shifted = parse_fcidump(data)
        except ValueError as exc:
            return [f"shifted FCIDUMP does not parse: {exc}"]
        errors = []
        if (shifted.n_orb, shifted.n_elec) != (job.input.n_orb,
                                               job.input.n_elec):
            errors.append("shifted FCIDUMP changed NORB or NELEC")
        if not _close(pauli_one_norm(shifted).lambda_total, pauli_after, 1e-9):
            errors.append("shifted FCIDUMP Pauli norm != reported after")
        if shifted.n_orb <= SECTOR_CHECK_MAX_ORB:
            original = parse_fcidump(job.input.path.read_bytes())
            if not _same_sector_elements(original, shifted):
                errors.append("shift changed H inside the electron sector")
        return errors

    def _check_compare(self, job, document: dict) -> tuple[list[str], dict]:
        golden = self.golden(job.input.name)
        rows, runs = document["rows"], document["runs"]
        errors = []
        if tuple(row["method"] for row in rows) != job.methods:
            return [f"rows {[r['method'] for r in rows]} != {job.methods}"], {}
        for run in runs:
            errors += self._check_input_fields(job, run)
            errors += self._check_norm_pair(f"{run['method']}.lambda_pauli",
                                            run["lambda_pauli"])
            errors += self._check_norm_pair(f"{run['method']}.lambda_df",
                                            run["lambda_df"])
        first = rows[0]
        for row in rows[1:]:
            for key in ("lambda_pauli_before", "lambda_df_before", "delta_e",
                        "delta_e_ens"):
                if row[key] != first[key]:
                    errors.append(f"{row['method']}.{key} differs between "
                                  "methods on one input")
        errors += self._check_before(golden, first["lambda_pauli_before"],
                                     first["lambda_df_before"])
        by_method = {row["method"]: row for row in rows}
        values = {"df_ratio": by_method["df-lrps"]["lambda_df_ratio"]}
        if first["delta_e"] is not None:
            errors += self._check_spectra(golden, by_method)
            values["deviation"] = by_method["flr-bliss"]["deviation"]
        return errors, values

    def _check_spectra(self, golden: dict, by_method: dict) -> list[str]:
        errors = []
        base = by_method["none"]
        delta_e, delta_ens = base["delta_e"], base["delta_e_ens"]
        for key, value in (("delta_e", delta_e), ("delta_e_ens", delta_ens)):
            if key in golden and not _close(value, golden[key], GOLDEN_RTOL):
                errors.append(f"{key} {value!r} != golden {golden[key]!r}")
        if delta_ens > delta_e * (1.0 + BOUND_RTOL):
            errors.append("sector range exceeds the full Fock range")
        # A 1-norm bounds half the spectral range of its operator.
        half = 0.5 * delta_e * (1.0 - BOUND_RTOL)
        if base["lambda_pauli_before"] < half or base["lambda_df_before"] < half:
            errors.append("a 'before' norm is below half the spectral range")
        for method in ("flr-bliss", "ffr-bliss"):
            row = by_method[method]
            shifted = row["delta_e_shifted"]
            # The shift leaves the sector spectrum alone, so the shifted
            # full range still contains the sector range.
            if shifted < delta_ens * (1.0 - BOUND_RTOL):
                errors.append(f"{method}: shifted range below sector range")
            if row["lambda_pauli_after"] < 0.5 * shifted * (1.0 - BOUND_RTOL):
                errors.append(f"{method}: Pauli norm below half its range")
            if delta_e > delta_ens and (row["deviation"] is None or not _close(
                    row["deviation"],
                    (shifted - delta_ens) / (delta_e - delta_ens), 1e-9)):
                errors.append(f"{method}: deviation inconsistent with ranges")
        lrps = by_method["df-lrps"]
        if lrps["lambda_df_after"] < 0.5 * delta_ens * (1.0 - BOUND_RTOL):
            errors.append("df-lrps norm below half the sector range")
        return errors

    def _check_lanczos(self, job, result: dict,
                       reference: tuple[float, float] | None
                       ) -> tuple[list[str], dict]:
        errors = []
        if (result["n_orb"], result["n_elec"]) != (job.input.n_orb,
                                                   job.input.n_elec):
            errors.append("Lanczos job read another NORB or NELEC")
        exact_min, exact_max = reference
        scale = max(abs(exact_min), abs(exact_max), 1.0)
        # Truncated Lanczos is variational: never below the true minimum,
        # never above the true maximum.
        if result["e_min"] < exact_min - BOUND_RTOL * scale:
            errors.append(f"Lanczos e_min {result['e_min']!r} below exact "
                          f"{exact_min!r}")
        if result["e_max"] > exact_max + BOUND_RTOL * scale:
            errors.append(f"Lanczos e_max {result['e_max']!r} above exact "
                          f"{exact_max!r}")
        if not result["e_max"] > result["e_min"]:
            errors.append("Lanczos range is not positive")
        frac = (result["e_max"] - result["e_min"]) / (exact_max - exact_min)
        return errors, {"range_frac": frac}


def exact_sector_range(path: Path) -> tuple[float, float]:
    """Exact extremes of the input's electron-number sector, for the
    reference of ``lanczos_range_frac`` on seeds without goldens."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    from blisslp import parse_fcidump, sector_matrix

    hamiltonian = parse_fcidump(path.read_bytes())
    matrix = csr_matrix(sector_matrix(hamiltonian, hamiltonian.n_elec)[0])
    low = eigsh(matrix, k=1, which="SA", return_eigenvectors=False)[0]
    high = eigsh(matrix, k=1, which="LA", return_eigenvectors=False)[0]
    return float(low), float(high)


def _same_sector_elements(original, shifted, n_dets: int = 6) -> bool:
    """<a|H|b> = <a|H - K|b> for a fixed set of sector determinants."""
    from blisslp import CIVector, apply_hamiltonian, sector_determinants

    dets = sector_determinants(original.n_spin_orb, original.n_elec)
    picks = [dets[i] for i in np.linspace(0, len(dets) - 1, n_dets).astype(int)]
    for occ in picks:
        vector = CIVector({occ: 1.0}, original.n_elec, original.n_spin_orb)
        a = apply_hamiltonian(original, vector).entries
        b = apply_hamiltonian(shifted, vector).entries
        scale = max(max(abs(v) for v in a.values()), 1.0)
        for det in picks:
            if abs(a.get(det, 0.0) - b.get(det, 0.0)) > 1e-9 * scale:
                return False
    return True
