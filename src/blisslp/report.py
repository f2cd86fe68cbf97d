"""Structured run results and their JSON/CSV serialization.

The JSON layout is versioned and key-stable: two runs of the same
configuration produce byte-identical documents except for the volatile
fields, which live only under the keys ``generated_at`` and ``timings_s``.
The machine-readable schema shipped in ``docs/report_schema.json`` mirrors
the dictionaries produced here.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from .fermionic import FermionicNormReport
    from .hamiltonian import BlissParams
    from .spectral import SpectralReport

__all__ = [
    "SCHEMA_VERSION",
    "VOLATILE_KEYS",
    "NormPair",
    "BlissSummary",
    "RunReport",
    "CompareReport",
    "fermionic_section",
    "spectral_section",
    "to_json",
    "strip_volatile",
]

SCHEMA_VERSION = 3
# Fields allowed to differ between identical reruns; everything else in a
# report must be bit-reproducible.
VOLATILE_KEYS = ("generated_at", "timings_s")


def _opt(value: float | None) -> float | None:
    return None if value is None else float(value)


@dataclass(frozen=True)
class NormPair:
    """A 1-norm before a shift, after it, and their ratio."""

    before: float
    after: float | None = None

    @property
    def ratio(self) -> float | None:
        if self.after is None or self.before == 0.0:
            return None
        return self.after / self.before

    def to_dict(self) -> dict:
        return {"before": float(self.before), "after": _opt(self.after),
                "ratio": _opt(self.ratio)}


@dataclass(frozen=True)
class BlissSummary:
    """Scalar digest of a shift-parameter pair."""

    mu1: float
    xi_max_abs: float
    xi_one_norm: float

    @classmethod
    def from_params(cls, params: BlissParams) -> "BlissSummary":
        return cls(mu1=float(params.mu1),
                   xi_max_abs=float(np.abs(params.xi).max(initial=0.0)),
                   xi_one_norm=float(np.abs(params.xi).sum()))

    def to_dict(self) -> dict:
        return {"mu1": self.mu1, "xi_max_abs": self.xi_max_abs,
                "xi_one_norm": self.xi_one_norm}


def fermionic_section(report: FermionicNormReport) -> dict:
    """JSON-ready view of a fermionic norm report."""
    return {
        "method": report.method,
        "lambda_total": float(report.lambda_total),
        "lambda_one_body": float(report.lambda_one_body),
        "lambda_fragments": float(report.lambda_fragments),
        "mu1": float(report.mu1),
        "fragment_bound_sum": _opt(report.fragment_bound_sum),
        "fragments": [
            {"index": f.index, "kind": f.kind, "one_norm": float(f.one_norm),
             "phi": _opt(f.phi), "theta_max_abs": _opt(f.theta_max_abs)}
            for f in report.fragments],
        "metadata": dict(report.metadata),
    }


def spectral_section(report: SpectralReport) -> dict:
    """JSON-ready view of a spectral report."""
    return {
        "method": report.method,
        "converged": bool(report.converged),
        "delta_e": float(report.delta_e),
        "delta_e_ens": float(report.delta_e_ens),
        "delta_e_shifted": _opt(report.delta_e_shifted),
        "deviation": _opt(report.deviation),
        "sector_extremes": [
            {"n_elec": int(n), "e_min": float(lo), "e_max": float(hi)}
            for n, lo, hi in report.sector_extremes],
    }


@dataclass(frozen=True)
class RunReport:
    """Everything one pipeline run learned, ready for serialization.

    ``fermionic`` and ``spectral`` are pre-rendered dictionaries (or None);
    ``metadata`` holds convention notes, ``options`` the effective knobs.
    """

    generated_at: str
    input_path: str
    n_orb: int
    n_elec: int
    ms2: int
    e_const: float
    method: str
    spectral_method: str
    seed: int | None
    lambda_pauli: NormPair
    lambda_df: NormPair
    bliss: BlissSummary | None
    fermionic: dict | None
    spectral: dict | None
    options: Mapping[str, object]
    metadata: Mapping[str, str]
    timings_s: Mapping[str, float]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_at": self.generated_at,
            "input": {"path": self.input_path, "n_orb": self.n_orb,
                      "n_elec": self.n_elec, "ms2": self.ms2,
                      "e_const": float(self.e_const)},
            "method": self.method,
            "spectral_method": self.spectral_method,
            "seed": self.seed,
            "lambda_pauli": self.lambda_pauli.to_dict(),
            "lambda_df": self.lambda_df.to_dict(),
            "bliss": None if self.bliss is None else self.bliss.to_dict(),
            "fermionic": self.fermionic,
            "spectral": self.spectral,
            "options": dict(self.options),
            "metadata": dict(self.metadata),
            "timings_s": {k: float(v) for k, v in self.timings_s.items()},
        }


_CSV_COLUMNS = (
    "method",
    "lambda_pauli_before", "lambda_pauli_after", "lambda_pauli_ratio",
    "lambda_df_before", "lambda_df_after", "lambda_df_ratio",
    "lambda_fragments",
    "delta_e", "delta_e_ens", "delta_e_shifted", "deviation",
)


def _comparison_row(report: RunReport) -> dict:
    fermionic = report.fermionic or {}
    spectral = report.spectral or {}
    return {
        "method": report.method,
        "lambda_pauli_before": float(report.lambda_pauli.before),
        "lambda_pauli_after": _opt(report.lambda_pauli.after),
        "lambda_pauli_ratio": _opt(report.lambda_pauli.ratio),
        "lambda_df_before": float(report.lambda_df.before),
        "lambda_df_after": _opt(report.lambda_df.after),
        "lambda_df_ratio": _opt(report.lambda_df.ratio),
        "lambda_fragments": _opt(fermionic.get("lambda_fragments")),
        "delta_e": _opt(spectral.get("delta_e")),
        "delta_e_ens": _opt(spectral.get("delta_e_ens")),
        "delta_e_shifted": _opt(spectral.get("delta_e_shifted")),
        "deviation": _opt(spectral.get("deviation")),
    }


@dataclass(frozen=True)
class CompareReport:
    """Side-by-side method table over one shared input."""

    generated_at: str
    input_path: str
    runs: tuple[RunReport, ...]

    def __post_init__(self) -> None:
        if len(self.runs) < 2:
            raise ValueError("comparison needs at least two runs")
        if any(r.input_path != self.input_path for r in self.runs):
            raise ValueError("all compared runs must share one input")

    def rows(self) -> list[dict]:
        return [_comparison_row(r) for r in self.runs]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_at": self.generated_at,
            "input": self.input_path,
            "rows": self.rows(),
            "runs": [r.to_dict() for r in self.runs],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        for row in self.rows():
            writer.writerow({k: ("" if v is None else v)
                             for k, v in row.items()})
        return buf.getvalue()


def to_json(document: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline EOF."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def strip_volatile(document: object) -> object:
    """Recursively drop the volatile keys, for byte-level comparisons."""
    if isinstance(document, dict):
        return {k: strip_volatile(v) for k, v in document.items()
                if k not in VOLATILE_KEYS}
    if isinstance(document, list):
        return [strip_volatile(v) for v in document]
    return document
