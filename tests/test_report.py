"""Tests for report containers, serialization and the shipped schema."""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from blisslp import (
    BlissParams,
    BlissSummary,
    CompareReport,
    NormPair,
    RunReport,
    build_fermionic_report,
    build_spectral_report,
    strip_volatile,
    to_json,
)
from blisslp.report import (
    SCHEMA_VERSION,
    VOLATILE_KEYS,
    fermionic_section,
    spectral_section,
)

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"


def make_run_report(method="none", **overrides) -> RunReport:
    fields = dict(
        generated_at="2000-01-01T00:00:00Z",
        input_path="input.fcidump",
        n_orb=2, n_elec=2, ms2=0, e_const=0.5,
        method=method, spectral_method="off", seed=None,
        lambda_pauli=NormPair(2.0, 1.0),
        lambda_df=NormPair(4.0, None),
        bliss=None, fermionic=None, spectral=None,
        options={"df_tol": 1e-8}, metadata={}, timings_s={"total": 0.1})
    fields.update(overrides)
    return RunReport(**fields)


def test_norm_pair_ratio():
    assert NormPair(2.0, 1.0).ratio == pytest.approx(0.5)
    assert NormPair(2.0, None).ratio is None
    assert NormPair(0.0, 1.0).ratio is None
    assert NormPair(2.0, 1.0).to_dict() == {
        "before": 2.0, "after": 1.0, "ratio": 0.5}


def test_bliss_summary_from_params():
    xi = np.array([[1.0, -2.0], [-2.0, 0.5]])
    summary = BlissSummary.from_params(BlissParams(0.1, xi))
    assert summary.mu1 == 0.1
    assert summary.xi_max_abs == 2.0
    assert summary.xi_one_norm == pytest.approx(5.5)


def test_fermionic_section_shape():
    rng = np.random.default_rng(73)
    H = oracles.random_hamiltonian(rng, 2, 2)
    section = fermionic_section(build_fermionic_report(H, "df-lrps"))
    assert section["method"] == "df-lrps"
    assert isinstance(section["fragments"], list)
    assert all(set(f) == {"index", "kind", "one_norm", "phi",
                          "theta_max_abs"} for f in section["fragments"])
    assert section["lambda_total"] == pytest.approx(
        section["lambda_one_body"] + section["lambda_fragments"])


def test_spectral_section_shape():
    rng = np.random.default_rng(74)
    H = oracles.random_hamiltonian(rng, 2, 2)
    section = spectral_section(build_spectral_report(H))
    assert section["delta_e_shifted"] is None
    assert section["deviation"] is None
    assert [row["n_elec"] for row in section["sector_extremes"]] == list(range(5))


def test_run_report_dict_layout():
    doc = make_run_report().to_dict()
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["input"] == {"path": "input.fcidump", "n_orb": 2, "n_elec": 2,
                            "ms2": 0, "e_const": 0.5}
    assert doc["lambda_pauli"]["ratio"] == pytest.approx(0.5)
    assert doc["lambda_df"]["after"] is None
    assert doc["bliss"] is None


def test_to_json_canonical_form():
    doc = {"b": 1, "a": {"d": None, "c": [1.5]}}
    text = to_json(doc)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == doc
    assert to_json(doc) == to_json({"a": {"c": [1.5], "d": None}, "b": 1})


def test_strip_volatile_recursive():
    doc = {"generated_at": "x", "keep": [{"timings_s": {"a": 1}, "v": 2}],
           "timings_s": {}}
    stripped = strip_volatile(doc)
    assert stripped == {"keep": [{"v": 2}]}
    for key in VOLATILE_KEYS:
        assert key not in json.dumps(stripped)


def test_compare_report_validation():
    run = make_run_report()
    with pytest.raises(ValueError, match="two"):
        CompareReport("t", "input.fcidump", (run,))
    other = make_run_report(input_path="other.fcidump")
    with pytest.raises(ValueError, match="share"):
        CompareReport("t", "input.fcidump", (run, other))


def test_compare_rows_and_csv():
    runs = (make_run_report("none", lambda_pauli=NormPair(2.0, None)),
            make_run_report("lp-bliss"))
    compare = CompareReport("t", "input.fcidump", runs)
    rows = compare.rows()
    assert [r["method"] for r in rows] == ["none", "lp-bliss"]
    assert rows[0]["lambda_pauli_ratio"] is None
    assert rows[1]["lambda_pauli_ratio"] == pytest.approx(0.5)

    csv_text = compare.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == ("method,lambda_pauli_before,lambda_pauli_after,"
                        "lambda_pauli_ratio,lambda_df_before,lambda_df_after,"
                        "lambda_df_ratio,lambda_fragments,delta_e,"
                        "delta_e_ens,delta_e_shifted,deviation")
    assert len(lines) == 3
    assert lines[1].startswith("none,2.0,,")


def test_run_report_validates_against_shipped_schema():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    rng = np.random.default_rng(75)
    H = oracles.random_hamiltonian(rng, 2, 2)
    report = make_run_report(
        method="df-lrps",
        bliss=BlissSummary.from_params(BlissParams.zeros(2)),
        fermionic=fermionic_section(build_fermionic_report(H, "df-lrps")),
        spectral=spectral_section(build_spectral_report(H)),
        spectral_method="exact")
    jsonschema.validate(json.loads(to_json(report.to_dict())), schema)


def test_compare_report_validates_against_shipped_schema():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    compare = CompareReport("t", "input.fcidump",
                            (make_run_report("none"), make_run_report("df")))
    jsonschema.validate(json.loads(to_json(compare.to_dict())), schema)


def test_schema_rejects_malformed_documents():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    doc = make_run_report().to_dict()
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
    doc = make_run_report().to_dict()
    doc["method"] = "mystery"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
