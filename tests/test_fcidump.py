"""Tests for FCIDUMP parsing and emission."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blisslp import FcidumpError, MolecularHamiltonian, parse_fcidump, write_fcidump

HEADER_N1 = " &FCI NORB=1,NELEC=2,MS2=0,\n &END\n"


def test_parse_one_orbital_example():
    """t=-1.0, (00|00)=0.5 fold to h=-1.25, g=0.25 under the half/exchange
    convention."""
    text = HEADER_N1 + "0.5 1 1 1 1\n-1.0 1 1 0 0\n0.1 0 0 0 0\n"
    H = parse_fcidump(text)
    assert H.n_orb == 1
    assert H.n_elec == 2
    assert H.e_const == pytest.approx(0.1)
    assert H.g[0, 0, 0, 0] == pytest.approx(0.25)
    assert H.h[0, 0] == pytest.approx(-1.25)


def test_parse_fock_operator_matches_physical_hamiltonian():
    """e + sum h F + sum g FF equals e + t a+a + (1/2)(00|00) a+a+aa."""
    text = HEADER_N1 + "0.5 1 1 1 1\n-1.0 1 1 0 0\n0.1 0 0 0 0\n"
    H = parse_fcidump(text)
    ams = oracles.annihilation_matrices(2)
    num = sum(a.T @ a for a in ams)
    physical = (0.1 * np.eye(4) - 1.0 * num
                + 0.25 * sum(ams[p].T @ ams[q].T @ ams[q] @ ams[p]
                             for p in range(2) for q in range(2)))
    np.testing.assert_allclose(oracles.fock_matrix(H), physical, atol=1e-12)


def test_parse_empty_body_is_zero_hamiltonian():
    H = parse_fcidump(" &FCI NORB=2,NELEC=2,\n &END\n")
    assert H.e_const == 0.0
    assert np.all(H.h == 0.0)
    assert np.all(H.g == 0.0)


def test_parse_expands_eightfold_orbit():
    text = " &FCI NORB=2,NELEC=2,\n &END\n0.8 1 2 1 1\n"
    H = parse_fcidump(text)
    val = 0.4
    for idx in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]:
        assert H.g[idx] == pytest.approx(val)
    assert np.count_nonzero(H.g) == 4


@pytest.mark.parametrize("terminator", ["&END", "/"])
def test_parse_header_terminators(terminator):
    text = f" &FCI NORB=1,NELEC=1\n {terminator}\n0.5 1 1 1 1\n"
    assert parse_fcidump(text).g[0, 0, 0, 0] == pytest.approx(0.25)


def test_parse_orbsym_run_length_and_metadata():
    text = " &FCI NORB=3,NELEC=2,MS2=1,\n  ORBSYM=2*1,3,\n  ISYM=4,\n &END\n"
    H = parse_fcidump(text)
    assert H.orbsym == (1, 1, 3)
    assert H.isym == 4
    assert H.ms2 == 1


def test_parse_fortran_d_exponent():
    text = HEADER_N1 + "5.0D-1 1 1 1 1\n"
    assert parse_fcidump(text).g[0, 0, 0, 0] == pytest.approx(0.25)


def test_parse_bytes_input():
    text = (HEADER_N1 + "0.5 1 1 1 1\n").encode("utf-8")
    assert parse_fcidump(text).g[0, 0, 0, 0] == pytest.approx(0.25)


def test_parse_duplicate_consistent_last_wins():
    text = HEADER_N1 + "0.5 1 1 1 1\n0.5 1 1 1 1\n"
    assert parse_fcidump(text).g[0, 0, 0, 0] == pytest.approx(0.25)


def test_parse_duplicate_conflicting_reports_both_values():
    text = HEADER_N1 + "0.5 1 1 1 1\n0.7 1 1 1 1\n"
    with pytest.raises(FcidumpError) as err:
        parse_fcidump(text)
    assert "0.5" in str(err.value)
    assert "0.7" in str(err.value)


@pytest.mark.parametrize("body, lineno", [
    ("0.5 1 1 1 1\nnope 1 1 1 1\n", 4),
    ("0.5 1 1 2 1\n", 3),
    ("0.5 1 1 1\n", 3),
    ("0.5 1 0 0 0\n", 3),
    ("0.5 1 0 1 1\n", 3),
    ("nan 1 1 1 1\n", 3),
    ("0.5 1 1 1 1\ninf 1 1 0 0\n", 4),
    ("-Infinity 0 0 0 0\n", 3),
    ("1.0D999 1 1 0 0\n", 3),
    # Finite records whose sum in h = t - (1/2) sum_k (ik|kj) overflows.
    (b" &FCI NORB=2,NELEC=2,\n &END\n1e308 1 2 2 1\n1e308 1 1 1 1\n", 4),
    # A bytes case is a whole file.
    (b" &FCI NORB=1,NELEC=3,\n &END\n", 1),
    (HEADER_N1.encode() + b"0.5 1 1 1 1\n-1.0 1 \xff 0 0\n", 4),
])
def test_parse_errors_carry_line_numbers(body, lineno):
    with pytest.raises(FcidumpError) as err:
        parse_fcidump(body if isinstance(body, bytes) else HEADER_N1 + body)
    assert err.value.line == lineno
    assert f"line {lineno}" in str(err.value)


# Tokens a mutation may put in place of another.  Numbers stay small: the
# parser allocates NORB^4 floats before it reads a record.
_TOKENS = ("", "x", "0", "1", "2", "6", "-1", "1.5", "1e-3", "nan", "inf",
           "-Infinity", "1.0D999", "2.5d-01", "3*1", "=", ",", "/", "&END",
           "NORB=0", "NORB=6", "NELEC=13", "MS2=x", "ORBSYM=a")


@st.composite
def mutated_fcidumps(draw):
    """An FCIDUMP with NORB <= 3 and NELEC in [-1, 2 NORB + 1], its
    exponents spelled in one style, after up to four line or token
    mutations and perhaps one byte that is not UTF-8.  Returns the document
    and the line of that byte, or None."""
    n_orb = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    text = write_fcidump(oracles.random_hamiltonian(rng, n_orb, 0)).replace(
        "NELEC=0", f"NELEC={draw(st.integers(-1, 2 * n_orb + 1))}")
    style = draw(st.sampled_from("EeDd"))
    lines = [re.sub(r"E(?=[+-]\d)", style, line)
             for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "swap", "dup", "token", "char")))
        if kind == "drop":
            del lines[i]
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "token":
            tokens = lines[i].split()
            k = draw(st.integers(0, len(tokens)))
            tokens[k:k + 1] = [draw(st.sampled_from(_TOKENS))]
            lines[i] = " ".join(tokens)
        elif lines[i] and not re.search("[=&]", lines[i]):
            # Characters only change records, so no header value grows.
            k = draw(st.integers(0, len(lines[i]) - 1))
            ch = draw(st.sampled_from("0123456789.+-eEdD x"))
            lines[i] = lines[i][:k] + ch + lines[i][k + 1:]
    text = "\n".join(lines) + "\n"
    if draw(st.integers(0, 3)):
        return text, None
    data = text.encode()
    k = draw(st.integers(0, len(data)))
    return (data[:k] + bytes([draw(st.integers(0x80, 0xff))]) + data[k:],
            data[:k].count(b"\n") + 1)


@settings(max_examples=300, deadline=None)
@given(case=mutated_fcidumps())
def test_parse_fuzzed_input_raises_only_fcidump_error(case):
    document, bad_byte_line = case
    try:
        parse_fcidump(document)
    except FcidumpError as err:
        assert isinstance(err.line, int) and err.line >= 1
        assert f"line {err.line}:" in str(err)
        if bad_byte_line is not None:
            assert err.line == bad_byte_line
    else:
        assert bad_byte_line is None


def test_parse_missing_header_fields():
    with pytest.raises(FcidumpError):
        parse_fcidump(" &FCI NELEC=2,\n &END\n")
    with pytest.raises(FcidumpError):
        parse_fcidump(" &FCI NORB=2,\n &END\n")
    with pytest.raises(FcidumpError):
        parse_fcidump("   \n\n")


@pytest.mark.parametrize("n_orb", [100000, 300, 86])
def test_parse_refuses_oversize_norb_before_allocating(n_orb):
    """The parse's dense N^4 arrays are sized from the header alone, so an
    oversize NORB is refused at line 1 with nothing allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(FcidumpError, match="PARSE_MEMORY_LIMIT_BYTES") as err:
            parse_fcidump(f" &FCI NORB={n_orb},NELEC=2,\n &END\n 0.0 0 0 0 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == 1
    assert peak < 1 << 20


@pytest.mark.parametrize("n_orb", [76, 85])
def test_parse_admits_paper_scale_norb(n_orb):
    """NORB up to 85 passes the size check: the header's bad NELEC, checked
    after it, is what stops these parses before anything is allocated."""
    with pytest.raises(FcidumpError, match="NELEC must lie in"):
        parse_fcidump(f" &FCI NORB={n_orb},NELEC=999,\n &END\n")


@pytest.mark.parametrize("orbsym", ["a,b", "2*"])
def test_parse_malformed_orbsym_names_line(orbsym):
    with pytest.raises(FcidumpError, match="ORBSYM") as err:
        parse_fcidump(f" &FCI NORB=2,NELEC=2,ORBSYM={orbsym},\n &END\n")
    assert err.value.line is not None


def test_write_zero_hamiltonian_core_line_only():
    H = MolecularHamiltonian(n_orb=2, e_const=0.0, h=np.zeros((2, 2)),
                             g=np.zeros((2, 2, 2, 2)), n_elec=2)
    body = [ln for ln in write_fcidump(H).splitlines()
            if ln.strip() and not ln.lstrip().startswith("&")
            and "NORB" not in ln]
    assert len(body) == 1
    assert body[0].split()[1:] == ["0", "0", "0", "0"]


def test_write_single_canonical_line_per_orbit():
    g = np.zeros((2, 2, 2, 2))
    for idx in [(0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)]:
        g[idx] = 0.3
    H = MolecularHamiltonian(n_orb=2, e_const=0.0, h=np.zeros((2, 2)),
                             g=g, n_elec=2)
    two_body = [ln for ln in write_fcidump(H).splitlines()
                if len(ln.split()) == 5 and "0" not in ln.split()[1:]]
    assert len(two_body) == 1
    assert two_body[0].split()[1:] == ["2", "1", "2", "1"]


def test_roundtrip_first_parse_example():
    text = HEADER_N1 + "0.5 1 1 1 1\n-1.0 1 1 0 0\n0.1 0 0 0 0\n"
    H = parse_fcidump(text)
    H2 = parse_fcidump(write_fcidump(H))
    np.testing.assert_allclose(H2.h, H.h, atol=1e-12)
    np.testing.assert_allclose(H2.g, H.g, atol=1e-12)
    assert H2.e_const == pytest.approx(H.e_const, abs=1e-12)


@settings(max_examples=16, deadline=None)
@given(orbsym=st.booleans(), isym=st.booleans(),
       letter=st.sampled_from("EeDd"))
@pytest.mark.parametrize("seed", range(6))
def test_roundtrip_random(seed, orbsym, isym, letter):
    """Write/parse round trip, with or without ORBSYM and ISYM, whatever
    exponent letter the records use."""
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(1, 5))
    H = replace(
        oracles.random_hamiltonian(rng, n, int(rng.integers(0, 2 * n + 1))),
        orbsym=tuple(rng.integers(1, 9, n).tolist()) if orbsym else None,
        isym=int(rng.integers(1, 9)) if isym else None)
    header, records = write_fcidump(H).split("&END\n")
    H2 = parse_fcidump(header + "&END\n" + records.replace("E", letter))
    assert H2.n_orb == H.n_orb
    assert H2.n_elec == H.n_elec
    assert H2.ms2 == H.ms2
    assert (H2.orbsym, H2.isym) == (H.orbsym, H.isym)
    np.testing.assert_allclose(H2.h, H.h, atol=1e-12)
    np.testing.assert_allclose(H2.g, H.g, atol=1e-12)
    assert H2.e_const == pytest.approx(H.e_const, abs=1e-12)


def test_roundtrip_preserves_symmetry_metadata():
    H = MolecularHamiltonian(n_orb=2, e_const=1.0, h=np.eye(2),
                             g=np.zeros((2, 2, 2, 2)), n_elec=2,
                             ms2=2, orbsym=(1, 2), isym=3)
    H2 = parse_fcidump(write_fcidump(H))
    assert H2.orbsym == (1, 2)
    assert H2.isym == 3
    assert H2.ms2 == 2
