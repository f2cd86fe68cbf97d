"""Tests for FCIDUMP parsing and emission."""

import hashlib
import re
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blisslp import FcidumpError, MolecularHamiltonian, parse_fcidump, write_fcidump
from blisslp import fcidump
from blisslp.fcidump import _lines

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


def test_parse_duplicate_core_energy_must_agree():
    """The core record follows the duplicate rule of every other entry."""
    with pytest.raises(FcidumpError, match=r"0\.1 vs 0\.7") as err:
        parse_fcidump(HEADER_N1 + " 0.1 0 0 0 0\n 0.7 0 0 0 0\n")
    assert err.value.line == 4
    assert parse_fcidump(HEADER_N1 + " 0.1 0 0 0 0\n 0.1 0 0 0 0\n").e_const == 0.1


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


@pytest.mark.parametrize("n_orb", [100000, 300, 91])
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


@pytest.mark.parametrize("n_orb", [12, 20])
def test_whole_parse_peaks_within_its_memory_model(n_orb):
    """For a file listing each orbit once, the traced peak of the whole
    parse, bytes in, stays within the 32 N^4 B that the limit predicts."""
    data = write_fcidump(
        oracles.decay_hamiltonian(np.random.default_rng(0), n_orb)).encode()
    tracemalloc.start()
    try:
        parse_fcidump(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n_orb ** 4 + 64 * 1024


@pytest.mark.parametrize("n_orb", [12, 16])
def test_relisted_parse_peaks_within_its_memory_model(n_orb):
    """A file that lists every member of each orbit, N^4 two-body records,
    parses, bytes in, to the canonical file's tensors within 32 N^4 B plus
    the decoded text: its lines are read one at a time."""
    text = write_fcidump(
        oracles.decay_hamiltonian(np.random.default_rng(0), n_orb))
    header, body = text.split("&END\n")
    data = (header + "&END\n" + "".join(
        f" {value} {i} {j} {k} {l}\n" for value, *listed in map(
            str.split, body.splitlines())
        for i, j, k, l in _orbit_members(*map(int, listed)))).encode()
    assert data.count(b"\n") > n_orb ** 4
    tracemalloc.start()
    try:
        parsed = parse_fcidump(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * n_orb ** 4 + sys.getsizeof(data.decode()) + 64 * 1024
    want = parse_fcidump(text)
    assert parsed.h.tobytes() == want.h.tobytes()
    assert parsed.g.tobytes() == want.g.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="a 1\t\n\r\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"),
       chunk=st.integers(1, 8))
def test_body_lines_are_read_as_splitlines(text, chunk):
    """The parser's chunked line reader gives ``str.splitlines`` wherever
    its chunks end, so every error keeps its line number; and blank input
    is what its test for it says."""
    with mock.patch.object(fcidump, "LINE_CHUNK", chunk):
        assert list(_lines(text)) == text.splitlines()
    assert (text.isspace() or not text) == (
        not any(line.strip() for line in text.splitlines()))


@pytest.mark.parametrize("n_orb", [76, 85, 90])
def test_parse_admits_paper_scale_norb(n_orb):
    """NORB up to 90 passes the size check: the header's bad NELEC, checked
    after it, is what stops these parses before anything is allocated."""
    with pytest.raises(FcidumpError, match="NELEC must lie in"):
        parse_fcidump(f" &FCI NORB={n_orb},NELEC=999,\n &END\n")


# sha256 of the parsed h and g of write_fcidump(H) for H drawn from
# default_rng(0), recorded from the parser that divided a copy of the
# expanded (ij|kl) by 2.0.
PARSED_DIGESTS = {
    ("random", 4): ("bfcb56cae37254da3c44840ddd621786d9690cfaee79a297fba9180f26d73664",
                    "a13de667c4cde915c952c9c4489cbb6ae501ced158336e67cd4aa2934fc20f4f"),
    ("random", 5): ("0f4e053c384cd4e5122ff79e3570febc60b34f6fc44605203bdbd70956084940",
                    "66cecec23404ab0c1ebdea3e649ddb0c95dcccb1c661d85125205926da133caf"),
    ("decay", 6): ("5a560f8c2a687093935085c4060fd1f013a3420a9299471a33f5d6913ff32fe0",
                   "b553216db88d84d6ddc3bc9f32e5e5ac874ed07e4e5579e028dba0e9eb56dd7b"),
}


@pytest.mark.parametrize("kind, n_orb", list(PARSED_DIGESTS))
def test_parsed_tensors_are_pinned(kind, n_orb):
    """Scaling (ij|kl) in place gives h and g bit for bit."""
    rng = np.random.default_rng(0)
    H = (oracles.random_hamiltonian(rng, n_orb, n_orb) if kind == "random"
         else oracles.decay_hamiltonian(rng, n_orb))
    parsed = parse_fcidump(write_fcidump(H))
    assert tuple(hashlib.sha256(t.tobytes()).hexdigest()
                 for t in (parsed.h, parsed.g)) == PARSED_DIGESTS[kind, n_orb]


def _orbit_members(i, j, k, l):
    """Every listing of the record (i j k l): the core record alone, a
    one-body record as (i j) or (j i), a two-body record as its 8 images."""
    if k == 0:
        return sorted({(i, j, 0, 0), (j, i, 0, 0)})
    return sorted({(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                   (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)})


@st.composite
def relisted_fcidumps(draw):
    """A written FCIDUMP with NORB <= 3, its canonical parse, and the same
    records each listed under a drawn member of its orbit, some repeated
    with the same value, in a drawn order: (canonical, header, records)."""
    n_orb = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    text = write_fcidump(oracles.random_hamiltonian(rng, n_orb, n_orb))
    header, body = text.split("&END\n")
    records = [(line.split()[0], _orbit_members(*map(int, line.split()[1:])))
               for line in body.splitlines()]
    records += draw(st.lists(st.sampled_from(records), max_size=5))
    listed = [(value, draw(st.sampled_from(members)), members)
              for value, members in records]
    return text, header + "&END\n", draw(st.permutations(listed))


def _render(header, listed):
    return header + "".join(f" {value} {i} {j} {k} {l}\n"
                            for value, (i, j, k, l), _ in listed)


@settings(max_examples=200, deadline=None)
@given(case=relisted_fcidumps(), data=st.data())
def test_parse_is_blind_to_record_order_and_orbit_member(case, data):
    """Any member of an orbit stands for the whole orbit: the relisted file
    parses bit for bit as the canonical one, and a repeat under another
    member with a different value raises at the later of the two lines."""
    text, header, listed = case
    want, got = parse_fcidump(text), parse_fcidump(_render(header, listed))
    assert got.h.tobytes() == want.h.tobytes()
    assert got.g.tobytes() == want.g.tobytes()
    assert got.e_const == want.e_const

    value, member, members = data.draw(st.sampled_from(listed))
    others = [m for m in members if m != member] or members
    clash = (f"{float(value) + 1.0:.16E}", data.draw(st.sampled_from(others)),
             members)
    at = data.draw(st.integers(0, len(listed)))
    relisted = listed[:at] + [clash] + listed[at:]
    same_orbit = [pos for pos, (_, _, ms) in enumerate(relisted)
                  if ms == members and pos != at]
    first = header.count("\n") + 1
    with pytest.raises(FcidumpError, match="conflicting duplicate") as err:
        parse_fcidump(_render(header, relisted))
    assert err.value.line == first + (at if same_orbit[0] < at else same_orbit[0])


# sha256 of write_fcidump's text, recorded from the writer that walked the
# canonical orbits in four nested loops.
WRITTEN_DIGESTS = {
    "random-4-symmetry": "c8337b97b971676f53f6e7c8b0ce0e8f047ea5b8617ff23bc6c99bc8fae54a42",
    "decay-6": "3f58323f2d0330b6fe7fc351bc2cafc5d47ad17e26864236aa230859893d69af",
    "random-4-zeros": "fc854564117dbd1d336766e91b702d474e8c694489e5311d7b299d574675bf63",
}


@pytest.mark.parametrize("kind", list(WRITTEN_DIGESTS))
def test_written_text_is_pinned(kind):
    """The records, their order and their formatting are pinned, for a
    Hamiltonian with ORBSYM and ISYM and for one whose h and g hold exact
    zeros, which the writer leaves out."""
    if kind == "decay-6":
        H = oracles.decay_hamiltonian(np.random.default_rng(0), 6)
    elif kind == "random-4-symmetry":
        H = replace(oracles.random_hamiltonian(np.random.default_rng(0), 4, 4),
                    orbsym=(1, 2, 1, 3), isym=2)
    else:
        H = oracles.random_hamiltonian(np.random.default_rng(0), 4, 2)
        H = replace(H, h=np.where(np.abs(H.h) < 0.5, 0.0, H.h),
                    g=np.where(np.abs(H.g) < 0.5, 0.0, H.g))
    text = write_fcidump(H)
    assert hashlib.sha256(text.encode()).hexdigest() == WRITTEN_DIGESTS[kind]


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
