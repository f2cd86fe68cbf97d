"""FCIDUMP reading and writing.

The file format is a Fortran namelist header followed by integral records::

     &FCI NORB=2,NELEC=2,MS2=0,
      ORBSYM=1,1,
      ISYM=1,
     &END
      0.5000000000000000   1   1   1   1
     -1.0000000000000000   1   1   0   0
      0.1000000000000000   0   0   0   0

Records are ``value i j k l`` with 1-based orbital indices.  The pattern
``(i j 0 0)`` is a one-body entry t_ij, ``(0 0 0 0)`` is the core energy and
anything else is a chemist-notation two-electron integral (ij|kl).  Both
``&END`` and ``/`` header terminators are accepted, as are ``D`` and ``E``
exponent markers.  Listed integrals are expanded to full 8-fold symmetry.

Conversion to the internal convention (see :mod:`blisslp.hamiltonian`):

    g_ijkl = (ij|kl) / 2        h_ij = t_ij - (1/2) sum_k (ik|kj)

Writing applies the inverse map and emits one canonical representative per
8-fold orbit.
"""

from __future__ import annotations

import math
import re
import sys
from itertools import repeat
from typing import Iterator

import numpy as np

from .hamiltonian import MolecularHamiltonian

__all__ = ["FcidumpError", "parse_fcidump", "write_fcidump",
           "PARSE_MEMORY_LIMIT_BYTES"]

# Entries listed more than once must agree to this absolute tolerance.
DUPLICATE_ATOL = 1e-10
# Predicted peak memory of a parse above which NORB is refused before any
# array is allocated: 32 N^4 B, plus the text decoded from bytes input.  A
# parse peaks at its end, with four dense float N^4 arrays alive: the
# expanded (ij|kl) scaled in place to g = (ij|kl)/2, the Hamiltonian's copy
# of g and two temporaries of its symmetry check.  Records are read a chunk
# of lines at a time, next to the text, eri and its int32 table of setting
# lines (12 N^4 B), and the text and the tables are dropped before the end,
# so this bounds the whole parse however many members of each orbit a file
# lists (tracemalloc at N=12, 16, 20 and 30); input bytes or text belong to
# the caller.  NORB <= 90 is admitted (N=76 needs 0.99 GiB).
PARSE_MEMORY_LIMIT_BYTES = 2 * 1024 ** 3

# A line boundary of str.splitlines, "\r\n" taken whole.
_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# Characters of text split into lines at once: at most about 50 KB of lines.
LINE_CHUNK = 1 << 14
_HEADER_FIELD = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*([^=]*?)(?=[,\s][A-Za-z][A-Za-z0-9]*\s*=|$)")


class FcidumpError(ValueError):
    """Malformed FCIDUMP content, with the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split a chunk of about ``LINE_CHUNK``
    characters at a time, each cut after a line boundary."""
    start = 0
    while start < len(text):
        cut = _BREAK.search(text, start + LINE_CHUNK)
        stop = cut.end() if cut else len(text)
        yield from text[start:stop].splitlines()
        start = stop


def _parse_header(lines: Iterator[tuple[int, str]]) -> dict:
    """Collect namelist text from (line number, line) pairs up to the
    terminator, which is the last pair taken."""
    header_parts: list[str] = []
    lineno = 0
    for lineno, raw in lines:
        text = raw.strip()
        if lineno == 1:
            if not text.startswith("&"):
                raise FcidumpError("expected namelist header starting with '&'", 1)
            text = re.sub(r"^&[A-Za-z0-9]*", "", text).strip()
        end = re.search(r"(&END|/)", text, flags=re.IGNORECASE)
        if end:
            header_parts.append(text[: end.start()])
            break
        header_parts.append(text)
    else:
        raise FcidumpError("header terminator '&END' or '/' not found", lineno)

    blob = " ".join(header_parts)
    fields: dict[str, str] = {}
    for match in _HEADER_FIELD.finditer(blob):
        fields[match.group(1).upper()] = match.group(2).strip().rstrip(",")
    return fields


def _header_int(fields: dict, key: str, line: int) -> int:
    if key not in fields:
        raise FcidumpError(f"malformed header: missing {key}", line)
    try:
        return int(fields[key].split(",")[0])
    except ValueError as exc:
        raise FcidumpError(f"malformed header: bad {key}={fields[key]!r}", line) from exc


def _parse_orbsym(text: str, n_orb: int, line: int) -> tuple[int, ...]:
    labels: list[int] = []
    for token in text.replace(",", " ").split():
        try:
            if "*" in token:  # Fortran repeat syntax n*value
                count, value = token.split("*", 1)
                labels.extend([int(value)] * min(int(count), n_orb))
            else:
                labels.append(int(token))
        except ValueError as exc:
            raise FcidumpError(f"malformed ORBSYM label {token!r}", line) from exc
    if len(labels) < n_orb:
        raise FcidumpError(f"ORBSYM lists {len(labels)} labels for {n_orb} orbitals", line)
    return tuple(labels[:n_orb])


def parse_fcidump(text: str | bytes) -> MolecularHamiltonian:
    """Parse FCIDUMP text into a :class:`MolecularHamiltonian`.

    Bytes are decoded as UTF-8.  Lines are read a chunk at a time, and each
    record is scattered into the dense tensors as it is read.  Duplicate
    entries for the same symmetry orbit, or core energy, are tolerated
    when their values agree to 1e-10 (the last value wins).  The whole
    parse peaks within the ``PARSE_MEMORY_LIMIT_BYTES`` model of 32 N^4 B
    plus the decoded text, however many members of each orbit the file
    lists; the input itself belongs to the caller.  Bytes that are not
    UTF-8, a NORB whose dense N^4 arrays and decoded text would outgrow
    ``PARSE_MEMORY_LIMIT_BYTES``, an NELEC outside [0, 2 NORB], conflicting
    duplicates, non-finite values (``nan``, ``inf``, an exponent that
    overflows, or records whose sum in h overflows) and malformed records
    raise :class:`FcidumpError` carrying the line number.
    """
    decoded = 0  # bytes of the text decoded here
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # "?" stands for the bad byte, which starts or continues a line.
            line = len((text[:exc.start].decode("utf-8") + "?").splitlines())
            raise FcidumpError(f"byte {text[exc.start]:#04x} is not UTF-8",
                               line) from exc
        decoded = sys.getsizeof(text)
    if text.isspace() or not text:
        raise FcidumpError("empty input", 1)

    lines = enumerate(_lines(text), 1)
    fields = _parse_header(lines)
    n_orb = _header_int(fields, "NORB", 1)
    n_elec = _header_int(fields, "NELEC", 1)
    ms2 = _header_int(fields, "MS2", 1) if "MS2" in fields else 0
    isym = _header_int(fields, "ISYM", 1) if "ISYM" in fields else None
    orbsym = (_parse_orbsym(fields["ORBSYM"], n_orb, 1)
              if "ORBSYM" in fields else None)
    if n_orb < 1:
        raise FcidumpError(f"NORB must be positive, got {n_orb}", 1)
    need = 32 * n_orb ** 4 + decoded  # four float N^4 arrays and the text
    if need > PARSE_MEMORY_LIMIT_BYTES:
        text_too = " and decoded text" if decoded else ""
        raise FcidumpError(
            f"NORB={n_orb} needs about {need / 2**30:.1f} GiB of dense N^4 "
            f"arrays{text_too}, above PARSE_MEMORY_LIMIT_BYTES "
            f"({PARSE_MEMORY_LIMIT_BYTES} B)", 1)
    if not 0 <= n_elec <= 2 * n_orb:
        raise FcidumpError(
            f"NELEC must lie in [0, {2 * n_orb}], got {n_elec}", 1)

    # Each record is scattered into all 8 images of its orbit at once, with
    # the line that set them; line 0 marks an entry no record has set.
    core = np.zeros(())
    t = np.zeros((n_orb, n_orb))
    eri = np.zeros((n_orb,) * 4)
    core_line, t_line, eri_line = (np.zeros(x.shape, dtype=np.int32)
                                   for x in (core, t, eri))
    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise FcidumpError(
                f"expected 'value i j k l', got {len(tokens)} fields", lineno)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(x) for x in tokens[1:])
        except ValueError as exc:
            raise FcidumpError(f"non-numeric field in {raw.strip()!r}", lineno) from exc
        if not math.isfinite(value):
            raise FcidumpError(f"non-finite value in {raw.strip()!r}", lineno)
        for idx in (i, j, k, l):
            if not 0 <= idx <= n_orb:
                raise FcidumpError(
                    f"orbital index {idx} out of range [0, {n_orb}]", lineno)
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        if i == j == k == l == 0:
            table, set_by, images = core, core_line, [()]
        elif k == l == 0 and i and j:
            table, set_by, images = t, t_line, [(a, b), (b, a)]
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"invalid index pattern ({i} {j} {k} {l})", lineno)
        else:
            table, set_by, images = eri, eri_line, [
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)]
        listed = images[0]
        if set_by[listed] and abs(table[listed] - value) > DUPLICATE_ATOL:
            raise FcidumpError(
                f"conflicting duplicate entry ({i} {j} {k} {l}): "
                f"{float(table[listed])!r} vs {value!r}", lineno)
        for image in images:
            table[image] = value
            set_by[image] = lineno
    del lines, text  # the decoded copy; input bytes belong to the caller

    h = t - 0.5 * np.einsum("ikkj->ij", eri)
    overflow = np.argwhere(~np.isfinite(h))
    if len(overflow):
        # Finite records can still overflow h = t - (1/2) sum_k (ik|kj):
        # name the largest record feeding its first non-finite entry.
        i, j = overflow[0]
        k = np.arange(n_orb)
        feeding = np.abs(np.append(t[i, j], eri[i, k, k, j]))
        set_by = np.append(t_line[i, j], eri_line[i, k, k, j])
        raise FcidumpError(f"h[{i}, {j}] overflows to {h[i, j]}",
                           int(set_by[feeding.argmax()]))
    del t_line, eri_line
    eri *= 0.5  # g = (ij|kl)/2, in place: bit for bit eri / 2.0
    return MolecularHamiltonian(
        n_orb=n_orb, e_const=float(core), h=h, g=eri,
        n_elec=n_elec, ms2=ms2, orbsym=orbsym, isym=isym)


def write_fcidump(hamiltonian: MolecularHamiltonian) -> str:
    """Render a Hamiltonian as FCIDUMP text; inverse of :func:`parse_fcidump`."""
    n = hamiltonian.n_orb
    lines = [f" &FCI NORB={n},NELEC={hamiltonian.n_elec},MS2={hamiltonian.ms2},"]
    if hamiltonian.orbsym is not None:
        lines.append("  ORBSYM=" + ",".join(str(s) for s in hamiltonian.orbsym) + ",")
    if hamiltonian.isym is not None:
        lines.append(f"  ISYM={hamiltonian.isym},")
    lines.append(" &END")

    eri = 2.0 * hamiltonian.g
    t = hamiltonian.h + np.einsum("ikkj->ij", hamiltonian.g)

    def record(value: float, i: int, j: int, k: int, l: int) -> str:
        return f" {value:.16E} {i:4d} {j:4d} {k:4d} {l:4d}"

    # One canonical member per 8-fold orbit: (i, j) >= (k, l) as pairs, with
    # i >= j and k >= l.  nonzero lists them in row-major order.
    i, j, k, l = np.ix_(*[np.arange(n)] * 4)
    listed = (j <= i) & (l <= k) & (i * n + j >= k * n + l) & (eri != 0.0)
    lines += map(record, eri[listed].tolist(), *np.add(np.nonzero(listed), 1).tolist())
    listed = np.tril(t != 0.0)
    lines += map(record, t[listed].tolist(), *np.add(np.nonzero(listed), 1).tolist(),
                 repeat(0), repeat(0))
    lines.append(record(hamiltonian.e_const, 0, 0, 0, 0))
    return "\n".join(lines) + "\n"
