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

import numpy as np

from .hamiltonian import MolecularHamiltonian

__all__ = ["FcidumpError", "parse_fcidump", "write_fcidump",
           "PARSE_MEMORY_LIMIT_BYTES"]

# Entries listed more than once must agree to this absolute tolerance.
DUPLICATE_ATOL = 1e-10
# Predicted peak memory of a parse's dense arrays above which NORB is refused
# before any array is allocated.  A parse holds four dense float N^4 arrays
# at once, the expanded (ij|kl) scaled in place to g = (ij|kl)/2, the
# Hamiltonian's copy of g and two temporaries of its symmetry check: 32 N^4 B
# (tracemalloc at N=20 and 40), so NORB <= 90 is admitted (N=76 needs
# 0.99 GiB).  The listed records' Python table comes on top of that.
PARSE_MEMORY_LIMIT_BYTES = 2 * 1024 ** 3

_HEADER_FIELD = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*([^=]*?)(?=[,\s][A-Za-z][A-Za-z0-9]*\s*=|$)")


class FcidumpError(ValueError):
    """Malformed FCIDUMP content, with the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _canonical_pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i >= j else (j, i)


def _canonical_quad(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    a = _canonical_pair(i, j)
    b = _canonical_pair(k, l)
    if a < b:
        a, b = b, a
    return a + b


def _parse_header(lines: list[str]) -> tuple[dict, int]:
    """Collect namelist text up to the terminator; returns fields and the
    index of the first body line."""
    header_parts: list[str] = []
    body_start = None
    for idx, raw in enumerate(lines):
        text = raw.strip()
        if idx == 0:
            if not text.startswith("&"):
                raise FcidumpError("expected namelist header starting with '&'", 1)
            text = re.sub(r"^&[A-Za-z0-9]*", "", text).strip()
        end = re.search(r"(&END|/)", text, flags=re.IGNORECASE)
        if end:
            header_parts.append(text[: end.start()])
            body_start = idx + 1
            break
        header_parts.append(text)
    if body_start is None:
        raise FcidumpError("header terminator '&END' or '/' not found", len(lines))

    blob = " ".join(header_parts)
    fields: dict[str, str] = {}
    for match in _HEADER_FIELD.finditer(blob):
        fields[match.group(1).upper()] = match.group(2).strip().rstrip(",")
    return fields, body_start


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

    Bytes are decoded as UTF-8.  Duplicate entries for the same symmetry
    orbit are tolerated when their values agree to 1e-10 (the last value
    wins); bytes that are not UTF-8, a NORB whose dense N^4 arrays would
    outgrow ``PARSE_MEMORY_LIMIT_BYTES``, an NELEC outside [0, 2 NORB],
    conflicting duplicates, non-finite values (``nan``, ``inf``, an
    exponent that overflows, or records whose sum in h overflows) and
    malformed records raise
    :class:`FcidumpError` carrying the line number.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # "?" stands for the bad byte, which starts or continues a line.
            line = len((text[:exc.start].decode("utf-8") + "?").splitlines())
            raise FcidumpError(f"byte {text[exc.start]:#04x} is not UTF-8",
                               line) from exc
    lines = text.splitlines()
    if not [ln for ln in lines if ln.strip()]:
        raise FcidumpError("empty input", 1)

    fields, body_start = _parse_header(lines)
    n_orb = _header_int(fields, "NORB", 1)
    n_elec = _header_int(fields, "NELEC", 1)
    ms2 = _header_int(fields, "MS2", 1) if "MS2" in fields else 0
    isym = _header_int(fields, "ISYM", 1) if "ISYM" in fields else None
    orbsym = (_parse_orbsym(fields["ORBSYM"], n_orb, 1)
              if "ORBSYM" in fields else None)
    if n_orb < 1:
        raise FcidumpError(f"NORB must be positive, got {n_orb}", 1)
    need = 32 * n_orb ** 4  # four float N^4 arrays
    if need > PARSE_MEMORY_LIMIT_BYTES:
        raise FcidumpError(
            f"NORB={n_orb} needs about {need / 2**30:.1f} GiB of dense N^4 "
            f"arrays, above PARSE_MEMORY_LIMIT_BYTES "
            f"({PARSE_MEMORY_LIMIT_BYTES} B)", 1)
    if not 0 <= n_elec <= 2 * n_orb:
        raise FcidumpError(
            f"NELEC must lie in [0, {2 * n_orb}], got {n_elec}", 1)

    core = 0.0
    one: dict[tuple[int, int], float] = {}
    two: dict[tuple[int, int, int, int], float] = {}
    record_line: dict[tuple[int, ...], int] = {}

    def store(table: dict, key, value: float, lineno: int) -> None:
        if key in table and abs(table[key] - value) > DUPLICATE_ATOL:
            raise FcidumpError(
                f"conflicting duplicate entry for indices {key}: "
                f"{table[key]!r} vs {value!r}", lineno)
        table[key] = value
        record_line[key] = lineno

    for offset, raw in enumerate(lines[body_start:]):
        lineno = body_start + offset + 1
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise FcidumpError(
                f"expected 'value i j k l', got {len(tokens)} fields", lineno)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError as exc:
            raise FcidumpError(f"non-numeric field in {raw.strip()!r}", lineno) from exc
        if not math.isfinite(value):
            raise FcidumpError(f"non-finite value in {raw.strip()!r}", lineno)
        for idx in (i, j, k, l):
            if not 0 <= idx <= n_orb:
                raise FcidumpError(
                    f"orbital index {idx} out of range [0, {n_orb}]", lineno)
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"invalid index pattern ({i} {j} {k} {l})", lineno)
            store(one, _canonical_pair(i, j), value, lineno)
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"invalid index pattern ({i} {j} {k} {l})", lineno)
        else:
            store(two, _canonical_quad(i, j, k, l), value, lineno)

    t = np.zeros((n_orb, n_orb))
    for (i, j), value in one.items():
        t[i - 1, j - 1] = value
        t[j - 1, i - 1] = value
    eri = np.zeros((n_orb,) * 4)
    for (i, j, k, l), value in two.items():
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for p, q, r, s in ((a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                           (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)):
            eri[p, q, r, s] = value

    h = t - 0.5 * np.einsum("ikkj->ij", eri)
    overflow = np.argwhere(~np.isfinite(h))
    if len(overflow):
        # Finite records can still overflow h = t - (1/2) sum_k (ik|kj):
        # name the largest record feeding its first non-finite entry.
        i, j = overflow[0] + 1
        values = {**one, **two}
        feeding = [key for key in [_canonical_pair(i, j)] + [
            _canonical_quad(i, k, k, j) for k in range(1, n_orb + 1)]
            if key in values]
        worst = max(feeding, key=lambda key: abs(values[key]))
        raise FcidumpError(f"h[{i - 1}, {j - 1}] overflows to {h[i - 1, j - 1]}",
                           record_line[worst])
    eri *= 0.5  # g = (ij|kl)/2, in place: bit for bit eri / 2.0
    return MolecularHamiltonian(
        n_orb=n_orb, e_const=core, h=h, g=eri,
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

    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                lmax = j if k == i else k
                for l in range(lmax + 1):
                    value = eri[i, j, k, l]
                    if value != 0.0:
                        lines.append(record(value, i + 1, j + 1, k + 1, l + 1))
    for i in range(n):
        for j in range(i + 1):
            if t[i, j] != 0.0:
                lines.append(record(t[i, j], i + 1, j + 1, 0, 0))
    lines.append(record(hamiltonian.e_const, 0, 0, 0, 0))
    return "\n".join(lines) + "\n"
