"""The benchmark workloads: their inputs and their jobs.

Inputs are generated from the workload seed before anything is timed and
written as FCIDUMP files; the jobs see only those files.  Synthetic inputs
come from ``tests/oracles.py`` (imported, not copied); hydrogen chains and
rings come from ``hchain.py``.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hchain

# Iteration cap of the Lanczos jobs; at the default 200 one N=7 job takes
# about 45 s and still does not converge.
LANCZOS_MAX_ITERS = 40


@dataclass(frozen=True)
class Input:
    name: str
    path: Path
    n_orb: int
    n_elec: int
    size_bytes: int


@dataclass(frozen=True)
class Job:
    """One process: a CLI invocation or the library Lanczos call."""

    input: Input
    kind: str  # "run", "compare" or "lanczos"
    methods: tuple[str, ...]
    args: tuple[str, ...]  # CLI arguments, or job.py lanczos arguments
    report: Path
    fcidump_out: Path | None = None


def lp_jobs(inp: Input, out: Path) -> list[Job]:
    report, shifted = out / f"{inp.name}.lp.json", out / f"{inp.name}.lp.fcidump"
    return [Job(inp, "run", ("lp-bliss",),
                ("run", "--method", "lp-bliss", "--input", str(inp.path),
                 "--out-fcidump", str(shifted), "--out-report", str(report)),
                report, shifted)]


CERTIFY_METHODS = ("none", "flr-bliss", "ffr-bliss", "df-lrps")


def exact_jobs(inp: Input, out: Path) -> list[Job]:
    report = out / f"{inp.name}.exact.json"
    return [Job(inp, "compare", CERTIFY_METHODS,
                ("compare", "--methods", ",".join(CERTIFY_METHODS),
                 "--spectral", "exact", "--input", str(inp.path),
                 "--out-report", str(report)),
                report)]


def lanczos_jobs(inp: Input, out: Path) -> list[Job]:
    report = out / f"{inp.name}.lanczos.json"
    return [Job(inp, "lanczos", (),
                (str(inp.path), str(LANCZOS_MAX_ITERS), str(report)), report)]


@dataclass(frozen=True)
class InputSpec:
    kind: str  # "decay", "chain" or "ring"
    n_orb: int
    jobs: Callable[[Input, Path], list[Job]]  # (input, output dir)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[InputSpec, ...]


WORKLOADS = {w.name: w for w in (
    Workload("lp-dense", (InputSpec("decay", 6, lp_jobs),
                          InputSpec("decay", 6, lp_jobs),
                          InputSpec("chain", 6, lp_jobs),
                          InputSpec("ring", 6, lp_jobs))),
    # One compare per pass keeps passes short, so a 55-s run holds 5-7 of
    # them for the median.  The N=7 job certifies with the truncated
    # Lanczos engine: its 3432-dimensional sector is above the dense-fallback
    # limit of 1000.
    Workload("certify-exact", (InputSpec("ring", 6, exact_jobs),
                               InputSpec("decay", 7, lanczos_jobs))),
)}


def _hamiltonian(spec: InputSpec, rng: np.random.Generator):
    import oracles

    if spec.kind == "decay":
        return oracles.decay_hamiltonian(rng, spec.n_orb)
    return hchain.hydrogen_hamiltonian(
        hchain.geometry(spec.n_orb, spec.kind, rng))[0]


def make_inputs(workload: Workload, seed: int, out: Path,
                specs: tuple[InputSpec, ...]) -> list[Input]:
    """Write the FCIDUMP inputs of ``specs`` for ``seed`` into ``out``.

    The same seed gives the same files; each workload draws from its own
    stream, so adding a workload changes no other workload's inputs.
    """
    from blisslp import write_fcidump

    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    inputs = []
    for index, spec in enumerate(specs):
        hamiltonian = _hamiltonian(spec, rng)
        name = f"{spec.kind}{spec.n_orb}-{index}"
        path = out / f"{name}.fcidump"
        text = write_fcidump(hamiltonian)
        path.write_text(text)
        inputs.append(Input(name, path, hamiltonian.n_orb, hamiltonian.n_elec,
                            len(text.encode())))
    return inputs
