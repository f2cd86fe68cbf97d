"""One benchmark job, run in a fresh process by ``bench/run.py``.

Usage::

    python3 bench/job.py [--spans FILE --job-id ID] cli ARGS...
    python3 bench/job.py [--spans FILE --job-id ID] lanczos FCIDUMP MAX_ITERS OUT

``cli`` calls ``blisslp.cli.main(ARGS)``.  ``lanczos`` is the library call
the CLI cannot make: parse the FCIDUMP, then the truncated-Lanczos range of
its electron-number sector capped at MAX_ITERS iterations, written to OUT as
JSON.  With ``--spans`` the package's public functions are traced and the
spans are written to FILE when the job ends.  Untraced CLI jobs do not come
here; the harness runs them with ``python3 -c`` as a user would.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def lanczos_job(fcidump: str, max_iters: int, out: str) -> int:
    from blisslp import fcidump as fcidump_module
    from blisslp import spectral

    hamiltonian = fcidump_module.parse_fcidump(Path(fcidump).read_text())
    result = spectral.spectral_range(
        hamiltonian, sector=hamiltonian.n_elec, method="lanczos",
        options=spectral.LanczosOptions(max_iters=max_iters))
    Path(out).write_text(json.dumps({
        "n_orb": hamiltonian.n_orb, "n_elec": hamiltonian.n_elec,
        "e_min": result.e_min, "e_max": result.e_max,
        "converged": result.converged}))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    parser.add_argument("--job-id", default="job")
    parser.add_argument("kind", choices=("cli", "lanczos"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans is not None:
        start = time.perf_counter()
        import blisslp  # noqa: F401  (timed as the job.import span)
        end = time.perf_counter()
        from spans import Tracer

        tracer = Tracer(args.job_id)
        tracer.record("job.import", start, end)
        tracer.install()
    try:
        if args.kind == "cli":
            from blisslp.cli import main as cli_main
            return cli_main(args.args)
        fcidump, max_iters, out = args.args
        return lanczos_job(fcidump, int(max_iters), out)
    finally:
        if tracer is not None:
            tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
