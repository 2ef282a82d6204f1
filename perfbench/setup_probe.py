"""Time one set-up of a workload in a fresh process; run.py starts it several times.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir> <ladder>

Set-up is what a new process pays before its first job: importing chibox
(and numpy with it), generating the workload's inputs from the seed and
making one warm-up call.  Prints the seconds; exits 1 with a message on
stderr when the warm-up call fails its check.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import run


def main(argv):
    workload, seed, workdir, ladder = argv
    sys.path.insert(0, str(run.SRC))
    start = perf_counter()
    cli = importlib.import_module("chibox.cli")
    import workloads

    warm, _ = workloads.build_jobs(workload, int(seed), workdir, ladder)
    rc, stdout, _ = run.run_job(cli, warm)
    seconds = perf_counter() - start
    try:
        workloads.check_job(warm, rc, stdout, {})
    except workloads.CHECK_ERRORS as exc:
        print("warm-up: %s" % (exc,), file=sys.stderr)
        return 1
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
