"""The ladder: per-map timings of `chibox analyze` and `chibox group`, kept in BENCH_ladder.json.

Usage (from the repository root):

    python3 bench/ladder.py --label change
    python3 bench/ladder.py --label parent --src /path/to/other/checkout/src

A row is one `analyze <map> --metrics <list>` call through `chibox.cli.main`,
or one `group --n N --m 2 --coeffs <unit> <query>` call for a map unit:N,
stdout captured.  Every row runs in a fresh Python process that imports the
chibox under --src (default: src/ beside this script), so its ru_maxrss is
the peak of that row alone, the interpreter and numpy included.  A row
records the median of 3 calls of wall time and of process CPU time (all
threads, BLAS included), ru_maxrss, and the sha256 of the captured stdout,
which must agree between two runs of the same row.  random:n is the
permutation np.random.default_rng(n).permutation(2^n), read from a table
document as a user would give it.  unit:N is the unit of G_{N,2} with
a_0 = 1 and a_1..a_ell the bits np.random.default_rng(N).integers(0, 2, ell),
ell = N // 2.

The rows are the spectra DDT, Walsh, DLCT and BCT, and DDT and DLCT asked
for together, on random:n, chi_nm:n:m (m not dividing n) and cchi:n at
n = 8, 10 and 12 (cchi:n needs n = 2k with k even, so there is no cchi:10),
plus the BCT of chi:13 and chi_nm:13:3, and the group queries inverse and
iterate:12345 on unit:1025 and unit:16385.  A group row is stored with the
key query in place of metrics.

Each run is stored under its label with its provenance: commit, numpy and
Python versions, the CPU count, and the BLAS thread setting from the
environment.  Writing a label replaces that run and keeps the others, so
one file holds the rows of two commits side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 3
METRIC_LISTS = ("ddt", "walsh", "dlct", "bct", "ddt,dlct")
GROUP_QUERIES = ("inverse", "iterate:12345")


def rows():
    """(map, metrics or group query) of every row, cheapest first within each command."""
    out = []
    for n, m in ((8, 3), (10, 3), (12, 5)):
        maps = ["random:%d" % n, "chi_nm:%d:%d" % (n, m)] + (["cchi:%d" % n] if n % 4 == 0 else [])
        out += [(spec, metrics) for spec in maps for metrics in METRIC_LISTS]
    out += [("chi:13", "bct"), ("chi_nm:13:3", "bct")]
    return out + [("unit:%d" % n, query) for n in (1025, 16385) for query in GROUP_QUERIES]


def run_row(spec, what):
    """Time one row in this process; returns its record."""
    import numpy as np

    from chibox import boolmap, cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["analyze", spec, "--metrics", what]
        if spec.startswith("random:"):
            n = int(spec.split(":")[1])
            table = boolmap.TruthTable(n, np.random.default_rng(n).permutation(1 << n))
            argv[1] = os.path.join(tmp, "random.json")
            with open(argv[1], "w") as fh:
                fh.write(boolmap.table_to_json(table, spec))
        elif spec.startswith("unit:"):
            n = int(spec.split(":")[1])
            coeffs = "1" + "".join(map(str, np.random.default_rng(n).integers(0, 2, n // 2)))
            argv = ["group", "--n", str(n), "--m", "2", "--coeffs", coeffs, what]
        walls, cpus, digests = [], [], set()
        for _ in range(REPEATS):
            out = io.StringIO()
            wall, cpu = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
            if rc != 0:
                raise SystemExit("%s %s %s exited %d" % (argv[0], spec, what, rc))
            digests.add(hashlib.sha256(out.getvalue().encode()).hexdigest())
    if len(digests) != 1:
        raise SystemExit("%s %s %s printed different bytes across calls" % (argv[0], spec, what))
    return {
        "map": spec,
        "query" if argv[0] == "group" else "metrics": what,
        "wall_s": round(statistics.median(walls), 5),
        "cpu_s": round(statistics.median(cpus), 5),
        "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
        "stdout_sha256": digests.pop(),
    }


def provenance(src, commit):
    if commit is None:
        git = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
        dirty = subprocess.run(["git", "-C", str(src), "status", "--porcelain", "."], capture_output=True, text=True)
        commit += " with uncommitted changes" if dirty.stdout.strip() else ""
    probe = "import numpy, sys; print(numpy.__version__); print(sys.version.split()[0])"
    numpy_version, python_version = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    return {
        "commit": commit,
        "numpy": numpy_version,
        "python": python_version,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "machine": platform.machine(),
        "repeats": REPEATS,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", help="name of this run in the output file, e.g. parent or change")
    p.add_argument("--src", default=str(ROOT / "src"), help="the directory that holds the chibox package")
    p.add_argument("--commit", default=None, help="commit to record when --src is not in a git checkout")
    p.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    p.add_argument("--row", nargs=2, metavar=("MAP", "METRICS_OR_QUERY"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    src = Path(args.src).resolve()
    if args.row:
        sys.path.insert(0, str(src))
        print(json.dumps(run_row(*args.row)))
        return 0
    if not args.label:
        p.error("--label is required")
    records = []
    for spec, what in rows():
        child = subprocess.run(
            [sys.executable, __file__, "--src", str(src), "--row", spec, what],
            capture_output=True, text=True,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return 1
        records.append(json.loads(child.stdout))
        rec = records[-1]
        print("%-12s %-13s wall %.4f s  cpu %.4f s  %.1f MB" % (spec, what, rec["wall_s"], rec["cpu_s"],
                                                                rec["maxrss_mb"]), flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    doc["runs"][args.label] = {"provenance": provenance(src, args.commit), "rows": records}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
