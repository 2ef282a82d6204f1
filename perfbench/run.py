"""Outside-in benchmark of the chibox command line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 0 --seconds 20 --trace 0

Each workload runs in this one process as a closed loop with a single
client: one in-process ``chibox.cli.main(argv)`` call at a time, stdout
captured.  A pass runs the workload's job list once.  ``--seconds`` sets
the number of passes: the seconds divided by the workload's nominal pass
time on the reference machine (2 cores), at least three.  The count is fixed
before measuring, so two commits measured with the same ``--seconds`` run the
same work and their percentiles rest on the same number of samples.  Every
job's exit code and output are checked after its pass, outside the timed
region.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median over
five fresh processes (``setup_probe.py``) of importing chibox, generating
the inputs and making one warm-up call; ``wall_s``, the median pass time;
``job_p50_s`` and ``job_tail_s``, the job latency at the median and at the
highest percentile with ten samples beyond it; ``peak_rss_mb`` from
getrusage.  ``fail_ratio`` is printed beside them.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones; spans are written to ``.perfbench/`` at the repository
root.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it holds the provenance, the sample
counts and the output digests.  The exit code is 0 when every job passed
its checks, 1 when one failed and 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_REPEATS = 5
# Set to 1 unless given, before numpy is first imported: numpy is imported
# only inside functions here, after main() has set them.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKDIR_MARK = "$WORK"


def run_job(cli, job):
    """One timed cli.main call; returns (exit code or error text, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed job, not a crashed benchmark
        rc = "%s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue(), perf_counter() - start


def run_pass(cli, jobs):
    start = perf_counter()
    results = [run_job(cli, job) for job in jobs]
    return perf_counter() - start, results


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest_pass(jobs, results, workdir):
    """Per job: normalised argv, exit code, and sha256 of stdout and of the -o file."""
    rows = []
    for job, (rc, stdout, _) in zip(jobs, results):
        output = None
        if job.output and os.path.exists(job.output):
            output = _sha256(Path(job.output).read_bytes())
        rows.append(
            {
                "argv": [a.replace(str(workdir), WORKDIR_MARK) for a in job.argv],
                "rc": rc,
                "stdout_sha256": _sha256(stdout.encode()),
                "output_sha256": output,
            }
        )
    return rows


def check_pass(workloads, jobs, results, digests, expected):
    """Failure messages of one pass, one per failed job.

    expected is the digest list every pass must reproduce: the recorded
    references for the default seed, otherwise the first pass of this run.
    """
    failures = []
    ctx = {}
    for i, (job, (rc, stdout, _)) in enumerate(zip(jobs, results)):
        try:
            workloads.check_job(job, rc, stdout, ctx)
            if expected is not None and digests[i] != expected[i]:
                raise workloads.CheckError("output digest differs from the reference")
        except workloads.CHECK_ERRORS as exc:
            failures.append("%s: %s: %s" % (" ".join(job.argv[:2]), type(exc).__name__, exc))
    return failures


def output_bytes(jobs, results):
    total = 0
    for job, (_, stdout, _) in zip(jobs, results):
        total += len(stdout.encode())
        if job.output and os.path.exists(job.output):
            total += os.path.getsize(job.output)
    return total


def tail_latency(samples):
    """Latency at the highest percentile with at least ten samples beyond it.

    Below twenty samples no percentile above the median has ten beyond it,
    and the median is reported.
    """
    import numpy as np

    count = len(samples)
    q = max(50.0, 100.0 * (count - 10) / count)
    value = float(np.percentile(samples, q))
    return value, q, sum(1 for s in samples if s > value)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, chibox_version):
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "ladder": args.ladder,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "chibox": chibox_version,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def load_references(args):
    if args.seed != DEFAULT_SEED or args.ladder != "full" or args.record_references:
        return None
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    if args.workload not in refs:
        raise SystemExit("error: no recorded references for workload %s" % (args.workload,))
    return refs[args.workload]


def measure(args, workloads, tracing):
    """Set up, run the passes, check them; returns the result document."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return _measure(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setups(args, workdir):
    """Set-up seconds measured in SETUP_REPEATS fresh processes, and their failures.

    A process pays its imports once, so each sample is a fresh process.
    """
    argv = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), str(workdir), args.ladder]
    seconds, failures = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            seconds.append(float(proc.stdout))
        else:
            failures.append("set-up exited %d: %s" % (proc.returncode, proc.stderr.strip()[-500:]))
    return seconds, failures


def _measure(args, workloads, tracing, workdir):
    references = load_references(args)
    setups, failures = time_setups(args, workdir)
    attempted = SETUP_REPEATS + 1
    cli = importlib.import_module("chibox.cli")
    warm, jobs = workloads.build_jobs(args.workload, args.seed, workdir, args.ladder)
    rc, stdout, _ = run_job(cli, warm)
    try:
        workloads.check_job(warm, rc, stdout, {})
    except workloads.CHECK_ERRORS as exc:
        failures.append("warm-up: %s" % (exc,))
    chibox_version = sys.modules["chibox"].__version__

    walls, traced_walls, latencies, layers, spans_dump = [], [], [], [], []
    job_s = [[] for _ in jobs]
    first_digests = traced_digests = None
    nominal = workloads.LADDERS[args.ladder]["pass_s"][args.workload]
    if args.trace:
        rounds = max(1, round(args.seconds / (2 * nominal)))
    else:
        rounds = max(MIN_PASSES, round(args.seconds / nominal))
    for _ in range(rounds):
        for traced in (False, True) if args.trace else (False,):
            tracer = tracing.Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                wall, results = run_pass(cli, jobs)
            finally:
                if tracer:
                    tracer.uninstall()
            digests = digest_pass(jobs, results, workdir)
            if first_digests is None:
                first_digests = digests
            if tracer and traced_digests is None:
                traced_digests = digests
            expected = references if references is not None else first_digests
            failures.extend(check_pass(workloads, jobs, results, digests, expected))
            attempted += len(jobs)
            if tracer:
                traced_walls.append(wall)
                layers.append(tracing.layer_metrics(tracer.spans, wall, output_bytes(jobs, results)))
                spans_dump.append(tracer.spans)
            else:
                walls.append(wall)
                latencies.extend(dt for _, _, dt in results)
                for samples, (_, _, dt) in zip(job_s, results):
                    samples.append(dt)

    if args.record_references:
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        refs[args.workload] = first_digests
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    detail = {
        "provenance": provenance(args, chibox_version),
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_s_samples": setups,
        "job_median_s": [statistics.median(samples) for samples in job_s],
        "references_checked": references is not None,
        "digests": first_digests,
        "failures": failures[:20],
    }
    if args.trace:
        metrics = {
            name: (statistics.median(layer[name][0] for layer in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
        detail["traced_passes"] = len(traced_walls)
        detail["traced_digests"] = traced_digests
        detail["traced_pass_wall_s"] = traced_walls
        spans_path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            for index, spans in enumerate(spans_dump):
                for name, start, end, parent, size, extra in spans:
                    fh.write(json.dumps({"pass": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "size": size, "extra": extra}) + "\n")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        tail, q, beyond = tail_latency(latencies)
        metrics = {
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_tail_s": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["latency_samples"] = len(latencies)
        detail["job_tail_percentile"] = q
        detail["job_tail_samples_beyond"] = beyond
        detail["fail_ratio"] = len(failures) / attempted
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


def parse_args(argv):
    from workloads import WORKLOADS, LADDERS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ladder", choices=sorted(LADDERS), default="full", help="tiny is the smoke-test ladder")
    p.add_argument("--record-references", action="store_true",
                   help="store this run's output digests as the references for the default seed")
    return p.parse_args(argv)


def main(argv=None):
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    args = parse_args(argv)
    if not (SRC / "chibox" / "__init__.py").is_file():
        print("error: chibox sources not found under %s" % (SRC,), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    result = measure(args, workloads, tracing)
    detail = result.pop("detail")
    for failure in detail["failures"]:
        print("FAILED %s" % (failure,))
    rows = dict(result["metrics"])
    if "fail_ratio" in detail:
        rows["fail_ratio"] = {"value": detail["fail_ratio"], "unit": "ratio"}
    for name, m in rows.items():
        print("%-42s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
