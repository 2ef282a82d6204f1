"""Job lists of the three benchmark workloads and the checks on their outputs.

A job is one ``chibox`` command line.  The seed picks the family maps, the
random permutations and the group coefficients; every pick is made from a
set of inputs of equal cost, so the work in a pass does not depend on the
seed.  chibox receives only the generated argv and the files written here.

Why these workloads:

* ``spectra-shift``: DDT, Walsh and DLCT of shift-invariant family maps at
  n = 10..12, plus BCT of a family permutation at n = 8 and of the
  large-class map chi_nm:9:4.  The spectrum layer does almost all of the
  work, and every map has exact rotation symmetry.
* ``spectra-unstructured``: the same spectra on seeded random permutations
  read from table documents (all four at n = 10, DDT, Walsh and DLCT at
  n = 10..11), plus cchi:8.  No rotation symmetry and small differential
  classes; BCT at n = 10 dominates.
* ``tables``: large-n table algebra (construct, analyze degree and cycles,
  group materialize and inverse, fixed points, cost) at n = 20.  The
  spectrum layer is never called.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import numpy as np

WORKLOADS = ("spectra-shift", "spectra-unstructured", "tables")

# Sizes per ladder.  "tiny" (n <= 7) is the smoke-test ladder.
LADDERS = {
    "full": {
        "shift_n": (10, 11, 12),
        "bct_n": (8,),
        "bct_fixed": "chi_nm:9:4",
        "random_bct_n": (10,),
        "random_n": (10, 11, 11, 11),
        "cchi": "cchi:8",
        "table_n": 20,
        "fixed_points": (20, 3, 8),
        # seconds of one pass at this commit on 2 cores; with --seconds 20
        # they give 4, 3 and 3 passes, so that the median and the tail
        # percentile fall inside one group of equal jobs
        "pass_s": {"spectra-shift": 5.0, "spectra-unstructured": 7.5, "tables": 10.0},
    },
    "tiny": {
        "shift_n": (5, 6, 7),
        "bct_n": (5, 6),
        "bct_fixed": "chi_nm:7:4",
        "random_bct_n": (5,),
        "random_n": (5, 6, 7),
        "cchi": None,
        "table_n": 7,
        "fixed_points": (7, 3, 2),
        "pass_s": {"spectra-shift": 0.05, "spectra-unstructured": 0.05, "tables": 0.02},
    },
}

SPECTRA = "ddt,walsh,dlct"
ALL_SPECTRA = "ddt,walsh,bct,dlct"
REPORT_NAME = {
    "ddt": "differential",
    "walsh": "walsh",
    "bct": "boomerang",
    "dlct": "dlct",
    "degree": "degree",
    "cycles": "cycles",
}
COST_LIBRARIES = ("umc180", "tsmc65", "tsmc28", "smic130", "smic65", "nangate45", "nangate15", "std350", "stm65")


class CheckError(Exception):
    """A job's output violates an expected value or an exact invariant."""


# what a check raises on output that is wrong or malformed
CHECK_ERRORS = (CheckError, ValueError, KeyError, TypeError)


@dataclass
class Job:
    """One chibox command line and what its output must satisfy."""

    kind: str
    argv: tuple
    output: str | None = None
    expect: dict = field(default_factory=dict)


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _structured(*argv):
    return tuple(argv) + ("--format", "structured")


def _analyze(target, metrics, n, family):
    return Job(
        "analyze",
        _structured("analyze", target, "--metrics", metrics),
        expect={"n": n, "family": family, "metrics": metrics.split(",")},
    )


def shift_families(n, windows):
    """Shift-invariant family maps at dimension n, chi_nm for the given windows m.

    chi, chi_nm:n:3 and chi_prime3 cost the same within 5%, while the
    spectra of chi_nm:n:4 and chi_nm:n:5 take 1.15 and 1.35 times as long
    at n = 11..12; so only the smallest slot, 5% of a pass, draws m = 4, 5.
    """
    specs = ["chi:%d" % n] + ["chi_nm:%d:%d" % (n, m) for m in windows if m < n]
    return specs + ["chi_prime3:%d" % n]


def bct_permutations(n):
    """Family permutations at n: chi for odd n, chi_nm when m does not divide n."""
    specs = ["chi:%d" % n] if n % 2 else []
    return specs + ["chi_nm:%d:%d" % (n, m) for m in (3, 5) if m < n and n % m]


def table_permutations(n):
    specs = ["chi_nm:%d:3" % n, "chi_prime3:%d" % n] if n % 3 else []
    return specs + (["cchi:%d" % n] if n % 4 == 0 and n >= 8 else [])


def cost_templates(n):
    return ("chi", "chi_prime3") + (("cchi",) if n % 4 == 0 and n >= 8 else ())


def unit_choices(ell):
    """Unit coefficient vectors of equal materialization cost.

    comb_to_table builds one theta table per set coefficient, at a cost that
    grows with its index, so the candidates share both the number of set
    coefficients (ell // 2) and the sum of their indices.
    """
    size = max(1, ell // 2)
    target = (ell + 1) * size // 2
    out = []
    for mask in range(1, 1 << ell):
        idx = [k + 1 for k in range(ell) if mask >> k & 1]
        if len(idx) == size and sum(idx) == target:
            out.append((1,) + tuple(1 if k in idx else 0 for k in range(1, ell + 1)))
    return out


def unit_inverse(coeffs):
    """Inverse in F2[z]/(z^(ell+1)), written independently of chibox."""
    inv = [1] + [0] * (len(coeffs) - 1)
    for j in range(1, len(coeffs)):
        acc = coeffs[j]
        for u in range(1, j):
            acc ^= coeffs[u] & inv[j - u]
        inv[j] = acc
    return tuple(inv)


def _bits(coeffs):
    return "".join(str(c) for c in coeffs)


def write_random_table(path, n, perm, family):
    width = (n + 3) // 4
    doc = {"n": n, "family": family, "entries": [format(int(y), "0%dx" % width) for y in perm]}
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def build_jobs(workload, seed, workdir, ladder="full"):
    """Return (warm-up job, job list) for one workload; writes input files."""
    size = LADDERS[ladder]
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    if workload == "spectra-shift":
        warm = _analyze("chi:5", ALL_SPECTRA, 5, "chi:5")
        jobs = []
        for n in size["shift_n"]:
            spec = _pick(rng, shift_families(n, (3, 4, 5) if n == min(size["shift_n"]) else (3,)))
            jobs.append(_analyze(spec, SPECTRA, n, spec))
        for n in size["bct_n"]:
            spec = _pick(rng, bct_permutations(n))
            jobs.append(_analyze(spec, "bct", n, spec))
        spec = size["bct_fixed"]
        jobs.append(_analyze(spec, "bct", int(spec.split(":")[1]), spec))
        return warm, jobs
    if workload == "spectra-unstructured":
        warm = _analyze("chi:5", ALL_SPECTRA, 5, "chi:5")
        slots = [(n, ALL_SPECTRA) for n in size["random_bct_n"]] + [(n, SPECTRA) for n in size["random_n"]]
        jobs = []
        for i, (n, metrics) in enumerate(slots):
            path = workdir / ("random-%d.json" % i)
            family = "random:%d:%d" % (seed, i)
            write_random_table(path, n, rng.permutation(1 << n), family)
            jobs.append(_analyze(str(path), metrics, n, family))
        if size["cchi"]:
            jobs.append(_analyze(size["cchi"], ALL_SPECTRA, 8, size["cchi"]))
        return warm, jobs
    if workload == "tables":
        warm_doc = str(workdir / "warm.json")
        warm = Job("construct", _structured("construct", "chi_nm:5:3", "-o", warm_doc), warm_doc,
                   {"n": 5, "family": "chi_nm:5:3"})
        n = size["table_n"]
        m = 3
        spec = _pick(rng, table_permutations(n))
        doc = str(workdir / "table.json")
        comb_doc = str(workdir / "comb.json")
        unit = _pick(rng, unit_choices(n // m))
        fp_n, fp_m, fp_power = size["fixed_points"]
        template = _pick(rng, cost_templates(n))
        group = ("group", "--n", str(n), "--m", str(m), "--coeffs")
        jobs = [
            Job("construct", _structured("construct", spec, "-o", doc), doc, {"n": n, "family": spec}),
            Job("analyze", _structured("analyze", doc, "--metrics", "degree,cycles"),
                expect={"n": n, "family": spec, "metrics": ["degree", "cycles"], "degree_of": doc}),
            Job("materialize", _structured(*group, _bits(unit), "materialize", "-o", comb_doc), comb_doc,
                {"n": n, "m": m, "coeffs": _bits(unit)}),
            Job("inverse", _structured(*group, _bits(unit_inverse(unit)), "inverse"),
                expect={"inverse": _bits(unit)}),
            Job("fixed-points", _structured("fixed-points", "--n", str(fp_n), "--m", str(fp_m),
                                            "--power", str(fp_power))),
            Job("cost", _structured("cost", template, "--n", str(n), "--lib", _pick(rng, COST_LIBRARIES)),
                expect={"template": template, "n": n}),
        ]
        return warm, jobs
    raise ValueError("unknown workload %r" % (workload,))


# --- output checks -------------------------------------------------------


def _require(cond, message, *args):
    if not cond:
        raise CheckError(message % args)


def split_entries(text):
    """Split a document with a large "entries" array into (other fields, raw array text).

    Comparing the raw array text keeps the check from holding a Python
    string per entry, which would dominate the process's peak memory.
    """
    start = text.index('"entries":[')
    end = text.index("]", start)
    head = json.loads(text[:start].rstrip(",") + text[end + 1 :])
    return head, text[start + len('"entries":[') : end]


def _check_table_document(path, n, family, raw_entries):
    head, raw = split_entries(Path(path).read_text())
    _require(head == {"n": n, "family": family}, "table document header %r", head)
    _require(raw == raw_entries, "table document entries differ from the printed entries")


def _check_report(rep, n, ctx, expect):
    size = 1 << n
    metric = rep["metric"]
    _require(rep["n"] == n, "report n %r != %d", rep["n"], n)
    if metric in ("differential", "walsh", "boomerang", "dlct"):
        spectrum = rep["spectrum"]
        total = sum(c for _, c in spectrum)
        if metric == "differential":
            _require(total == (size - 1) * size, "DDT total %d", total)
            weighted = sum(v * c for v, c in spectrum)
            _require(weighted == (size - 1) * size, "DDT sum of v*c %d", weighted)
        elif metric == "walsh":
            _require(total == size * size, "Walsh total %d", total)
            parseval = sum(v * v * c for v, c in spectrum)
            _require(parseval == size**3, "Walsh sum of v^2*c %d != 2^(3n)", parseval)
        elif metric == "boomerang":
            _require(total == (size - 1) ** 2, "BCT total %d", total)
        else:
            _require(total == (size - 1) * size, "DLCT total %d", total)
    elif metric == "cycles":
        covered = sum(length * mult for length, mult in rep["cycle_lengths"])
        _require(covered == size, "cycle lengths cover %d words, not 2^%d", covered, n)
        order = math.lcm(*(length for length, _ in rep["cycle_lengths"]))
        _require(rep["order"] == order, "cycle order %r != lcm %d", rep["order"], order)
        fixed = dict(rep["cycle_lengths"]).get(1, 0)
        _require(rep["fixed_point_count"] == fixed, "fixed-point count %r", rep["fixed_point_count"])
    elif metric == "degree":
        _require(isinstance(rep["value"], int) and 1 <= rep["value"] <= n, "degree %r", rep["value"])
        if "degree_of" in expect:
            built = ctx.get(expect["degree_of"])
            _require(rep["value"] == built, "degree %r of the read document != %r at construct", rep["value"], built)


def check_job(job, rc, stdout, ctx):
    """Raise CheckError unless the job's exit code and output are right.

    ctx carries facts from earlier jobs of the same pass (the degree
    printed when a table document was written).
    """
    _require(rc == 0, "exit code %r", rc)
    expect = job.expect
    if job.kind in ("construct", "materialize"):
        doc, raw = split_entries(stdout)
        n = doc["n"]
        _require(n == expect["n"], "n %r", n)
        _require(doc["permutation"] is True, "not a permutation")
        _require(raw.count(",") + 1 == 1 << n, "expected 2^%d entries", n)
        if job.kind == "construct":
            _require(doc["family"] == expect["family"], "family %r", doc["family"])
            family = doc["family"]
            ctx[job.output] = doc["degree"]
        else:
            _require(doc["coeffs"] == expect["coeffs"], "coeffs %r", doc["coeffs"])
            family = "comb:%d:%d:%s" % (n, expect["m"], expect["coeffs"])
        _check_table_document(job.output, n, family, raw)
        return
    doc = json.loads(stdout)
    if job.kind == "analyze":
        n = doc["n"]
        _require(n == expect["n"], "n %r", n)
        _require(doc["family"] == expect["family"], "family %r", doc["family"])
        names = [rep["metric"] for rep in doc["reports"]]
        _require(names == [REPORT_NAME[m] for m in expect["metrics"]], "reports %r", names)
        for rep in doc["reports"]:
            _check_report(rep, n, ctx, expect)
    elif job.kind == "inverse":
        _require(doc["inverse"] == expect["inverse"], "inverse %r != %r", doc["inverse"], expect["inverse"])
    elif job.kind == "fixed-points":
        _require(doc["agree"] is True, "fixed-point predicate and enumeration disagree")
        _require(doc["predicate_count"] == doc["count"], "predicate count %r", doc["predicate_count"])
    elif job.kind == "cost":
        _require(doc["template"] == expect["template"] and doc["n"] == expect["n"], "echo %r", doc)
        _require(Decimal(doc["area_ge"]) > 0, "area %r", doc["area_ge"])
        _require(doc["latency_stages"] >= 1, "latency %r", doc["latency_stages"])
    else:
        raise CheckError("unknown job kind %r" % (job.kind,))
