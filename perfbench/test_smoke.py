"""Smoke test of the benchmark on its tiny ladder (n <= 7).

Every workload runs untraced and traced, each in its own process.  The test
checks that chibox prints the same bytes both ways, that the printed metric
names and units match BENCHMARK.json, and that the benchmark refuses to run
without the chibox sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "5", "--seconds", "0"]
    argv += ["--trace", str(trace), "--ladder", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_ladder_traced_and_untraced(workload):
    plain_detail, plain = _result(_run(workload, 0))
    traced_detail, traced = _result(_run(workload, 1))

    assert plain_detail["digests"] == traced_detail["traced_digests"]
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _units("end_to_end")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")

    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layer["cli.main.calls"] == len(plain_detail["digests"])
    assert layer["cli.main.errors"] == 0
    assert abs(layer["bench.unattributed_s"]) < 0.1 * min(traced_detail["traced_pass_wall_s"])
    spectra = sum(layer["metrics.%s_spectrum.self_s" % s] for s in ("differential", "walsh", "dlct", "boomerang"))
    if workload == "tables":
        assert spectra == 0
        assert layer["boolmap.table_to_json.bytes"] > 0 and layer["thetagroup.predicate_fixed_set.words"] > 0
    else:
        # the spectra reached through cli.SPECTRUM_FOR are charged to metrics, not cli
        assert spectra > layer["cli.main.self_s"]
        assert layer["metrics.boomerang_spectrum.cells"] > 0


def test_refuses_to_run_without_chibox(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
