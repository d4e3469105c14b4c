"""Smoke tests of the benchmark harness, so it cannot rot unnoticed.

Each workload runs once untraced and once traced on tiny inputs.  This is
not a speed gate: it checks that every gate passes and that the result
line carries exactly the metrics ``BENCHMARK.json`` lists.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_run():
    spec = importlib.util.spec_from_file_location("nspyr_bench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace, capsys):
    result = _load_run().main(["--workload", workload, "--seed", "3",
                               "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large_curve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
