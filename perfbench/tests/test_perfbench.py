"""Tests of the benchmark itself: tiny-scale smoke runs of every workload,
failure accounting, and agreement between BENCHMARK.json and the code."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert record["zero_layers"] == []
        assert record["exact_skipped_reports"] == record["above_cap_reports"]
        assert (ROOT / record["spans_file"]).is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert record["error_rate"] == 0
        assert {"nproc", "blas_threads", "python", "numpy", "src_lines"} <= set(record["environment"])
        assert record["probe_ms"]["count"] >= 2


def test_bad_outputs_are_counted_as_failures(tmp_path, monkeypatch):
    """A corrupted report, a wrong exit code and a raised exception each
    count as one failed operation."""
    real_main = worker.cli.main

    def faulty_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real_main(argv)
        report = out.getvalue()
        if argv[:1] == ["bound"] and argv[1].endswith("demo-chsh.json"):
            report = re.sub(r'(complete_bound"?:\s*)[-+.\de]+', r"\g<1>8.5", report)
        print(report, end="")
        if argv[:1] == ["bound"] and argv[1].endswith("counterexample.json"):
            return 0  # domination fails here, so 1 is expected
        if argv[:1] == ["certify"] and argv[1].endswith("demo-heisenberg.json"):
            raise RuntimeError("injected")
        return code

    worker.write_inputs("sweep-small", 3, "tiny", tmp_path)
    ops = workloads.cycle("sweep-small", 3, "tiny", tmp_path, ROOT)
    outputs = worker.Outputs()
    monkeypatch.setattr(worker.cli, "main", faulty_main)
    worker.timed_loop(ops, 0, outputs)
    monkeypatch.setattr(worker.cli, "main", real_main)

    checker = oracle.Checker("sweep-small", 3, "tiny", ROOT, tmp_path)
    attempted, failed, reasons = checker.tally(outputs.to_json())
    assert attempted == len(ops)
    assert failed == 3, reasons
    assert any("complete_bound" in r for r in reasons)
    assert any("exit 0, expected 1" in r for r in reasons)
    assert any("RuntimeError" in r for r in reasons)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "results"))
    proc = run_bench("sweep-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layers = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    layers[spans.OVERHEAD_METRIC] = "ratio"
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
