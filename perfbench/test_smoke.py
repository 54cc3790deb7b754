"""Smoke test of the benchmark itself: every workload at tiny scale, in
both modes, prints every metric ``BENCHMARK.json`` names, with its unit,
after its correctness checks ran.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    completed = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.2",
                     "--trace", str(trace))
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], float), metric["name"]
        if not trace:
            assert entry["value"] > 0, metric["name"]
        printed = [line.split() for line in lines[:-1]]
        assert any(words[:1] == [metric["name"]] and metric["unit"] in words
                   for words in printed), metric["name"]

    summary = next(line for line in lines if "checks passed" in line)
    assert int(summary.split("checks passed ")[1].split(",")[0]) > 0


def test_fails_outside_a_checkout(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "--workload", "tables", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
