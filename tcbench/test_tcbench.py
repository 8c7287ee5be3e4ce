"""Tests of the benchmark itself (run with ``python -m pytest tcbench -q``).

They use ``--tiny`` graphs, so the three workloads finish in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "tcbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_reported_with_its_unit(workload, trace):
    done = run_tiny(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.fixture
def in_process(monkeypatch):
    """Import the program in this process; keep this process's CPU set."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


def run_in_process(capsys, workload: str) -> tuple[int, dict, str]:
    from tcbench import run

    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", "0", "--tiny"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out.strip().splitlines()[-1]), captured.err


def test_a_tampered_expected_counter_is_a_failure(in_process, monkeypatch, capsys):
    from tcbench import cells

    expected = cells.load_expected()
    key = next(k for k in expected if k.startswith("paged/hyb/G9/scale16/M10/"))
    expected[key] = dict(expected[key], total_io=expected[key]["total_io"] + 1)
    monkeypatch.setattr(cells, "load_expected", lambda: expected)
    code, result, err = run_in_process(capsys, "sweep-paged")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "counters moved" in err and "total_io" in err


def test_a_tampered_answer_is_a_failure(in_process, monkeypatch, capsys):
    from tcbench import oracle

    honest = oracle.ReachOracle.bits

    def lying(self, src):
        bits = honest(self, src)
        return bits ^ 1 if src > 0 else bits  # claims every node reaches node 0

    monkeypatch.setattr(oracle.ReachOracle, "bits", lying)
    code, result, err = run_in_process(capsys, "serve-http")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "closure differs from BFS" in err
    assert "reachable(" in err or "successors(" in err


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "tcbench", tmp_path / "tcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "tcbench/run.py", "--workload", "serve-http", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_timings_are_scaled_by_the_loop_time_around_them(monkeypatch):
    from tcbench import hostspeed

    slow = 2 * hostspeed.REFERENCE_S  # a host at half the reference speed
    monkeypatch.setattr(hostspeed, "_reference_loop", lambda: time.sleep(slow))
    speed = hostspeed.HostSpeed()
    speed.sample()
    assert 0.4 < speed.sample() <= 0.5
    off = hostspeed.HostSpeed(enabled=False)
    assert off.sample() == 1.0 and off.samples == []
