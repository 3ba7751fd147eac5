"""Tiny-size smoke test of the benchmark entry point, `run.py`.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Every workload runs once untraced and once traced on tiny inputs; the
result line must be correct and carry exactly the metrics
``BENCHMARK.json`` names, with their units.
"""

from __future__ import annotations

import json
import pickle
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import worker_env  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args, cwd=ROOT, tiny=True):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    if tiny:
        command.append("--tiny")
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)


def test_spec_follows_the_benchmark_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in (
            "lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(workload, trace):
    done = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["error_rate"]["value"] == 0
    assert json.loads(lines[-2])["counts"]


def test_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        done = run("--workload", "fleet-day", "--seed", "3",
                   "--seconds", "1", "--trace", "0")
        counts.append(json.loads(done.stdout.strip().splitlines()[-2]))
    assert counts[0] == counts[1]


def test_warm_fill_must_equal_the_cold_fill(tmp_path):
    def worker(phase):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"),
             "--workload", "fleet-day", "--seed", "7", "--seconds", "1",
             "--phase", phase, "--pair", str(tmp_path), "--tiny",
             "--t0", repr(time.monotonic())],
            cwd=tmp_path, env=worker_env(7, tmp_path),
            stdout=subprocess.PIPE, text=True, timeout=180)
        assert done.returncode == 0
        return json.loads(done.stdout.strip().splitlines()[-1])

    assert worker("fill")["problems"] == []
    (tmp_path / "cold.pickle").write_bytes(
        pickle.dumps({"record": "another fill", "ledger": None}))
    problems = worker("setup")["problems"]
    assert any("differs from the cold fill" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path, tiny=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
