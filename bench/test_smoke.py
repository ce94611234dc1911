"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Every workload must print every metric BENCHMARK.json names, with its
unit, and pass the correctness gate; a pin mismatch and an aborted game
must fail loudly; and a directory holding only the benchmark must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, *args: str, seed: int = 42) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", str(seed), "--seconds", "0.1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_gate_passes(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, "--workload", workload, "--trace", str(trace), "--items", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in wanted:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert f" {m['unit']}" in next(line for line in proc.stdout.splitlines() if f" {m['name']} " in line)


def _copy_benchmark(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def test_pin_mismatch_names_workload_index_and_seed(tmp_path: Path) -> None:
    _copy_benchmark(tmp_path, with_sources=True)
    pins_path = tmp_path / "bench" / "pins.json"
    pins = json.loads(pins_path.read_text(encoding="utf-8"))
    pins["selfplay-deduction"]["games"]["g42-00001"] = "0" * 16
    pins_path.write_text(json.dumps(pins), encoding="utf-8")
    proc = run_bench(tmp_path, "--workload", "selfplay-deduction", "--trace", "0", "--items", "2")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "selfplay-deduction seed 42: game index 1 (g42-00001)" in proc.stderr


def test_aborted_game_fails_the_gate(tmp_path: Path) -> None:
    _copy_benchmark(tmp_path, with_sources=True)
    fixture_path = tmp_path / "bench" / "fixtures" / "mock_llm.json"
    fixture = json.loads(fixture_path.read_text(encoding="utf-8"))
    # Without team-vote rules the mock client raises MockScriptExhausted at the first vote.
    fixture["rules"] = [r for r in fixture["rules"] if r.get("phase") != "team_vote"]
    fixture_path.write_text(json.dumps(fixture), encoding="utf-8")
    proc = run_bench(tmp_path, "--workload", "codeact-mock", "--trace", "0", "--items", "2", seed=7)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "codeact-mock seed 7: game index 0 (g7-00000): aborted" in proc.stderr


def test_fails_without_the_program(tmp_path: Path) -> None:
    _copy_benchmark(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, "--workload", "selfplay-deduction", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
