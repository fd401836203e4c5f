"""Smoke check of the benchmark itself, at a tiny run length.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload briefly, traced and untraced, and checks that the
last line names every metric of BENCHMARK.json with its unit; that a
golden mismatch fails the run with a non-zero exit; and that the
benchmark refuses to run without the library's sources.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, seed: int = 0, seconds: float = 0.3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, result, proc = run(ROOT, workload, trace)
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def copy_checkout(dst: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(BENCH, dst / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_a_failed_item_gives_a_non_zero_exit(tmp_path):
    root = copy_checkout(tmp_path, with_src=True)
    golden = root / "bench" / "golden" / "certify.txt"
    digests = golden.read_text(encoding="utf-8").split()
    golden.write_text("\n".join(["0" * 32] + digests[1:]) + "\n", encoding="utf-8")
    code, result, _ = run(root, "certify", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    code, _, proc = run(root, "ordering", 0)
    assert code != 0
    assert '"metrics"' not in proc.stdout


def test_readable_ordering_head_matches_the_digests():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import digest, load_golden

    head = (BENCH / "golden" / "ordering_head.jsonl").read_text(encoding="utf-8").splitlines()
    assert [digest(line) for line in head] == load_golden("ordering")[: len(head)]
