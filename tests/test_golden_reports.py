"""The stored ordering reports must come out byte for byte the same.

``bench/golden/ordering_head.jsonl`` holds the first 50 reports of the
benchmark's ``ordering`` workload at its default seed, serialised with
``json.dumps(..., sort_keys=True)``.  Each is replayed from the pair it
names under the engine settings that workload uses.
"""

import json
from pathlib import Path

import pytest

from linmetric import gen
from linmetric.core import parse_env, parse_term, parse_type
from linmetric.metrics import EngineConfig, ObsBudget, ordering_report
from linmetric.semden import ProbeBattery

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden" / "ordering_head.jsonl"
LINES = GOLDEN.read_text(encoding="utf-8").splitlines()
REG = gen.corpus_registry()
CFG = EngineConfig(
    registry=REG,
    battery=ProbeBattery(REG, 0),
    budget=ObsBudget(values_per_type=3, max_contexts=60),
)


@pytest.mark.parametrize("line", LINES, ids=[f"pair{i}" for i in range(len(LINES))])
def test_ordering_report_matches_golden(line):
    pair = json.loads(line)["pair"]
    env = parse_env(pair["gamma"])
    ty = parse_type(pair["type"])
    m, n = parse_term(pair["M"], REG), parse_term(pair["N"], REG)
    assert json.dumps(ordering_report(env, ty, m, n, CFG), sort_keys=True) == line
