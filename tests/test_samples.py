"""The shipped sample files reproduce the README walkthrough outputs."""

import json
from pathlib import Path

import pytest

from linmetric.cli import main

SAMPLES = Path(__file__).parent.parent / "samples"


def test_samples_present():
    for name in [
        "ma0.lin",
        "ma1.lin",
        "k2.lin",
        "k3.lin",
        "l0.lin",
        "l1.lin",
        "wire_m.lin",
        "wire_n.lin",
        "registry_const.json",
        "registry_fg.json",
    ]:
        assert (SAMPLES / name).exists(), name


def test_readme_typecheck_line(capsys):
    assert main(["typecheck", str(SAMPLES / "ma0.lin")]) == 0
    assert capsys.readouterr().out.strip() == "R (x) R (x) ((R (x) R -o R) -o R)"


def test_readme_unit_query_distances(capsys):
    code = main(
        [
            "dist",
            str(SAMPLES / "k2.lin"),
            str(SAMPLES / "k3.lin"),
            "--env",
            "k:R -o I",
            "--metric",
            "all",
            "--json",
        ]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["chain_ok"]
    assert rep["metrics"]["den"] == {"lo": 0.0, "hi": 0.0}
    assert rep["metrics"]["int"] == {"lo": 1.0, "hi": 1.0, "normalized": False}
    assert rep["metrics"]["equ"]["hi"] == 1.0


def test_readme_constant_wrapper_pair(capsys):
    code = main(
        [
            "dist",
            str(SAMPLES / "l0.lin"),
            str(SAMPLES / "l1.lin"),
            "--symbols",
            str(SAMPLES / "registry_const.json"),
            "--metric",
            "all",
            "--json",
        ]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["chain_ok"]
    assert rep["metrics"]["obs"]["lo"] == 0.0
    assert rep["metrics"]["int"] == {"lo": 1.0, "hi": 1.0, "normalized": False}


def test_readme_wires_line(capsys):
    code = main(
        [
            "wires",
            str(SAMPLES / "wire_m.lin"),
            "--env",
            "x:R -o R, y:R -o R, z:R -o R",
            "--symbols",
            str(SAMPLES / "registry_fg.json"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "H1=y  H2=0  H3=2  H4=f(x, z)"


SAMPLE_PAIRS = [
    ("k2.lin", "k3.lin", ["--env", "k:R -o I"]),
    ("l0.lin", "l1.lin", ["--symbols", str(SAMPLES / "registry_const.json")]),
    ("ma0.lin", "ma1.lin", []),
    (
        "wire_m.lin",
        "wire_n.lin",
        ["--env", "x:R -o R, y:R -o R, z:R -o R", "--symbols", str(SAMPLES / "registry_fg.json")],
    ),
]


@pytest.mark.parametrize("m, n, options", SAMPLE_PAIRS)
def test_each_metric_alone_prints_its_entry_of_the_full_report(m, n, options, capsys):
    def dist(metric: str) -> str:
        args = ["dist", str(SAMPLES / m), str(SAMPLES / n), *options, "--metric", metric, "--json"]
        assert main(args) == 0
        return capsys.readouterr().out

    full = json.loads(dist("all"))
    for metric in ("obs", "den", "int", "equ"):
        want = json.dumps({metric: full["metrics"][metric]}, sort_keys=True)
        assert dist(metric) == want + "\n", metric
