import contextlib
import io
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from linmetric.cli import main
from linmetric.core import BUILTIN_KINDS, MAX_NESTING, print_term, print_type
from linmetric.gen import corpus_registry, typed_pair_corpus


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "k2.lin").write_text("k 2.0\n")
    (tmp_path / "k3.lin").write_text("k 3.0\n")
    (tmp_path / "ma0.lin").write_text(r"0.0 * 0.0 * (\k:(R (x) R -o R). k (0.0 * 0.0))")
    (tmp_path / "ma1.lin").write_text(r"1.0 * 1.0 * (\k:(R (x) R -o R). k (0.0 * 0.0))")
    (tmp_path / "bad.lin").write_text("0.0 (x) 1.0")
    (tmp_path / "nonlinear.lin").write_text(r"\x:R. x * x")
    (tmp_path / "empty.lin").write_text("")
    (tmp_path / "redex.lin").write_text(r"(\x:R. x) 5.0")
    (tmp_path / "registry.json").write_text(
        json.dumps(
            {
                "symbols": [
                    {"name": "c", "arity": 1, "builtin": "const", "value": 7.0},
                    {"name": "add", "arity": 2, "builtin": "add"},
                ]
            }
        )
    )
    (tmp_path / "l0.lin").write_text(r"\k:(R -o R). c(k 0.0)")
    (tmp_path / "l1.lin").write_text(r"\k:(R -o R). c(k 1.0)")
    (tmp_path / "wire.lin").write_text("add(x (y 0.0), z 2.0)")
    return tmp_path


def test_typecheck_ma(workdir, capsys):
    assert main(["typecheck", str(workdir / "ma0.lin")]) == 0
    assert capsys.readouterr().out.strip() == "R (x) R (x) ((R (x) R -o R) -o R)"


def test_typecheck_empty_file_fails(workdir, capsys):
    assert main(["typecheck", str(workdir / "empty.lin")]) == 1
    assert "error" in capsys.readouterr().err


def test_typecheck_parse_error(workdir, capsys):
    assert main(["typecheck", str(workdir / "bad.lin")]) == 1


def test_typecheck_nonlinear(workdir, capsys):
    assert main(["typecheck", str(workdir / "nonlinear.lin")]) == 1
    assert "linearity" in capsys.readouterr().err


def test_typecheck_error_text(workdir, capsys):
    assert main(["typecheck", str(workdir / "nonlinear.lin")]) == 1
    assert capsys.readouterr().err == "error: variable(s) used twice: ['x'] (linearity violation)\n"


def test_typecheck_rejects_an_env_that_repeats_a_name(workdir, capsys):
    assert main(["typecheck", "--env", "x:R, x:R", str(workdir / "k2.lin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: duplicate variable in environment") and "Traceback" not in err


def test_eval_and_normalize(workdir, capsys):
    assert main(["eval", str(workdir / "redex.lin")]) == 0
    assert capsys.readouterr().out.strip() == "5.0"
    assert main(["normalize", str(workdir / "redex.lin")]) == 0
    assert capsys.readouterr().out.strip() == "5.0"


def test_dist_all_unit_queries(workdir, capsys):
    code = main(
        [
            "dist",
            str(workdir / "k2.lin"),
            str(workdir / "k3.lin"),
            "--env",
            "k:R -o I",
            "--metric",
            "all",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chain_ok"]
    assert report["metrics"]["den"] == {"lo": 0.0, "hi": 0.0}
    assert report["metrics"]["int"]["lo"] == 1.0


def test_dist_same_file_all_zero(workdir, capsys):
    code = main(
        ["dist", str(workdir / "k2.lin"), str(workdir / "k2.lin"), "--env", "k:R -o I", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["obs"]["lo"] == 0.0
    assert report["metrics"]["equ"]["hi"] == 0.0
    assert report["chain_ok"]


def test_dist_obs_metric_ma(workdir, capsys):
    code = main(
        [
            "dist",
            str(workdir / "ma0.lin"),
            str(workdir / "ma1.lin"),
            "--metric",
            "obs",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["obs"]["lo"] >= 2.0
    assert "witness" in report["obs"]


def test_dist_type_mismatch(workdir, capsys):
    assert (
        main(["dist", str(workdir / "k2.lin"), str(workdir / "ma0.lin"), "--env", "k:R -o R"])
        == 1
    )


@pytest.mark.parametrize(
    "text, argv",
    [
        ("1.0", ["dist", "k2.lin", "term.lin"]),  # terms of different types
        ("add(1.0, $)", ["typecheck", "term.lin"]),
        ("let a (x) a = 1.0 * 2.0 in a", ["typecheck", "term.lin"]),
        ("let sin (x) b = 1.0 * 2.0 in b", ["typecheck", "term.lin"]),
        ("1.0", ["typecheck", "term.lin", "--env", "x"]),
    ],
)
def test_user_errors_exit_1_with_one_error_line(workdir, capsys, text, argv):
    (workdir / "term.lin").write_text(text)
    argv = [str(workdir / a) if a.endswith(".lin") else a for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_dist_on_terms_of_different_types(workdir, capsys):
    (workdir / "one.lin").write_text("1.0")
    (workdir / "unit.lin").write_text("*")
    assert main(["dist", str(workdir / "one.lin"), str(workdir / "unit.lin")]) == 1
    assert capsys.readouterr().err == "error: terms have different types: R vs I\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "k2.lin", "k3.lin", "--env", "k:R -o I", "--budget", "-1"],
        ["dist", "k2.lin", "k3.lin", "--env", "k:R -o I", "--seed", "abc"],
        ["check", "--suite", "trace", "--count", "-5"],
        ["check", "--suite", "ordering", "--count", "-1"],
        ["check", "--suite", "decompose", "--count", "2.5"],
        ["check", "--suite", "nope"],
        [],
    ],
)
def test_a_malformed_command_line_is_a_user_error(workdir, capsys, argv):
    argv = [str(workdir / a) if a.endswith(".lin") else a for a in argv]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and "Traceback" not in err


def test_a_zero_budget_is_accepted(workdir, capsys):
    argv = ["dist", str(workdir / "k2.lin"), str(workdir / "k3.lin"), "--env", "k:R -o I"]
    assert main([*argv, "--metric", "obs", "--budget", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["obs"]["lo"] == 0.0


def test_dist_deterministic(workdir, capsys):
    args = [
        "dist",
        str(workdir / "ma0.lin"),
        str(workdir / "ma1.lin"),
        "--metric",
        "all",
        "--seed",
        "7",
        "--json",
    ]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_dist_with_registry_l_terms(workdir, capsys):
    code = main(
        [
            "dist",
            str(workdir / "l0.lin"),
            str(workdir / "l1.lin"),
            "--symbols",
            str(workdir / "registry.json"),
            "--metric",
            "int",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["int"] == {"lo": 1.0, "hi": 1.0, "normalized": False}


def test_registry_env_var(workdir, capsys, monkeypatch):
    monkeypatch.setenv("LINMETRIC_SYMBOLS", str(workdir / "registry.json"))
    assert main(["typecheck", str(workdir / "l0.lin")]) == 0
    assert capsys.readouterr().out.strip() == "(R -o R) -o R"


def test_wires_listing_and_dot(workdir, capsys):
    out_dot = workdir / "wire.dot"
    code = main(
        [
            "wires",
            str(workdir / "wire.lin"),
            "--env",
            "x:R -o R, y:R -o R, z:R -o R",
            "--dot",
            str(out_dot),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == "H1=y  H2=0  H3=2  H4=add(x, z)"
    dot = out_dot.read_text()
    assert dot.startswith("digraph wires {")
    assert "rank=sink" in dot


def test_wires_normalizes_non_normal(workdir, capsys):
    (workdir / "nn.lin").write_text(r"(\x:R. x) 3.0")
    assert main(["wires", str(workdir / "nn.lin")]) == 0
    out = capsys.readouterr().out
    assert "normalized" in out
    assert "H1=3" in out


def test_check_trace(capsys):
    assert main(["check", "--suite", "trace", "--count", "25"]) == 0
    assert "failures=0" in capsys.readouterr().out


def test_check_decompose(capsys):
    assert main(["check", "--suite", "decompose", "--count", "20", "--seed", "3"]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_check_ordering(capsys):
    assert main(["check", "--suite", "ordering", "--count", "25", "--seed", "5"]) == 0
    assert "25/25 chain_ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite, name, wrong, count",
    [
        ("trace", "trace", lambda wf, width: lambda inputs: (0.5,), "failures"),
        ("decompose", "int_term_denotation", lambda h, assignment, reg: 0.5, "mismatches"),
    ],
)
def test_check_reports_failures_with_exit_2(capsys, monkeypatch, suite, name, wrong, count):
    import linmetric.cli as cli_mod

    monkeypatch.setattr(cli_mod, name, wrong)
    assert main(["check", "--suite", suite, "--count", "3"]) == 2
    assert int(re.search(rf"{count}=(\d+)", capsys.readouterr().out).group(1)) > 0


def test_check_admissibility(capsys):
    assert main(["check", "--suite", "admissibility", "--count", "10", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    for engine in ("den", "int", "equ"):
        assert f"{engine}:" in out
    assert "FAIL" not in out


def test_dist_inf_encoding(workdir, capsys):
    (workdir / "id.lin").write_text(r"\x:R. x")
    (workdir / "sinx.lin").write_text(r"\x:R. sin(x)")
    code = main(
        ["dist", str(workdir / "id.lin"), str(workdir / "sinx.lin"), "--metric", "equ", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["equ"]["hi"] == "inf"
    assert report["equ"]["certificate"] is None


@pytest.mark.parametrize("metric", ["int", "all"])
def test_dist_with_a_refuted_registry_gap_is_a_user_error(workdir, capsys, metric):
    symbols = [{"name": f, "arity": 1, "builtin": f} for f in ("sin", "cos")]
    gaps = [{"a": "sin", "b": "cos", "bound": 0.1}]
    (workdir / "gap.json").write_text(json.dumps({"symbols": symbols, "gaps": gaps}))
    (workdir / "sin.lin").write_text(r"\x:R. sin(x)")
    (workdir / "cos.lin").write_text(r"\x:R. cos(x)")
    files = [str(workdir / "sin.lin"), str(workdir / "cos.lin")]
    code = main(["dist", *files, "--symbols", str(workdir / "gap.json"), "--metric", metric])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "sin/cos" in err and "Traceback" not in err
    assert out == ""


def test_dist_chain_violation_exits_2(workdir, capsys, monkeypatch):
    import linmetric.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "ordering_report", lambda *a, **k: {"chain_ok": False, "metrics": {}}
    )
    code = main(
        ["dist", str(workdir / "k2.lin"), str(workdir / "k3.lin"), "--env", "k:R -o I", "--json"]
    )
    assert code == 2


def test_dist_rejects_an_overflowing_literal(workdir, capsys):
    (workdir / "huge.lin").write_text("1e999")
    code = main(["dist", str(workdir / "huge.lin"), str(workdir / "huge.lin"), "--json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "out of range" in err
    assert out == ""


def test_eval_rejects_a_registry_with_a_nan_value(workdir, capsys):
    (workdir / "nan.json").write_text(
        '{"symbols": [{"name": "s", "arity": 1, "builtin": "scale_le1", "value": NaN}]}'
    )
    (workdir / "s.lin").write_text("s(1.0)")
    code = main(["eval", str(workdir / "s.lin"), "--symbols", str(workdir / "nan.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "not a finite number" in err
    assert out == ""


@pytest.mark.parametrize("text", ["add(1e308, 1e308)", "sin(add(1e308, 1e308))"])
def test_eval_rejects_a_result_that_is_not_finite(workdir, capsys, text):
    (workdir / "big.lin").write_text(text)
    code = main(["eval", str(workdir / "big.lin")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_eval_rejects_a_digit_outside_ascii(workdir, capsys):
    (workdir / "digit.lin").write_text("\u0663", encoding="utf-8")
    code = main(["eval", str(workdir / "digit.lin")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "error: unexpected character '\u0663' (at offset 0)\n"
    assert out == ""


def test_dist_rejects_a_result_that_is_not_finite(workdir, capsys):
    (workdir / "big.lin").write_text("add(1e308, 1e308)")
    (workdir / "one.lin").write_text("add(1e308, 1.0)")
    code = main(["dist", str(workdir / "big.lin"), str(workdir / "one.lin"), "--json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "not a finite number" in err
    assert out == ""


def test_eval_rejects_a_registry_with_a_malformed_gap(workdir, capsys):
    (workdir / "gap.json").write_text('{"gaps": [{"a": "c", "b": "d", "bound": "abc"}]}')
    code = main(["eval", str(workdir / "k2.lin"), "--symbols", str(workdir / "gap.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "not a number" in err


@pytest.mark.parametrize(
    "entry",
    [
        '{"symbols": [{"name": "c", "builtin": "const", "value": true}]}',
        '{"symbols": [{"name": "c", "arity": true, "builtin": "const", "value": 7.0}]}',
        '{"gaps": [{"a": "c", "b": "add", "bound": "1.5"}]}',
        '{"gaps": [{"a": "c", "b": "add", "bound": true}]}',
    ],
    ids=["bool-value", "bool-arity", "string-bound", "bool-bound"],
)
def test_dist_rejects_a_boolean_or_a_string_where_the_registry_wants_a_number(workdir, capsys, entry):
    (workdir / "typed.json").write_text(entry)
    files = [str(workdir / "k2.lin"), str(workdir / "k3.lin")]
    code = main(["dist", *files, "--env", "k:R -o R", "--symbols", str(workdir / "typed.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "config",
    [
        "[]",
        '{"symbols": 5}',
        '{"symbols": [{"name": 5, "builtin": "sin"}, {"name": "a", "builtin": "add"}]}',
        "[" * 100000 + "]" * 100000,
    ],
    ids=["list", "number", "numeric-name", "deep"],
)
def test_dist_rejects_a_registry_of_the_wrong_shape(workdir, capsys, config):
    (workdir / "shape.json").write_text(config)
    (workdir / "a.lin").write_text(r"\f:R -o R. a(f 1.0, 2.0)")
    files = [str(workdir / "a.lin"), str(workdir / "a.lin")]
    code = main(["dist", *files, "--symbols", str(workdir / "shape.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_files_that_are_not_utf8_are_user_errors(workdir, capsys):
    (workdir / "latin1.lin").write_bytes(b"sin(\xff)")
    (workdir / "latin1.json").write_bytes(b'{"symbols": "\xff"}')
    assert main(["eval", str(workdir / "latin1.lin")]) == 1
    assert main(["eval", str(workdir / "k2.lin"), "--symbols", str(workdir / "latin1.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 2


def test_an_integer_const_value_is_a_real(workdir, capsys):
    (workdir / "int.json").write_text('{"symbols": [{"name": "c", "builtin": "const", "value": 7}]}')
    (workdir / "c1.lin").write_text("c(1.0)")
    (workdir / "two.lin").write_text("2.0")
    symbols = ["--symbols", str(workdir / "int.json")]
    assert main(["eval", str(workdir / "c1.lin"), *symbols]) == 0
    assert capsys.readouterr().out.strip() == "7.0"
    files = [str(workdir / "c1.lin"), str(workdir / "two.lin")]
    assert main(["dist", *files, *symbols, "--metric", "all", "--json"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["int"] == {"lo": 5.0, "hi": 5.0, "normalized": False}
    assert {metrics[k]["lo"] for k in ("obs", "den", "int")} == {5.0}


def test_eval_rejects_deep_nesting(workdir, capsys):
    (workdir / "deep.lin").write_text("(" * 3000 + "1.0" + ")" * 3000)
    code = main(["eval", str(workdir / "deep.lin")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:") and "nests deeper" in err
    assert out == ""


def test_eval_accepts_nesting_just_under_the_limit(workdir, capsys):
    deep = MAX_NESTING - 1
    (workdir / "deep.lin").write_text("sin(" * deep + "0.0" + ")" * deep)
    assert main(["eval", str(workdir / "deep.lin")]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_dist_report_with_a_nan_is_an_internal_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr("linmetric.cli.equ_upper_bound", lambda *args: (float("nan"), None))
    files = [str(workdir / "k2.lin"), str(workdir / "k3.lin")]
    code = main(["dist", *files, "--env", "k:R -o I", "--metric", "equ"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("internal error:") and out == ""


# -- registry fuzzing -----------------------------------------------------------

_NAMES = ("add", "sin", "c")  # the symbols of the fuzzed term files
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=4),
    max_leaves=12,
)
_numbers = st.integers() | st.floats(allow_nan=False)


_BASE = [
    {"name": "add", "builtin": "add"},
    {"name": "sin", "builtin": "sin"},
    {"name": "c", "builtin": "const", "value": 0.5},
]


def _registry_shaped(field):
    """Registries whose entries have the expected keys, each value drawn
    from ``field(plausible values)``.  They extend a registry that serves
    the terms; a later entry replaces an earlier one of the same name."""
    symbol = st.fixed_dictionaries(
        {"name": field(st.sampled_from(_NAMES)), "builtin": field(st.sampled_from(BUILTIN_KINDS))},
        optional={"value": field(_numbers), "arity": field(st.integers(0, 3))},
    )
    gap = st.fixed_dictionaries(
        {"a": field(st.sampled_from(_NAMES)), "b": field(st.sampled_from(_NAMES)), "bound": field(_numbers)}
    )
    return st.fixed_dictionaries(
        {"symbols": st.lists(symbol, max_size=3).map(lambda extra: _BASE + extra)},
        optional={"gaps": st.lists(gap, max_size=3)},
    )


# Arbitrary JSON rarely names the terms' symbols, so two thirds of the
# draws have the registry's shape: with plausible values (these reach
# the engines) or with any JSON value in any field.
_registries = _json | _registry_shaped(lambda s: s) | _registry_shaped(lambda s: s | _json)


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "m.lin").write_text(r"\f:R -o R. add(sin(f 1.0), 2.0)")
    (d / "n.lin").write_text(r"\f:R -o R. add(c(f 1.0), 0.5)")
    return d


@settings(derandomize=True, max_examples=300, deadline=None)
@given(config=_registries)
def test_any_json_registry_is_accepted_or_a_user_error(fuzzdir, config):
    path = fuzzdir / "registry.json"
    path.write_text(json.dumps(config))
    m, n = str(fuzzdir / "m.lin"), str(fuzzdir / "n.lin")
    for argv in (["eval", m], ["dist", m, n, "--json"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--symbols", str(path)])
        assert code in (0, 1), (argv, config, err.getvalue())
        if code == 0 and argv[0] == "dist":
            json.loads(out.getvalue())


_TOKEN = re.compile(r"-o|\[-\]|-?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|[A-Za-z_][\w']*|\S")


def _mutants(rng, text):
    """``text`` with one token deleted, with one duplicated, and with two adjacent ones swapped."""
    spans = [m.span() for m in _TOKEN.finditer(text)]
    a, b = spans[rng.randrange(len(spans))]
    yield text[:a] + text[b:]
    yield text[:b] + " " + text[a:b] + text[b:]
    if len(spans) > 1:
        i = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[i], spans[i + 1]
        yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def test_hostile_term_files_exit_0_or_1(tmp_path):
    registry = tmp_path / "corpus.json"
    registry.write_text(json.dumps({
        "symbols": [{"name": k, "builtin": k} for k in ("add", "sin", "cos", "min", "max")],
        "gaps": [{"a": "sin", "b": "cos", "bound": math.sqrt(2.0)}],
    }))
    rng = random.Random(0)
    reached = 0
    pairs = typed_pair_corpus(31, 100, corpus_registry())
    mutants = [(env, text, n) for env, _, m, n in pairs for text in _mutants(rng, print_term(m))]
    for k, (env, text, n) in enumerate(mutants):
        fm, fn = tmp_path / f"m{k}.lin", tmp_path / f"n{k}.lin"
        fm.write_text(text)
        fn.write_text(print_term(n))
        opts = ["--symbols", str(registry), "--env", ", ".join(f"{x}:{print_type(t)}" for x, t in env)]
        for argv in (
            ["typecheck", str(fm), *opts],
            ["eval", str(fm), *opts[:2]],
            ["normalize", str(fm), *opts],
            ["wires", str(fm), *opts],
            ["dist", str(fm), str(fn), "--json", *opts],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), (argv, text, err.getvalue())
            if code == 0 and argv[0] == "dist":
                json.loads(out.getvalue())
            reached += code == 0 and argv[0] == "typecheck"
    assert reached > 0  # some mutants typecheck, so the engines run on them too
