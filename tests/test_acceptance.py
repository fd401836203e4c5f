"""Acceptance suite: one test per shipped guarantee, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import random
import time
from pathlib import Path

import pytest

from linmetric.core import (
    Const,
    EMPTY_ENV,
    FnApp,
    I,
    R,
    SymbolRegistry,
    TTensor,
    Var,
    parse_env,
    parse_term,
    parse_type,
    typecheck,
)
from linmetric.dynamics import evaluate
from linmetric.gen import (
    admissibility_corpus,
    beta_normal_corpus,
    closed_observable_corpus,
    corpus_registry,
    random_wire_function,
    typed_pair_corpus,
)
from linmetric.metrics import (
    EngineConfig,
    ObsBudget,
    admissibility_suite,
    check_qderivation,
    equ_upper_bound,
    obs_lower_bound,
    ordering_report,
)
from linmetric.semden import (
    BOTTOM,
    UNIT,
    ProbeBattery,
    den_distance,
    ground_l1,
    interp_den,
)
from linmetric.semint import (
    WireFunction,
    decompose,
    export_diagram,
    int_distance,
    int_term_denotation,
    interp_int,
    symmetry,
    trace,
    wire_signature,
)

GOLDEN = Path(__file__).parent / "golden"


def report(name: str, elapsed: float, limit: float):
    print(f"PASS {name} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its runtime budget"


def test_criterion_1_unit_query_separation():
    start = time.monotonic()
    registry = corpus_registry()
    battery = ProbeBattery(registry, seed=0)
    env = parse_env("k:R -o I")
    m, n = parse_term("k 2.0", registry), parse_term("k 3.0", registry)
    den = den_distance(env, I, m, n, battery, registry=registry)
    assert (den.lo, den.hi) == (0.0, 0.0)
    ints = int_distance(env, I, m, n, battery, registry=registry)
    assert (ints.lo, ints.hi) == (1.0, 1.0)
    assert den.hi < ints.lo  # strict separation of the two model metrics
    report("criterion 1: unit-query pair den=[0,0] < int=[1,1]", time.monotonic() - start, 1.0)


def test_criterion_2_literal_pair_bounds():
    start = time.monotonic()
    registry = corpus_registry()
    m0 = parse_term(r"0.0 * 0.0 * (\k:(R (x) R -o R). k (0.0 * 0.0))", registry)
    m1 = parse_term(r"1.0 * 1.0 * (\k:(R (x) R -o R). k (0.0 * 0.0))", registry)
    ty = typecheck(EMPTY_ENV, m0, registry)

    prefix0 = parse_term("0.0 * 0.0", registry)
    prefix1 = parse_term("1.0 * 1.0", registry)
    assert ground_l1(evaluate(prefix0, registry), evaluate(prefix1, registry), TTensor(R, R)) == 2.0

    lo, witness = obs_lower_bound(EMPTY_ENV, ty, m0, m1, registry=registry)
    assert lo >= 2.0
    from linmetric.core import HOLE
    from linmetric.metrics import _observable_components

    trivial0 = _observable_components(evaluate(m0, registry), ty)
    trivial1 = _observable_components(evaluate(m1, registry), ty)
    assert sum(abs(a - b) for a, b in zip(trivial0, trivial1)) == 2.0

    r, cert = equ_upper_bound(EMPTY_ENV, ty, m0, m1, registry)
    assert r == 2.0
    assert cert is not None
    assert check_qderivation(cert, registry) == 2.0
    report("criterion 2: literal-pair obs>=2, log prefix=2, equ=2", time.monotonic() - start, 1.0)


def test_criterion_3_constant_wrapper_pair():
    start = time.monotonic()
    registry = SymbolRegistry.from_config(
        {
            "symbols": [
                {"name": "c", "arity": 1, "builtin": "const", "value": 7.0},
                {"name": "add", "arity": 2, "builtin": "add"},
            ]
        }
    )
    battery = ProbeBattery(registry, seed=0, draws=200, max_samples=1000)
    ty = parse_type("(R -o R) -o R")
    l0 = parse_term(r"\k:(R -o R). c(k 0.0)", registry)
    l1 = parse_term(r"\k:(R -o R). c(k 1.0)", registry)
    ints = int_distance(EMPTY_ENV, ty, l0, l1, battery, registry=registry)
    assert (ints.lo, ints.hi) == (1.0, 1.0)
    probes = battery.samples(parse_type("R -o R"))
    assert len(probes) >= 1000
    den = den_distance(EMPTY_ENV, ty, l0, l1, battery, upper_bound=1.0, registry=registry)
    assert den.lo == 0.0
    report("criterion 3: constant-wrapper pair int=[1,1], den.lo=0", time.monotonic() - start, 5.0)


def test_criterion_4_wire_example_golden():
    start = time.monotonic()
    registry = SymbolRegistry.from_config(
        {
            "symbols": [
                {"name": "f", "arity": 2, "builtin": "add"},
                {"name": "g", "arity": 2, "builtin": "min"},
            ]
        }
    )
    env = parse_env("x:R -o R, y:R -o R, z:R -o R")
    m = parse_term("f(x (y 0.0), z 2.0)", registry)
    n = parse_term("g(x (z 1.0), y 3.0)", registry)
    hm, _ = decompose(env, m, registry)
    hn, _ = decompose(env, n, registry)
    assert sorted(map(repr, hm)) == sorted(
        map(repr, [Var("x2"), FnApp("f", (Var("x1"), Var("x3"))), Const(0.0), Const(2.0)])
    )
    assert sorted(map(repr, hn)) == sorted(
        map(repr, [Var("x3"), FnApp("g", (Var("x1"), Var("x2"))), Const(3.0), Const(1.0)])
    )
    assert export_diagram(env, m, registry) == (GOLDEN / "wire_m.dot").read_text()
    assert export_diagram(env, n, registry) == (GOLDEN / "wire_n.dot").read_text()
    report("criterion 4: wire example terms + golden diagrams", time.monotonic() - start, 1.0)


def test_criterion_5_decomposition_extensionality():
    start = time.monotonic()
    registry = corpus_registry()
    corpus = beta_normal_corpus(seed=105, count=200, max_size=25, registry=registry)
    rng = random.Random(205)
    for env, ty, term in corpus:
        hs, _ = decompose(env, term, registry)
        wf = interp_int(env, term, registry)
        sig = wire_signature(env, ty)
        for _ in range(50):
            ins = tuple(UNIT if t == "I" else rng.uniform(-20, 20) for t in sig.in_types)
            got = wf(ins)
            assign = {f"x{i + 1}": v for i, v in enumerate(ins)}
            want = tuple(int_term_denotation(h, assign, registry) for h in hs)
            assert len(got) == len(want) == sig.n
            for a, b in zip(got, want):
                if a is UNIT or b is UNIT:
                    assert a is b
                else:
                    assert abs(a - b) <= 1e-9
    report("criterion 5: 200-term decomposition extensionality", time.monotonic() - start, 60.0)


def test_criterion_6_soundness_and_observable_collapse():
    start = time.monotonic()
    registry = corpus_registry()
    battery = ProbeBattery(registry, seed=0)
    corpus = closed_observable_corpus(seed=106, count=300, registry=registry)
    by_type: dict = {}
    for ty, term in corpus:
        value = evaluate(term, registry)
        # evaluation soundness in the plain model, exact equality
        assert interp_den(EMPTY_ENV, term, registry)(()) == interp_den(EMPTY_ENV, value, registry)(())
        # the wire strategy reproduces the value's components exactly
        wf = interp_int(EMPTY_ENV, term, registry)
        got = wf(())
        want = tuple(_flatten(value))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is UNIT and b is UNIT) or a == b
        by_type.setdefault(ty, []).append((term, value))
    pairs = 0
    for ty, entries in by_type.items():
        for (m, vm), (n, vn) in zip(entries, entries[1:]):
            want = ground_l1(vm, vn, ty)
            den = den_distance(EMPTY_ENV, ty, m, n, battery, registry=registry)
            ints = int_distance(EMPTY_ENV, ty, m, n, battery, registry=registry)
            assert (den.lo, den.hi) == (want, want)
            assert (ints.lo, ints.hi) == (want, want)
            pairs += 1
    assert pairs >= 100
    report(
        f"criterion 6: 300-term soundness + observable collapse ({pairs} pairs)",
        time.monotonic() - start,
        60.0,
    )


def _flatten(v):
    from linmetric.core import Pair, Star

    if isinstance(v, Const):
        return [v.value]
    if isinstance(v, Star):
        return [UNIT]
    if isinstance(v, Pair):
        return _flatten(v.left) + _flatten(v.right)
    raise AssertionError(v)


def test_criterion_7_ordering_chain():
    start = time.monotonic()
    registry = corpus_registry()
    cfg = EngineConfig(
        registry=registry,
        battery=ProbeBattery(registry, seed=0),
        budget=ObsBudget(values_per_type=3, max_contexts=60),
    )
    pairs = typed_pair_corpus(seed=107, count=200, registry=registry)
    violations = []
    for env, ty, m, n in pairs:
        rep = ordering_report(env, ty, m, n, cfg)
        if not rep["chain_ok"]:
            violations.append(rep)
    assert not violations, violations[:3]
    report("criterion 7: 200-pair interval chain, zero violations", time.monotonic() - start, 120.0)


def test_criterion_8_trace_laws():
    start = time.monotonic()
    registry = corpus_registry()
    rng = random.Random(108)
    for _ in range(100):
        wf = random_wire_function(rng, 2, 2, registry)
        tr = trace(wf, 1)
        shift = rng.uniform(-3, 3)
        pre = WireFunction(
            ("R", "R"), ("R", "R"), lambda i, _w=wf, _s=shift: _w((i[0] + _s, i[1]))
        )
        for x in (-2.0, 0.0, 1.5):
            assert trace(pre, 1)((x,)) == tr((x + shift,))
        v = rng.uniform(-5, 5)
        assert trace(symmetry(("R", "R"), 1), 1)((v,)) == (v,)
    calls = []
    sym = symmetry(("R", "R"), 1)
    counted = WireFunction(sym.in_types, sym.out_types, lambda i: calls.append(i) or sym.step(i))
    trace(counted, 1)((1.0,))
    assert len(calls) == 2  # feedback width 1 => 2 rounds; the last one's output is the result
    report("criterion 8: yanking + naturality on 100 wire functions", time.monotonic() - start, 10.0)


def test_criterion_9_admissibility():
    start = time.monotonic()
    registry = corpus_registry()
    cfg = EngineConfig(
        registry=registry,
        battery=ProbeBattery(registry, seed=0),
        budget=ObsBudget(values_per_type=3, max_contexts=60),
    )
    corpus = admissibility_corpus(seed=109, count=50, registry=registry)
    assert len(corpus["constants"]) == 50
    assert len(corpus["tensor_prefixes"]) == 50
    assert len(corpus["equal_pairs"]) == 50
    for engine in ("den", "int", "equ"):
        rep = admissibility_suite(engine, corpus, cfg)
        assert rep.ok, (engine, rep.violations[:3])
    report("criterion 9: A2/A3/A4 x {den,int,equ} on 50 instances each", time.monotonic() - start, 30.0)
