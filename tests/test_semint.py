import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from linmetric.core import (
    Const,
    EMPTY_ENV,
    FnApp,
    I,
    INF,
    Lam,
    R,
    Star,
    RegistryError,
    Symbol,
    SymbolRegistry,
    TLolli,
    TTensor,
    TypeError_,
    Var,
    default_registry,
    derive,
    env_of,
    parse_env,
    parse_term,
    parse_type,
    pos_atoms,
    term_size,
    typecheck,
)
from linmetric.dynamics import beta_normalize, evaluate, literal_diffs
from linmetric.gen import (
    beta_normal_corpus,
    corpus_registry,
    feasible_site,
    gen_env,
    gen_feasible_pair_site,
    gen_term,
    gen_type,
    typed_pair_corpus,
)
from linmetric.semden import BOTTOM, UNIT, ProbeBattery, compile_term, interp_den
from linmetric.semint import (
    ModelError,
    WireFunction,
    decompose,
    export_diagram,
    first_order_distance,
    format_int_term,
    int_distance,
    _interp,
    _sampled_gap,
    int_term_denotation,
    int_term_vars,
    interp_int,
    symmetry,
    trace,
    wire_signature,
)

REG = default_registry()
BATTERY = ProbeBattery(REG, seed=0)


def fg_registry() -> SymbolRegistry:
    return SymbolRegistry.from_config(
        {
            "symbols": [
                {"name": "f", "arity": 2, "builtin": "add"},
                {"name": "g", "arity": 2, "builtin": "min"},
                {"name": "add", "arity": 2, "builtin": "add"},
                {"name": "sin", "arity": 1, "builtin": "sin"},
            ]
        }
    )


# -- wire signatures -----------------------------------------------------------


def test_wire_signature_three_functions():
    env = parse_env("x:R -o R, y:R -o R, z:R -o R")
    sig = wire_signature(env, R)
    assert (sig.m, sig.n) == (3, 4)
    assert sig.in_labels == ("x", "y", "z")
    assert sig.out_labels == ("x", "y", "z", "ret")


def test_wire_signature_closed_real():
    sig = wire_signature(EMPTY_ENV, R)
    assert (sig.m, sig.n) == (0, 1)


def test_wire_signature_unit_query():
    env = parse_env("k:R -o I")
    sig = wire_signature(env, I)
    assert (sig.m, sig.n) == (1, 2)
    assert sig.in_types == ("I",)
    assert sig.out_types == ("R", "I")


# -- trace laws ------------------------------------------------------------------


def test_trace_yanking():
    sym = symmetry(("R", "R"), 1)
    tr = trace(sym, 1)
    assert tr((7.0,)) == (7.0,)
    assert tr((-2.5,)) == (-2.5,)


def test_trace_zero_width_is_identity():
    wf = WireFunction(("R",), ("R",), lambda i: (i[0],))
    assert trace(wf, 0) is wf


@pytest.mark.parametrize(
    "wf, width, message",
    [
        (symmetry(("R", "R"), 1), 3, "feedback width exceeds the wire signature"),
        (
            WireFunction(("R", "I"), ("R", "R"), lambda i: (i[0], i[0])),
            1,
            "feedback wires disagree: ('I',) vs ('R',)",
        ),
    ],
)
def test_trace_rejects_bad_feedback(wf, width, message):
    with pytest.raises(TypeError_) as err:
        trace(wf, width)
    assert str(err.value) == message


def test_trace_converges_within_bound():
    calls = []
    sym = symmetry(("R", "R"), 1)
    counted = WireFunction(sym.in_types, sym.out_types, lambda i: calls.append(i) or sym.step(i))
    trace(counted, 1)((1.0,))
    assert len(calls) == 2  # feedback width 1: two rounds, the second at the fixpoint


def _random_wire_function(rng: random.Random, n_in: int, n_out: int) -> WireFunction:
    """Outputs built from passthroughs, constants, and symbol applications."""
    plans = []
    for _ in range(n_out):
        kind = rng.choice(["pass", "const", "sin", "add"])
        if kind == "pass":
            plans.append(("pass", rng.randrange(n_in)))
        elif kind == "const":
            plans.append(("const", rng.uniform(-5, 5)))
        elif kind == "sin":
            plans.append(("sin", rng.randrange(n_in)))
        else:
            plans.append(("add", rng.randrange(n_in), rng.randrange(n_in)))

    def step(inputs):
        out = []
        for plan in plans:
            if plan[0] == "pass":
                out.append(inputs[plan[1]])
            elif plan[0] == "const":
                out.append(plan[1])
            elif plan[0] == "sin":
                v = inputs[plan[1]]
                out.append(BOTTOM if v is BOTTOM else math.sin(v))
            else:
                a, b = inputs[plan[1]], inputs[plan[2]]
                out.append(BOTTOM if a is BOTTOM or b is BOTTOM else a + b)
        return tuple(out)

    return WireFunction(("R",) * n_in, ("R",) * n_out, step)


def test_trace_naturality_on_random_functions():
    rng = random.Random(42)
    for _ in range(100):
        f = _random_wire_function(rng, 2, 2)
        tr_f = trace(f, 1)
        g_plan = rng.choice([math.sin, math.cos, lambda a: a, lambda a: a - 1.0])
        for x in (-1.0, 0.0, 2.5):
            # naturality in the straight-through input: tr(f o (g (x) id)) = tr(f) o g
            def pre(inputs):
                return f((g_plan(inputs[0]), inputs[1]))

            lhs = trace(WireFunction(("R", "R"), ("R", "R"), pre), 1)((x,))
            rhs = tr_f((g_plan(x),))
            assert lhs == rhs


def test_trace_detects_non_monotone_step():
    # a step that keeps changing its feedback value is flagged
    state = {"i": 0}

    def step(inputs):
        state["i"] += 1
        return (inputs[0], float(state["i"]))

    wf = WireFunction(("R", "R"), ("R", "R"), step)
    with pytest.raises(ModelError):
        trace(wf, 1)((0.0,))


def test_a_step_that_returns_a_list_is_a_model_error():
    wf = WireFunction(("R", "R"), ("R", "R"), lambda i: [i[1], i[0]])
    with pytest.raises(ModelError, match=r"^wire function produced a list, not a tuple$"):
        wf((1.0, 2.0))
    with pytest.raises(ModelError, match=r"^wire function produced a list, not a tuple$"):
        trace(wf, 1)((1.0,))


# -- interpretation ---------------------------------------------------------------


def test_interp_constant():
    wf = interp_int(EMPTY_ENV, Const(3.0))
    assert wf(()) == (3.0,)


def test_interp_unit_query():
    env = parse_env("k:R -o I")
    wf = interp_int(env, parse_term("k 2.0"))
    assert wf((UNIT,)) == (2.0, UNIT)


def test_interp_query_closure_applied():
    # sending a query and applying the symbol wrapper yields the composite
    m = parse_term(r"(\k:(R -o R). k 4.0) (\x:R. sin(x))")
    wf = interp_int(EMPTY_ENV, m)
    assert wf(()) == (math.sin(4.0),)


def test_interp_second_order_composition():
    n = parse_term(r"(\k:((R -o R) -o R). cos(k (\x:R. sin(x)))) (\k:(R -o R). k 2.0)")
    wf = interp_int(EMPTY_ENV, n)
    assert wf(()) == (math.cos(math.sin(2.0)),)


def test_interp_matches_eval_on_observables():
    cases = [
        "sin(cos(2.0))",
        "1.0 * 2.0 * 3.0",
        "let x (x) y = 1.0 * 2.0 in y * x",
        r"(\p:(R (x) R). let a (x) b = p in add(a, b)) (0.5 * 0.25)",
        "let * = * in 4.0 * *",
    ]
    for text in cases:
        m = parse_term(text)
        ty = typecheck(EMPTY_ENV, m)
        wf = interp_int(EMPTY_ENV, m)
        got = wf(())
        want = _flatten_value(evaluate(m))
        assert got == tuple(want), text


def _flatten_value(v):
    from linmetric.core import Pair as P, Const as C, Star as S

    if isinstance(v, C):
        return [v.value]
    if isinstance(v, S):
        return [UNIT]
    if isinstance(v, P):
        return _flatten_value(v.left) + _flatten_value(v.right)
    raise AssertionError(v)


def test_interp_open_function_wires():
    env = parse_env("x:R -o R")
    wf = interp_int(env, parse_term("x 3.0"))
    # input: x's reply; outputs: query to x, then the result (the reply)
    assert wf((10.0,)) == (3.0, 10.0)


@pytest.mark.parametrize(
    "env_text, text, outputs, evaluations",
    [
        ("h:(R -o R) -o R", r"h (\v:R. f(v))", (1.5, 1.5), 2),
        ("p:(R -o R) (x) R", "let g (x) y = p in f(g (f(y)))", (2.5, 1.5), 6),
        ("", r"(\x:(R -o R). x (f(1.0))) (\v:R. f(v))", (3.0,), 8),
        ("k:R -o I, j:I -o R", "let * = k (f(2.0)) in f(j (*))", (3.0, UNIT, 2.5), 3),
    ],
)
def test_feedback_rounds_evaluate_each_symbol_a_fixed_number_of_times(
    env_text, text, outputs, evaluations
):
    # every feedback round re-runs both sides of a cut, so these counts
    # pin how many rounds one strategy call takes
    calls = []

    def f(a):
        calls.append(a)
        return a + 1.0

    reg = SymbolRegistry([Symbol("f", 1, f)])
    env = parse_env(env_text) if env_text else EMPTY_ENV
    m = parse_term(text, reg)
    wf = interp_int(env, m, reg)
    in_types = wire_signature(env, typecheck(env, m, reg)).in_types
    assert wf(tuple(UNIT if t == "I" else 0.5 + i for i, t in enumerate(in_types))) == outputs
    assert len(calls) == evaluations


@pytest.mark.parametrize(
    "env_text, text, child, ty_text, check",
    [
        # y's new type has as many input as output wires, so y's own node
        # checks out, but the cut now routes 3 wires to k, which reads 2
        ("k:R -o R, y:R", "k y", 1, "R (x) (R -o R)", "premise input"),
        # the pair's premises check out, but it yields 2 wires for 1
        ("y:R, z:R", "let a (x) b = y * z in b * a", 0, "R", "result"),
    ],
)
def test_a_mis_routed_strategy_node_fails_when_built(env_text, text, child, ty_text, check):
    env = parse_env(env_text)
    d = derive(env, parse_term(text), REG)
    children = list(d.children)
    children[child] = dataclasses.replace(children[child], ty=parse_type(ty_text))
    with pytest.raises(ModelError, match=check):
        _interp(dataclasses.replace(d, children=tuple(children)), REG)
    # the strategy itself is still checked on every outside call
    wf = interp_int(env, parse_term(text))
    with pytest.raises(TypeError_):
        wf((1.0,) * (len(wf.in_types) + 1))


CORPUS_REG = corpus_registry()


def _outputs_agree(got: tuple, want: tuple) -> bool:
    return len(got) == len(want) and all(
        a is b if a is UNIT or b is UNIT or a is BOTTOM or b is BOTTOM else abs(a - b) <= 1e-9
        for a, b in zip(got, want)
    )


def _assert_strategy_agrees_on_a_generated_term(rng, env, ty):
    try:
        term = beta_normalize(gen_term(rng, env, ty, CORPUS_REG, fuel=rng.randint(2, 6)))
    except ValueError:
        assume(False)
    assume(term_size(term) <= 25)
    hs, _ = decompose(env, term, CORPUS_REG)
    wf = interp_int(env, term, CORPUS_REG)
    for _ in range(5):
        ins = tuple(UNIT if t == "I" else rng.uniform(-20, 20) for t in wf.in_types)
        assign = {f"x{i + 1}": v for i, v in enumerate(ins)}
        assert _outputs_agree(wf(ins), tuple(int_term_denotation(h, assign, CORPUS_REG) for h in hs)), term


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_strategy_agrees_with_decomposition_on_generated_terms(rng):
    # terms as gen.beta_normal_corpus draws them, with hypothesis's
    # choices in place of a seeded generator so a failure shrinks
    env, ty = gen_feasible_pair_site(rng)
    _assert_strategy_agrees_on_a_generated_term(rng, env, ty)


def _site_with_environment_outputs(rng):
    """A feasible site of up to four bindings whose environment has at
    least two output wires, or None after 64 draws."""
    for _ in range(64):
        env = gen_env(rng, max_bindings=4)
        ty = gen_type(rng, 2, rng.randint(1, 4))
        # the signature's outputs are the environment's, then the result's
        if feasible_site(env, ty) and wire_signature(env, ty).n - len(pos_atoms(ty)) >= 2:
            return env, ty
    return None


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_strategy_agrees_with_decomposition_with_several_environment_outputs(rng):
    # the corpus sites (at most two bindings) rarely give two environment
    # output wires, which is where _routes' gather order shows
    site = _site_with_environment_outputs(rng)
    assume(site is not None)
    _assert_strategy_agrees_on_a_generated_term(rng, *site)


# -- decomposition -----------------------------------------------------------------


def test_decompose_unit_query():
    env = parse_env("k:R -o I")
    hs, part = decompose(env, parse_term("k 2.0"))
    assert hs == [Const(2.0), Var("x1")]
    assert part == [frozenset(), frozenset({1})]


def test_decompose_constant():
    hs, _ = decompose(EMPTY_ENV, Const(3.0))
    assert hs == [Const(3.0)]


def test_decompose_figure_example():
    reg = fg_registry()
    env = parse_env("x:R -o R, y:R -o R, z:R -o R")
    m = parse_term("f(x (y 0.0), z 2.0)", reg)
    n = parse_term("g(x (z 1.0), y 3.0)", reg)
    hm, _ = decompose(env, m, reg)
    hn, _ = decompose(env, n, reg)
    assert hm == [Var("x2"), Const(0.0), Const(2.0), FnApp("f", (Var("x1"), Var("x3")))]
    assert hn == [Var("x3"), Const(3.0), Const(1.0), FnApp("g", (Var("x1"), Var("x2")))]
    labels = {"x1": "x", "x2": "y", "x3": "z"}
    assert [format_int_term(h, labels) for h in hm] == ["y", "0", "2", "f(x, z)"]
    assert sorted(format_int_term(h, labels) for h in hm) == sorted(["y", "f(x, z)", "0", "2"])
    assert sorted(format_int_term(h, labels) for h in hn) == sorted(["z", "g(x, y)", "3", "1"])


def test_decompose_requires_normal_form():
    with pytest.raises(ModelError):
        decompose(EMPTY_ENV, parse_term(r"(\x:R. x) 1.0"))


def test_decompose_lambda_queries():
    m = parse_term(r"\k:(R -o R). k 0.0")
    hs, _ = decompose(EMPTY_ENV, m)
    assert hs == [Const(0.0), Var("x1")]


def test_decompose_let_pair():
    env = parse_env("p:R (x) R")
    hs, _ = decompose(env, parse_term("let a (x) b = p in b * a"))
    assert hs == [Var("x2"), Var("x1")]


def test_decompose_let_star_drops_unit_reply():
    env = parse_env("k:R -o I")
    hs, part = decompose(env, parse_term("let * = k 2.0 in 5.0"))
    assert hs == [Const(2.0), Const(5.0)]
    assert part == [frozenset(), frozenset()]


def test_decompose_extensionality_on_examples():
    reg = fg_registry()
    cases = [
        ("x:R -o R, y:R -o R, z:R -o R", "f(x (y 0.0), z 2.0)"),
        ("x:R -o R, y:R -o R, z:R -o R", "g(x (z 1.0), y 3.0)"),
        ("k:R -o I", "k 2.0"),
        ("", r"\k:(R -o R). k 0.0"),
        ("p:R (x) R", "let a (x) b = p in b * a"),
        ("", r"\k:(R -o R). add(k 1.0, 2.0)"),
    ]
    rng = random.Random(5)
    for env_text, term_text in cases:
        env = parse_env(env_text)
        m = parse_term(term_text, reg)
        hs, _ = decompose(env, m, reg)
        wf = interp_int(env, m, reg)
        sig = wire_signature(env, typecheck(env, m, reg))
        for _ in range(25):
            ins = tuple(
                UNIT if t == "I" else rng.uniform(-20, 20) for t in sig.in_types
            )
            assign = {f"x{i + 1}": v for i, v in enumerate(ins)}
            assert _outputs_agree(wf(ins), tuple(int_term_denotation(h, assign, reg) for h in hs))


# -- distances ---------------------------------------------------------------------


def test_int_distance_rejects_terms_not_of_the_stated_type():
    with pytest.raises(TypeError_, match=r"^type mismatch in int_distance$"):
        int_distance(EMPTY_ENV, I, Const(1.0), Const(2.0), BATTERY, registry=REG)


def test_int_distance_unit_queries():
    env = parse_env("k:R -o I")
    d = int_distance(env, I, parse_term("k 2.0"), parse_term("k 3.0"), BATTERY)
    assert (d.lo, d.hi) == (1.0, 1.0)
    assert not d.normalized


def test_int_distance_query_closures():
    ty = parse_type("(R -o R) -o R")
    m = parse_term(r"\k:(R -o R). k 0.0")
    n = parse_term(r"\k:(R -o R). k 1.0")
    d = int_distance(EMPTY_ENV, ty, m, n, BATTERY)
    assert (d.lo, d.hi) == (1.0, 1.0)


def test_int_distance_constant_wrapper_still_separates():
    reg = SymbolRegistry.from_config(
        {
            "symbols": [
                {"name": "c", "arity": 1, "builtin": "const", "value": 7.0},
                {"name": "add", "arity": 2, "builtin": "add"},
            ]
        }
    )
    battery = ProbeBattery(reg, seed=0)
    ty = parse_type("(R -o R) -o R")
    m = parse_term(r"\k:(R -o R). c(k 0.0)", reg)
    n = parse_term(r"\k:(R -o R). c(k 1.0)", reg)
    d = int_distance(EMPTY_ENV, ty, m, n, battery, registry=reg)
    assert (d.lo, d.hi) == (1.0, 1.0)


def test_int_distance_normalizes_and_flags():
    ty = R
    m = parse_term(r"(\x:R. x) 1.0")
    n = parse_term("1.0")
    d = int_distance(EMPTY_ENV, ty, m, n, BATTERY)
    assert d.normalized
    assert (d.lo, d.hi) == (0.0, 0.0)


@pytest.mark.parametrize(
    "text, derivations", [("add(k 1.0, 2.0)", 2), (r"(\x:R. add(k x, 2.0)) 1.0", 3)]
)
def test_int_distance_derives_a_normal_term_once(monkeypatch, text, derivations):
    # each term's check derivation is decomposed if the term is
    # beta-normal; only a normalized term is derived again
    import linmetric.semint as semint

    calls = []
    derive_ = semint.derive
    monkeypatch.setattr(semint, "derive", lambda *a: calls.append(a) or derive_(*a))
    env = parse_env("k:R -o R")
    int_distance(env, R, parse_term(text), parse_term("add(k 1.0, 3.0)"), BATTERY)
    assert len(calls) == derivations


def test_int_distance_same_skeleton_literals():
    env = parse_env("k:R -o R")
    m = parse_term("add(k 1.0, 5.0)")
    n = parse_term("add(k 2.0, 7.0)")
    d = int_distance(env, R, m, n, BATTERY)
    # per-wire: |1-2| on the query wire; result add(x1,5) vs add(x1,7) has sup 2
    assert d.lo == 3.0
    assert d.hi == 3.0


def test_first_order_distance_cases():
    assert first_order_distance(Var("x1"), Var("x1"), BATTERY, REG).lo == 0.0
    d = first_order_distance(Const(2.0), Const(3.0), BATTERY, REG)
    assert (d.lo, d.hi) == (1.0, 1.0)
    d = first_order_distance(Var("x1"), Var("x2"), BATTERY, REG)
    assert d.hi == math.inf
    assert d.lo > 0.0
    d = first_order_distance(
        FnApp("sin", (Var("x1"),)), FnApp("cos", (Var("x1"),)), BATTERY, REG
    )
    assert d.hi == pytest.approx(math.sqrt(2.0))
    assert d.lo <= d.hi
    assert d.lo >= 1.3


def test_first_order_distance_sample_above_registry_gap_is_registry_error():
    reg = SymbolRegistry.from_config(
        {
            "symbols": [
                {"name": "sin", "arity": 1, "builtin": "sin"},
                {"name": "cos", "arity": 1, "builtin": "cos"},
            ],
            "gaps": [{"a": "sin", "b": "cos", "bound": 0.1}],
        }
    )
    h1, h2 = FnApp("sin", (Var("x1"),)), FnApp("cos", (Var("x1"),))
    with pytest.raises(RegistryError, match=r"\['sin/cos'\]"):
        first_order_distance(h1, h2, ProbeBattery(reg, seed=0), reg)


def test_a_registry_gap_gets_the_full_search():
    # the claimed gap is |sin(-10) - cos(-10)|, met at the battery's first
    # real; only a search past that point refutes it (1.4069707727072396)
    reg = SymbolRegistry.from_config(
        {
            "symbols": [
                {"name": "sin", "arity": 1, "builtin": "sin"},
                {"name": "cos", "arity": 1, "builtin": "cos"},
            ],
            "gaps": [{"a": "sin", "b": "cos", "bound": 1.383092639965822}],
        }
    )
    m, n = parse_term(r"\x:R. sin(x)", reg), parse_term(r"\x:R. cos(x)", reg)
    with pytest.raises(RegistryError, match="1.4069707727072396"):
        int_distance(EMPTY_ENV, parse_type("R -o R"), m, n, ProbeBattery(reg, seed=0), reg)


def test_sampled_gap_stops_at_a_literal_bound():
    calls = []

    def add(a, b):
        calls.append((a, b))
        return a + b

    reg = SymbolRegistry([Symbol("add", 2, add)])
    h1, h2 = FnApp("add", (Var("x1"), Const(1.0))), FnApp("add", (Var("x1"), Const(2.0)))
    battery = ProbeBattery(reg, seed=0)
    assert _sampled_gap(h1, h2, battery, reg, stop=1.0) == 1.0
    assert len(calls) == 2
    d = first_order_distance(h1, h2, battery, reg)
    assert (d.lo, d.hi, len(calls)) == (1.0, 1.0, 4)
    # with no bound the search walks the whole grid and the bisection rounds
    assert _sampled_gap(h1, h2, battery, reg) == 1.0
    assert len(calls) - 4 == 2 * (len(battery.reals[:16]) + 3 * 4)


def test_a_refuted_literal_bound_stays_a_model_error(monkeypatch):
    # the bound then rests on the engine's own arithmetic, not on a user's claim
    import linmetric.semint as semint

    monkeypatch.setattr(semint, "_sampled_gap", lambda *a: 100.0)
    with pytest.raises(ModelError):
        first_order_distance(Const(2.0), Const(3.0), BATTERY, REG)
    h1 = FnApp("add", (FnApp("sin", (Var("x1"),)), Const(1.0)))
    h2 = FnApp("add", (FnApp("cos", (Var("x1"),)), Const(2.0)))
    with pytest.raises(RegistryError, match=r"\['sin/cos'\]"):
        first_order_distance(h1, h2, BATTERY, REG)


def _reference_sampled_gap(h1, h2, battery, registry, stop=INF):
    """_sampled_gap's search, evaluating each probe with int_term_denotation
    one row at a time, and returning once the best gap reaches ``stop``."""
    vs = sorted(int_term_vars(h1) | int_term_vars(h2))

    def gap(assign):
        a = int_term_denotation(h1, assign, registry)
        b = int_term_denotation(h2, assign, registry)
        if a is BOTTOM or b is BOTTOM or a is UNIT or b is UNIT:
            return 0.0
        return abs(a - b)

    best, best_assign = 0.0, {v: 0.0 for v in vs}
    for combo in itertools.islice(itertools.product(battery.reals[:16], repeat=len(vs)), 4096):
        assign = dict(zip(vs, combo))
        g = gap(assign)
        if g > best:
            best, best_assign = g, assign
            if best >= stop:
                return best
    span = 8.0
    for _round in range(3):
        for v in vs:
            base = best_assign[v]
            for cand in (base - span, base - span / 2, base + span / 2, base + span):
                trial = dict(best_assign, **{v: cand})
                g = gap(trial)
                if g > best:
                    best, best_assign = g, trial
                    if best >= stop:
                        return best
        span /= 2
    return best


def test_sampled_gap_matches_reference_search():
    x1, x2, x3, x4 = (Var(f"x{i}") for i in range(1, 5))

    def add(a, b):
        return FnApp("add", (a, b))

    pairs = [
        (add(x1, FnApp("sin", (x2,))), add(FnApp("cos", (x1,)), x2)),
        (add(FnApp("sin", (x3,)), add(x1, x2)), add(x2, FnApp("cos", (x1,)))),
        # 16**4 grid points: the search keeps the first 4096
        (add(add(x1, x2), add(x3, x4)), add(add(FnApp("sin", (x1,)), x2), add(x3, FnApp("cos", (x4,))))),
    ]
    for h1, h2 in pairs:
        assert _sampled_gap(h1, h2, BATTERY, REG) == _reference_sampled_gap(h1, h2, BATTERY, REG)


def _generated_wire_pairs():
    """R wires of decompose over typed_pair_corpus that read at least 2
    variables between them: the first 25 that read 2 or 3, and all that
    read 4 or 5 (16**k rows then pass the cap) in 400 pairs."""
    small, large = [], []
    for env, ty, m, n in typed_pair_corpus(1, 400, CORPUS_REG):
        hm, _ = decompose(env, beta_normalize(m), CORPUS_REG)
        hn, _ = decompose(env, beta_normalize(n), CORPUS_REG)
        for h1, h2, wt in zip(hm, hn, wire_signature(env, ty).out_types):
            k = len(int_term_vars(h1) | int_term_vars(h2))
            if wt == "R" and h1 != h2 and k >= 2:
                (large if k >= 4 else small).append((h1, h2))
    return small[:25] + large


GENERATED_WIRES = _generated_wire_pairs()


@pytest.mark.parametrize("draws", [25, 2])
def test_sampled_gap_matches_reference_search_on_generated_wires(draws):
    # with 2 draws the grid has 9 reals, and the cap cuts 9**4 rows in
    # the middle of a block of the last variables
    battery = ProbeBattery(CORPUS_REG, seed=0, draws=draws)
    assert len(GENERATED_WIRES) >= 30
    assert sum(len(int_term_vars(a) | int_term_vars(b)) >= 4 for a, b in GENERATED_WIRES) >= 5
    for h1, h2 in GENERATED_WIRES:
        got = _sampled_gap(h1, h2, battery, CORPUS_REG)
        assert got == _reference_sampled_gap(h1, h2, battery, CORPUS_REG), (h1, h2)


def test_sampled_gap_stops_where_the_reference_search_stops():
    # the literal bound where every difference is a literal, and fractions
    # of the full gap: a third is reached in the grid, 0.99 often only in
    # the bisection; either may be reached part-way through a batch
    for h1, h2 in GENERATED_WIRES:
        full = _reference_sampled_gap(h1, h2, BATTERY, CORPUS_REG)
        stops = [full / 3, full * 0.99]
        diffs = literal_diffs(h1, h2)
        if diffs is not None and all(not isinstance(a, str) for _, a, _ in diffs):
            stops.append(sum(abs(a - b) for _, a, b in diffs))
        for stop in stops:
            want = _reference_sampled_gap(h1, h2, BATTERY, CORPUS_REG, stop)
            assert _sampled_gap(h1, h2, BATTERY, CORPUS_REG, stop) == want, (h1, h2, stop)


def test_sampled_gap_evaluates_a_subterm_once_per_value_of_its_variables():
    calls = []

    def sin(a):
        calls.append(a)
        return math.sin(a)

    reg = SymbolRegistry(
        [Symbol("add", 2, lambda a, b: a + b), Symbol("sin", 1, sin), Symbol("cos", 1, math.cos)]
    )
    x1, x2 = Var("x1"), Var("x2")
    h1 = FnApp("add", (FnApp("sin", (x1,)), x2))
    h2 = FnApp("add", (FnApp("cos", (x1,)), x2))
    _sampled_gap(h1, h2, ProbeBattery(reg, seed=0), reg)
    # the 256 grid rows come in batches of 1, 1, 2, 4, ..., 128 rows, and
    # sin(x1) runs once per value of x1 in each: 6 * 1 + 2 + 4 + 8 = 20;
    # the bisection then runs it on 2 variables * 4 trials * 3 rounds = 24
    assert len(calls) == 20 + 24


@pytest.mark.parametrize(
    "text, results",
    [("add(add(b 2.0, c 3.0), a 1.0)", (70.0,)), ("(b 2.0 * c 3.0) * a 1.0", (20.0, 40.0, 10.0))],
)
def test_environment_outputs_leave_in_environment_order(text, results):
    # the first premise uses b and c, the second a: their query wires
    # arrive as (b, c, a) and must leave as (a, b, c)
    env = parse_env("a:R -o R, b:R -o R, c:R -o R")
    m = parse_term(text)
    assert interp_int(env, m)((10.0, 20.0, 40.0)) == (1.0, 2.0, 3.0) + results
    hs, _ = decompose(env, m)
    assert hs[:3] == [Const(1.0), Const(2.0), Const(3.0)]


def test_a_bottom_argument_leaves_the_environment_outputs():
    # add's result is bottom, but k's query wire still carries 1.0 out
    wf = interp_int(parse_env("k:R -o R, x:R"), parse_term("add(k 1.0, x)"))
    assert wf((BOTTOM, 2.0)) == (1.0, BOTTOM)
    assert wf((3.0, BOTTOM)) == (1.0, BOTTOM)
    assert wf((3.0, 2.0)) == (1.0, 5.0)


# BLAKE2b of the outputs below, as the tuple-building strategies gave them
STRATEGY_OUTPUTS_DIGEST = "a876a339565ec241fcfd44312a0a4469"


def strategy_outputs_digest() -> str:
    """One digest of every output, written with ``repr``, of the
    strategies of the first 200 terms of ``beta_normal_corpus(0, ...)``
    at 8 seeded inputs each; in the last 4, each R-wire is ``BOTTOM``
    with probability 1/4."""
    digest = hashlib.blake2b(digest_size=16)
    rng = random.Random(0)
    for env, _ty, term in beta_normal_corpus(0, 200, registry=CORPUS_REG):
        wf = interp_int(env, term, CORPUS_REG)
        for k in range(8):
            ins = tuple(
                UNIT if t == "I" else BOTTOM if k >= 4 and rng.random() < 0.25 else rng.uniform(-20, 20)
                for t in wf.in_types
            )
            digest.update(repr(wf(ins)).encode())
    return digest.hexdigest()


def test_strategy_outputs_are_bit_identical():
    # the agreement tests compare within 1e-9; this pins the floats exactly
    assert strategy_outputs_digest() == STRATEGY_OUTPUTS_DIGEST


def test_ternary_symbol_agrees_across_engines():
    reg = SymbolRegistry([Symbol("add3", 3, lambda a, b, c: a + b + c)])
    env = env_of(("x", R))
    m = parse_term("add3(x, 1.0, 2.0)", reg)
    den = interp_den(env, m, reg)
    wf = interp_int(env, m, reg)
    (h,), _ = decompose(env, m, reg)
    for v in (-3.5, 0.0, 4.25):
        assert den((v,)) == wf((v,))[0] == int_term_denotation(h, {"x1": v}, reg) == v + 3.0
    assert den((BOTTOM,)) is BOTTOM
    assert int_term_denotation(h, {"x1": BOTTOM}, reg) is BOTTOM
    assert wf((BOTTOM,)) == (BOTTOM,)


def test_int_term_denotation_agrees_with_the_compiled_term():
    # one walk at one point gives what compiling the term and running the
    # closure gives, bottoms included
    rng = random.Random(5)
    for env, ty, term in beta_normal_corpus(5, 60, registry=CORPUS_REG):
        hs, _ = decompose(env, term, CORPUS_REG)
        in_types = wire_signature(env, ty).in_types
        for p_bottom in (0.0, 0.3, 1.0):
            a = {
                f"x{i + 1}": UNIT if t == "I" else BOTTOM if rng.random() < p_bottom else rng.uniform(-20, 20)
                for i, t in enumerate(in_types)
            }
            for h in hs:
                got = int_term_denotation(h, a, CORPUS_REG)
                want = compile_term(h, {n: n for n in a}, 0, CORPUS_REG)(a)
                if want is BOTTOM or want is UNIT:
                    assert got is want, h
                else:
                    assert got == want, h


def test_int_term_denotation_looks_up_a_symbol_before_its_arguments():
    with pytest.raises(RegistryError, match="'nosuch'"):
        int_term_denotation(FnApp("nosuch", (Var("x9"),)), {}, REG)
    with pytest.raises(KeyError):
        int_term_denotation(FnApp("sin", (Var("x9"),)), {}, REG)


class TaggedVar(Var):
    """Not a wire term: ``int_term_denotation`` dispatches on the exact class."""


class TaggedFnApp(FnApp):
    """Not a wire term either."""


@pytest.mark.parametrize(
    "bad",
    [
        TaggedVar("x1"),
        TaggedFnApp("sin", (Var("x1"),)),
        FnApp("sin", (TaggedVar("x1"),)),
        Lam("x1", R, Var("x1")),
    ],
)
def test_int_term_denotation_rejects_what_is_not_a_wire_term(bad):
    with pytest.raises(AssertionError):
        int_term_denotation(bad, {"x1": 1.0}, REG)


def test_den_values_compare_by_value():
    value = interp_den(EMPTY_ENV, parse_term("3.0 * *"))(())
    assert value == (3, UNIT) and value != (3.5, UNIT)
    assert value != (3.0, BOTTOM) and interp_den(EMPTY_ENV, parse_term("*"))(()) != 0.0


def test_first_order_distance_unit_wire():
    assert first_order_distance(Var("x1"), Star(), BATTERY, REG, wire_type="I").hi == 0.0


# -- diagrams ----------------------------------------------------------------------


def test_export_diagram_constant():
    dot = export_diagram(EMPTY_ENV, Const(3.0))
    assert "digraph wires" in dot
    assert 'label="3"' in dot
    assert "rank=sink" in dot


def test_export_diagram_notes_that_it_normalized_its_input():
    dot = export_diagram(EMPTY_ENV, parse_term(r"(\x:R. x) 3.0"))
    assert "  // input was normalized before rendering" in dot.splitlines()
    assert 'label="3"' in dot
    assert "normalized" not in export_diagram(EMPTY_ENV, Const(3.0))


def test_format_int_term_of_the_unit():
    assert format_int_term(Star()) == "*"


def test_export_diagram_unit_query():
    env = parse_env("k:R -o I")
    dot = export_diagram(env, parse_term("k 2.0"))
    assert 'label="2"' in dot
    assert "i0" in dot and "o1" in dot


def test_export_diagram_deterministic():
    reg = fg_registry()
    env = parse_env("x:R -o R, y:R -o R, z:R -o R")
    m = parse_term("f(x (y 0.0), z 2.0)", reg)
    assert export_diagram(env, m, reg) == export_diagram(env, m, reg)


def _assert_extensional(env_text, term_text, reg=None, samples=40):
    reg = reg if reg is not None else REG
    env = parse_env(env_text)
    m = parse_term(term_text, reg)
    ty = typecheck(env, m, reg)
    hs, _ = decompose(env, m, reg)
    wf = interp_int(env, m, reg)
    sig = wire_signature(env, ty)
    assert len(hs) == sig.n
    rng = random.Random(99)
    for _ in range(samples):
        ins = tuple(UNIT if t == "I" else rng.uniform(-10, 10) for t in sig.in_types)
        assign = {f"x{i + 1}": v for i, v in enumerate(ins)}
        assert _outputs_agree(wf(ins), tuple(int_term_denotation(h, assign, reg) for h in hs))
    return hs


def test_decompose_env_function_applied_to_env_function():
    # the argument's wires thread through the head variable's ports
    hs = _assert_extensional("x:(R -o I) -o R, k:R -o I", "x k")
    assert hs == [Var("x3"), Var("x1"), Var("x2")]


def test_decompose_env_function_applied_to_wrapper():
    hs = _assert_extensional("x:(R -o R) -o R", r"x (\v:R. sin(v))")
    assert hs == [FnApp("sin", (Var("x1"),)), Var("x2")]


def test_decompose_tensor_of_functions_env():
    _assert_extensional(
        "p:(R -o R) (x) (R -o I)",
        "let f (x) k = p in let * = k (f 1.0) in 2.0",
    )


def test_decompose_higher_order_result():
    _assert_extensional("", r"\x:(R -o R). \y:R. x (add(y, 1.0))")


def test_decompose_unit_function_chain():
    # the unit value in argument position takes parentheses: k (*)
    _assert_extensional("k:I -o I, j:I -o R", "let * = k (*) in j (*)")


def test_decompose_argument_under_pair():
    _assert_extensional("f:R -o R (x) R", "let a (x) b = f 3.0 in add(a, b)")


def test_decompose_second_order_with_inner_symbol():
    _assert_extensional(
        "h:(R -o R) -o R (x) R",
        r"let a (x) b = h (\v:R. cos(v)) in add(a, b)",
    )


def _polarity(t):
    """(positive, negative) atom counts of a type, counted without pos_atoms."""
    if isinstance(t, TLolli):
        a, r = _polarity(t.arg), _polarity(t.res)
        return a[1] + r[0], a[0] + r[1]
    if isinstance(t, TTensor):
        l, r = _polarity(t.left), _polarity(t.right)
        return l[0] + r[0], l[1] + r[1]
    return 1, 0


def test_wire_signature_agrees_with_polarity():
    from linmetric.gen import gen_type

    rng = random.Random(17)
    for _ in range(200):
        tys = [gen_type(rng, 2, rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        res = gen_type(rng, 2, rng.randint(1, 4))
        env = parse_env(", ".join(f"v{i}:{_ptype(t)}" for i, t in enumerate(tys)))
        sig = wire_signature(env, res)
        env_plus = sum(_polarity(t)[0] for t in tys)
        env_minus = sum(_polarity(t)[1] for t in tys)
        res_plus, res_minus = _polarity(res)
        assert sig.m == env_plus + res_minus
        assert sig.n == env_minus + res_plus


def _ptype(t):
    from linmetric.core import print_type

    return print_type(t)


def test_interp_captured_environment_through_application():
    # the argument closure consumes an ambient variable; its wire must
    # thread through the feedback composition
    env = parse_env("w:R")
    m = parse_term(r"(\k:(R -o R). k 2.0) (\x:R. add(x, w))")
    wf = interp_int(env, m)
    assert wf((5.0,)) == (7.0,)
    assert wf((-1.5,)) == (0.5,)


def test_interp_three_level_nesting_agrees_with_eval():
    m = parse_term(
        r"(\h:((R -o R) -o R). cos(h (\x:R. sin(x))))"
        r" (\k:(R -o R). add(k 1.0, k2))",
        REG,
    )
    # free variable k2 : R keeps one wire open
    env = parse_env("k2:R")
    wf = interp_int(env, m)
    got = wf((0.25,))
    want = math.cos(math.sin(1.0) + 0.25)
    assert abs(got[0] - want) <= 1e-12


def test_int_distance_on_non_normal_pair_with_env():
    env = parse_env("w:R")
    m = parse_term(r"(\k:(R -o R). k 2.0) (\x:R. add(x, w))")
    n = parse_term("add(3.0, w)")
    d = int_distance(env, R, m, n, BATTERY)
    assert d.normalized
    # normal forms are add(2,w) vs add(3,w): single aligned literal gap
    assert (d.lo, d.hi) == (1.0, 1.0)


def test_first_order_distance_folds_literal_subterms():
    h1 = FnApp("cos", (Const(-2.43),))
    h2 = FnApp("cos", (FnApp("add", (Const(0.0), Const(-2.43))),))
    d = first_order_distance(h1, h2, BATTERY, REG)
    assert (d.lo, d.hi) == (0.0, 0.0)


def test_int_distance_zero_on_folded_equal_pair():
    env = parse_env("w:R")
    m = parse_term("add(w, cos(-2.43))")
    n = parse_term("add(w, cos(add(0.0, -2.43)))")
    d = int_distance(env, R, m, n, BATTERY)
    assert (d.lo, d.hi) == (0.0, 0.0)
