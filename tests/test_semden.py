import hashlib
import math

import pytest

from linmetric.core import (
    App,
    Const,
    EMPTY_ENV,
    FnApp,
    I,
    Lam,
    LetPair,
    Pair,
    ModelError,
    R,
    STAR,
    Symbol,
    SymbolRegistry,
    TLolli,
    TTensor,
    TypeError_,
    Var,
    default_registry,
    env_of,
    parse_term,
    parse_type,
    typecheck,
)
from linmetric.dynamics import evaluate
from linmetric.gen import corpus_registry, typed_pair_corpus
from linmetric.semden import (
    BOTTOM,
    ProbeBattery,
    UNIT,
    compile_term,
    den_distance,
    ground_l1,
    interp_den,
    replay_lo,
    sem_l1,
    value_dist_lower,
)

BATTERY = ProbeBattery(seed=0)


# -- interpretation -----------------------------------------------------------


def test_interp_constant():
    f = interp_den(EMPTY_ENV, Const(3.0))
    assert f(()) == 3.0


def test_interp_symbol_on_env_point():
    f = interp_den(env_of(("x", R)), parse_term("sin(x)"))
    assert f((0.0,)) == 0.0


def test_interp_redex_equals_value():
    m = parse_term(r"(\x:R. x) 5.0")
    assert interp_den(EMPTY_ENV, m)(()) == 5.0
    assert interp_den(EMPTY_ENV, Const(5.0))(()) == 5.0


def test_interp_strict_on_bottom():
    f = interp_den(env_of(("x", R)), parse_term("sin(x)"))
    assert f((BOTTOM,)) is BOTTOM


def test_interp_matches_eval_on_samples():
    cases = [
        "sin(cos(2.0))",
        r"(\k:(R -o R). k 2.0) (\x:R. add(x, 1.0))",
        "let x (x) y = 1.0 * 2.0 in y * x",
        r"(\p:(R (x) R). let a (x) b = p in add(a, b)) (0.5 * 0.25)",
        # rebound names: each binder reads its own environment slot
        r"((\x:R. (\x:R. \y:R. add(x, sin(y))) x) 1.0) 2.0",
        r"(\x:R (x) R. let x (x) y = x in add(x, sin(y))) (1.0 * 2.0)",
        # an inner let rebinds x: sin(x) there reads the let's x, not the λ's
        r"(\x:R. (\p:R (x) R. let x (x) z = p in add(sin(x), z)) (2.0 * x)) 1.0",
        # cos(x) does not depend on y and sin(1.0) depends on neither
        r"(\x:R. \y:R. add(cos(x), add(y, sin(1.0)))) 0.5 2.0",
    ]
    for text in cases:
        m = parse_term(text)
        ty = typecheck(EMPTY_ENV, m)
        got = interp_den(EMPTY_ENV, m)(())
        want = interp_den(EMPTY_ENV, evaluate(m))(())
        assert got == want, text


def test_lambda_runs_the_work_free_of_its_variable_once():
    calls = []

    def f(a):
        calls.append(a)
        return a

    reg = SymbolRegistry([Symbol("add", 2, lambda a, b: a + b), Symbol("f", 1, f)])
    m = parse_term(r"\y:R. add(f(v0), y)", reg)
    fun = interp_den(env_of(("v0", R)), m, reg)((3.0,))
    outs = [fun(float(i)) for i in range(32)]
    assert calls == [3.0]
    assert outs == [3.0 + i for i in range(32)]


def test_shared_subterm_under_a_rebinding_reads_the_inner_binding():
    # the same sin(x) object occurs free of y, and under a let that rebinds x
    s = FnApp("sin", (Var("x"),))
    inner = LetPair("x", "z", Var("p"), FnApp("add", (s, Var("z"))))
    body = FnApp("add", (FnApp("add", (s, Var("y"))), inner))
    fun = Lam("x", R, Lam("p", TTensor(R, R), Lam("y", R, body)))
    m = App(App(App(fun, Const(1.0)), Pair(Const(2.0), Const(3.0))), Const(4.0))
    got = interp_den(EMPTY_ENV, m)(())
    assert got == math.sin(1.0) + 4.0 + (math.sin(2.0) + 3.0)
    assert got == interp_den(EMPTY_ENV, evaluate(m))(())


def test_shared_subterm_under_a_lambda_that_rebinds_its_name():
    # as above, but a λ rebinds x alone, right under the λ that hoisted
    # sin(x), so no fresh binder between them drops the hoisted slot
    s = FnApp("sin", (Var("x"),))
    inner = App(Lam("x", R, FnApp("add", (s, Var("p")))), Const(2.0))
    fun = Lam("x", R, Lam("p", R, FnApp("add", (s, inner))))
    m = App(App(fun, Const(1.0)), Const(5.0))
    got = interp_den(EMPTY_ENV, m)(())
    assert got == math.sin(1.0) + (math.sin(2.0) + 5.0)
    assert got == interp_den(EMPTY_ENV, evaluate(m))(())


# -- ground metric -------------------------------------------------------------


def test_ground_l1_pairs():
    v = Pair(Const(0.0), Const(1.0))
    u = Pair(Const(1.0), Const(3.0))
    assert ground_l1(v, u, TTensor(R, R)) == 3.0


def test_ground_l1_unit():
    assert ground_l1(STAR, STAR, I) == 0.0


def test_ground_l1_reals():
    assert ground_l1(Const(2.0), Const(3.0), R) == 1.0


def test_ground_l1_type_mismatch():
    with pytest.raises(TypeError_):
        ground_l1(Const(1.0), STAR, R)


def test_sem_l1_bottom_is_infinite():
    assert sem_l1(1.0, BOTTOM, R) == math.inf
    assert sem_l1(BOTTOM, BOTTOM, R) == 0.0


def test_value_dist_lower_on_bottom_function_values():
    fn = TLolli(R, R)
    assert value_dist_lower(BOTTOM, BOTTOM, fn, BATTERY, 2) == (0.0, ())
    assert value_dist_lower(BOTTOM, abs, fn, BATTERY, 2) == (math.inf, ())
    assert value_dist_lower(abs, BOTTOM, fn, BATTERY, 2) == (math.inf, ())


# -- battery -------------------------------------------------------------------


def test_battery_deterministic():
    b1 = ProbeBattery(seed=7)
    b2 = ProbeBattery(seed=7)
    assert b1.reals == b2.reals
    t = parse_type("R -o R")
    x = 0.75
    for f1, f2 in zip(b1.samples(t), b2.samples(t)):
        assert f1(x) == f2(x)


def test_battery_builds_the_samples_of_each_type_once():
    for ty in (R, I, TTensor(R, I), parse_type("R -o R")):
        assert BATTERY.samples(ty) is BATTERY.samples(ty)


def test_battery_probes_no_function_past_the_depth_cut():
    # 6 constant maps and 9 curried ones; the first stage of each curried
    # map probes the (x) source, whose left part R -o R is at depth 0 and
    # gets no probe, so every sample reads the right part alone
    samples = ProbeBattery().samples(parse_type("((R -o R) (x) R) -o R -o R"))
    assert len(samples) == 15
    ident, shift = (lambda x: x), (lambda x: x + 3.0)
    assert all(f((ident, 0.5))(1.0) == f((shift, 0.5))(1.0) for f in samples)
    assert any(f((ident, 0.5))(1.0) != f((ident, 2.0))(1.0) for f in samples)


def test_battery_functions_nonexpansive():
    for tname in ["R -o R", "R (x) R -o R", "(R -o R) -o R", "R -o R (x) R"]:
        ty = parse_type(tname)
        for f in BATTERY.samples(ty):
            xs = BATTERY.samples(ty.arg)[:8]
            for a in xs:
                for b in xs:
                    da, _ = _exact_or_lower(f(a), f(b), ty.res)
                    dab = _exact_input_dist(a, b, ty.arg)
                    if dab is not None and da is not None:
                        assert da <= dab + 1e-9


def _exact_input_dist(a, b, ty):
    from linmetric.core import is_observable

    if is_observable(ty):
        return sem_l1(a, b, ty)
    return None  # function-typed inputs: skip, no exact metric available


def _exact_or_lower(a, b, ty):
    from linmetric.core import is_observable

    if is_observable(ty):
        return sem_l1(a, b, ty), True
    return None, False


# -- distances -----------------------------------------------------------------


def test_den_distance_one_point_codomain():
    env = env_of(("k", parse_type("R -o I")))
    d = den_distance(env, I, parse_term("k 2.0"), parse_term("k 3.0"), BATTERY)
    assert (d.lo, d.hi) == (0.0, 0.0)


def test_den_distance_constants_exact():
    d = den_distance(EMPTY_ENV, R, Const(0.0), Const(1.0), BATTERY)
    assert (d.lo, d.hi) == (1.0, 1.0)


def test_den_distance_observable_pairs():
    m = parse_term("0.0 * 1.0")
    n = parse_term("1.0 * 3.0")
    d = den_distance(EMPTY_ENV, TTensor(R, R), m, n, BATTERY)
    assert (d.lo, d.hi) == (3.0, 3.0)


def test_den_distance_query_closures():
    # closures sending different queries: probes separate them via add(x, c)
    ty = parse_type("(R -o R) -o R")
    m = parse_term(r"\k:(R -o R). k 0.0")
    n = parse_term(r"\k:(R -o R). k 1.0")
    d = den_distance(EMPTY_ENV, ty, m, n, BATTERY, upper_bound=1.0)
    assert d.lo == 1.0
    assert d.hi == 1.0


def test_den_distance_constant_wrapper_collapses():
    reg_cfg = {
        "symbols": [
            {"name": "c", "arity": 1, "builtin": "const", "value": 7.0},
            {"name": "add", "arity": 2, "builtin": "add"},
        ]
    }
    from linmetric.core import SymbolRegistry

    reg = SymbolRegistry.from_config(reg_cfg)
    battery = ProbeBattery(reg, seed=0)
    ty = parse_type("(R -o R) -o R")
    m = parse_term(r"\k:(R -o R). c(k 0.0)", reg)
    n = parse_term(r"\k:(R -o R). c(k 1.0)", reg)
    d = den_distance(EMPTY_ENV, ty, m, n, battery, upper_bound=1.0, registry=reg)
    assert d.lo == 0.0


def test_den_distance_lower_bound_above_upper_bound_is_model_error():
    env = env_of(("x", R))
    m = parse_term("add(x, 1.0)")
    with pytest.raises(ModelError):
        den_distance(env, R, m, parse_term("x"), BATTERY, upper_bound=0.5)


def test_den_distance_searches_in_full_at_a_zero_bound():
    # a bound of 0 is still tested: an unsound 0 is a ModelError
    calls = []

    def f(a):
        calls.append(a)
        return a

    reg = SymbolRegistry([Symbol("add", 2, lambda a, b: a + b), Symbol("f", 1, f)])
    env = env_of(("v0", R), ("k", TLolli(R, R)))
    m = parse_term("add(f(v0), k 1.0)", reg)
    battery = ProbeBattery(reg, seed=0)
    d = den_distance(env, R, m, m, battery, upper_bound=0.0, registry=reg)
    assert (d.lo, d.hi) == (0.0, 0.0)
    assert calls
    with pytest.raises(ModelError):
        den_distance(env, R, m, parse_term("add(f(v0), k 2.0)", reg), battery, 0, 0.0, reg)


def test_den_distance_witness_replays():
    ty = parse_type("(R -o R) -o R")
    m = parse_term(r"\k:(R -o R). k 0.0")
    n = parse_term(r"\k:(R -o R). k 1.0")
    d = den_distance(EMPTY_ENV, ty, m, n, BATTERY, upper_bound=1.0)
    assert d.lo_witness is not None
    assert replay_lo(EMPTY_ENV, ty, m, n, d.lo_witness, BATTERY) == d.lo


def test_den_distance_applies_two_arguments_by_default():
    # the maps differ only after their third argument
    ty = parse_type("R -o R -o R -o R")
    m = parse_term(r"\x:R. \y:R. \z:R. add(add(x, y), z)")
    n = parse_term(r"\x:R. \y:R. \z:R. add(add(x, y), add(z, 1.0))")
    assert den_distance(EMPTY_ENV, ty, m, n, BATTERY).lo == 0.0
    d = den_distance(EMPTY_ENV, ty, m, n, BATTERY, depth=3)
    assert d.lo == pytest.approx(1.0)
    # a witness replays only at the depth that found it
    assert replay_lo(EMPTY_ENV, ty, m, n, d.lo_witness, BATTERY) == 0.0
    assert replay_lo(EMPTY_ENV, ty, m, n, d.lo_witness, BATTERY, depth=3) == d.lo


def test_den_distance_tensor_prefix_lower_bound():
    # distance on literal prefixes dominates the prefix L1 even with closure tails
    m = parse_term(r"1.0 * 2.0 * (\x:R. x)")
    n = parse_term(r"2.0 * 4.0 * (\x:R. x)")
    ty = typecheck(EMPTY_ENV, m)
    d = den_distance(EMPTY_ENV, ty, m, n, BATTERY, upper_bound=3.0)
    assert d.lo >= 3.0 - 1e-12


def test_den_distance_nonexpansive_in_env():
    # denotations are non-expansive: distances shrink under any env probe
    env = env_of(("x", R))
    m = parse_term("sin(x)")
    f = interp_den(env, m)
    for a in (0.0, 1.0, -2.0):
        for b in (0.5, -1.5):
            da = sem_l1(f((a,)), f((b,)), R)
            assert da <= abs(a - b) + 1e-12


def test_den_distance_witnesses_replay_in_generated_environments():
    # witness points in environments of tensor or function type carry
    # tuples and callables, and replay to the reported lower bound
    reg = corpus_registry()
    battery = ProbeBattery(reg, seed=0)
    replayed = structured = 0
    for env, ty, m, n in typed_pair_corpus(0, 150, reg):
        d = den_distance(env, ty, m, n, battery, registry=reg)
        if d.lo_witness is None:
            continue
        assert replay_lo(env, ty, m, n, d.lo_witness, battery, registry=reg) == d.lo
        replayed += 1
        structured += any(isinstance(t, (TTensor, TLolli)) for _, t in env)
    assert replayed >= 50 and structured >= 10


# -- ill-typed input -----------------------------------------------------------


def test_applying_a_non_function_is_a_type_error():
    with pytest.raises(TypeError_, match="application of a non-function denotation"):
        interp_den(EMPTY_ENV, App(Const(1.0), Const(2.0)))(())


def test_let_pair_of_a_non_pair_is_a_type_error():
    m = LetPair("a", "b", Const(1.0), Var("a"))
    with pytest.raises(TypeError_, match=r"let \(x\) scrutinee did not denote a pair"):
        interp_den(EMPTY_ENV, m)(())


def test_application_and_let_pair_pass_bottom_through():
    f = interp_den(env_of(("f", TLolli(R, R))), parse_term("f 1.0"))
    assert f((BOTTOM,)) is BOTTOM
    m = parse_term("let a (x) b = p in add(a, b)")
    assert interp_den(env_of(("p", TTensor(R, R))), m)((BOTTOM,)) is BOTTOM


def test_a_point_of_the_wrong_arity_is_a_type_error():
    f = interp_den(env_of(("x", R)), Var("x"))
    with pytest.raises(TypeError_, match=r"^environment point has arity 2, expected 1$"):
        f((1.0, 2.0))


def test_den_distance_rejects_terms_not_of_the_stated_type():
    with pytest.raises(TypeError_, match=r"^den_distance: terms do not have the stated type$"):
        den_distance(EMPTY_ENV, TLolli(R, R), Const(1.0), Const(2.0))


@pytest.mark.parametrize(
    "m, n", [(Const(1.0), Lam("x", R, Var("x"))), (Lam("x", R, Var("x")), Const(1.0))]
)
def test_den_distance_rejects_one_term_not_of_the_stated_type(m, n):
    with pytest.raises(TypeError_, match=r"^den_distance: terms do not have the stated type$"):
        den_distance(EMPTY_ENV, R, m, n)


class TaggedVar(Var):
    """Not a term: ``compile_term`` dispatches on the exact class."""


class TaggedFnApp(FnApp):
    """Not a term either."""


@pytest.mark.parametrize(
    "bad", [TaggedVar("x"), TaggedFnApp("sin", (Var("x"),)), FnApp("sin", (TaggedVar("x"),))]
)
def test_compile_term_rejects_a_subclass_of_a_term_class(bad):
    with pytest.raises(AssertionError):
        compile_term(bad, {"x": 0}, 1, corpus_registry())


# BLAKE2b of the outputs below, as the lift_real probes gave them
BATTERY_OUTPUTS_DIGEST = "be00b45ff47935a956bf8b1ddef62e71"
# the same for the shapes each battery template builds, as the hand-written
# closures gave them before the templates replaced them
TEMPLATE_OUTPUTS_DIGEST = "4ddeee4e6c22607d3d366f95f6691b4e"

BATTERY_TYPES = (
    "R -o R",
    "R (x) R -o R",
    "(R -o R) -o R",
    "R -o R (x) R",
    "R -o R -o R",
    "I (x) R -o R",
)
TEMPLATE_TYPES = (
    "I -o R",
    "(R -o I) -o R",
    "I -o R -o R",
    "(R (x) R) -o R -o R",
    "((R -o R) (x) R) -o R -o R",
    "R -o (R -o R) (x) R",
    "(R -o R -o R) -o R",
    "(R -o (R (x) R)) -o R",
    "R (x) I -o R",
    "(I (x) I) -o R",
)

READBACK_POINTS = (-7.5, -1.0, 0.0, 0.25, 3.0, BOTTOM)


def readback(v):
    """``v`` as data: a function becomes its results at ``READBACK_POINTS``."""
    if callable(v):
        return tuple([readback(v(x)) for x in READBACK_POINTS])
    if type(v) is tuple:
        return tuple([readback(x) for x in v])
    return v


def battery_outputs_digest(types) -> str:
    """One digest of every function sample of ``types``, for the default
    and the corpus registry at seeds 0 and 977, applied to the argument
    type's first 8 samples and to ``BOTTOM`` and written with ``repr``
    after ``readback``."""
    digest = hashlib.blake2b(digest_size=16)
    for reg in (default_registry(), corpus_registry()):
        for seed in (0, 977):
            battery = ProbeBattery(reg, seed=seed)
            for text in types:
                ty = parse_type(text)
                args = [*battery.samples(ty.arg)[:8], BOTTOM]
                for f in battery.samples(ty):
                    digest.update(repr([readback(f(a)) for a in args]).encode())
    return digest.hexdigest()


def test_battery_outputs_are_bit_identical():
    assert battery_outputs_digest(BATTERY_TYPES) == BATTERY_OUTPUTS_DIGEST


def test_battery_template_outputs_are_bit_identical():
    assert battery_outputs_digest(TEMPLATE_TYPES) == TEMPLATE_OUTPUTS_DIGEST
