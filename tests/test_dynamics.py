import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linmetric import dynamics, gen, metrics
from linmetric.core import (
    App,
    Const,
    EMPTY_ENV,
    EvalError,
    FnApp,
    I,
    Lam,
    LetPair,
    LetStar,
    Pair,
    R,
    STAR,
    Star,
    Symbol,
    SymbolRegistry,
    TLolli,
    TTensor,
    Var,
    default_registry,
    env_of,
    free_vars,
    parse_term,
    print_term,
    term_size,
    typecheck,
)
from linmetric.dynamics import (
    alpha_eq,
    beta_normalize,
    eq_canonical,
    eq_decide,
    evaluate,
    is_beta_normal,
    literal_diffs,
    substitute,
)

REG = default_registry()


# -- substitution ------------------------------------------------------------


def test_substitute_variable():
    assert substitute(Var("x"), "x", Const(5.0)) == Const(5.0)


def test_substitute_under_lambda():
    t = Lam("y", R, FnApp("add", (Var("x"), Var("y"))))
    out = substitute(t, "x", Const(2.0))
    assert out == Lam("y", R, FnApp("add", (Const(2.0), Var("y"))))


def test_substitute_pair():
    assert substitute(Pair(Var("x"), STAR), "x", Const(1.0)) == Pair(Const(1.0), STAR)


def test_substitute_avoids_capture():
    # (\y. x y)[x := y] must rename the binder
    t = Lam("y", R, App(Var("x"), Var("y")))
    out = substitute(t, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.var != "y"
    assert out.body == App(Var("y"), Var(out.var))


def test_substitute_names_depend_on_the_input_alone():
    t = Lam("y", R, App(Var("x"), Var("y")))
    first, second = substitute(t, "x", Var("y")), substitute(t, "x", Var("y"))
    assert first == second == Lam("y_0", R, App(Var("y"), Var("y_0")))


@pytest.mark.parametrize(
    "value, expected",
    [
        ("a", "let a_0 (x) b = p in add(a_0, add(b, a))"),
        ("add(a, b)", "let a_0 (x) b_0 = p in add(a_0, add(b_0, add(a, b)))"),
    ],
)
def test_substitute_renames_a_let_pair_binder_that_would_capture(value, expected):
    t = parse_term("let a (x) b = p in add(a, add(b, y))")
    value = parse_term(value)
    out = substitute(t, "y", value)
    assert out == parse_term(expected)
    assert free_vars(out) == {"p"} | free_vars(value)  # the substituted names stay free


def test_substitute_size_in_linear_term():
    t = parse_term(r"\y:R. add(x, y)")
    v = parse_term("sin(1.0)")
    out = substitute(t, "x", v)
    assert term_size(out) == term_size(t) + term_size(v) - 1


# -- evaluation ----------------------------------------------------------------


def substitution_evaluate(term, registry=None):
    """The evaluator ``evaluate`` replaced, kept as its oracle: it rewrites
    the term at every beta and let step, and sizes the term up front."""
    registry = registry if registry is not None else default_registry()
    limit = term_size(term)
    events = [0]

    def fire():
        events[0] += 1
        if events[0] > limit:
            raise EvalError("reduction events exceeded the term size (untyped input?)")

    def go(t):
        if isinstance(t, (Const, Star, Lam)):
            return t
        if isinstance(t, Var):
            raise EvalError(f"free variable {t.name!r} during evaluation")
        if isinstance(t, FnApp):
            sym = registry.get(t.symbol)
            vals = []
            for a in t.args:
                v = go(a)
                if not isinstance(v, Const):
                    raise EvalError(f"argument of {t.symbol!r} evaluated to a non-number")
                vals.append(v.value)
            fire()
            return Const(sym(*vals))
        if isinstance(t, App):
            f = go(t.fn)
            if not isinstance(f, Lam):
                raise EvalError("application head is not a function value")
            v = go(t.arg)
            fire()
            return go(substitute(f.body, f.var, v))
        if isinstance(t, Pair):
            return Pair(go(t.left), go(t.right))
        if isinstance(t, LetStar):
            s = go(t.scrutinee)
            if not isinstance(s, Star):
                raise EvalError("let * scrutinee did not evaluate to *")
            fire()
            return go(t.body)
        if isinstance(t, LetPair):
            s = go(t.scrutinee)
            if not isinstance(s, Pair):
                raise EvalError("let (x) scrutinee did not evaluate to a pair")
            fire()
            body = substitute(t.body, t.var1, s.left)
            body = substitute(body, t.var2, s.right)
            return go(body)
        raise AssertionError(t)

    return go(term)


def _outcome(evaluator, term, registry=None):
    try:
        return evaluator(term, registry)
    except Exception as e:
        return type(e), str(e)


def assert_agrees_with_substitution(term, registry=None):
    want = _outcome(substitution_evaluate, term, registry)
    assert _outcome(evaluate, term, registry) == want, print_term(term)
    return want


def test_evaluate_agrees_with_substitution_on_obs_contexts(monkeypatch):
    # every context obs_lower_bound tries, around both terms of a pair
    seen = []

    def checked(term, registry=None):
        seen.append(assert_agrees_with_substitution(term, registry))
        return evaluate(term, registry)

    monkeypatch.setattr(metrics, "evaluate", checked)
    reg = gen.corpus_registry()
    for env, ty, m, n in gen.typed_pair_corpus(0, 100, reg):
        metrics.obs_lower_bound(env, ty, m, n, registry=reg)
    assert len(seen) > 1000
    assert any(isinstance(v, Lam) for v in seen)  # read back


def test_evaluate_agrees_with_substitution_on_closed_observables():
    reg = gen.corpus_registry()
    for _, m in gen.closed_observable_corpus(0, 200, reg):
        assert_agrees_with_substitution(m, reg)


@pytest.mark.parametrize(
    "text",
    [
        r"(\x:R. \y:R. add(x, y)) 2.0",
        r"(\x:R. \y:R. \z:R. add(x, add(y, z))) 1.0 2.0",
        r"(\k:(R -o R). \x:R. k x) (\x:R. sin(x))",
        r"(\x:R. (\y:R. add(x, y)) * (\z:R. z)) 1.5",
        r"let a (x) b = 1.0 * 2.0 in (\u:R. add(u, a)) * (\v:R. add(v, b))",
        r"(\p:((R -o R) (x) R). let f (x) y = p in \z:R. f add(y, z)) ((\w:R. cos(w)) * 3.0)",
        # a name rebound inside a closure's scope
        r"(\x:R. (\y:R. \x:R. add(x, y)) x) 1.0",
        r"let x (x) y = 1.0 * 2.0 in let y (x) x = x * y in (\z:R. add(x, z)) * y",
    ],
)
def test_evaluate_reads_function_values_back(text):
    m = parse_term(text)
    typecheck(EMPTY_ENV, m)
    assert_agrees_with_substitution(m)


def test_evaluate_substitutes_a_closure_environment_into_its_lambda():
    got = evaluate(parse_term(r"(\x:R. \y:R. add(x, y)) 2.0"))
    assert got == parse_term(r"\y:R. add(2.0, y)")


@pytest.mark.parametrize(
    "text, name",
    [
        ("add(x, 1.0)", "x"),
        (r"(\x:R. add(x, y)) 1.0", "y"),
        (r"(\f:(R -o R). f 1.0) (\x:R. add(x, z))", "z"),
        ("let a (x) b = p in add(a, b)", "p"),
        (r"(\x:R. x) (let * = u in 1.0)", "u"),
    ],
)
def test_evaluate_raises_at_a_free_variable(text, name):
    want = assert_agrees_with_substitution(parse_term(text))
    assert want == (EvalError, f"free variable {name!r} during evaluation")


@pytest.mark.parametrize(
    "term",
    [
        parse_term("let x (x) x = 1.0 * 2.0 in x"),  # var1 wins
        parse_term(r"(\x:R. x) (\y:R. y)"),
        parse_term(r"add(\x:R. x, 1.0)"),
        App(Const(1.0), Const(2.0)),
        parse_term("let * = 1.0 in 2.0"),
        parse_term("let a (x) b = 1.0 in a"),
        FnApp("nope", (Const(1.0),)),
    ],
)
def test_evaluate_agrees_with_substitution_on_untyped_terms(term):
    assert_agrees_with_substitution(term)


def test_read_back_substitutes_only_free_variables(monkeypatch):
    # closure j is made where closures 1..j-1 are in scope, but uses none
    # of them; reading all of them back would take 2^k substitutions
    k = 12
    body = "z"
    for j in range(1, k + 1):
        body = f"a{j} ({body})"
    text = rf"\z:R. {body}"
    for j in range(k, 0, -1):
        text = rf"(\a{j}:R -o R. {text}) (\x:R. x)"
    m = parse_term(text)
    typecheck(EMPTY_ENV, m)
    calls = []

    def counting(*args):
        calls.append(args)
        return substitute(*args)

    monkeypatch.setattr(dynamics, "substitute", counting)
    assert evaluate(m) == substitution_evaluate(m)
    assert len(calls) == k


def test_evaluate_keeps_the_open_parts_of_a_function_value():
    # an unapplied closure is not evaluated, so its free names stay
    got = assert_agrees_with_substitution(parse_term(r"(\x:R. \y:R. add(x, z)) 1.0"))
    assert got == parse_term(r"\y:R. add(1.0, z)")


def test_eval_sin_zero():
    assert evaluate(parse_term("sin(0.0)")) == Const(0.0)


def test_eval_higher_order_application():
    # applying a query-sending closure to a symbol wrapper
    m = parse_term(r"(\k:(R -o R). k 3.0) (\x:R. sin(x))")
    assert evaluate(m) == Const(math.sin(3.0))


def test_eval_let_pair_swap():
    m = parse_term("let x (x) y = 1.0 * 2.0 in y * x")
    assert evaluate(m) == Pair(Const(2.0), Const(1.0))


def test_eval_let_star():
    assert evaluate(parse_term("let * = * in 4.0")) == Const(4.0)


def is_value(t) -> bool:
    if isinstance(t, (Const, Star, Lam)):
        return True
    if isinstance(t, Pair):
        return is_value(t.left) and is_value(t.right)
    return False


def test_eval_closed_terms_are_values():
    for text in [
        "sin(cos(1.0))",
        r"(\x:R. x) 5.0",
        "1.0 * (2.0 * *)",
        r"(\p:(R (x) R). let x (x) y = p in add(x, y)) (2.0 * 3.0)",
    ]:
        m = parse_term(text)
        typecheck(EMPTY_ENV, m)
        assert is_value(evaluate(m))


# -- normalization ---------------------------------------------------------------


def test_normalize_identity_application():
    assert beta_normalize(parse_term(r"(\x:R. x) 5.0")) == Const(5.0)


def test_normalization_guard_trips_at_the_step_past_its_bound():
    # (\x. x x) (\x. x x), of size 9, contracts to itself: the bound is set
    # at step 8 to 8 + 9 steps, so the 18th contraction is the last
    omega = App(Lam("x", R, App(Var("x"), Var("x"))), Lam("x", R, App(Var("x"), Var("x"))))
    steps: list = []
    with pytest.raises(AssertionError, match="size bound of a linear term"):
        beta_normalize(omega, steps)
    assert steps == [("beta", ())] * 18


def test_contracting_a_pair_does_not_capture_a_name_its_left_half_reads():
    # the binder y shadows the free y that the left half reads: the body's
    # x is that free y, its y is 1.0 (substituting one half after the other
    # gave add(1.0, 1.0), and canonicalization folded that to 2.0)
    env = env_of(("y", R))
    m = LetPair("x", "y", Pair(Var("y"), Const(1.0)), FnApp("add", (Var("x"), Var("y"))))
    assert typecheck(env, m) == R
    assert beta_normalize(m) == FnApp("add", (Var("y"), Const(1.0)))
    assert eq_canonical(m) == FnApp("add", (Var("y"), Const(1.0)))
    assert metrics.equ_upper_bound(env, R, m, parse_term("add(y, 2.0)"))[0] == 1.0


def test_normalize_under_binder():
    m = parse_term(r"\k:(R -o R). (\z:R. k z) 2.0")
    assert beta_normalize(m) == parse_term(r"\k:(R -o R). k 2.0")


def test_normalize_query_closure():
    # two contractions: apply the closure, then apply its argument
    m = parse_term(r"(\k:(R -o R). k 2.0) (\x:R. sin(x))")
    assert beta_normalize(m) == FnApp("sin", (Const(2.0),))


def test_normalize_bounds_its_steps_on_a_non_linear_term():
    # the size bound is taken only after 8 steps; past it, omega's
    # self-reproducing redex still stops the loop
    delta = Lam("x", R, App(Var("x"), Var("x")))
    with pytest.raises(AssertionError, match="size bound"):
        beta_normalize(App(delta, delta))
    chain = Const(5.0)
    for _ in range(30):
        chain = App(Lam("x", R, Var("x")), chain)
    assert beta_normalize(chain) == Const(5.0)


def test_is_beta_normal():
    assert is_beta_normal(parse_term(r"\x:R. x"))
    assert not is_beta_normal(parse_term(r"(\x:R. x) 5.0"))
    assert not is_beta_normal(parse_term("let * = * in 4.0"))
    assert is_beta_normal(parse_term("let * = y in 4.0"))


def test_normalize_preserves_type_and_eval():
    cases = [
        (EMPTY_ENV, r"(\x:R. x) 5.0"),
        (EMPTY_ENV, r"(\k:(R -o R). k 2.0) (\x:R. sin(x))"),
        (EMPTY_ENV, r"(\p:(R (x) R). let x (x) y = p in y * x) (1.0 * 2.0)"),
        (env_of(("k", TLolli(R, R))), r"(\z:R. k z) 2.0"),
    ]
    for env, text in cases:
        m = parse_term(text)
        n = beta_normalize(m)
        assert typecheck(env, m) == typecheck(env, n)
        if len(env) == 0:
            assert evaluate(m) == evaluate(n)


# -- equational theory ------------------------------------------------------------


def test_eq_canonical_beta_eta():
    m = parse_term(r"\x:R. (\y:R. y) x")
    assert eq_canonical(m) == parse_term(r"\x:R. x")


def test_eq_canonical_folds_literals():
    assert eq_canonical(parse_term("add(2.0, 3.0)")) == Const(5.0)


def test_eq_canonical_let_star_unit():
    assert eq_canonical(parse_term("let * = * in 4.0")) == Const(4.0)


def test_eq_canonical_eta_unit_law():
    m = parse_term("let * = k in *")  # k : I
    assert eq_canonical(m) == Var("k")


def test_eq_canonical_eta_pair_law():
    m = parse_term("let x (x) y = p in x * y")
    assert eq_canonical(m) == Var("p")


def test_eq_canonical_renames_a_let_binder_it_floats_past_a_sibling():
    env = env_of(("a", R), ("p", TTensor(R, R)))
    m = parse_term("add(let a (x) b = p in add(a, b), a)")
    out = eq_canonical(m)
    assert out == parse_term("let a_ (x) b = p in add(add(a_, b), a)")
    assert typecheck(env, out) == R and eq_decide(out, m)


def test_eq_canonical_unnests_a_let_in_a_let_scrutinee():
    env = env_of(("u", I), ("v", I), ("x", R))
    m = parse_term("let * = (let * = u in v) in x")
    out = eq_canonical(m)
    assert out == parse_term("let * = u in let * = v in x")
    assert typecheck(env, out) == R and eq_decide(out, m)


def test_eq_decide_reflexive():
    m = parse_term(r"\k:(R -o R). k (add(1.0, 1.0))")
    assert eq_decide(m, m)


def test_eq_decide_beta():
    assert eq_decide(parse_term(r"\x:R. (\y:R. y) x"), parse_term(r"\x:R. x"))


def test_eq_decide_distinct_constants():
    assert not eq_decide(Const(0.0), Const(1.0))


def test_eq_decide_eta():
    assert eq_decide(parse_term(r"\x:R. k x"), Var("k"))


def test_eq_decide_let_commute():
    a = parse_term("let * = j in let * = k in 3.0")
    b = parse_term("let * = k in let * = j in 3.0")
    assert eq_decide(a, b)


def test_eq_decide_let_extrusion():
    a = parse_term("add(let * = k in 1.0, 2.0)")
    b = parse_term("let * = k in add(1.0, 2.0)")
    assert eq_decide(a, b)


def test_eq_decide_alpha():
    assert eq_decide(parse_term(r"\x:R. x"), parse_term(r"\y:R. y"))


def test_eq_decide_respects_symbols():
    assert not eq_decide(parse_term(r"\x:R. x"), parse_term(r"\x:R. sin(x)"))


def test_alpha_eq():
    assert alpha_eq(parse_term(r"\x:R. x"), parse_term(r"\y:R. y"))
    assert not alpha_eq(parse_term(r"\x:R. x"), parse_term(r"\y:I. y"))
    assert alpha_eq(
        parse_term("let a (x) b = p in a * b"), parse_term("let c (x) d = p in c * d")
    )
    # rebound binders: the same pattern of bound names or not
    same = [
        (r"\x:R. \y:R. add(x, y)", r"\y:R. \x:R. add(y, x)"),
        ("let a (x) b = p in add(a, b)", "let b (x) a = p in add(b, a)"),
    ]
    crossed = [
        (r"\x:R. \y:R. add(x, y)", r"\y:R. \x:R. add(x, y)"),
        (r"\x:R. x", r"\y:R. x"),  # bound in one, free in the other
        ("let a (x) b = p in add(a, b)", "let b (x) a = p in add(a, b)"),
    ]
    for texts, want in ((same, []), (crossed, None)):
        for a, b in texts:
            a, b = parse_term(a), parse_term(b)
            assert literal_diffs(a, b) == want
            assert alpha_eq(a, b) is (want == [])
    # terms that differ only in one literal are not alpha-equal
    a, b = parse_term(r"\x:R. add(x, 1.0)"), parse_term(r"\y:R. add(y, 2.5)")
    assert literal_diffs(a, b) == [((0, 1), 1.0, 2.5)]
    assert not alpha_eq(a, b)
    # unequal symbols of the same arity are reported in preorder, before their arguments
    a, b = parse_term(r"\x:R. add(sin(x), 1.0)"), parse_term(r"\y:R. add(cos(y), 2.5)")
    assert literal_diffs(a, b) == [((0, 0), "sin", "cos"), ((0, 1), 1.0, 2.5)]
    a, b = parse_term(r"\x:R. sin(x)"), parse_term(r"\y:R. cos(y)")
    assert literal_diffs(a, b) == [((0,), "sin", "cos")]
    assert not alpha_eq(a, b)


# -- agreement property -------------------------------------------------------------


@st.composite
def closed_real_terms(draw, depth=3):
    """Closed terms of type R built from literals, symbols and redexes."""
    if depth == 0:
        return Const(draw(st.integers(min_value=-5, max_value=5)) * 0.5)
    kind = draw(st.integers(min_value=0, max_value=4))
    if kind == 0:
        return Const(draw(st.integers(min_value=-5, max_value=5)) * 0.5)
    if kind == 1:
        return FnApp("sin", (draw(closed_real_terms(depth=depth - 1)),))
    if kind == 2:
        a = draw(closed_real_terms(depth=depth - 1))
        b = draw(closed_real_terms(depth=depth - 1))
        return FnApp("add", (a, b))
    if kind == 3:
        body = draw(closed_real_terms(depth=depth - 1))
        return App(Lam("v", R, FnApp("add", (Var("v"), body))), Const(1.0))
    return LetStar(STAR, draw(closed_real_terms(depth=depth - 1)))


@given(closed_real_terms())
@settings(max_examples=80, deadline=None)
def test_eval_agrees_with_normalize(m):
    typecheck(EMPTY_ENV, m)
    assert evaluate(beta_normalize(m)) == evaluate(m)


@given(closed_real_terms())
@settings(max_examples=80, deadline=None)
def test_subject_reduction(m):
    assert typecheck(EMPTY_ENV, beta_normalize(m)) == typecheck(EMPTY_ENV, m) == R


@given(closed_real_terms())
@settings(max_examples=60, deadline=None)
def test_canonical_is_sound_for_closed_reals(m):
    # canonicalization preserves the evaluation result exactly
    c = eq_canonical(m)
    assert evaluate(c) == evaluate(m)


def test_eval_query_closure_with_symbol():
    # a second-order value sends a query, the argument wraps a symbol
    ma = parse_term(r"\k:(R -o R). k 2.0")
    f = parse_term(r"\x:R. sin(x)")
    assert evaluate(App(ma, f)) == evaluate(parse_term("sin(2.0)"))
    assert beta_normalize(App(ma, f)) == parse_term("sin(2.0)")


def test_eval_rejects_untyped_looping_term():
    from linmetric.dynamics import EvalError

    # self-application is untypeable; the event bound must trip, not hang
    omega = Lam("x", R, App(Var("x"), Var("x")))
    with pytest.raises(EvalError):
        evaluate(App(omega, omega))


GUARD = (EvalError, "reduction events exceeded the term size (untyped input?)")


def test_eval_guard_trips_on_self_application():
    omega = Lam("x", R, App(Var("x"), Var("x")))
    assert assert_agrees_with_substitution(App(omega, omega)) == GUARD


def test_eval_runs_an_untyped_term_whose_events_stay_within_its_size():
    # f is used twice, so the term is untyped: 3 events against a size of 9
    m = parse_term(r"(\f:R -o R. f (f 1.0)) (\x:R. x)")
    assert term_size(m) == 9
    assert assert_agrees_with_substitution(m) == Const(1.0)


@pytest.mark.parametrize("k, want_calls", [(6, 12), (7, 13)])
def test_eval_guard_trips_at_the_event_past_the_size(k, want_calls):
    # each application of f fires 3 events and adds 2 nodes: k = 6 fires
    # 19 events at size 19, k = 7 fires its 22nd at size 21, just before
    # the 14th call of s
    body = "1.0"
    for _ in range(k):
        body = f"f ({body})"
    calls = []
    reg = SymbolRegistry([Symbol("s", 1, lambda a: calls.append(a) or a)])
    m = parse_term(rf"(\f:R -o R. {body}) (\x:R. s(s(x)))", reg)
    assert term_size(m) == 2 * k + 7
    outcomes = []
    for evaluator in (substitution_evaluate, evaluate):
        calls.clear()
        outcomes.append(_outcome(evaluator, m, reg))
        assert len(calls) == want_calls
    assert outcomes[0] == outcomes[1] == (Const(1.0) if k == 6 else GUARD)


def test_eval_of_a_typed_term_never_sizes_it(monkeypatch):
    def refuse(t):
        raise AssertionError("term_size called")

    monkeypatch.setattr(dynamics, "term_size", refuse)
    for text in [
        r"(\k:(R -o R). k 3.0) (\x:R. sin(x))",
        r"(\x:R. \y:R. add(x, y)) 2.0",
        r"(\p:(R (x) R). let x (x) y = p in add(x, y)) (2.0 * 3.0)",
        r"(\g:((R -o R) -o R). g (\x:R. cos(x))) (\h:(R -o R). h 1.0)",
    ]:
        m = parse_term(text)
        typecheck(EMPTY_ENV, m)
        evaluate(m)
    reg = gen.corpus_registry()
    for _, m in gen.closed_observable_corpus(0, 50, reg):
        evaluate(m, reg)


def test_eq_decide_swapped_unit_lets_under_binders():
    # eta-contraction must not erase the chain before it can be ordered
    m = parse_term(r"\w1:I. \w2:I. let * = w1 in let * = w2 in *")
    n = parse_term(r"let * = * in \w1:I. \w2:I. let * = w2 in let * = w1 in *")
    assert eq_decide(m, n)
