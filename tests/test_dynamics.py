import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linmetric.core import (
    App,
    Const,
    EMPTY_ENV,
    FnApp,
    Lam,
    LetPair,
    LetStar,
    Pair,
    R,
    STAR,
    Star,
    TLolli,
    Var,
    default_registry,
    env_of,
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


def test_substitute_size_in_linear_term():
    t = parse_term(r"\y:R. add(x, y)")
    v = parse_term("sin(1.0)")
    out = substitute(t, "x", v)
    assert term_size(out) == term_size(t) + term_size(v) - 1


# -- evaluation ----------------------------------------------------------------


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


def test_eval_closed_terms_are_values():
    for text in [
        "sin(cos(1.0))",
        r"(\x:R. x) 5.0",
        "1.0 * (2.0 * *)",
        r"(\p:(R (x) R). let x (x) y = p in add(x, y)) (2.0 * 3.0)",
    ]:
        m = parse_term(text)
        typecheck(EMPTY_ENV, m)
        v = evaluate(m)
        from linmetric.core import is_value

        assert is_value(v)


# -- normalization ---------------------------------------------------------------


def test_normalize_identity_application():
    assert beta_normalize(parse_term(r"(\x:R. x) 5.0")) == Const(5.0)


def test_normalize_under_binder():
    m = parse_term(r"\k:(R -o R). (\z:R. k z) 2.0")
    assert beta_normalize(m) == parse_term(r"\k:(R -o R). k 2.0")


def test_normalize_query_closure():
    # two contractions: apply the closure, then apply its argument
    m = parse_term(r"(\k:(R -o R). k 2.0) (\x:R. sin(x))")
    assert beta_normalize(m) == FnApp("sin", (Const(2.0),))


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


def test_eq_decide_swapped_unit_lets_under_binders():
    # eta-contraction must not erase the chain before it can be ordered
    m = parse_term(r"\w1:I. \w2:I. let * = w1 in let * = w2 in *")
    n = parse_term(r"let * = * in \w1:I. \w2:I. let * = w2 in let * = w1 in *")
    assert eq_decide(m, n)
