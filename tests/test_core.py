import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from linmetric import core
from linmetric.core import (
    App,
    Const,
    EMPTY_ENV,
    Env,
    EvalError,
    FnApp,
    HOLE,
    I,
    Lam,
    LetPair,
    LetStar,
    MAX_NESTING,
    Pair,
    ParseError,
    R,
    RegistryError,
    STAR,
    SymbolRegistry,
    Symbol,
    TLolli,
    TTensor,
    Ty,
    TypeError_,
    Var,
    _Checker,
    check_context,
    children,
    const_paths,
    default_registry,
    derive,
    env_of,
    free_vars,
    neg_atoms,
    parse_env,
    parse_term,
    parse_type,
    paths,
    plug,
    pos_atoms,
    print_term,
    print_type,
    replace_at,
    search,
    subterm_at,
    typecheck,
)
from linmetric.gen import corpus_registry, gen_feasible_pair_site, gen_term, mutate, typed_pair_corpus

REG = default_registry()


# -- parsing ---------------------------------------------------------------


def test_parse_lambda_application():
    t = parse_term(r"\k:(R -o R). k 0.0")
    assert t == Lam("k", TLolli(R, R), App(Var("k"), Const(0.0)))


def test_parse_constant_application_is_syntax_error():
    with pytest.raises(ParseError):
        parse_term("0.0 (x) 1.0")


def test_parse_fnapp():
    t = parse_term("add(2.0, 3.0)")
    assert t == FnApp("add", (Const(2.0), Const(3.0)))


def test_parse_unknown_symbol():
    with pytest.raises(ParseError):
        parse_term("frob(2.0)")


def test_parse_fnapp_arity_mismatch():
    with pytest.raises(ParseError):
        parse_term("add(2.0)")


def test_parse_tensor_and_lets():
    t = parse_term("let x (x) y = 1.0 * 2.0 in y * x")
    assert t == LetPair("x", "y", Pair(Const(1.0), Const(2.0)), Pair(Var("y"), Var("x")))
    t = parse_term("let * = * in 4.0")
    assert t == LetStar(STAR, Const(4.0))


def test_parse_parenthesized_variable_application():
    t = parse_term("k (x)")
    assert t == App(Var("k"), Var("x"))


def test_tensor_is_left_associative():
    t = parse_term("1.0 * 2.0 * 3.0")
    assert t == Pair(Pair(Const(1.0), Const(2.0)), Const(3.0))
    ty = parse_type("R (x) R (x) I")
    assert ty == TTensor(TTensor(R, R), I)


def test_lolli_is_right_associative():
    assert parse_type("R -o R -o R") == TLolli(R, TLolli(R, R))
    assert parse_type("(R -o R) -o R") == TLolli(TLolli(R, R), R)
    assert parse_type("R (x) R -o R") == TLolli(TTensor(R, R), R)


def test_roundtrip_terms():
    texts = [
        r"\k:(R -o R). k 0.0",
        "add(2.0, sin(3.0))",
        "let x (x) y = 1.0 * 2.0 in y * x",
        "let * = * in 4.0",
        r"(\x:R. x) 5.0",
        r"\p:(R (x) R). let x (x) y = p in add(x, y)",
        "1.0 * 2.0 * (3.0 * 4.0)",
        r"\x:R. \y:I. let * = y in x",
    ]
    for text in texts:
        t = parse_term(text)
        assert parse_term(print_term(t)) == t


def test_roundtrip_types():
    for text in ["R", "I", "R -o R", "R (x) R (x) ((R (x) R -o R) -o R)", "(R -o I) (x) R"]:
        ty = parse_type(text)
        assert parse_type(print_type(ty)) == ty


# -- typechecking ----------------------------------------------------------


def test_typecheck_examples():
    t = parse_term(r"\k:(R -o R). k 0.0")
    assert typecheck(EMPTY_ENV, t) == TLolli(TLolli(R, R), R)


def test_typecheck_linearity_reuse():
    t = parse_term("x * x")
    with pytest.raises(TypeError_):
        typecheck(env_of(("x", R)), t)


def test_typecheck_unused():
    with pytest.raises(TypeError_):
        typecheck(env_of(("x", R)), Const(1.0))


def test_typecheck_unbound():
    with pytest.raises(TypeError_):
        typecheck(EMPTY_ENV, Var("x"))


def test_typecheck_unused_binder():
    with pytest.raises(TypeError_):
        typecheck(EMPTY_ENV, parse_term(r"\x:R. 3.0"))


def test_typecheck_ma_example():
    # pair of reals tensored with a second-order closure
    ma = parse_term(r"0.0 * 0.0 * (\k:(R (x) R -o R). k (0.0 * 0.0))")
    ty = typecheck(EMPTY_ENV, ma)
    expected = TTensor(TTensor(R, R), TLolli(TLolli(TTensor(R, R), R), R))
    assert ty == expected
    assert print_type(ty) == "R (x) R (x) ((R (x) R -o R) -o R)"


def test_typecheck_fnapp_requires_reals():
    with pytest.raises(TypeError_):
        typecheck(EMPTY_ENV, FnApp("sin", (STAR,)))


def test_typecheck_app_mismatch():
    t = App(Lam("x", R, Var("x")), STAR)
    with pytest.raises(TypeError_):
        typecheck(EMPTY_ENV, t)


def test_typecheck_interleaved_split():
    # environment (a, b, c) split across a pair as (a, c) and (b)
    t = parse_term("add(a, c) * b")
    env = env_of(("a", R), ("b", R), ("c", R))
    assert typecheck(env, t) == TTensor(R, R)


def _premise_envs_follow_free_variables(d):
    """The typing rules read declaratively: a premise's env is its node's
    restricted to the premise's free variables, with the binders appended
    under λ and in a let (x) body; each split lists the premises' envs
    less those binders."""
    t, env = d.term, d.env
    assert len(d.children) == len(children(t))
    parts = []
    for i, (c, dc) in enumerate(zip(children(t), d.children)):
        binders = ()
        if isinstance(t, Lam):
            binders = ((t.var, t.ann),)
        elif isinstance(t, LetPair) and i == 1:
            scrut = d.children[0].ty
            binders = ((t.var1, scrut.left), (t.var2, scrut.right))
        outer = env.restrict(free_vars(c) - {name for name, _ in binders})
        assert dc.env == Env(outer.bindings + binders)
        parts.append(outer.names())
        _premise_envs_follow_free_variables(dc)
    assert d.splits == (() if isinstance(t, Lam) or not parts else (tuple(parts),))


SHADOWING = [
    (EMPTY_ENV, r"\x:R. (\x:R. x) x", TLolli(R, R)),
    (env_of(("x", R)), "let x (x) y = x * 1.0 in add(x, y)", R),
    (env_of(("x", R)), "add(x, let x (x) y = 1.0 * 2.0 in add(x, y))", R),
    (env_of(("x", R), ("y", R)), r"(\x:R. add(x, y)) x", R),
    (env_of(("x", R), ("y", R)), "let x (x) z = x * 1.0 in add(add(x, z), y)", R),
]


def test_premise_envs_follow_free_variables():
    registry = corpus_registry()
    corpus = typed_pair_corpus(24, 60, registry)
    # each environment in its own order and reversed, so that scope order is not name order
    cases = [(e, t) for env, _, m, n in corpus for e in (env, Env(env.bindings[::-1])) for t in (m, n)]
    cases += [(env, parse_term(text)) for env, text, _ in SHADOWING]
    for env, t in cases:
        d = derive(env, t, registry)
        assert d.env == env
        _premise_envs_follow_free_variables(d)


@pytest.mark.parametrize("env, text, ty", SHADOWING)
def test_a_binder_shadows_an_outer_name(env, text, ty):
    d = derive(env, parse_term(text))
    assert (d.ty, d.env) == (ty, env)


def test_hole_env_must_be_the_scope_part_it_names_in_order():
    ctx = parse_term(r"\x:R. \y:R. add([-], 1.0)")
    dst = (EMPTY_ENV, TLolli(R, TLolli(R, R)))
    assert check_context(ctx, (env_of(("x", R), ("y", R)), R), dst)
    assert not check_context(ctx, (env_of(("y", R), ("x", R)), R), dst)
    assert not check_context(ctx, (env_of(("x", R), ("y", I)), R), dst)


def test_hole_uses_the_innermost_binding_of_a_name():
    # plugging any x:R |- M : R gives (\x:R. M) x, typed under x:R
    ctx = parse_term(r"(\x:R. [-]) x")
    assert check_context(ctx, (env_of(("x", R)), R), (env_of(("x", R)), R))


_F3 = SymbolRegistry([Symbol("add", 2, lambda a, b: a + b), Symbol("f3", 3, lambda a, b, c: a)])

# (env, term, registry, the TypeError_ text): one case per message _Checker raises
CHECKER_ERRORS = [
    (EMPTY_ENV, Var("x"), REG, "unbound variable 'x'"),
    (EMPTY_ENV, HOLE, REG, "hole in a plain term"),
    (env_of(("x", R)), FnApp("sin", (Var("x"), Const(1.0))), REG, "symbol 'sin' has arity 1, got 2"),
    (EMPTY_ENV, FnApp("sin", (STAR,)), REG, "argument of 'sin' must be R, got I"),
    (EMPTY_ENV, App(Const(1.0), Const(2.0)), REG, "application head has type R, not a function"),
    (EMPTY_ENV, App(Lam("x", R, Var("x")), STAR), REG, "argument type I does not match R"),
    (EMPTY_ENV, LetStar(Const(1.0), STAR), REG, "let * scrutinee must be I, got R"),
    (EMPTY_ENV, LetPair("a", "b", Const(1.0), STAR), REG, "let (x) scrutinee must be a tensor, got R"),
    (EMPTY_ENV, LetPair("a", "a", Pair(STAR, STAR), STAR), REG, "let (x) binds 'a' twice"),
    (EMPTY_ENV, Lam("x", R, Const(3.0)), REG, "bound variable 'x' unused (linearity violation)"),
    (
        EMPTY_ENV,
        LetPair("a", "b", Pair(Const(1.0), Const(2.0)), Var("a")),
        REG,
        "bound variable 'b' unused (linearity violation)",
    ),
    (env_of(("x", R)), Pair(Var("x"), Var("x")), REG, "variable(s) used twice: ['x'] (linearity violation)"),
    # the first premise that repeats a name is reported, with the names it repeats
    (
        env_of(("x", R), ("y", R)),
        FnApp("f3", (FnApp("add", (Var("x"), Var("y"))), Var("x"), Var("y"))),
        _F3,
        "variable(s) used twice: ['x'] (linearity violation)",
    ),
    (env_of(("x", R), ("y", R), ("z", R)), Var("y"), REG, "unused variable(s): ['x', 'z'] (linearity violation)"),
]


@pytest.mark.parametrize("env, t, registry, message", CHECKER_ERRORS)
def test_checker_error_messages(env, t, registry, message):
    with pytest.raises(TypeError_) as e:
        typecheck(env, t, registry)
    assert str(e.value) == message


def test_hole_error_message():
    ctx = parse_term(r"\x:R. \y:R. add([-], 1.0)")
    checker = _Checker(REG, hole=(env_of(("y", R), ("x", R)), R))
    with pytest.raises(TypeError_) as e:
        checker.check(EMPTY_ENV, ctx)
    assert str(e.value) == "hole expects environment [('y', R), ('x', R)], got [('x', R), ('y', R)]"


def test_environments_from_outside_the_checker_reject_a_repeated_name():
    for build in (
        lambda: Env((("x", R), ("x", R))),
        lambda: env_of(("x", R), ("y", I), ("x", R)),
        lambda: parse_env("x:R, x:R"),
    ):
        with pytest.raises(TypeError_, match="duplicate variable in environment"):
            build()


def test_derive_builds_its_environments_without_the_duplicate_check(monkeypatch):
    env = env_of(("p", TTensor(R, R)), ("z", R))
    t = parse_term(r"let a (x) b = p in (\y:R. add(add(a, y), b)) z")
    runs = []
    checked = Env.__post_init__
    monkeypatch.setattr(Env, "__post_init__", lambda self: runs.append(self) or checked(self))
    d = derive(env, t)
    assert (d.ty, d.env) == (R, env)
    assert runs == []


def test_only_derive_builds_derivation_and_env_nodes(monkeypatch):
    built = []
    for name in ("_derivation", "_env"):
        make = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, _make=make: built.append(a) or _make(*a))
    env = env_of(("p", TTensor(R, R)), ("z", R))
    t = parse_term(r"let a (x) b = p in (\y:R. add(add(a, y), b)) z")
    assert typecheck(env, t) == R
    ctx = parse_term(r"\x:R. \y:R. add([-], 1.0)")
    assert check_context(ctx, (env_of(("x", R), ("y", R)), R), (EMPTY_ENV, TLolli(R, TLolli(R, R))))
    assert not check_context(ctx, (env_of(("y", R), ("x", R)), R), (EMPTY_ENV, TLolli(R, TLolli(R, R))))
    assert built == []
    assert derive(env, t).env == env
    assert built


def _same_verdict(env, t, registry):
    """``typecheck`` gives ``derive``'s type, or raises the same message."""
    try:
        d = derive(env, t, registry)
    except TypeError_ as e:
        with pytest.raises(TypeError_) as got:
            typecheck(env, t, registry)
        assert str(got.value) == str(e)
        return None
    assert typecheck(env, t, registry) == d.ty
    return d


def _assert_well_formed(d):
    """Every node's env re-validates, no split uses a name twice, and the
    premise envs follow the free variables."""
    stack = [d]
    while stack:
        node = stack.pop()
        assert Env(node.env.bindings) == node.env
        for split in node.splits:
            assert sum(map(len, split)) == len(set().union(*split))
        stack.extend(node.children)
    _premise_envs_follow_free_variables(d)


def _spoil(rng, t, names):
    """``t`` with one random position replaced by a variable, often ill-typed."""
    return replace_at(t, rng.choice(list(paths(t))), Var(rng.choice(names)))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_checker_on_generated_terms(rng):
    # terms as gen draws them, with hypothesis's choices in place of a
    # seeded generator so that a failure shrinks
    registry = corpus_registry()
    env, ty = gen_feasible_pair_site(rng)
    m = gen_term(rng, env, ty, registry, fuel=rng.randint(1, 5))
    d = _same_verdict(env, m, registry)
    assert (d.ty, d.env) == (ty, env)
    _assert_well_formed(d)
    # environment names, gen's binder names and an unbound name
    names = ["v0", "v1", "w1", "w2", "w3", "x"]
    for n in (mutate(rng, m), _spoil(rng, mutate(rng, m), names)):
        d = _same_verdict(env, n, registry)
        if d is None:
            continue
        assert isinstance(d.ty, Ty) and d.env == env
        _assert_well_formed(d)


# -- polarity ---------------------------------------------------------------


def _polarity(types):
    return sum(len(pos_atoms(t)) for t in types), sum(len(neg_atoms(t)) for t in types)


def test_polarity_examples():
    assert _polarity([parse_type("R (x) R -o R")]) == (1, 2)
    assert _polarity([]) == (0, 0)
    assert _polarity([parse_type("R -o R")] * 3) == (3, 3)


def test_polarity_unit_counts_like_real():
    assert pos_atoms(I) == ("I",)
    assert pos_atoms(parse_type("R -o I")) == ("I",)
    assert neg_atoms(parse_type("R -o I")) == ("R",)


def test_polarity_additive():
    # a tensor's atoms are its parts' atoms, left to right
    ts = [parse_type("R -o R"), parse_type("R (x) I"), parse_type("(R -o R) -o R")]
    whole = TTensor(ts[0], TTensor(ts[1], ts[2]))
    assert pos_atoms(whole) == sum((pos_atoms(t) for t in ts), ())
    assert neg_atoms(whole) == sum((neg_atoms(t) for t in ts), ())


# -- positions and contexts --------------------------------------------------


def test_paths_are_preorder_leftmost_first():
    t = parse_term("add(sin(1.0), 2.0) * 3.0")
    assert list(paths(t)) == [(), (0,), (0, 0), (0, 0, 0), (0, 1), (1,)]
    assert const_paths(t) == [(0, 0, 0), (0, 1), (1,)]
    assert [subterm_at(t, p).value for p in const_paths(t)] == [1.0, 2.0, 3.0]


def test_replace_at_and_subterm_at_round_trip():
    t = parse_term(r"\x:R. let a (x) b = x * 1.0 in add(a, b)")
    for p in paths(t):
        sub = subterm_at(t, p)
        assert replace_at(t, p, sub) == t
        ctx = replace_at(t, p, HOLE)
        assert subterm_at(ctx, p) == HOLE
        assert plug(ctx, sub) == t
    assert replace_at(t, (0, 1, 0), Const(5.0)) == parse_term(
        r"\x:R. let a (x) b = x * 1.0 in add(5.0, b)"
    )


def test_plug_captures_on_purpose():
    assert plug(parse_term(r"\x:R. [-]"), Var("x")) == Lam("x", R, Var("x"))
    assert plug(parse_term("let a (x) b = [-] in a * b"), Var("a")) == parse_term(
        "let a (x) b = a in a * b"
    )


def test_context_identity():
    assert check_context(HOLE, (EMPTY_ENV, R), (EMPTY_ENV, R))


def test_context_fnapp():
    ctx = parse_term("add([-], 1.0)")
    assert check_context(ctx, (EMPTY_ENV, R), (EMPTY_ENV, R))


def test_context_linearity_violation():
    # hole environment consumed twice
    ctx = Lam("x", R, FnApp("add", (Var("x"), HOLE)))
    src = (env_of(("x", R)), R)
    assert not check_context(ctx, src, (EMPTY_ENV, TLolli(R, R)))


def test_context_wrong_target():
    ctx = parse_term("add([-], 1.0)")
    assert not check_context(ctx, (EMPTY_ENV, R), (EMPTY_ENV, I))


def test_context_closes_environment():
    ctx = parse_term(r"(\k:(R -o R). [-]) (\x:R. x)")
    src = (env_of(("k", TLolli(R, R))), R)
    assert check_context(ctx, src, (EMPTY_ENV, R))


# -- registry ---------------------------------------------------------------


def test_registry_from_config():
    reg = SymbolRegistry.from_config(
        {
            "symbols": [
                {"name": "sin", "arity": 1, "builtin": "sin"},
                {"name": "c", "arity": 1, "builtin": "const", "value": 7.0},
            ]
        }
    )
    assert reg.get("c")(123.0) == 7.0
    assert "sin" in reg
    reg.validate_nonexpansive(seed=3, samples=200)


def test_registry_rejects_expansive_scale():
    with pytest.raises(Exception):
        SymbolRegistry.from_config(
            {"symbols": [{"name": "s", "arity": 1, "builtin": "scale_le1", "value": 2.0}]}
        )


def test_default_registry_nonexpansive():
    default_registry().validate_nonexpansive(seed=11, samples=1000)


def test_registry_validation_catches_violation():
    bad = SymbolRegistry([Symbol("dbl", 1, lambda a: 2 * a)])
    with pytest.raises(Exception):
        bad.validate_nonexpansive(seed=0, samples=50)


def test_parse_env():
    env = parse_env("k:R -o I, x:R")
    assert env.bindings == (("k", TLolli(R, I)), ("x", R))
    assert parse_env(" x' : R ,_a1:I").bindings == (("x'", R), ("_a1", I))


@pytest.mark.parametrize(
    "text, message",
    [
        ("x y:R", "expected a variable name, found 'x y' (at offset 0)"),
        (":R", "expected a variable name, found ':' (at offset 0)"),
        ("x:R,  :R", "expected a variable name, found ':' (at offset 6)"),
        ("x:R, 1:R", "expected a variable name, found '1' (at offset 5)"),
        ("let:R", "expected a variable name, found 'let' (at offset 0)"),
        ("x:R, in:R", "expected a variable name, found 'in' (at offset 5)"),
        ("x\u00e9:R", "expected a variable name, found 'x\u00e9' (at offset 0)"),
        # a bad type is reported at its offset in the whole environment
        ("x:R, y:", "expected a type, found end of input (at offset 7)"),
        ("x:R, y:R (x)", "expected a type, found end of input (at offset 12)"),
        ("x:R, y: Q", "expected a type, found 'Q' (at offset 8)"),
    ],
)
def test_parse_env_rejects_bad_entries_at_their_offset(text, message):
    with pytest.raises(ParseError) as e:
        parse_env(text)
    assert str(e.value) == message


def test_lexer_rejects_a_letter_outside_ascii():
    # not an identifier: taken as an empty one, it made the lexer loop forever
    for text, at in (("\u00e9", 0), ("x\u00e9", 1), ("\\\u03bb:R. \u03bb", 1)):
        with pytest.raises(ParseError, match=f"unexpected character .* \\(at offset {at}\\)"):
            parse_term(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("\u0663", "unexpected character '\u0663' (at offset 0)"),
        ("1\u0663", "unexpected character '\u0663' (at offset 1)"),
        ("\u0661.\u0665", "unexpected character '\u0661' (at offset 0)"),
        ("-\u0663", "unexpected character '-' (at offset 0)"),
        ("1e\u0663", "bad numeric literal '1e' (at offset 0)"),
        ("add(\u0663\u0663, 1.0)", "unexpected character '\u0663' (at offset 4)"),
    ],
)
def test_lexer_reads_only_ascii_digits(text, message):
    # float() accepts digits of every script, so the lexer must not pass them on
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert str(e.value) == message


def test_registry_rejects_unknown_kind():
    with pytest.raises(Exception):
        SymbolRegistry.from_config({"symbols": [{"name": "evil", "arity": 1, "builtin": "exec"}]})


def test_parser_number_edges():
    assert parse_term("1e3") == parse_term("1000.0")
    assert parse_term("-2.5").value == -2.5
    with pytest.raises(ParseError):
        parse_term("1.2.3")
    for text in ("1e999", "-1e999", "add(1.0, 2e400)"):
        with pytest.raises(ParseError, match="out of range"):
            parse_term(text)


@pytest.mark.parametrize(
    "config",
    [
        {"symbols": [{"name": "s", "arity": 1, "builtin": "scale_le1", "value": math.nan}]},
        {"symbols": [{"name": "c", "arity": 1, "builtin": "const", "value": math.inf}]},
        {"symbols": [{"name": "c", "arity": 1, "builtin": "const", "value": "7"}]},
        {"gaps": [{"a": "sin", "b": "cos", "bound": math.nan}]},
        {"gaps": [{"a": "sin", "b": "cos", "bound": -1.0}]},
    ],
)
def test_registry_rejects_non_finite_values_and_bad_gaps(config):
    with pytest.raises(RegistryError):
        SymbolRegistry.from_config(config)


@pytest.mark.parametrize(
    "config",
    [
        {"gaps": [{"a": "c", "b": "d", "bound": "abc"}]},
        {"gaps": [{"a": "c", "bound": 1.0}]},
        {"symbols": [{"arity": 1, "builtin": "sin"}]},
        [],
        {"symbols": 5},
        {"gaps": {"a": "sin", "b": "cos", "bound": 1.0}},
        {"symbols": [5]},
        {"gaps": [None]},
        {"symbols": [{"name": 5, "builtin": "sin"}, {"name": "a", "builtin": "add"}]},
        {"gaps": [{"a": "sin", "b": ["cos"], "bound": 1.0}]},
        {"gaps": [{"a": 1, "b": "cos", "bound": 1.0}]},
        {"symbols": [{"name": "c", "builtin": "const", "value": 10**400}]},
        {"gaps": [{"a": "sin", "b": "cos", "bound": 10**400}]},
    ],
)
def test_registry_rejects_malformed_entries(config):
    with pytest.raises(RegistryError):
        SymbolRegistry.from_config(config)


@pytest.mark.parametrize(
    "config, field",
    [
        ({"symbols": [{"name": "c", "builtin": "const", "value": True}]}, "value True"),
        ({"symbols": [{"name": "c", "builtin": "const", "value": "7.0"}]}, "value '7.0'"),
        ({"symbols": [{"name": "s", "builtin": "sin", "arity": True}]}, "arity 1, not True"),
        ({"symbols": [{"name": "s", "builtin": "sin", "arity": "1"}]}, "arity 1, not '1'"),
        ({"symbols": [{"name": "s", "builtin": "sin", "arity": 1.0}]}, "arity 1, not 1.0"),
        ({"gaps": [{"a": "sin", "b": "cos", "bound": "1.5"}]}, "bound '1.5'"),
        ({"gaps": [{"a": "sin", "b": "cos", "bound": True}]}, "bound True"),
        ({"gaps": [{"a": "sin", "b": "cos", "bound": False}]}, "bound False"),
    ],
)
def test_registry_rejects_booleans_and_strings_as_numbers(config, field):
    # Python's bool is an int and float() reads strings, but JSON keeps them apart
    with pytest.raises(RegistryError, match=re.escape(field)):
        SymbolRegistry.from_config(config)


def test_registry_stores_values_as_floats():
    reg = SymbolRegistry.from_config({"symbols": [{"name": "c", "builtin": "const", "value": 7}]})
    assert reg.get("c")(1.0) == 7.0 and isinstance(reg.get("c")(1.0), float)


def test_symbol_call_rejects_results_that_are_not_finite():
    reg = default_registry()
    assert reg.get("add")(1.0, 2.0) == 3.0
    with pytest.raises(EvalError, match="not a finite number"):
        reg.get("add")(1e308, 1e308)
    with pytest.raises(EvalError):
        reg.get("sin")(math.inf)


def test_parser_nesting_limit():
    deep = MAX_NESTING - 1
    assert parse_term("(" * deep + "1.0" + ")" * deep) == Const(1.0)
    sins = parse_term("sin(" * deep + "1.0" + ")" * deep)
    assert print_term(sins).count("sin") == deep
    for text in (
        "(" * 3000 + "1.0" + ")" * 3000,
        "sin(" * (MAX_NESTING + 1) + "1.0" + ")" * (MAX_NESTING + 1),
        " * ".join(["1.0"] * (MAX_NESTING + 1)),  # a left-nested chain of pairs
        "k" + " 1.0" * (MAX_NESTING + 1),  # a left-nested chain of applications
    ):
        with pytest.raises(ParseError, match="nests deeper"):
            parse_term(text)
    with pytest.raises(ParseError, match="nests deeper"):
        parse_type(" (x) ".join(["R"] * (MAX_NESTING + 1)))
    with pytest.raises(ParseError, match="nests deeper"):
        parse_type("R -o " * 3000 + "R")


@pytest.mark.parametrize(
    "text, message",
    [
        # a '[' that does not open "[-]", and a '-' that ends the input
        ("[x]", "unexpected character '[' (at offset 0)"),
        ("[-", "unexpected character '[' (at offset 0)"),
        ("1.0 -", "unexpected character '-' (at offset 4)"),
    ],
)
def test_lexer_rejects_a_stray_bracket_or_minus(text, message):
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "prefix, arg, at",
    [
        ("", "1.0", 400),
        # the λ and its body take two levels: the 99th sin's argument is the 101st
        ("\\x:R. ", "x", 402),
        ("\\x:R. ", "add(x, 1.0)", 402),
        ("\\x:R. ", "add(1.0, x)", 402),
    ],
)
def test_a_lone_symbol_argument_counts_as_a_nesting_level(prefix, arg, at):
    # a name or literal argument is a parse_term call, so it must fail at
    # its own offset, not through the height walk at 0
    depth = MAX_NESTING - len(prefix) // 6 - arg.count("(")
    with pytest.raises(ParseError) as e:
        parse_term(prefix + "sin(" * depth + arg + ")" * depth)
    assert str(e.value) == f"input nests deeper than {MAX_NESTING} levels (at offset {at})"
    assert parse_term(prefix + "sin(" * (depth - 1) + arg + ")" * (depth - 1))


def test_registry_accepts_an_infinite_gap():
    reg = SymbolRegistry.from_config({"gaps": [{"a": "min", "b": "max", "bound": math.inf}]})
    assert reg.gap("max", "min") == math.inf


def test_registry_accepts_a_zero_gap():
    reg = SymbolRegistry.from_config({"gaps": [{"a": "min", "b": "max", "bound": 0.0}]})
    assert reg.gap("max", "min") == 0.0


def test_names_of_arity():
    reg = default_registry()
    assert reg.names_of_arity(1) == ["cos", "sin"]
    assert reg.names_of_arity(2) == ["add"]
    assert reg.names_of_arity(3) == []
    reg = corpus_registry()
    assert reg.names_of_arity(1) == ["cos", "sin"]
    assert reg.names_of_arity(2) == ["add", "max", "min"]


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_term, r"(\x:R. x) *", "unexpected end of input (at offset 11)"),
        (parse_term, "(1.0", "expected ')', found end of input (at offset 4)"),
        (parse_type, "R (x)", "expected a type, found end of input (at offset 5)"),
        (parse_term, "let a", "expected '(x)' in pair pattern, found end of input (at offset 5)"),
        (parse_term, "let * = *", "expected 'in', found end of input (at offset 9)"),
        (parse_env, "x:R,", "expected an environment entry 'name:type', found end of input (at offset 4)"),
        # the '(' 'x' ')' look-ahead runs into the end of the input
        (parse_term, "let a (", "expected '(x)' in pair pattern, found '(' (at offset 6)"),
        (parse_term, "let a (x", "expected '(x)' in pair pattern, found '(' (at offset 6)"),
        (parse_type, "R (", "trailing input '(' (at offset 2)"),
        (parse_type, "R (x", "trailing input '(' (at offset 2)"),
    ],
)
def test_parse_errors_name_the_end_of_input(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_parser_rejects_symbol_as_variable():
    with pytest.raises(ParseError):
        parse_term(r"\sin:R. sin")


# -- lower-bound search ------------------------------------------------------


def _until(pairs):
    """``pairs``, then an error if pulled once more."""
    yield from pairs
    raise AssertionError("pulled past the stop")


def test_search_keeps_the_first_of_equal_scores():
    assert search([(1.0, "a"), (2.0, "b"), (2.0, "c"), (0.5, "d")]) == (2.0, "b")


def test_search_stops_without_pulling_another_pair():
    assert search(_until([(0.5, "a"), (1.0, "b")]), stop=1.0) == (1.0, "b")
    assert search(_until([(0.5, "a"), (3.0, "b")]), stop=1.0) == (3.0, "b")


def test_search_returns_the_start_when_nothing_beats_it():
    assert search([], best=0.7, witness="w") == (0.7, "w")
    assert search([(0.7, "a"), (0.2, "b")], best=0.7, witness="w") == (0.7, "w")
    assert search([(0.0, "a")]) == (0.0, None)


def test_search_returns_at_an_infinite_score():
    assert search(_until([(1.0, "a"), (math.inf, "b")])) == (math.inf, "b")
