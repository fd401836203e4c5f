"""Independent oracles for the tree walks that read leaf children in the
parent's frame: ``free_vars``, ``literal_diffs`` and the linear checker,
each against a small reference walk written here, on generated terms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from linmetric.core import (
    App,
    Const,
    FnApp,
    Hole,
    I,
    Lam,
    LetPair,
    LetStar,
    LinError,
    Pair,
    R,
    Star,
    TLolli,
    TTensor,
    TypeError_,
    Var,
    children,
    free_vars,
    parse_term,
    paths,
    replace_at,
    subterms,
    typecheck,
)
from linmetric.dynamics import alpha_eq, eq_canonical, literal_diffs
from linmetric.gen import corpus_registry, equal_variant, gen_feasible_pair_site, gen_term, mutate

REG = corpus_registry()


def generated_pair(rng: random.Random):
    """``(env, ty, m, n)`` drawn as ``gen.typed_pair_corpus`` draws one pair."""
    while True:
        env, ty = gen_feasible_pair_site(rng)
        try:
            m = gen_term(rng, env, ty, REG, fuel=rng.randint(1, 5))
        except ValueError:
            continue
        roll = rng.random()
        n = m if roll < 0.2 else mutate(rng, m) if roll < 0.6 else equal_variant(rng, m, ty, REG)
        return env, ty, m, n


def spoiled(rng: random.Random, t):
    """``t`` with one position replaced by a name, often ill-typed."""
    return replace_at(t, rng.choice(list(paths(t))), Var(rng.choice(["v0", "v1", "w1", "w2", "x"])))


# -- references ------------------------------------------------------------


def ref_free_vars(t) -> set:
    match t:
        case Var(name=name):
            return {name}
        case Lam(var=x, body=body):
            return ref_free_vars(body) - {x}
        case LetPair(var1=a, var2=b, scrutinee=s, body=body):
            return ref_free_vars(s) | (ref_free_vars(body) - {a, b})
    return set().union(*map(ref_free_vars, children(t)))


def nameless(t):
    """Preorder tokens of ``t`` with each bound name replaced by its
    binder's depth (de Bruijn levels), and the literals and symbols taken
    out as ``(position, value)``, also in preorder."""
    tokens, values = [], []

    def go(t, path, bound, depth):
        match t:
            case Var(name=name):
                tokens.append(("var", bound.get(name, name)))
            case Const(value=v):
                tokens.append(("const",))
                values.append((path, v))
            case FnApp(symbol=f, args=args):
                tokens.append(("fn", len(args)))
                values.append((path, f))
                for i, a in enumerate(args):
                    go(a, path + (i,), bound, depth)
            case Lam(var=x, ann=ann, body=body):
                tokens.append(("lam", ann))
                go(body, path + (0,), {**bound, x: depth}, depth + 1)
            case LetPair(var1=a, var2=b, scrutinee=s, body=body):
                tokens.append(("let(x)",))
                go(s, path + (0,), bound, depth)
                go(body, path + (1,), {**bound, a: depth, b: depth + 1}, depth + 2)
            case _:
                tokens.append((type(t).__name__,))
                for i, c in enumerate(children(t)):
                    go(c, path + (i,), bound, depth)

    go(t, (), {}, 0)
    return tokens, values


def ref_literal_diffs(a, b):
    (ta, va), (tb, vb) = nameless(a), nameless(b)
    if ta != tb:
        return None
    return [(p, x, y) for (p, x), (_, y) in zip(va, vb) if x != y]


def ref_type(env, t, registry):
    """Linear typing by the input/output method (Hodas & Miller, 1994):
    each subterm consumes its variables from those still available, and
    every binding must be consumed by the end of its scope."""
    keys = iter(range(10**9))

    def go(t, scope, avail):
        match t:
            case Var(name=name):
                if name not in scope or scope[name][0] not in avail:
                    raise TypeError_("unavailable")
                return scope[name][1], avail - {scope[name][0]}
            case Const():
                return R, avail
            case Star():
                return I, avail
            case FnApp(symbol=f, args=args):
                if len(args) != registry.get(f).arity:
                    raise TypeError_("arity")
                for a in args:
                    ty, avail = go(a, scope, avail)
                    if ty != R:
                        raise TypeError_("argument")
                return R, avail
            case App(fn=fn, arg=arg):
                fty, avail = go(fn, scope, avail)
                aty, avail = go(arg, scope, avail)
                if not isinstance(fty, TLolli) or aty != fty.arg:
                    raise TypeError_("application")
                return fty.res, avail
            case Pair(left=left, right=right):
                lty, avail = go(left, scope, avail)
                rty, avail = go(right, scope, avail)
                return TTensor(lty, rty), avail
            case LetStar(scrutinee=s, body=body):
                sty, avail = go(s, scope, avail)
                if sty != I:
                    raise TypeError_("let *")
                return go(body, scope, avail)
            case Lam(var=x, ann=ann, body=body):
                bty, avail = bind(body, scope, avail, [(x, ann)])
                return TLolli(ann, bty), avail
            case LetPair(var1=a, var2=b, scrutinee=s, body=body):
                sty, avail = go(s, scope, avail)
                if not isinstance(sty, TTensor) or a == b:
                    raise TypeError_("let (x)")
                return bind(body, scope, avail, [(a, sty.left), (b, sty.right)])
            case Hole():
                raise TypeError_("hole")
        raise AssertionError(t)

    def bind(body, scope, avail, binders):
        new = {name: (next(keys), ty) for name, ty in binders}
        ty, rest = go(body, {**scope, **new}, avail | {k for k, _ in new.values()})
        if any(k in rest for k, _ in new.values()):
            raise TypeError_("binder unused")
        return ty, rest

    top = {name: (next(keys), ty) for name, ty in env}
    ty, rest = go(t, top, frozenset(k for k, _ in top.values()))
    if rest:
        raise TypeError_("unused")
    return ty


def verdict(check, *args):
    try:
        return check(*args)
    except LinError:
        return "ill-typed"


# -- the walks against them ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_free_vars_matches_a_reference_walk(rng):
    env, ty, m, n = generated_pair(rng)
    t = spoiled(rng, m)
    for s in (*subterms(n), *subterms(replace_at(t, rng.choice(list(paths(t))), Hole()))):
        assert free_vars(s) == ref_free_vars(s)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_literal_diffs_matches_a_reference_on_nameless_terms(rng):
    env, ty, m, n = generated_pair(rng)
    v = equal_variant(rng, m, ty, REG)
    canonical = eq_canonical(m, REG), eq_canonical(v, REG)
    for a, b in ((m, n), (m, v), (n, v), canonical, (m, spoiled(rng, m))):
        assert literal_diffs(a, b) == ref_literal_diffs(a, b)
        assert alpha_eq(a, b) == (ref_literal_diffs(a, b) == [])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_typecheck_matches_an_input_output_reference(rng):
    env, ty, m, n = generated_pair(rng)
    assert typecheck(env, m, REG) == ref_type(env, m, REG) == ty
    for t in (n, mutate(rng, n), spoiled(rng, m), spoiled(rng, n)):
        assert verdict(typecheck, env, t, REG) == verdict(ref_type, env, t, REG)


@pytest.mark.parametrize(
    "a, b",
    [
        # the inner x shadows the outer one; y's binder is not x's
        (r"\x:R. \g:(R -o R -o R) -o R -o R. g (\x:R. \y:R. add(sin(x), y)) x",
         r"\x:R. \g:(R -o R -o R) -o R -o R. g (\x:R. \y:R. add(sin(y), x)) x"),
        (r"\x:R. \x:R. \y:R. x", r"\x:R. \x:R. \y:R. y"),
        (r"\p:R (x) R. \q:R (x) R. let x (x) y = p in let x (x) y = q in \z:R. add(add(x, y), z)",
         r"\p:R (x) R. \q:R (x) R. let x (x) y = p in let x (x) y = q in \z:R. add(add(z, y), x)"),
    ],
)
def test_a_binder_that_shadows_an_outer_name_keeps_its_own_tag(a, b):
    m, n = parse_term(a, REG), parse_term(b, REG)
    assert ref_literal_diffs(m, n) is None
    assert literal_diffs(m, n) is None and not alpha_eq(m, n)
    assert alpha_eq(m, m) and alpha_eq(n, n)


def test_the_references_reject_what_the_walks_reject():
    # the oracles are not vacuous: each tells a wrong answer apart
    t = parse_term(r"\x:R. add(x, y)", REG)
    assert ref_free_vars(t) == {"y"} and ref_free_vars(Const(1.0)) == set()
    diffs = ref_literal_diffs(parse_term("add(1.0, y)", REG), parse_term("add(2.0, y)", REG))
    assert diffs == [((0,), 1.0, 2.0)]
    assert ref_literal_diffs(parse_term(r"\x:R. x", REG), parse_term(r"\y:R. y", REG)) == []
    with pytest.raises(LinError):
        ref_type([("y", R)], parse_term(r"\x:R. add(y, y)", REG), REG)
    with pytest.raises(LinError):
        ref_type([], parse_term(r"\x:R. 1.0", REG), REG)
