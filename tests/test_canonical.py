"""Canonical forms are pinned, and the invariants their passes rely on hold.

``tests/golden/eq_canonical.txt`` holds one BLAKE2b digest per line of
``print_term(eq_canonical(t))`` for the terms ``canonical_corpus`` yields
at each of ``SEEDS``.  Regenerate it, only on purpose, with

    PYTHONPATH=src python tests/test_canonical.py
"""

import functools
import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from linmetric import gen
from linmetric.core import (
    App,
    Const,
    FnApp,
    I,
    Lam,
    LetPair,
    LetStar,
    Pair,
    R,
    STAR,
    TLolli,
    TTensor,
    Var,
    children,
    env_of,
    free_vars,
    parse_env,
    parse_term,
    print_term,
    rebuild,
    typecheck,
)
from linmetric.dynamics import (
    _eta_contract,
    _fixed,
    _hoist_lets,
    _is_let,
    _let_parts,
    _make_let,
    _rename_binders,
    _sort_lets,
    beta_normalize,
    eq_canonical,
    fold_literals,
)
from linmetric.metrics import Eq0, _replay, check_qderivation, equ_upper_bound

GOLDEN = Path(__file__).resolve().parent / "golden" / "eq_canonical.txt"
REG = gen.corpus_registry()
SEEDS = (0, 977)
PAIRS = 200


def canonical_corpus(seed: int):
    """``(label, term)``: both sides of each typed pair and an equal
    variant of the left one."""
    vrng = random.Random(seed)
    for i, (_, ty, m, n) in enumerate(gen.typed_pair_corpus(seed, PAIRS, REG)):
        yield f"{seed}/{i}/m", m
        yield f"{seed}/{i}/n", n
        yield f"{seed}/{i}/v", gen.equal_variant(vrng, m, ty, REG)


def digest_lines() -> list[str]:
    return [
        f"{label} {hashlib.blake2b(print_term(eq_canonical(t, REG)).encode(), digest_size=16).hexdigest()}"
        for seed in SEEDS
        for label, t in canonical_corpus(seed)
    ]


def test_canonical_forms_match_golden():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = digest_lines()
    assert len(got) == len(want)
    assert [g for g, w in zip(got, want) if g != w] == []


CORPUS = [t for seed in SEEDS for _, t in canonical_corpus(seed)]


def hoist_by_rewalk(t):
    """The hoisting pass as first written: after each let it lifts, it
    walks the whole new term again."""
    kids = [hoist_by_rewalk(c) for c in children(t)]
    if kids:
        t = rebuild(t, kids)
    if isinstance(t, Lam):
        return t
    if _is_let(t):
        binders, scrut, body = _let_parts(t)
        if _is_let(scrut):
            ib, iscrut, ibody = _let_parts(scrut)
            clashes = set(ib) & (free_vars(body) | set(binders))
            ib, ibody = _rename_binders(ib, ibody, clashes, free_vars(body) | set(binders) | free_vars(ibody))
            return hoist_by_rewalk(_make_let(ib, iscrut, _make_let(binders, ibody, body)))
        return t
    kids = children(t)
    for i, c in enumerate(kids):
        if _is_let(c):
            binders, scrut, body = _let_parts(c)
            sibling_fv = set().union(*(free_vars(k) for j, k in enumerate(kids) if j != i))
            clashes = set(binders) & sibling_fv
            binders, body = _rename_binders(binders, body, clashes, sibling_fv | free_vars(body))
            return hoist_by_rewalk(_make_let(binders, scrut, rebuild(t, kids[:i] + (body,) + kids[i + 1 :])))
    return t


def test_hoisting_in_one_pass_matches_the_rewalk_and_is_idempotent():
    for t in CORPUS:
        for u in (t, beta_normalize(t)):
            h = _hoist_lets(u)
            assert print_term(h) == print_term(hoist_by_rewalk(u))
            assert _hoist_lets(h) == h


PASSES = (_hoist_lets, _sort_lets, _eta_contract, lambda t: fold_literals(t, REG), beta_normalize)


def test_each_pass_returns_a_canonical_form_itself():
    for t in CORPUS:
        n = beta_normalize(t)
        assert beta_normalize(n) is n
        c = eq_canonical(t, REG)
        for p in PASSES:
            assert p(c) is c
        assert _fixed(c)


def round_terms(t):
    """``t``, its beta-normal form and the output of each pass of each
    round ``eq_canonical`` runs from there."""
    out, u = [t], beta_normalize(t)
    while True:
        out.append(u)
        v = u
        for p in PASSES:
            v = p(v)
            out.append(v)
        if v == u:
            return out
        u = v


def test_fixed_holds_exactly_when_every_pass_returns_its_input():
    seen = set()
    for t in CORPUS:
        for u in round_terms(t):
            fixed = all(p(u) is u for p in PASSES)
            assert _fixed(u) == fixed, print_term(u)
            seen.add(fixed)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "t",
    [
        Lam("x", R, FnApp("add", (Var("x"), FnApp("mul", (Const(2.0), Const(3.0)))))),
        Lam("x", R, FnApp("add", (Var("x"), FnApp("pi", ())))),
    ],
)
def test_a_symbol_on_literal_arguments_under_a_binder_is_not_fixed(t):
    # a nullary application has no children but is no leaf: it folds
    assert not _fixed(t)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_forms_of_generated_terms_are_fixed(rng):
    env, ty = gen.gen_env(rng), gen.gen_type(rng, 2, rng.randint(1, 4))
    assume(gen.feasible_site(env, ty))
    m = gen.gen_term(rng, env, ty, REG, fuel=rng.randint(1, 5))
    for t in (m, gen.equal_variant(rng, m, ty, REG)):
        c = eq_canonical(t, REG)
        assert _fixed(c)
        assert eq_canonical(c, REG) is c


PAIR = TTensor(R, R)
LET_ENV = env_of(
    ("p", PAIR), ("q", TTensor(PAIR, R)), ("u", I),
    ("g", TLolli(TLolli(R, R), R)), ("k", TLolli(R, R)), ("h", TLolli(TLolli(PAIR, PAIR), R)),
)


def let_chain(rng: random.Random):
    """A term of type R under ``LET_ENV``: a chain of lets, some of whose
    scrutinees are binders of earlier lets or lets themselves, over a sum
    whose operands may be lets, η-redexes, a β-redex or a symbol on a
    literal."""
    names = (f"x{i}" for i in itertools.count())
    sources = [("p", LET_ENV.lookup("p")), ("q", LET_ENV.lookup("q"))]  # pairs not read yet
    reals: list = []  # terms of type R to add up
    unit_read = False

    def split(scrut, ty) -> tuple:
        a, b = next(names), next(names)
        for v, t in ((a, ty.left), (b, ty.right)):
            if t == R:
                reals.append(Var(v))
            else:
                sources.append((v, t))
        return a, b

    chain = []  # (binders, scrutinee), outermost first
    for _ in range(rng.randint(1, 4)):
        if sources and rng.random() < 0.75:
            name, ty = sources.pop(rng.randrange(len(sources)))
            scrut = Var(name)
            if rng.random() < 0.3:  # a let in scrutinee position
                c, d = next(names), next(names)
                scrut = LetPair(c, d, scrut, Pair(Var(c), Var(d)))
            chain.append((split(scrut, ty), scrut))
        else:
            chain.append(((), STAR if unit_read else Var("u")))
            unit_read = True

    def consume(t, ty):  # a term of type R that reads t : ty
        if ty == R:
            return t
        a, b = next(names), next(names)
        return LetPair(a, b, t, FnApp("add", (consume(Var(a), ty.left), consume(Var(b), ty.right))))

    operands = reals + [consume(Var(n), t) for n, t in sources]
    eta = rng.random() < 0.5
    operands.append(App(Var("g"), Lam("z", R, App(Var("k"), Var("z"))) if eta else Var("k")))
    ident = LetPair("c", "d", Var("w"), Pair(Var("c"), Var("d"))) if rng.random() < 0.5 else Var("w")
    operands.append(App(Var("h"), Lam("w", PAIR, ident)))
    if rng.random() < 0.5:
        operands.append(FnApp("sin", (Const(0.5),)))
    if rng.random() < 0.5:
        i = rng.randrange(len(operands))
        operands[i] = App(Lam("z", R, Var("z")), operands[i])
    rng.shuffle(operands)
    body = functools.reduce(lambda x, y: FnApp("add", (x, y)), operands)
    if not unit_read:
        body = LetStar(Var("u"), body)
    for binders, scrut in reversed(chain):
        body = LetPair(binders[0], binders[1], scrut, body) if binders else LetStar(scrut, body)
    return body


def generated_term(rng: random.Random):
    """``(env, ty, term)``: a let chain, or a term of ``gen`` or its equal variant."""
    if rng.random() < 0.5:
        return LET_ENV, R, let_chain(rng)
    env, ty = gen.gen_env(rng), gen.gen_type(rng, 2, rng.randint(1, 4))
    assume(gen.feasible_site(env, ty))
    m = gen.gen_term(rng, env, ty, REG, fuel=rng.randint(1, 5))
    return env, ty, gen.equal_variant(rng, m, ty, REG) if rng.random() < 0.5 else m


def test_let_chains_are_typed_and_reach_every_rule():
    seen = set()
    for seed in range(100):
        t = let_chain(random.Random(seed))
        assert typecheck(LET_ENV, t, REG) == R, print_term(t)
        steps: list = []
        eq_canonical(t, REG, steps)
        seen |= {s[0] for s in steps}
    # every rule but eta-let*, which the generated terms of gen reach
    assert seen == {
        "beta", "let*", "let(x)", "eta-lam", "eta-let(x)", "fold", "commute-let", "commute-op", "swap"
    }


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_replaying_the_recorded_steps_reaches_the_canonical_form(rng):
    env, ty, t = generated_term(rng)
    steps: list = []
    c = eq_canonical(t, REG, steps)
    assert c == eq_canonical(t, REG)
    assert _replay(t, tuple(steps), REG, "lhs", "root") == c
    assert check_qderivation(Eq0(env, ty, t, c, tuple(steps)), REG) == 0.0


def test_sorting_lets_keeps_a_scrutinee_after_the_let_that_binds_it():
    # the inner scrutinee reads the outer binder `a`, so the two lets are
    # not independent, although the inner one sorts first
    env = parse_env("p:(R (x) R) (x) R")
    body = "let a (x) b = p in let c (x) d = a in add(add(c, d), add(b, {}))"
    m, n = parse_term(body.format("1.0")), parse_term(body.format("2.0"))
    assert typecheck(env, eq_canonical(m, REG), REG) == R
    bound, cert = equ_upper_bound(env, R, m, n, REG)
    assert bound == 1.0
    assert check_qderivation(cert, REG) == 1.0


class Tagged(Var):
    """Not a term: the walkers dispatch on the exact class."""


@pytest.mark.parametrize("bad", [42, "x", None, Tagged("x")])
def test_children_and_rebuild_reject_a_non_term(bad):
    with pytest.raises(AssertionError):
        children(bad)
    with pytest.raises(AssertionError):
        rebuild(bad, [Const(0.0)])


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(digest_lines()) + "\n", encoding="utf-8")
