import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linmetric.core import (
    EMPTY_ENV,
    R,
    I,
    TLolli,
    TTensor,
    parse_term,
    parse_type,
    print_term,
    print_type,
    term_size,
    typecheck,
)
from linmetric.dynamics import eq_decide, evaluate, is_beta_normal
from linmetric.gen import (
    admissibility_corpus,
    beta_normal_corpus,
    can_build,
    closed_observable_corpus,
    corpus_registry,
    equal_variant,
    gen_feasible_pair_site,
    gen_term,
    gen_type,
    mutate,
    random_wire_function,
    real_yield,
    typed_pair_corpus,
)
from linmetric.semden import BOTTOM

REG = corpus_registry()


def test_can_build_basics():
    assert can_build(0, R)
    assert can_build(3, R)
    assert can_build(0, I)
    assert not can_build(1, I)
    assert can_build(2, TTensor(R, I))
    assert not can_build(1, TTensor(I, I))
    # a function binder contributes its own resources
    assert not can_build(0, TLolli(R, I))
    assert can_build(0, TLolli(R, R))


def test_real_yield():
    assert real_yield(TLolli(TLolli(R, R), TTensor(R, R))) == 2
    assert real_yield(I) == 0


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60, deadline=None)
def test_generated_terms_typecheck(seed):
    rng = random.Random(seed)
    env, ty = gen_feasible_pair_site(rng)
    t = gen_term(rng, env, ty, REG, fuel=rng.randint(1, 5))
    assert typecheck(env, t, REG) == ty


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_mutation_preserves_type(seed):
    rng = random.Random(seed)
    env, ty = gen_feasible_pair_site(rng)
    m = gen_term(rng, env, ty, REG, fuel=3)
    n = mutate(rng, m)
    assert typecheck(env, n, REG) == ty


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_equal_variant_is_provably_equal(seed):
    rng = random.Random(seed)
    ty = gen_type(rng, 2, 3)
    if not can_build(0, ty):
        return
    m = gen_term(rng, EMPTY_ENV, ty, REG, fuel=3)
    n = equal_variant(rng, m, ty)
    assert typecheck(EMPTY_ENV, n, REG) == ty
    assert eq_decide(m, n, REG)


def test_corpora_are_seed_deterministic():
    a = beta_normal_corpus(9, 10, registry=REG)
    b = beta_normal_corpus(9, 10, registry=REG)
    assert [(print_term(t)) for _, _, t in a] == [(print_term(t)) for _, _, t in b]
    pa = typed_pair_corpus(11, 10, REG)
    pb = typed_pair_corpus(11, 10, REG)
    assert [(print_term(m), print_term(n)) for _, _, m, n in pa] == [
        (print_term(m), print_term(n)) for _, _, m, n in pb
    ]


def test_generated_pairs_survive_print_then_parse():
    for env, ty, m, n in typed_pair_corpus(3, 400, REG):
        for t in (ty, *(t for _, t in env)):
            assert parse_type(print_type(t)) == t
        for t in (m, n):
            assert parse_term(print_term(t), REG) == t


def test_beta_normal_corpus_properties():
    corpus = beta_normal_corpus(4, 30, registry=REG)
    for env, ty, t in corpus:
        assert is_beta_normal(t)
        assert term_size(t) <= 25
        assert typecheck(env, t, REG) == ty


def test_closed_observable_corpus_evaluates():
    for ty, t in closed_observable_corpus(8, 40, REG):
        assert typecheck(EMPTY_ENV, t, REG) == ty
        evaluate(t, REG)


def test_admissibility_corpus_shapes():
    corpus = admissibility_corpus(3, 8, REG)
    assert len(corpus["constants"]) == 8
    assert len(corpus["tensor_prefixes"]) == 8
    assert len(corpus["equal_pairs"]) == 8
    for env, ty, m, n, want in corpus["tensor_prefixes"]:
        assert typecheck(env, m, REG) == ty
        assert typecheck(env, n, REG) == ty
        assert want >= 0.0


# BLAKE2b of the outputs below, as the plan-interpreting wire functions gave them
WIRE_FUNCTION_OUTPUTS_DIGEST = "39cde40e48849488379a8656cdcb8a56"


def wire_function_outputs_digest() -> str:
    """One digest of every output, written with ``repr``, of 200 random
    wire functions (1-4 wires in and out) for each of 20 seeds, at 5
    seeded inputs each, each wire ``BOTTOM`` with probability 1/4, and
    of a draw from the generator after each function, which pins how
    many draws the function took."""
    digest = hashlib.blake2b(digest_size=16)
    for seed in range(20):
        rng, inputs = random.Random(seed), random.Random(100 + seed)
        for k in range(200):
            n_in, n_out = 1 + k % 4, 1 + k // 4 % 4
            wf = random_wire_function(rng, n_in, n_out, REG)
            for _ in range(5):
                ins = tuple(
                    BOTTOM if inputs.random() < 0.25 else inputs.uniform(-20, 20)
                    for _ in range(n_in)
                )
                digest.update(repr(wf(ins)).encode())
            digest.update(repr(rng.random()).encode())
    return digest.hexdigest()


def test_random_wire_functions_are_bit_identical():
    assert wire_function_outputs_digest() == WIRE_FUNCTION_OUTPUTS_DIGEST
