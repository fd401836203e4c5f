"""Cross-module properties: the module contracts beyond unit behavior."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from linmetric.core import (
    Const,
    EMPTY_ENV,
    EPS,
    INF,
    Pair,
    R,
    SymbolRegistry,
    TTensor,
    derive,
    env_of,
    is_observable,
    parse_env,
    parse_term,
    print_term,
    typecheck,
)
from linmetric.dynamics import beta_normalize, eq_canonical, eq_decide, evaluate, alpha_eq, is_beta_normal
from linmetric.gen import (
    admissibility_corpus,
    closed_observable_corpus,
    corpus_registry,
    equal_variant,
    mutate,
    typed_pair_corpus,
)
from linmetric.metrics import (
    EngineConfig,
    ObsBudget,
    _observable_components,
    equ_upper_bound,
    obs_lower_bound,
    ordering_report,
)
from linmetric.semden import ProbeBattery, den_distance, ground_l1, interp_den, sem_l1
from linmetric.semint import int_distance

from test_walk_oracles import generated_pair

REG = corpus_registry()
BATTERY = ProbeBattery(REG, seed=0)
CFG = EngineConfig(
    registry=REG, battery=BATTERY, budget=ObsBudget(values_per_type=3, max_contexts=60)
)


def test_merge_splits_preserve_order():
    # every recorded split is an order-preserving subsequence of its env
    corpus = typed_pair_corpus(21, 40, REG)

    def walk(d):
        names = d.env.names()
        for split in d.splits:
            for part in split:
                idx = [names.index(x) for x in part if x in names]
                assert idx == sorted(idx)
        for c in d.children:
            walk(c)

    for env, ty, m, n in corpus:
        walk(derive(env, m, REG))


def test_typecheck_deterministic_through_printing():
    corpus = typed_pair_corpus(22, 40, REG)
    for env, ty, m, _ in corpus:
        reparsed = parse_term(print_term(m), REG)
        assert typecheck(env, reparsed, REG) == ty


def test_eq_canonical_idempotent():
    corpus = typed_pair_corpus(23, 40, REG)
    for env, ty, m, n in corpus:
        cm = eq_canonical(m, REG)
        assert alpha_eq(eq_canonical(cm, REG), cm), print_term(m)


def test_denotations_nonexpansive_in_observable_envs():
    # vary one real env slot; the output may not move farther than the input
    cases = [
        ("x:R", "sin(x)", R),
        ("x:R, y:R", "add(x, y)", R),
        ("x:R", "x * 1.0", TTensor(R, R)),
    ]
    for env_text, term_text, ty in cases:
        env = parse_env(env_text)
        f = interp_den(env, parse_term(term_text, REG), REG)
        points = BATTERY.env_samples(env, limit=12)
        for e1, e2 in itertools.islice(itertools.combinations(points, 2), 40):
            d_in = sum(
                sem_l1(a, b, t) for (a, b, (_, t)) in zip(e1, e2, env.bindings)
            )
            d_out = sem_l1(f(e1), f(e2), ty)
            assert d_out <= d_in + 1e-9


def test_observable_collapse_all_engines():
    # on closed observable pairs every engine is exactly the ground distance
    corpus = closed_observable_corpus(24, 60, REG)
    by_type = {}
    for ty, t in corpus:
        by_type.setdefault(ty, []).append(t)
    checked = 0
    for ty, terms in by_type.items():
        for m, n in zip(terms, terms[1:]):
            want = ground_l1(evaluate(m, REG), evaluate(n, REG), ty)
            lo, _ = obs_lower_bound(EMPTY_ENV, ty, m, n, CFG.budget, REG)
            assert lo == want
            den = den_distance(EMPTY_ENV, ty, m, n, BATTERY, registry=REG)
            assert (den.lo, den.hi) == (want, want)
            ints = int_distance(EMPTY_ENV, ty, m, n, BATTERY, registry=REG)
            assert (ints.lo, ints.hi) == (want, want)
            r, _ = equ_upper_bound(EMPTY_ENV, ty, m, n, REG)
            assert r == want
            checked += 1
    assert checked >= 20


def test_pseudo_metric_laws_on_exact_instances():
    corpus = closed_observable_corpus(25, 45, REG)
    by_type = {}
    for ty, t in corpus:
        by_type.setdefault(ty, []).append(t)
    triples = 0
    for ty, terms in by_type.items():
        for m, n, l in zip(terms, terms[1:], terms[2:]):
            vm, vn, vl = (evaluate(t, REG) for t in (m, n, l))
            dmn = ground_l1(vm, vn, ty)
            dnm = ground_l1(vn, vm, ty)
            dml = ground_l1(vm, vl, ty)
            dnl = ground_l1(vn, vl, ty)
            assert dmn == dnm  # symmetry
            assert dml <= dmn + dnl + 1e-12  # triangle
            assert ground_l1(vm, vm, ty) == 0.0
            triples += 1
    assert triples >= 5


def test_eq_decide_implies_zero_for_all_engines():
    corpus = admissibility_corpus(26, 12, REG)
    for env, ty, m, n in corpus["equal_pairs"]:
        assert eq_decide(m, n, REG)
        r, _ = equ_upper_bound(env, ty, m, n, REG)
        assert r == 0.0
        den = den_distance(env, ty, m, n, BATTERY, upper_bound=r, registry=REG)
        assert den.hi == 0.0
        ints = int_distance(env, ty, m, n, BATTERY, registry=REG)
        assert ints.hi <= 1e-9
        lo, _ = obs_lower_bound(env, ty, m, n, CFG.budget, REG)
        assert lo <= 1e-9


def test_full_searches_find_zero_where_equ_certifies_zero():
    # ordering_report stops obs and closes den and int at once on these
    # pairs, so its chain check cannot catch an unsound equ = 0; the full
    # searches can, and int's must set the flag the report sets
    zeros = normalized = 0
    for env, ty, m, n in typed_pair_corpus(28, 120, REG):
        r, _ = equ_upper_bound(env, ty, m, n, REG)
        if r != 0.0:
            continue
        zeros += 1
        assert den_distance(env, ty, m, n, BATTERY, upper_bound=INF, registry=REG).lo == 0.0
        assert obs_lower_bound(env, ty, m, n, registry=REG)[0] == 0.0
        ints = int_distance(env, ty, m, n, BATTERY, registry=REG)
        assert (ints.lo, ints.hi) == (0.0, 0.0)
        assert ints.normalized == (not (is_beta_normal(m) and is_beta_normal(n)))
        normalized += ints.normalized
    assert zeros >= 30 and normalized >= 5


def _check_symmetric(env, ty, m, n):
    def numbers(rep):
        got = rep["metrics"]
        return got["obs"]["lo"], got["den"], got["int"]["lo"], got["int"]["hi"], got["equ"]["hi"]

    assert numbers(ordering_report(env, ty, m, n, CFG)) == numbers(
        ordering_report(env, ty, n, m, CFG)
    ), (print_term(m), print_term(n))


@pytest.mark.parametrize("seed", [5, 6])
def test_ordering_report_is_symmetric(seed):
    for pair in typed_pair_corpus(seed, 60, REG):
        _check_symmetric(*pair)


# the three cross-engine laws again, each example on a few pairs of a
# corpus seed that hypothesis draws
GENERATED_LAWS = settings(max_examples=10, deadline=None)


@GENERATED_LAWS
@given(st.randoms(use_true_random=False))
def test_ordering_report_is_symmetric_on_generated_pairs(rng):
    for pair in typed_pair_corpus(rng.getrandbits(32), 4, REG):
        _check_symmetric(*pair)


def _engine_bounds(env, ty, m, n):
    """``ordering_report``'s numbers for one pair: obs, den and int as
    ``(lo, hi)``, and equ's upper bound."""
    got = ordering_report(env, ty, m, n, CFG)["metrics"]

    def num(x):
        return INF if x == "inf" else x

    return {
        "obs": num(got["obs"]["lo"]),
        "den": (num(got["den"]["lo"]), num(got["den"]["hi"])),
        "int": (num(got["int"]["lo"]), num(got["int"]["hi"])),
        "equ": num(got["equ"]["hi"]),
    }


def _check_triangle(rng, env, ty, m, n):
    # P is a same-type mutant of N, so (M, N, P) share a site
    p = mutate(rng, n)
    mn, np_, mp = (_engine_bounds(env, ty, a, b) for a, b in ((m, n), (n, p), (m, p)))
    where = (print_term(m), print_term(n), print_term(p))
    for engine in ("den", "int"):
        assert mp[engine][0] <= mn[engine][1] + np_[engine][1] + EPS, (engine, where)
    assert mp["obs"] <= mn["equ"] + np_["equ"] + EPS, where


@pytest.mark.parametrize("seed", [7, 8])
def test_triangle_law_on_mutated_triples(seed):
    rng = random.Random(seed)
    for pair in typed_pair_corpus(seed, 60, REG):
        _check_triangle(rng, *pair)


@GENERATED_LAWS
@given(st.randoms(use_true_random=False))
def test_triangle_law_on_generated_triples(rng):
    for pair in typed_pair_corpus(rng.getrandbits(32), 4, REG):
        _check_triangle(rng, *pair)


def _check_equal_variant(rng, env, ty, m, n):
    v = equal_variant(rng, m, ty, REG)
    mn, vn = _engine_bounds(env, ty, m, n), _engine_bounds(env, ty, v, n)
    where = (print_term(m), print_term(v), print_term(n))
    for engine in ("den", "int"):
        (lo1, hi1), (lo2, hi2) = mn[engine], vn[engine]
        assert max(lo1, lo2) <= min(hi1, hi2) + EPS, (engine, where)
    assert mn["obs"] <= vn["equ"] + EPS and vn["obs"] <= mn["equ"] + EPS, where


def test_an_equal_variant_gives_overlapping_enclosures():
    rng = random.Random(9)
    for pair in typed_pair_corpus(9, 60, REG):
        _check_equal_variant(rng, *pair)


@GENERATED_LAWS
@given(st.randoms(use_true_random=False))
def test_an_equal_variant_gives_overlapping_enclosures_on_generated_pairs(rng):
    for pair in typed_pair_corpus(rng.getrandbits(32), 4, REG):
        _check_equal_variant(rng, *pair)


def test_sandwich_obs_below_equ_on_corpus():
    pairs = typed_pair_corpus(27, 60, REG)
    for env, ty, m, n in pairs:
        lo, _ = obs_lower_bound(env, ty, m, n, CFG.budget, REG)
        hi, _ = equ_upper_bound(env, ty, m, n, REG)
        assert lo <= hi + 1e-9


def test_symbol_free_mode_shows_den_above_obs():
    # with no symbols at all, second-order gaps are invisible to contexts
    # but visible to the plain model: a documented strictness instance
    empty = SymbolRegistry([])
    battery = ProbeBattery(empty, seed=0)
    env = parse_env("f:R (x) R -o R")
    m = parse_term("0.0 * (f (0.0 * 0.0))", empty)
    n = parse_term("1.0 * (f (0.0 * 0.0))", empty)
    ty = typecheck(env, m, empty)
    lo, _ = obs_lower_bound(env, ty, m, n, ObsBudget(), empty)
    assert lo == 0.0  # no closed probe of type R (x) R -o R exists
    den = den_distance(env, ty, m, n, battery, upper_bound=1.0, registry=empty)
    assert den.lo == 1.0


def test_obs_components_match_value_shape():
    m = parse_term(r"1.0 * (\x:R. x) * (2.0 * *)", REG)
    ty = typecheck(EMPTY_ENV, m, REG)
    comps = _observable_components(evaluate(m, REG), ty)
    assert comps == [1.0, 2.0]


def test_printer_roundtrip_on_corpus():
    pairs = typed_pair_corpus(31, 50, REG)
    for env, ty, m, n in pairs:
        assert parse_term(print_term(m), REG) == m
        assert parse_term(print_term(n), REG) == n


def test_eq_canonical_preserves_type_on_corpus():
    pairs = typed_pair_corpus(32, 50, REG)
    for env, ty, m, _ in pairs:
        assert typecheck(env, eq_canonical(m, REG), REG) == ty


def test_equ_certificates_revalidate_on_corpus():
    from linmetric.metrics import check_qderivation, qderivation_judgment

    pairs = typed_pair_corpus(33, 50, REG)
    replayed = 0
    for env, ty, m, n in pairs:
        r, cert = equ_upper_bound(env, ty, m, n, REG)
        if cert is None:
            continue
        assert check_qderivation(cert, REG) == pytest.approx(r, abs=1e-12)
        j = qderivation_judgment(cert, REG)
        assert alpha_eq(j.lhs, m) and alpha_eq(j.rhs, n)
        replayed += 1
    assert replayed >= 25


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_eq_canonical_preserves_type_on_generated_pairs(rng):
    env, ty, m, n = generated_pair(rng)
    for t in (m, n):
        assert typecheck(env, eq_canonical(t, REG), REG) == ty


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_equ_certificates_revalidate_on_generated_pairs(rng):
    from linmetric.metrics import check_qderivation, qderivation_judgment

    env, ty, m, n = generated_pair(rng)
    r, cert = equ_upper_bound(env, ty, m, n, REG)
    if cert is not None:
        assert check_qderivation(cert, REG) == pytest.approx(r, abs=1e-12)
        j = qderivation_judgment(cert, REG)
        assert alpha_eq(j.lhs, m) and alpha_eq(j.rhs, n)


def test_obs_witnesses_replay_on_corpus():
    from linmetric.metrics import replay_obs_witness

    pairs = typed_pair_corpus(34, 40, REG)
    replayed = 0
    for env, ty, m, n in pairs:
        lo, w = obs_lower_bound(env, ty, m, n, CFG.budget, REG)
        if lo > 0.0:
            assert replay_obs_witness(w, m, n, REG)
            replayed += 1
    assert replayed >= 10


def test_denotation_nonexpansive_on_corpus():
    # env pairs that differ only at observable slots (function slots hold
    # the identical sample object) may move the output at most as far
    from linmetric.semden import value_dist_lower

    pairs = typed_pair_corpus(41, 60, REG)
    checked = 0
    for env, ty, m, _ in pairs:
        if len(env) == 0:
            continue
        points = BATTERY.env_samples(env, limit=10)
        f = interp_den(env, m, REG)
        for e1 in points[:4]:
            for e2 in points[:4]:
                d_in = 0.0
                comparable = True
                for a, b, (_, t) in zip(e1, e2, env.bindings):
                    if is_observable(t):
                        d_in += sem_l1(a, b, t)
                    elif a is not b:
                        comparable = False
                if not comparable:
                    continue
                d_out, _ = value_dist_lower(f(e1), f(e2), ty, BATTERY, 2)
                assert d_out <= d_in + 1e-9
                checked += 1
    assert checked >= 40
