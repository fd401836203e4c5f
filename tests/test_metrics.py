import hashlib
import itertools
import math

import pytest

from linmetric.core import (
    Const,
    DistInterval,
    EMPTY_ENV,
    EPS,
    FnApp,
    HOLE,
    I,
    INF,
    Lam,
    R,
    TTensor,
    TLolli,
    TypeError_,
    Var,
    default_registry,
    env_of,
    parse_env,
    parse_term,
    parse_type,
    plug,
    print_term,
    print_type,
    typecheck,
)
from linmetric.dynamics import eq_decide, evaluate
from linmetric.gen import corpus_registry
from linmetric.metrics import (
    APPLY_DEPTH,
    CertificateError,
    ConstAxiom,
    CtxRule,
    ENGINES,
    EngineConfig,
    Eq0,
    ObsBudget,
    SymRule,
    Trans,
    _elaborations,
    _eq_step,
    admissibility_suite,
    check_qderivation,
    den_engine,
    equ_engine,
    equ_upper_bound,
    int_engine,
    obs_lower_bound,
    ordering_report,
    probe_values,
    qderivation_judgment,
    replay_obs_witness,
)
from linmetric.semden import den_distance
from linmetric.semint import int_distance

CFG = EngineConfig.make(seed=0)


def ma_term(a: float):
    return parse_term(rf"{a} * {a} * (\k:(R (x) R -o R). k (0.0 * 0.0))")


MA_TYPE = parse_type("R (x) R (x) ((R (x) R -o R) -o R)")


# -- observational lower bounds ------------------------------------------------


def test_obs_trivial_context_separates_literal_pairs():
    lo, w = obs_lower_bound(EMPTY_ENV, MA_TYPE, ma_term(0.0), ma_term(1.0))
    assert lo >= 2.0
    assert replay_obs_witness(w, ma_term(0.0), ma_term(1.0))


def test_obs_identity_probe():
    env = parse_env("k:R -o R")
    lo, w = obs_lower_bound(env, R, parse_term("k 0.0"), parse_term("k 1.0"))
    assert lo >= 1.0
    assert replay_obs_witness(w, parse_term("k 0.0"), parse_term("k 1.0"))


def test_replay_is_false_where_no_context_evaluates():
    m, n = parse_term("add(1e308, 1e308)"), parse_term("1.0")
    lo, w = obs_lower_bound(EMPTY_ENV, R, m, n)
    assert (lo, w.context) == (0.0, HOLE)
    assert replay_obs_witness(w, m, n) is False


def test_replay_is_false_where_one_side_differs():
    m, n = parse_term("k 0.0"), parse_term("k 1.0")
    _, w = obs_lower_bound(parse_env("k:R -o R"), R, m, n)
    assert not replay_obs_witness(w, m, parse_term("k 2.0"))
    assert not replay_obs_witness(w, parse_term("k 2.0"), n)


def test_obs_equal_terms():
    m = parse_term("sin(1.0)")
    lo, _ = obs_lower_bound(EMPTY_ENV, R, m, m)
    assert lo == 0.0


def test_obs_function_type_applied():
    m = parse_term(r"\k:(R -o R). k 0.0")
    n = parse_term(r"\k:(R -o R). k 1.0")
    ty = parse_type("(R -o R) -o R")
    lo, _ = obs_lower_bound(EMPTY_ENV, ty, m, n)
    assert lo >= 1.0


def test_obs_closes_a_third_order_variable():
    # k's probes apply their argument to probes of R -o R
    env = parse_env("k:((R -o R) -o R) -o R")
    m, n = parse_term(r"k (\f:(R -o R). f 0.0)"), parse_term(r"k (\f:(R -o R). f 1.0)")
    lo, _ = obs_lower_bound(env, R, m, n)
    assert lo == 1.0


def test_obs_applies_two_arguments():
    # the maps differ only after their third argument
    ty = parse_type("R -o R -o R -o R")
    m = r"(\x:R. \y:R. \z:R. add(add(x, y), z))"
    n = r"(\x:R. \y:R. \z:R. add(add(x, y), add(z, 1.0)))"
    lo, _ = obs_lower_bound(EMPTY_ENV, ty, parse_term(m), parse_term(n))
    assert lo == 0.0
    lo, _ = obs_lower_bound(EMPTY_ENV, R, parse_term(m + " 0.0 0.0 0.0"), parse_term(n + " 0.0 0.0 0.0"))
    assert lo == 1.0


def test_obs_tries_300_contexts_by_default():
    # the pair differs only where x1 + x2 < -1.5: first at context 301,
    # which closes x1 and x2 with -1.0 (the probe reals of R are 0, 1, -1, 0.5, 10)
    reg = corpus_registry()
    env = parse_env("x1:R, x2:R, x3:R, x4:R")
    m = parse_term("add(add(x1, x2), add(x3, x4))", reg)
    n = parse_term("add(max(add(x1, x2), -1.5), add(x3, x4))", reg)
    assert obs_lower_bound(env, R, m, n, registry=reg)[0] == 0.0
    assert obs_lower_bound(env, R, m, n, ObsBudget(max_contexts=301), reg)[0] == 0.5


def test_obs_unit_codomain_blind():
    # queries to a unit-returning function are invisible to observation
    env = parse_env("k:R -o I")
    lo, _ = obs_lower_bound(env, I, parse_term("k 2.0"), parse_term("k 3.0"))
    assert lo == 0.0


def test_probe_values_are_typed_values():
    for tname in ["R", "I", "R (x) R", "R -o R", "R (x) R -o R", "(R -o R) -o R", "R -o I"]:
        ty = parse_type(tname)
        for v in probe_values(ty, CFG.registry, 8):
            assert typecheck(EMPTY_ENV, v, CFG.registry) == ty


@pytest.mark.parametrize(
    "tname, want",
    [
        # a function source consumed into I: apply it, keep the unit
        ("(R -o I) -o I", [r"\p:(R -o I). p 0.0", r"\p:(R -o I). p 1.0"]),
        # a tensor source consumed into I: dispose of the left unit first
        ("(I (x) I) -o I", [r"\p:(I (x) I). let a_ (x) b_ = p in let * = a_ in b_"]),
        # a tensor source with a unit left consumed into R: the last two
        # dispose of the unit without a symbol
        (
            "(I (x) R) -o R",
            [
                r"\p:(I (x) R). let a_ (x) b_ = p in add(let * = a_ in 0.0, b_)",
                r"\p:(I (x) R). let a_ (x) b_ = p in add(let * = a_ in 0.0, cos(b_))",
                r"\p:(I (x) R). let a_ (x) b_ = p in add(let * = a_ in 1.0, b_)",
                r"\p:(I (x) R). let a_ (x) b_ = p in add(let * = a_ in 1.0, cos(b_))",
                r"\p:(I (x) R). let a_ (x) b_ = p in let * = a_ in b_",
                r"\p:(I (x) R). let a_ (x) b_ = p in let * = a_ in cos(b_)",
            ],
        ),
    ],
)
def test_probe_values_consume_unit_sources(tname, want):
    ty = parse_type(tname)
    got = probe_values(ty, CFG.registry, 8)
    assert [print_term(v) for v in got] == want
    assert all(typecheck(EMPTY_ENV, v, CFG.registry) == ty for v in got)


def _types(connectives: int) -> list:
    """Every type over R and I with exactly this many connectives."""
    if connectives == 0:
        return [R, I]
    return [
        form(a, b)
        for k in range(connectives)
        for a in _types(k)
        for b in _types(connectives - 1 - k)
        for form in (TTensor, TLolli)
    ]


# blake2b of probe_values and of the first 300 obs contexts of every type
# with up to four connectives, in both registries: a depth, slice or literal
# of _probe_values, _consumers or _elaborations that changes what obs tries
# changes it
OBS_PROBES_DIGEST = "8d65f79767d08bc79e3f0d6fb1ad4244"


def test_obs_probes_and_contexts_are_bit_identical():
    digest = hashlib.blake2b(digest_size=16)
    for reg in (default_registry(), corpus_registry()):
        for ty in (t for n in range(5) for t in _types(n)):
            digest.update(repr([print_term(v) for v in probe_values(ty, reg, 8)]).encode())
            contexts = itertools.islice(_elaborations(HOLE, ty, reg, ObsBudget(), APPLY_DEPTH), 300)
            digest.update(repr([(print_term(c), print_type(t)) for c, t in contexts]).encode())
    assert digest.hexdigest() == OBS_PROBES_DIGEST


# -- equational upper bounds -----------------------------------------------------


def test_equ_upper_literal_pair():
    env = parse_env("k:R -o R")
    r, cert = equ_upper_bound(env, R, parse_term("k 2.0"), parse_term("k 3.0"))
    assert r == 1.0
    assert cert is not None
    assert check_qderivation(cert) == 1.0
    j = qderivation_judgment(cert)
    assert j.r == 1.0


def test_equ_upper_ma_pair():
    r, cert = equ_upper_bound(EMPTY_ENV, MA_TYPE, ma_term(0.0), ma_term(1.0))
    assert r == 2.0
    assert check_qderivation(cert) == 2.0


def test_equ_upper_equal_terms():
    m = parse_term(r"\x:R. (\y:R. y) x")
    n = parse_term(r"\x:R. x")
    r, cert = equ_upper_bound(EMPTY_ENV, TLolli(R, R), m, n)
    assert r == 0.0
    assert check_qderivation(cert) == 0.0


def test_equ_upper_abstains_on_skeleton_mismatch():
    m = parse_term(r"\x:R. x")
    n = parse_term(r"\x:R. sin(x)")
    r, cert = equ_upper_bound(EMPTY_ENV, TLolli(R, R), m, n)
    assert r == math.inf
    assert cert is None


def test_equ_upper_abstains_on_a_symbol_difference():
    # the literals differ too, but no axiom relates sin to cos
    m = parse_term(r"\x:R. add(sin(x), 1.0)")
    n = parse_term(r"\x:R. add(cos(x), 2.0)")
    assert equ_upper_bound(EMPTY_ENV, TLolli(R, R), m, n) == (math.inf, None)


def test_equ_upper_respects_canonicalization():
    # add(2,3) folds to 5; distance to 6 is |5-6|
    r, cert = equ_upper_bound(EMPTY_ENV, R, parse_term("add(2.0, 3.0)"), parse_term("6.0"))
    assert r == 1.0
    assert check_qderivation(cert) == 1.0


# -- derivation checking -----------------------------------------------------------


def test_check_qderivation_examples():
    env = parse_env("k:R -o R")
    d = CtxRule(parse_term("k [-]"), env, R, ConstAxiom(2.0, 3.0, 1.0))
    assert check_qderivation(d) == 1.0
    j = qderivation_judgment(d)
    assert j.lhs == parse_term("k 2.0")


def test_check_qderivation_eq0():
    m = parse_term(r"\x:R. (\y:R. y) x")
    n = parse_term(r"\x:R. x")
    assert check_qderivation(Eq0(EMPTY_ENV, TLolli(R, R), m, n, (("beta", (0,)),))) == 0.0
    # without its step the checker does not rewrite m, so the sides do not meet
    with pytest.raises(CertificateError, match=r"^root: Eq0 on terms not provably equal$"):
        check_qderivation(Eq0(EMPTY_ENV, TLolli(R, R), m, n))


def test_eq0_with_alpha_equal_sides_and_no_steps_holds_by_reflexivity():
    m, n = parse_term(r"\x:R. sin(x)"), parse_term(r"\y:R. sin(y)")
    assert check_qderivation(Eq0(EMPTY_ENV, TLolli(R, R), m, n)) == 0.0


def test_check_qderivation_trans_sums():
    d = Trans(ConstAxiom(0.0, 1.0, 1.0), ConstAxiom(1.0, 1.5, 0.5))
    assert check_qderivation(d) == 1.5


def test_check_qderivation_sym():
    d = SymRule(ConstAxiom(0.0, 1.0, 1.0))
    j = qderivation_judgment(d)
    assert j.lhs == Const(1.0) and j.rhs == Const(0.0)


def test_check_qderivation_rejects_bad_const():
    with pytest.raises(CertificateError):
        check_qderivation(ConstAxiom(2.0, 3.0, 0.5))


def test_check_qderivation_rejects_broken_trans():
    d = Trans(ConstAxiom(0.0, 1.0, 1.0), ConstAxiom(2.0, 3.0, 1.0))
    with pytest.raises(CertificateError):
        check_qderivation(d)


def test_check_qderivation_rejects_bad_eq0():
    with pytest.raises(CertificateError, match=r"^root: Eq0 on terms not provably equal$"):
        check_qderivation(Eq0(EMPTY_ENV, R, Const(0.0), Const(1.0)))


def test_eq0_with_the_wrong_stated_type_is_rejected():
    with pytest.raises(CertificateError, match=r"^root: Eq0 sides do not have the stated type$"):
        check_qderivation(Eq0(EMPTY_ENV, I, Const(1.0), Const(1.0)))


@pytest.mark.parametrize(
    "d, message",
    [
        (Eq0(EMPTY_ENV, R, Var("x"), Var("x")), "root: Eq0 side is ill-typed: unbound variable 'x'"),
        (
            SymRule(Eq0(parse_env("x:R"), R, Const(1.0), Const(1.0))),
            "root.sym: Eq0 side is ill-typed: unused variable(s): ['x'] (linearity violation)",
        ),
        (
            Trans(ConstAxiom(1.0, 1.0, 0.0), Eq0(EMPTY_ENV, R, FnApp("nosuch", ()), Const(1.0))),
            "root.right: Eq0 side is ill-typed: unregistered symbol 'nosuch'",
        ),
    ],
)
def test_eq0_with_a_side_that_does_not_typecheck_is_rejected_at_its_path(d, message):
    with pytest.raises(CertificateError) as exc:
        check_qderivation(d)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "wrap, path",
    [(lambda d: d, "root"), (lambda d: Trans(d, ConstAxiom(1.0, 1.0, 0.0)), "root.left")],
)
def test_eq0_with_a_side_that_overflows_on_folding_is_rejected_at_its_path(wrap, path):
    t = parse_term("add(1e308, 1e308)")
    fold = (("fold", ()),)
    with pytest.raises(CertificateError) as exc:
        check_qderivation(wrap(Eq0(EMPTY_ENV, R, t, t, fold, fold)))
    assert str(exc.value) == (
        f"{path}: Eq0 side does not fold: add(1e+308, 1e+308) = inf is not a finite number"
    )


# Each Eq0 below names one rule at a subterm where its shape or side
# condition fails.  Where it is well-typed, the right-hand side is what
# the rule would give there without its check; otherwise it is the left.
UNSOUND_STEPS = {
    "beta": ("k:R -o R", "R", "k 1.0", "k 1.0", ("beta", ())),  # no λ at the head
    "let*": ("u:I", "R", "let * = u in 1.0", "let * = u in 1.0", ("let*", ())),  # scrutinee not *
    "let(x)": ("p:R (x) R", "R", "let a (x) b = p in add(a, b)", "let a (x) b = p in add(a, b)", ("let(x)", ())),
    "eta-lam": ("k:R -o R", "R -o R", r"\x:R. k sin(x)", "k", ("eta-lam", ())),  # argument is not the binder
    "eta-let*": ("u:I, v:I", "I", "let * = u in v", "let * = u in v", ("eta-let*", ())),  # body is not *
    "eta-let(x)": ("p:R (x) R", "R (x) R", "let a (x) b = p in b * a", "p", ("eta-let(x)", ())),  # halves swapped
    "fold": ("x:R", "R", "sin(x)", "x", ("fold", ())),  # an argument is no literal
    # the floated binder a would capture the sibling's free a
    "float-operand": ("p:R (x) R, a:R", "R", "add(let a (x) b = p in add(a, b), a)",
                      "add(let a (x) b = p in add(a, b), a)", ("float", (), 0, ("a", "b"))),
    # the binder a floated out of the scrutinee would capture the outer body's free a
    "float-scrutinee": ("p:R (x) R, a:R", "R", "let c (x) d = (let a (x) b = p in b * a) in add(add(c, d), a)",
                        "let c (x) d = (let a (x) b = p in b * a) in add(add(c, d), a)", ("float", (), 0, ("a", "b"))),
    # the inner scrutinee reads the outer binder a
    "float-dependent": ("p:(R (x) R) (x) R", "R", "let a (x) b = p in let c (x) d = a in add(add(c, d), b)",
                        "let a (x) b = p in let c (x) d = a in add(add(c, d), b)", ("float", (), 1, ("c", "d"))),
    # the inner binders renamed to the outer ones would be shadowed by them
    "float-shadowed": ("p:R (x) R, q:R (x) R", "R", "let a (x) b = p in let c (x) d = q in add(add(a, b), add(c, d))",
                       "let a (x) b = p in let c (x) d = q in add(add(a, b), add(c, d))", ("float", (), 1, ("a", "b"))),
    # a let never leaves a λ body
    "float-lam": ("p:R (x) R", "R -o R", r"\x:R. let a (x) b = p in add(add(a, b), x)",
                  r"let a (x) b = p in \x:R. add(add(a, b), x)", ("float", (), 0, ("a", "b"))),
}


@pytest.mark.parametrize("env, ty, lhs, rhs, step", UNSOUND_STEPS.values(), ids=UNSOUND_STEPS.keys())
def test_an_unsound_step_of_each_rule_is_rejected_at_its_path(env, ty, lhs, rhs, step):
    d = Eq0(parse_env(env), parse_type(ty), parse_term(lhs), parse_term(rhs), (step,))
    with pytest.raises(CertificateError) as exc:
        check_qderivation(Trans(ConstAxiom(1.0, 1.0, 0.0), d))
    assert str(exc.value) == f"root.right: Eq0 lhs step 0 does not apply: {step!r}"


def test_a_float_out_of_a_body_keeps_no_name_the_outer_let_binds():
    # not linear, so no checked certificate reaches this term: the outer
    # binders would shadow the floated let's in the body
    t = parse_term("let a (x) b = p in let a (x) b = q in add(a, b)")
    assert _eq_step("float", t, (1, ("a", "b")), default_registry()) is None
    assert _eq_step("float", t, (1, ("c", "d")), default_registry()) is not None


@pytest.mark.parametrize(
    "lhs, rhs, step",
    [
        ("add(let a (x) b = p in add(a, b), a)", "let a_ (x) b = p in add(add(a_, b), a)",
         ("float", (), 0, ("a_", "b"))),
        ("let c (x) d = (let a (x) b = p in b * a) in add(add(c, d), a)",
         "let a_ (x) b = p in let c (x) d = b * a_ in add(add(c, d), a)", ("float", (), 0, ("a_", "b"))),
        # out of a let's body, past an independent let
        ("let c (x) d = a * 1.0 in let a (x) b = p in add(add(c, d), add(a, b))",
         "let a_ (x) b = p in let c (x) d = a * 1.0 in add(add(c, d), add(a_, b))", ("float", (), 1, ("a_", "b"))),
    ],
)
def test_a_commuting_conversion_holds_once_its_binders_are_renamed_apart(lhs, rhs, step):
    env = parse_env("p:R (x) R, a:R")
    assert check_qderivation(Eq0(env, R, parse_term(lhs), parse_term(rhs), (step,))) == 0.0
    # the new names must be fresh (b is already bound beside it), distinct, one per binder
    for names in (("b", "b"), ("e", "e"), ("a_",)):
        bad = step[:-1] + (names,)
        with pytest.raises(CertificateError) as exc:
            check_qderivation(Eq0(env, R, parse_term(lhs), parse_term(rhs), (bad,)))
        assert str(exc.value) == f"root: Eq0 lhs step 0 does not apply: {bad!r}"


@pytest.mark.parametrize(
    "step",
    [(), ("beta",), "beta", ["beta", ()], ("beta", (5,)), ("beta", ("0",)), ("beta", {0: 1}), ("nosuch", ())],
)
def test_a_malformed_step_is_rejected(step):
    d = Eq0(EMPTY_ENV, R, parse_term(r"(\x:R. x) 1.0"), Const(1.0), (step,))
    with pytest.raises(CertificateError) as exc:
        check_qderivation(d)
    assert str(exc.value) == f"root: Eq0 lhs step 0 does not apply: {step!r}"


def test_eq0_certificates_check_without_the_canonicalizer(monkeypatch):
    # every certificate of a seed-0 certify pass, checked with the
    # canonicalizer and each of its root rules made to raise
    from pathlib import Path

    import linmetric.dynamics as dynamics
    import linmetric.metrics as metrics

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import Certify

    work = Certify(0)
    reg = work.registry
    certs = []
    for item in work.items:
        m, n = (parse_term(t, reg) for t in item.texts)
        hi, cert = equ_upper_bound(item.env, item.ty, m, n, reg)
        if cert is not None:
            certs.append((hi, cert))

    def refuse(*args, **kwargs):
        raise AssertionError("the checker called the canonicalizer")

    for name in ("eq_canonical", "eq_decide", "_contract", "_hoist_root", "_sort_root", "_float", "_eta_root", "_foldable"):
        monkeypatch.setattr(dynamics, name, refuse)
        monkeypatch.setattr(metrics, name, refuse, raising=False)
    assert len(certs) == 2134
    assert all(check_qderivation(cert, reg) == hi for hi, cert in certs)


def test_check_qderivation_rejects_nonlinear_context():
    env = parse_env("x:R")
    ctx = Lam("x", R, FnApp("add", (Var("x"), HOLE)))
    d = CtxRule(ctx, EMPTY_ENV, TLolli(R, R), CtxRule(HOLE, env_of(("x", R)), R, ConstAxiom(1.0, 1.0, 0.0)))
    with pytest.raises(CertificateError):
        check_qderivation(d)


# -- engines and ordering ------------------------------------------------------------


def test_den_engine_unit_codomain():
    env = parse_env("k:R -o I")
    d = den_engine(env, I, parse_term("k 2.0"), parse_term("k 3.0"), CFG)
    assert (d.lo, d.hi) == (0.0, 0.0)


def test_int_engine_unit_codomain():
    env = parse_env("k:R -o I")
    d = int_engine(env, I, parse_term("k 2.0"), parse_term("k 3.0"), CFG)
    assert (d.lo, d.hi) == (1.0, 1.0)


def test_equ_engine_constants():
    d = equ_engine(EMPTY_ENV, R, Const(2.0), Const(3.0), CFG)
    assert (d.lo, d.hi) == (1.0, 1.0)


def test_ordering_report_unit_query_pair():
    env = parse_env("k:R -o I")
    rep = ordering_report(env, I, parse_term("k 2.0"), parse_term("k 3.0"), CFG)
    assert rep["chain_ok"]
    assert rep["metrics"]["obs"]["lo"] == 0.0
    assert rep["metrics"]["den"] == {"lo": 0.0, "hi": 0.0}
    assert rep["metrics"]["int"]["lo"] == 1.0
    assert rep["metrics"]["int"]["hi"] == 1.0
    assert rep["metrics"]["equ"]["hi"] == 1.0
    # the strict den < int separation is visible in the report
    assert rep["metrics"]["den"]["hi"] < rep["metrics"]["int"]["lo"]


def test_ordering_report_constants():
    rep = ordering_report(EMPTY_ENV, R, Const(2.0), Const(3.0), CFG)
    assert rep["chain_ok"]
    for key, value in [("obs", 1.0), ("den", 1.0), ("int", 1.0), ("equ", 1.0)]:
        metric = rep["metrics"][key]
        got = metric.get("lo", metric.get("hi"))
        assert got == value


def test_ordering_report_identical_terms():
    m = parse_term(r"\k:(R -o R). k 2.0")
    ty = parse_type("(R -o R) -o R")
    rep = ordering_report(EMPTY_ENV, ty, m, m, CFG)
    assert rep["chain_ok"]
    assert rep["metrics"]["obs"]["lo"] == 0.0
    assert rep["metrics"]["equ"]["hi"] == 0.0


def test_ordering_report_does_not_stop_obs_or_den_at_a_positive_bound():
    # rounding puts the full searches a few ulps above the certified 1.0,
    # and the report carries what the full searches find
    env = env_of(("v0", R))
    m, n = parse_term("add(v0, -0.7)"), parse_term("add(v0, -1.7)")
    rep = ordering_report(env, R, m, n, CFG)["metrics"]
    assert rep["equ"]["hi"] == 1.0
    obs, _ = obs_lower_bound(env, R, m, n, CFG.budget, CFG.registry)
    den = den_distance(env, R, m, n, CFG.battery, upper_bound=INF, registry=CFG.registry)
    assert obs == den.lo == 1.0000000000000002
    assert rep["obs"]["lo"] == obs
    assert rep["den"]["lo"] == den.lo


def test_ordering_report_skips_den_at_a_certified_zero(monkeypatch):
    import linmetric.metrics as metrics

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return den_distance(*args, **kwargs)

    monkeypatch.setattr(metrics, "den_distance", counting)
    env = env_of(("v0", R), ("k", TLolli(R, R)))
    m, n = parse_term(r"(\x:R. add(x, k 1.0)) v0"), parse_term("add(v0, k 1.0)")
    rep = ordering_report(env, R, m, n, CFG)
    assert (rep["metrics"]["equ"]["hi"], rep["metrics"]["den"], calls) == (
        0.0,
        {"lo": 0.0, "hi": 0.0},
        [],
    )
    assert rep["chain_ok"]
    ordering_report(env, R, n, parse_term("add(v0, k 2.0)"), CFG)
    assert len(calls) == 1


def test_ordering_report_skips_int_at_a_certified_zero(monkeypatch):
    import linmetric.metrics as metrics

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return int_distance(*args, **kwargs)

    monkeypatch.setattr(metrics, "int_distance", counting)
    env = env_of(("v0", R), ("k", TLolli(R, R)))
    m, n = parse_term(r"(\x:R. add(x, k 1.0)) v0"), parse_term("add(v0, k 1.0)")
    rep = ordering_report(env, R, m, n, CFG)
    # M has a redex, so a full search would normalize it and say so
    assert (rep["metrics"]["equ"]["hi"], rep["metrics"]["int"], calls) == (
        0.0,
        {"lo": 0.0, "hi": 0.0, "normalized": True},
        [],
    )
    assert rep["chain_ok"]
    # both sides beta-normal: nothing to normalize
    rep = ordering_report(env, R, n, parse_term("add(v0, k 1.0)"), CFG)
    assert (rep["metrics"]["int"], calls) == ({"lo": 0.0, "hi": 0.0, "normalized": False}, [])
    ordering_report(env, R, n, parse_term("add(v0, k 2.0)"), CFG)
    assert len(calls) == 1


def test_ordering_report_type_mismatch():
    with pytest.raises(TypeError_):
        ordering_report(EMPTY_ENV, R, Const(1.0), parse_term(r"\x:R. x"), CFG)


# -- admissibility -------------------------------------------------------------------


def _small_corpus():
    env = parse_env("k:R -o R")
    ctx = parse_term("add([-], 1.0)")
    return {
        "constants": [(0.0, 1.0), (2.0, 2.0), (-1.5, 3.0)],
        "tensor_prefixes": [
            (
                EMPTY_ENV,
                parse_type("R (x) R (x) (R -o R)"),
                parse_term(r"1.0 * 2.0 * (\x:R. x)"),
                parse_term(r"2.0 * 4.0 * (\x:R. x)"),
                3.0,
            )
        ],
        "contexts": [
            (EMPTY_ENV, R, Const(1.0), Const(2.0), ctx, EMPTY_ENV, R),
        ],
        "equal_pairs": [
            (EMPTY_ENV, TLolli(R, R), parse_term(r"\x:R. (\y:R. y) x"), parse_term(r"\x:R. x")),
            (EMPTY_ENV, R, parse_term("add(2.0, 3.0)"), Const(5.0)),
        ],
    }


@pytest.mark.parametrize("engine", ["den", "int", "equ"])
def test_admissibility_small(engine):
    rep = admissibility_suite(engine, _small_corpus(), CFG)
    assert rep.ok, rep.violations
    assert rep.checks == 7


def test_admissibility_allows_an_error_of_eps(monkeypatch):
    # an engine off by exactly EPS, where m is an application, passes every check
    def engine(env, ty, m, n, cfg):
        r = EPS if isinstance(m, FnApp) else 0.0
        return DistInterval(r, r)

    monkeypatch.setitem(ENGINES, "off-by-eps", engine)
    zero = Const(0.0)
    corpus = {
        "constants": [(0.0, EPS)],
        "tensor_prefixes": [(EMPTY_ENV, R, zero, zero, EPS)],
        "contexts": [(EMPTY_ENV, R, zero, zero, parse_term("add([-], 0.0)"), EMPTY_ENV, R)],
        "equal_pairs": [(EMPTY_ENV, R, parse_term("add(2.0, 3.0)"), Const(5.0))],
    }
    rep = admissibility_suite("off-by-eps", corpus, CFG)
    assert rep.ok, rep.violations
    assert rep.checks == 4


def test_extreal_and_interval_semantics():
    import math

    from linmetric.core import DistInterval

    assert 1.0 + math.inf == math.inf
    d = DistInterval(1.0, math.inf) + DistInterval(0.5, 2.0)
    assert (d.lo, d.hi) == (1.5, math.inf)
    with pytest.raises(AssertionError):
        DistInterval(2.0, 1.0)


def test_ordering_report_defaults_to_the_seed_0_battery():
    # den and int sample cos - sin at the battery's seeded reals
    env = parse_env("x:R")
    m, n = parse_term("cos(x)"), parse_term("sin(x)")
    seed0, seed1 = (ordering_report(env, R, m, n, EngineConfig.make(seed=s)) for s in (0, 1))
    assert seed0 != seed1
    assert ordering_report(env, R, m, n) == seed0


def test_check_qderivation_rejects_env_mismatch_trans():
    env = parse_env("k:R -o R")
    left = CtxRule(parse_term("k [-]"), env, R, ConstAxiom(2.0, 3.0, 1.0))
    right = ConstAxiom(3.0, 4.0, 1.0)
    with pytest.raises(CertificateError):
        check_qderivation(Trans(left, right))


def test_check_qderivation_rejects_trans_whose_endpoints_meet_in_another_env():
    # the same term at the same type, but x and k's argument are R on the left and I on the right
    left = Eq0(parse_env("k:R -o R, x:R"), R, parse_term("k x"), parse_term("k x"))
    right = Eq0(parse_env("k:I -o R, x:I"), R, parse_term("k x"), parse_term("k x"))
    with pytest.raises(CertificateError, match="different judgments"):
        check_qderivation(Trans(left, right))


def test_check_qderivation_rejects_wrong_target_type():
    d = CtxRule(parse_term("sin([-])"), EMPTY_ENV, I, ConstAxiom(0.0, 0.0, 0.0))
    with pytest.raises(CertificateError):
        check_qderivation(d)


def test_check_qderivation_error_reports_path():
    d = Trans(ConstAxiom(0.0, 1.0, 1.0), Trans(ConstAxiom(1.0, 2.0, 1.0), ConstAxiom(9.0, 9.5, 0.1)))
    with pytest.raises(CertificateError) as exc:
        check_qderivation(d)
    assert "right" in str(exc.value)


def test_sandwich_pins_query_pair_exactly():
    # with k:R -o R the pair k 2.0 / k 3.0 is pinned to 1 on every engine:
    # the obs lower bound and the equ upper bound coincide
    env = parse_env("k:R -o R")
    m, n = parse_term("k 2.0"), parse_term("k 3.0")
    lo, _ = obs_lower_bound(env, R, m, n, CFG.budget, CFG.registry)
    hi, cert = equ_upper_bound(env, R, m, n, CFG.registry)
    assert (lo, hi) == (1.0, 1.0)
    den = den_engine(env, R, m, n, CFG)
    ints = int_engine(env, R, m, n, CFG)
    assert (den.lo, den.hi) == (1.0, 1.0)
    assert (ints.lo, ints.hi) == (1.0, 1.0)


def test_composite_interaction_collapses_to_ground():
    # applying a second-order consumer to a query closure yields a closed
    # observable composite where every engine is the exact ground distance
    import math

    n_term = r"(\k:((R -o R) -o R). cos(k (\x:R. sin(x))))"
    m0 = parse_term(n_term + r" (\k:(R -o R). k 0.0)")
    m1 = parse_term(n_term + r" (\k:(R -o R). k 1.0)")
    want = abs(math.cos(math.sin(0.0)) - math.cos(math.sin(1.0)))
    rep = ordering_report(EMPTY_ENV, R, m0, m1, CFG)
    assert rep["chain_ok"]
    assert rep["metrics"]["obs"]["lo"] == pytest.approx(want, abs=0)
    assert rep["metrics"]["den"]["lo"] == pytest.approx(want, abs=0)
    assert rep["metrics"]["int"]["lo"] == pytest.approx(want, abs=1e-12)
    assert rep["metrics"]["int"]["normalized"] is True
