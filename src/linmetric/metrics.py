"""Syntactic metrics and the cross-engine comparison layer.

Four engines bound the distance between two typed terms:

* ``obs_lower_bound`` enumerates closing/observing contexts and reports
  the largest separation actually witnessed (a sound lower bound for
  every admissible metric);
* the denotational and interactive engines live in ``semden``/``semint``
  and report enclosures;
* ``equ_upper_bound`` synthesizes a quantitative derivation whose bound
  is a sound upper bound for every admissible metric.  Its ``Eq0``
  nodes carry the rewrite steps ``eq_canonical`` recorded, and
  ``check_qderivation`` replays them with its own check of each rule.

``ordering_report`` runs them all and asserts the interval-consistency
chain obs ≤ den ≤ int ≤ equ that the theory predicts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    App,
    Const,
    Context,
    DistInterval,
    EMPTY_ENV,
    EPS,
    Env,
    EvalError,
    FnApp,
    HOLE,
    INF,
    Lam,
    LetPair,
    LetStar,
    LinError,
    Pair,
    R,
    RegistryError,
    STAR,
    Star,
    SymbolRegistry,
    Term,
    TLolli,
    TReal,
    TTensor,
    TUnit,
    Ty,
    TypeError_,
    Var,
    check_context,
    children,
    default_registry,
    free_vars,
    is_observable,
    plug,
    print_term,
    print_type,
    rebuild,
    replace_at,
    search,
    subterm_at,
    typecheck,
)
from .dynamics import (
    _is_let,
    _let_parts,
    _make_let,
    alpha_eq,
    eq_canonical,
    eq_decide,
    evaluate,
    is_beta_normal,
    literal_diffs,
    substitute,
)
from .semden import DEN_DEPTH, ProbeBattery, den_distance
from .semint import int_distance


class CertificateError(LinError):
    """A quantitative derivation failed validation."""


# ---------------------------------------------------------------------------
# Quantitative derivations


@dataclass(frozen=True)
class QDerivation:
    pass


@dataclass(frozen=True)
class Judgment:
    env: Env
    ty: Ty
    lhs: Term
    rhs: Term
    r: float


@dataclass(frozen=True)
class Eq0(QDerivation):
    """Zero distance from a derivable equality: each side's rewrite steps,
    as ``eq_canonical`` records them, lead the two sides to terms equal up
    to bound names.  The checker replays the steps (``_eq_step``): beta,
    the two let laws, three etas, ``fold`` and ``float``, the one rule
    that moves a let."""

    env: Env
    ty: Ty
    lhs: Term
    rhs: Term
    lhs_steps: tuple = ()
    rhs_steps: tuple = ()


@dataclass(frozen=True)
class ConstAxiom(QDerivation):
    a: float
    b: float
    r: float


@dataclass(frozen=True)
class SymRule(QDerivation):
    sub: QDerivation


@dataclass(frozen=True)
class Trans(QDerivation):
    left: QDerivation
    right: QDerivation


@dataclass(frozen=True)
class CtxRule(QDerivation):
    ctx: Context
    env: Env
    ty: Ty
    sub: QDerivation


def _renamed(binders: tuple, names, body: Term, avoid: set) -> Optional[Term]:
    """``body`` with each of ``binders`` renamed to the name at its place
    in ``names``, or None unless the new names are distinct, meet none of
    ``avoid``, and each changed one is fresh for ``body`` and ``binders``."""
    if type(names) is not tuple or len(names) != len(binders) or any(type(v) is not str for v in names):
        return None
    if len(set(names)) != len(names) or set(names) & avoid:
        return None
    fv = free_vars(body)
    for v, nv in zip(binders, names):
        if nv != v:
            if nv in fv or nv in binders:
                return None
            body = substitute(body, v, Var(nv))
    return body


def _eq_step(rule, t: Term, extra: tuple, registry: SymbolRegistry) -> Optional[Term]:
    """``t`` rewritten at its root by one recorded step of ``eq_canonical``,
    or None where ``t`` does not have the rule's shape or fails its side
    condition.  Each rule is checked here, from the term alone.  A
    ``float`` names its child ``i`` and the let's new binders: they must
    capture no free name of another child, and a let leaves a let's body
    only if its scrutinee reads none of that let's binders, which its new
    binders must not shadow.  No let leaves a λ body."""
    cls = type(t)
    if rule == "float" and len(extra) == 2 and cls in (App, FnApp, Pair, LetStar, LetPair):
        # t(.., let b = s in body, ..) -> let b' = s in t(.., body, ..)
        i, names = extra
        kids = children(t)
        if type(i) is not int or not 0 <= i < len(kids) or not _is_let(kids[i]):
            return None
        binders, scrut, body = _let_parts(kids[i])
        avoid = set().union(*(free_vars(k) for j, k in enumerate(kids) if j != i))
        if i == 1 and _is_let(t):  # out of a let's body: past binders s must not read
            outer = set(_let_parts(t)[0])
            if outer & free_vars(scrut):
                return None
            avoid |= outer
        body = _renamed(binders, names, body, avoid)
        if body is None:
            return None
        return _make_let(names, scrut, rebuild(t, kids[:i] + (body,) + kids[i + 1 :]))
    if extra:
        return None
    if rule == "beta" and cls is App and type(t.fn) is Lam:
        return substitute(t.fn.body, t.fn.var, t.arg)
    if rule == "let*" and cls is LetStar and type(t.scrutinee) is Star:
        return t.body
    if rule == "let(x)" and cls is LetPair and type(t.scrutinee) is Pair:
        # both halves at once: as two betas, so var2 captures nothing in the left half
        lam = substitute(Lam(t.var2, None, t.body), t.var1, t.scrutinee.left)
        return substitute(lam.body, lam.var, t.scrutinee.right)
    if rule == "eta-lam" and cls is Lam and type(t.body) is App:
        if t.body.arg == Var(t.var) and t.var not in free_vars(t.body.fn):
            return t.body.fn
    if rule == "eta-let*" and cls is LetStar and type(t.body) is Star:
        return t.scrutinee
    if rule == "eta-let(x)" and cls is LetPair and t.body == Pair(Var(t.var1), Var(t.var2)):
        if not ({t.var1, t.var2} & free_vars(t.scrutinee)):
            return t.scrutinee
    if rule == "fold" and cls is FnApp and all(type(a) is Const for a in t.args):
        return Const(registry.get(t.symbol)(*[a.value for a in t.args]))
    return None


def _replay(t: Term, steps, registry: SymbolRegistry, side: str, path: str) -> Term:
    """``t`` rewritten by each of ``steps`` in turn, each at its position."""
    for k, step in enumerate(steps):
        sub = None
        if type(step) is tuple and len(step) > 1 and type(step[1]) is tuple:
            try:
                sub = subterm_at(t, step[1])
            except (IndexError, TypeError):  # no position in ``t``
                pass
        new = None if sub is None else _eq_step(step[0], sub, step[2:], registry)
        if new is None:
            raise CertificateError(f"{path}: Eq0 {side} step {k} does not apply: {step!r}")
        t = replace_at(t, step[1], new)
    return t


def _check_node(d: QDerivation, registry: SymbolRegistry, path: str) -> Judgment:
    if isinstance(d, Eq0):
        try:
            t1 = typecheck(d.env, d.lhs, registry)
            t2 = typecheck(d.env, d.rhs, registry)
        except (TypeError_, RegistryError) as e:
            raise CertificateError(f"{path}: Eq0 side is ill-typed: {e}") from None
        if t1 != d.ty or t2 != d.ty:
            raise CertificateError(f"{path}: Eq0 sides do not have the stated type")
        try:
            lhs = _replay(d.lhs, d.lhs_steps, registry, "lhs", path)
            rhs = _replay(d.rhs, d.rhs_steps, registry, "rhs", path)
        except EvalError as e:
            raise CertificateError(f"{path}: Eq0 side does not fold: {e}") from None
        if not alpha_eq(lhs, rhs):
            raise CertificateError(f"{path}: Eq0 on terms not provably equal")
        return Judgment(d.env, d.ty, d.lhs, d.rhs, 0.0)
    if isinstance(d, ConstAxiom):
        if abs(d.a - d.b) > d.r + EPS:
            raise CertificateError(f"{path}: constant axiom |{d.a} - {d.b}| > {d.r}")
        return Judgment(EMPTY_ENV, R, Const(d.a), Const(d.b), d.r)
    if isinstance(d, SymRule):
        j = _check_node(d.sub, registry, path + ".sym")
        return Judgment(j.env, j.ty, j.rhs, j.lhs, j.r)
    if isinstance(d, Trans):
        jl = _check_node(d.left, registry, path + ".left")
        jr = _check_node(d.right, registry, path + ".right")
        if jl.env.bindings != jr.env.bindings or jl.ty != jr.ty:
            raise CertificateError(f"{path}: transitivity across different judgments")
        if not alpha_eq(jl.rhs, jr.lhs):
            raise CertificateError(f"{path}: transitivity endpoints do not meet")
        return Judgment(jl.env, jl.ty, jl.lhs, jr.rhs, jl.r + jr.r)
    if isinstance(d, CtxRule):
        j = _check_node(d.sub, registry, path + ".ctx")
        if not check_context(d.ctx, (j.env, j.ty), (d.env, d.ty), registry):
            raise CertificateError(f"{path}: context does not map the sub-judgment")
        return Judgment(d.env, d.ty, plug(d.ctx, j.lhs), plug(d.ctx, j.rhs), j.r)
    raise CertificateError(f"{path}: unknown rule {type(d).__name__}")


def check_qderivation(d: QDerivation, registry: Optional[SymbolRegistry] = None) -> float:
    """Validate every node and return the certified bound at the root."""
    return qderivation_judgment(d, registry).r


def qderivation_judgment(d: QDerivation, registry: Optional[SymbolRegistry] = None) -> Judgment:
    registry = registry if registry is not None else default_registry()
    return _check_node(d, registry, "root")


def qderivation_to_dict(d: QDerivation) -> dict:
    if isinstance(d, Eq0):
        return {"rule": "eq0", "lhs": print_term(d.lhs), "rhs": print_term(d.rhs)}
    if isinstance(d, ConstAxiom):
        return {"rule": "const", "a": d.a, "b": d.b, "r": d.r}
    if isinstance(d, SymRule):
        return {"rule": "sym", "sub": qderivation_to_dict(d.sub)}
    if isinstance(d, Trans):
        return {
            "rule": "trans",
            "left": qderivation_to_dict(d.left),
            "right": qderivation_to_dict(d.right),
        }
    if isinstance(d, CtxRule):
        return {"rule": "ctx", "context": print_term(d.ctx), "sub": qderivation_to_dict(d.sub)}
    raise AssertionError(d)


# ---------------------------------------------------------------------------
# Equational upper bounds


def equ_upper_bound(
    env: Env,
    ty: Ty,
    m: Term,
    n: Term,
    registry: Optional[SymbolRegistry] = None,
) -> tuple[float, Optional[QDerivation]]:
    """Upper bound with a machine-checkable derivation, or infinity.

    Both terms are canonicalized; if the canonical forms agree up to
    numeric literals at aligned positions, the bound is the sum of the
    literal gaps, realized by a chain of single-literal replacements.
    """
    registry = registry if registry is not None else default_registry()
    if typecheck(env, m, registry) != ty or typecheck(env, n, registry) != ty:
        raise TypeError_("equ_upper_bound: terms do not have the stated type")
    m_steps: list = []
    n_steps: list = []
    cm = eq_canonical(m, registry, m_steps)
    cn = eq_canonical(n, registry, n_steps)
    diffs = literal_diffs(cm, cn)
    if diffs == []:  # alpha_eq(cm, cn)
        return 0.0, Eq0(env, ty, m, n, tuple(m_steps), tuple(n_steps))
    if diffs is None or any(isinstance(a, str) for _, a, _ in diffs):
        return INF, None
    steps: list[QDerivation] = []
    current = cm
    for path, a, b in diffs:
        ctx = replace_at(current, path, HOLE)
        steps.append(CtxRule(ctx, env, ty, ConstAxiom(a, b, abs(a - b))))
        current = replace_at(current, path, Const(b))
    chain: QDerivation = steps[0]
    for s in steps[1:]:
        chain = Trans(chain, s)
    cert: QDerivation = chain
    if not alpha_eq(m, cm):
        cert = Trans(Eq0(env, ty, m, cm, tuple(m_steps)), cert)
    if not alpha_eq(cn, n):
        cert = Trans(cert, Eq0(env, ty, cn, n, (), tuple(n_steps)))
    r = sum(abs(a - b) for _, a, b in diffs)
    return r, cert


# ---------------------------------------------------------------------------
# Observational lower bounds


@dataclass(frozen=True)
class ObsWitness:
    """A context, the values it produced, and the separation achieved."""

    context: Term
    lhs_value: Term
    rhs_value: Term
    value: float

    def to_dict(self) -> dict:
        return {
            "context": print_term(self.context),
            "lhs_value": print_term(self.lhs_value),
            "rhs_value": print_term(self.rhs_value),
            "value": self.value,
        }


# how many arguments an observing context applies to a function value
APPLY_DEPTH = 2


@dataclass(frozen=True)
class ObsBudget:
    values_per_type: int = 5
    max_contexts: int = 300


def probe_values(ty: Ty, registry: SymbolRegistry, limit: int) -> list[Term]:
    """Closed syntactic values of a type, deterministic, possibly empty."""
    out = _probe_values(ty, registry, depth=3)
    return out[:limit]


_PROBE_REALS = (0.0, 1.0, -1.0, 0.5, 10.0)


def _probe_values(ty: Ty, registry: SymbolRegistry, depth: int) -> list[Term]:
    if depth < 0:
        return []
    if isinstance(ty, TReal):
        return [Const(a) for a in _PROBE_REALS]
    if isinstance(ty, TUnit):
        return [STAR]
    if isinstance(ty, TTensor):
        ls = _probe_values(ty.left, registry, depth - 1)
        rs = _probe_values(ty.right, registry, depth - 1)
        return [Pair(a, b) for a, b in itertools.islice(itertools.product(ls, rs), 8)]
    if isinstance(ty, TLolli):
        out = []
        x = "p"
        for body in _consumers(Var(x), ty.arg, ty.res, registry, depth - 1):
            out.append(Lam(x, ty.arg, body))
        return out
    raise AssertionError(ty)


def _consumers(scrut: Term, src: Ty, dst: Ty, registry: SymbolRegistry, depth: int) -> list[Term]:
    """Bodies consuming ``scrut : src`` linearly and producing ``dst``."""
    if depth < 0:
        return []
    unary = registry.names_of_arity(1)
    binary = registry.names_of_arity(2)
    if isinstance(dst, TReal):
        if isinstance(src, TReal):
            out = [scrut]
            out += [FnApp(s, (scrut,)) for s in unary[:2]]
            out += [FnApp(s, (scrut, Const(1.0))) for s in binary[:1]]
            return out
        if isinstance(src, TUnit):
            return [LetStar(scrut, Const(a)) for a in (0.0, 1.0)]
        if isinstance(src, TTensor):
            lefts = _consumers(Var("a_"), src.left, R, registry, depth - 1)
            rights = _consumers(Var("b_"), src.right, R, registry, depth - 1)
            out = []
            for s in binary[:1]:
                for l in lefts[:2]:
                    for r_ in rights[:2]:
                        out.append(LetPair("a_", "b_", scrut, FnApp(s, (l, r_))))
            # unit-halves need no symbol
            if isinstance(src.right, TUnit):
                for l in lefts[:2]:
                    out.append(LetPair("a_", "b_", scrut, LetStar(Var("b_"), l)))
            if isinstance(src.left, TUnit):
                for r_ in rights[:2]:
                    out.append(LetPair("a_", "b_", scrut, LetStar(Var("a_"), r_)))
            return out
        if isinstance(src, TLolli):
            out = []
            for arg in _probe_values(src.arg, registry, depth - 1)[:3]:
                applied = App(scrut, arg)
                out += _consumers(applied, src.res, R, registry, depth - 1)[:2]
            return out
    if isinstance(dst, TUnit):
        if isinstance(src, TUnit):
            return [scrut]
        if isinstance(src, TLolli):
            out = []
            for arg in _probe_values(src.arg, registry, depth - 1)[:2]:
                out += _consumers(App(scrut, arg), src.res, dst, registry, depth - 1)[:2]
            return out
        if isinstance(src, TTensor):
            out = []
            for rest in _consumers(Var("b_"), src.right, dst, registry, depth - 1):
                if isinstance(src.left, TUnit):
                    out.append(LetPair("a_", "b_", scrut, LetStar(Var("a_"), rest)))
            return out[:2]
        return []  # an R resource can never be disposed into I
    if isinstance(dst, TTensor):
        # keep one side passive: scrut feeds the left, literals fill the right
        out = []
        for l in _consumers(scrut, src, dst.left, registry, depth - 1)[:2]:
            for r_ in _probe_values(dst.right, registry, depth - 1)[:2]:
                out.append(Pair(l, r_))
        return out
    return []


def _observable_components(v: Term, ty: Ty) -> list[float]:
    """Real components reachable through tensors only, left to right."""
    if isinstance(ty, TReal):
        return [v.value]  # type: ignore[union-attr]
    if isinstance(ty, TTensor):
        return _observable_components(v.left, ty.left) + _observable_components(v.right, ty.right)  # type: ignore[union-attr]
    return []


def _observable_l1(v: Term, u: Term, ty: Ty) -> float:
    """L1 distance of the real components of ``v`` and ``u`` reachable through tensors."""
    comps = zip(_observable_components(v, ty), _observable_components(u, ty))
    return float(sum(abs(a - b) for a, b in comps))


def _elaborations(ctx: Term, ty: Ty, registry: SymbolRegistry, budget: ObsBudget, depth: int):
    """Closed observing contexts reachable from ``ctx : ty``."""
    yield ctx, ty
    if depth <= 0:
        return
    if isinstance(ty, TLolli):
        for w in probe_values(ty.arg, registry, budget.values_per_type):
            yield from _elaborations(App(ctx, w), ty.res, registry, budget, depth - 1)
    if isinstance(ty, TTensor):
        has_fn_right = not is_observable(ty.right)
        has_fn_left = not is_observable(ty.left)
        if has_fn_right:
            for sub, sub_ty in _elaborations(Var("v_"), ty.right, registry, budget, depth - 1):
                if sub == Var("v_"):
                    continue
                yield (
                    LetPair("u_", "v_", ctx, Pair(Var("u_"), sub)),
                    TTensor(ty.left, sub_ty),
                )
        if has_fn_left:
            for sub, sub_ty in _elaborations(Var("u_"), ty.left, registry, budget, depth - 1):
                if sub == Var("u_"):
                    continue
                yield (
                    LetPair("u_", "v_", ctx, Pair(sub, Var("v_"))),
                    TTensor(sub_ty, ty.right),
                )


def obs_lower_bound(
    env: Env,
    ty: Ty,
    m: Term,
    n: Term,
    budget: Optional[ObsBudget] = None,
    registry: Optional[SymbolRegistry] = None,
    upper_bound: float = INF,
) -> tuple[float, ObsWitness]:
    """Largest separation found by closing and observing contexts.

    Sound lower bound for the observational metric; the witness replays
    by evaluating the stored context around both terms.  The first
    context that evaluates is the witness until one separates further
    (``core.search``); none can at a certified ``upper_bound`` of 0, so
    the search then returns after it.
    """
    registry = registry if registry is not None else default_registry()
    budget = budget if budget is not None else ObsBudget()

    closed: Term = HOLE
    for name, t in reversed(tuple(env)):
        closed = Lam(name, t, closed)
    pools = [probe_values(t, registry, budget.values_per_type) for _, t in env]
    bases = (functools.reduce(App, combo, closed) for combo in itertools.product(*pools))
    contexts = (c for base in bases for c in _elaborations(base, ty, registry, budget, APPLY_DEPTH))

    def scored():
        for ctx, cty in itertools.islice(contexts, budget.max_contexts):
            try:
                vm = evaluate(plug(ctx, m), registry)
                vn = evaluate(plug(ctx, n), registry)
            except LinError:
                continue
            yield _observable_l1(vm, vn, cty), (ctx, vm, vn)

    best, witness = search(scored(), 0.0 if upper_bound == 0.0 else INF, -1.0, (HOLE, m, n))
    best = max(best, 0.0)  # -1.0 if no context evaluates
    return best, ObsWitness(*witness, best)


def replay_obs_witness(
    w: ObsWitness, m: Term, n: Term, registry: Optional[SymbolRegistry] = None
) -> bool:
    registry = registry if registry is not None else default_registry()
    try:  # where no context evaluates, the witness holds the unevaluated pair
        vm = evaluate(plug(w.context, m), registry)
        vn = evaluate(plug(w.context, n), registry)
    except LinError:
        return False
    return vm == w.lhs_value and vn == w.rhs_value


# ---------------------------------------------------------------------------
# Engines with a uniform interface


@dataclass
class EngineConfig:
    registry: SymbolRegistry
    battery: ProbeBattery
    budget: ObsBudget = field(default_factory=ObsBudget)
    depth: int = DEN_DEPTH

    @staticmethod
    def make(registry: Optional[SymbolRegistry] = None, seed: int = 0) -> "EngineConfig":
        registry = registry if registry is not None else default_registry()
        return EngineConfig(registry=registry, battery=ProbeBattery(registry, seed=seed))


def den_engine(env: Env, ty: Ty, m: Term, n: Term, cfg: EngineConfig) -> DistInterval:
    upper, _ = equ_upper_bound(env, ty, m, n, cfg.registry)
    return den_distance(
        env, ty, m, n, cfg.battery, depth=cfg.depth, upper_bound=upper, registry=cfg.registry
    )


def int_engine(env: Env, ty: Ty, m: Term, n: Term, cfg: EngineConfig) -> DistInterval:
    return int_distance(env, ty, m, n, cfg.battery, registry=cfg.registry)


def equ_engine(env: Env, ty: Ty, m: Term, n: Term, cfg: EngineConfig) -> DistInterval:
    hi, _ = equ_upper_bound(env, ty, m, n, cfg.registry)
    lo, _ = obs_lower_bound(env, ty, m, n, cfg.budget, cfg.registry, upper_bound=hi)
    return DistInterval(min(lo, hi), hi)


ENGINES = {"den": den_engine, "int": int_engine, "equ": equ_engine}


# ---------------------------------------------------------------------------
# Admissibility suite


@dataclass
class SuiteReport:
    engine: str
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def admissibility_suite(
    engine: str,
    corpus: dict,
    cfg: Optional[EngineConfig] = None,
) -> SuiteReport:
    """Runs the four admissibility checks against one distance engine.

    ``corpus`` maps check names to lists of instances:
      constants: [(a, b)]
      tensor_prefixes: [(env, ty, M, N, expected_prefix_l1)]
      contexts: [(env, ty, M, N, ctx, dst_env, dst_ty)]
      equal_pairs: [(env, ty, M, N)]
    """
    cfg = cfg if cfg is not None else EngineConfig.make()
    run = ENGINES[engine]
    report = SuiteReport(engine)

    for a, b in corpus.get("constants", []):
        report.checks += 1
        d = run(EMPTY_ENV, R, Const(a), Const(b), cfg)
        want = abs(a - b)
        if abs(d.lo - want) > EPS or abs(d.hi - want) > EPS:
            report.violations.append(("constants-exact", a, b, d.lo, d.hi))

    for env, ty, m, n, want in corpus.get("tensor_prefixes", []):
        report.checks += 1
        d = run(env, ty, m, n, cfg)
        if d.lo < want - EPS:
            report.violations.append(("prefix-lower", print_term(m), print_term(n), d.lo, want))

    for env, ty, m, n, ctx, dst_env, dst_ty in corpus.get("contexts", []):
        report.checks += 1
        d_pair = run(env, ty, m, n, cfg)
        d_ctx = run(dst_env, dst_ty, plug(ctx, m), plug(ctx, n), cfg)
        if d_pair.is_exact() and d_ctx.is_exact():
            if d_ctx.lo > d_pair.lo + EPS:
                report.violations.append(
                    ("context-nonexpansive", print_term(ctx), print_term(m), print_term(n), d_ctx.lo, d_pair.lo)
                )
        elif d_ctx.lo > d_pair.hi + EPS:
            report.violations.append(
                ("context-interval", print_term(ctx), print_term(m), print_term(n), d_ctx.lo, d_pair.hi)
            )

    for env, ty, m, n in corpus.get("equal_pairs", []):
        report.checks += 1
        if not eq_decide(m, n, cfg.registry):
            report.violations.append(("equal-pair-precondition", print_term(m), print_term(n)))
            continue
        d = run(env, ty, m, n, cfg)
        if d.hi > EPS:
            report.violations.append(("equal-pair-zero", print_term(m), print_term(n), d.hi))

    return report


# ---------------------------------------------------------------------------
# Ordering report


def _enc(x: float):
    return "inf" if x == INF else x


# Each engine's report entry, for ``ordering_report`` and ``dist --metric``


def obs_entry(lo: float, witness: ObsWitness) -> dict:
    return {"lo": _enc(lo), "witness": witness.to_dict()}


def den_entry(d: DistInterval) -> dict:
    return {"lo": _enc(d.lo), "hi": _enc(d.hi)}


def int_entry(d: DistInterval) -> dict:
    return {"lo": _enc(d.lo), "hi": _enc(d.hi), "normalized": d.normalized}


def equ_entry(hi: float, cert: Optional[QDerivation]) -> dict:
    return {"hi": _enc(hi), "certificate": qderivation_to_dict(cert) if cert is not None else None}


def ordering_report(
    env: Env,
    ty: Ty,
    m: Term,
    n: Term,
    cfg: Optional[EngineConfig] = None,
) -> dict:
    """Run all engines on one pair and check interval consistency.

    The chain asserted is: obs ≤ den.hi, den.lo ≤ int.hi, int.lo ≤ equ,
    obs ≤ equ.  A violation indicates an engine bug, not a property of
    the pair.  On a pair that ``equ`` certifies at 0, ``obs`` stops at
    its first context and neither ``den`` nor ``int`` is searched (the
    sandwich closes all three at 0), so the chain cannot catch an
    unsound 0 there; ``tests/test_invariants.py`` and the traced
    benchmark search those pairs in full instead.
    """
    cfg = cfg if cfg is not None else EngineConfig.make()
    # first, so that its type check rejects an ill-typed pair
    equ_hi, cert = equ_upper_bound(env, ty, m, n, cfg.registry)
    obs_lo, witness = obs_lower_bound(env, ty, m, n, cfg.budget, cfg.registry, upper_bound=equ_hi)
    if equ_hi == 0.0:
        # the sandwich obs <= den <= int <= equ; int keeps int_distance's flag
        den = DistInterval(0.0, 0.0)
        ints = DistInterval(0.0, 0.0, normalized=not (is_beta_normal(m) and is_beta_normal(n)))
    else:
        den = den_distance(
            env, ty, m, n, cfg.battery, depth=cfg.depth, upper_bound=equ_hi, registry=cfg.registry
        )
        ints = int_distance(env, ty, m, n, cfg.battery, registry=cfg.registry)

    chain_ok = (
        obs_lo <= den.hi + EPS
        and den.lo <= ints.hi + EPS
        and ints.lo <= equ_hi + EPS
        and obs_lo <= equ_hi + EPS
    )
    return {
        "pair": {
            "gamma": ", ".join(f"{x}:{print_type(t)}" for x, t in env),
            "type": print_type(ty),
            "M": print_term(m),
            "N": print_term(n),
        },
        "metrics": {
            "obs": obs_entry(obs_lo, witness),
            "den": den_entry(den),
            "int": int_entry(ints),
            "equ": equ_entry(equ_hi, cert),
        },
        "chain_ok": chain_ok,
    }
