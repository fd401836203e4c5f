"""Plain denotational model: values, interpretation, distances.

Terms denote non-expansive maps between metric domains: reals with the
absolute distance (extended with a bottom element at infinite distance
from everything), a one-point unit, tensor products carrying the L1 sum
metric, and function spaces carrying the sup metric.

The sup in the function-space metric ranges over an infinite domain, so
the distance engine reports sound enclosures: lower bounds obtained by
probing with a deterministic battery of sample points, upper bounds
supplied by the caller (typically from an equational certificate).

Values are plain Python data: a real is a number, a pair a 2-tuple and
a function a Python callable; bottom and the unit are the sentinels
``BOTTOM`` and ``UNIT``, so ``==`` compares values (functions and the
sentinels by identity).  Each term is compiled once, by
``compile_term``, into Python closures over a slot-indexed environment
tuple (variables resolved to tuple indices, symbols to their
evaluators); the probes then run the compiled code, not the syntax
tree.  A map that runs at many points is a term compiled the same way:
every map the probe battery samples is a small λ-term over the sub-maps
and sample values it composes, and ``gen.random_wire_function``'s
outputs are wire terms (variables, constants and symbols over the
wires).  ``semint.int_term_denotation`` runs a wire term at one point,
so it walks the term instead.

A compiled λ is fully lazy (Hughes 1983): the maximal subterms of its
body that mention neither its variable nor a name bound inside the body
are evaluated once, when the closure is created, and stored in extra
environment slots.  In a linear term the bound variable occurs exactly
once, so everything off the path from the body's root to that
occurrence is hoisted, and each probe application re-runs only that
path.  Every evaluator is pure, so the values are those of the plain
interpretation.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .core import (
    App,
    Const,
    DistInterval,
    EPS,
    Env,
    FnApp,
    INF,
    Lam,
    LetPair,
    LetStar,
    ModelError,
    Pair,
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
    children,
    default_registry,
    is_observable,
    is_one_point,
    search,
    typecheck,
)
from .dynamics import evaluate


# ---------------------------------------------------------------------------
# Semantic values


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


BOTTOM = _Sentinel("Bottom")
UNIT = _Sentinel("UnitVal")
Value = float | tuple | Callable | _Sentinel
SemEnvPoint = tuple  # tuple of values, one per environment binding


# ---------------------------------------------------------------------------
# Interpretation


def interp_den(
    env: Env, term: Term, registry: Optional[SymbolRegistry] = None
) -> Callable[[SemEnvPoint], Value]:
    """Compositional interpretation of ``env |- term`` as a function.

    The term is compiled once; the returned function runs the compiled
    code on each environment point.
    """
    registry = registry if registry is not None else default_registry()
    names = env.names()
    code = compile_term(term, {name: i for i, name in enumerate(names)}, len(names), registry)

    def run(point: SemEnvPoint) -> Value:
        if len(point) != len(names):
            raise TypeError_(f"environment point has arity {len(point)}, expected {len(names)}")
        return code(tuple(point))

    return run


def compile_term(
    t: Term, slots: dict, depth: int, registry: SymbolRegistry
) -> Callable[[tuple], Value]:
    """Translate ``t`` into a closure over an environment tuple.

    ``slots`` maps each name in scope, and the ``id`` of each subterm a
    λ hoisted, to its index in that tuple; ``depth`` is the tuple's
    length, so a binder always takes the next index, also when its name
    shadows one already in ``slots``.  A wire term is a term over the
    wire variables, so ``gen.random_wire_function`` compiles with it too,
    and so does every map of the probe battery.  Like
    ``core.children`` it dispatches on the exact class.
    """
    cls = type(t)
    if cls is Var:
        return itemgetter(slots[t.name])
    if cls is Const:
        value = t.value
        return lambda env: value
    if cls is Star:
        return lambda env: UNIT
    if id(t) in slots:  # hoisted parts are never leaves
        return itemgetter(slots[id(t)])
    if cls is FnApp:
        f = registry.get(t.symbol).evaluator
        args = [compile_term(a, slots, depth, registry) for a in t.args]
        if len(args) == 1:
            (arg,) = args

            def unary(env: tuple) -> Value:
                a = arg(env)
                return BOTTOM if a is BOTTOM else f(a)  # strict: bottom in, bottom out

            return unary
        if len(args) == 2:
            left, right = args

            def binary(env: tuple) -> Value:
                a, b = left(env), right(env)
                return BOTTOM if a is BOTTOM or b is BOTTOM else f(a, b)

            return binary

        def nary(env: tuple) -> Value:
            vals = [a(env) for a in args]
            return BOTTOM if BOTTOM in vals else f(*vals)

        return nary
    if cls is App:
        fn = compile_term(t.fn, slots, depth, registry)
        arg = compile_term(t.arg, slots, depth, registry)

        def app(env: tuple) -> Value:
            f, a = fn(env), arg(env)
            if callable(f):
                return f(a)
            if f is BOTTOM:
                return BOTTOM
            raise TypeError_("application of a non-function denotation")

        return app
    if cls is Lam:
        inner = _rebind(slots, t.var)
        parts = _invariant_parts(t.body, t.var, inner)
        hoisted = [compile_term(s, slots, depth, registry) for s in parts]
        for s in parts:
            inner[id(s)] = depth
            depth += 1
        inner[t.var] = depth
        body = compile_term(t.body, inner, depth + 1, registry)
        if not hoisted:
            return lambda env: lambda v: body(env + (v,))

        def lam(env: tuple) -> Value:
            outer = env + tuple([h(env) for h in hoisted])
            return lambda v: body(outer + (v,))

        return lam
    if cls is Pair:
        left = compile_term(t.left, slots, depth, registry)
        right = compile_term(t.right, slots, depth, registry)
        return lambda env: (left(env), right(env))
    if cls is LetStar:
        scrutinee = compile_term(t.scrutinee, slots, depth, registry)
        body = compile_term(t.body, slots, depth, registry)

        def let_star(env: tuple) -> Value:
            if scrutinee(env) is BOTTOM:
                return BOTTOM
            return body(env)

        return let_star
    if cls is LetPair:
        scrutinee = compile_term(t.scrutinee, slots, depth, registry)
        inner = {**_rebind(slots, t.var1, t.var2), t.var1: depth, t.var2: depth + 1}
        body = compile_term(t.body, inner, depth + 2, registry)

        def let_pair(env: tuple) -> Value:
            s = scrutinee(env)
            if type(s) is tuple:
                return body(env + s)
            if s is BOTTOM:
                return BOTTOM
            raise TypeError_("let (x) scrutinee did not denote a pair")

        return let_pair
    raise AssertionError(t)


def _rebind(slots: dict, *names: str) -> dict:
    """A copy of ``slots`` for a scope that binds ``names`` anew.

    A hoisted subterm is keyed by object identity.  If the same object
    recurs under a binder that rebinds one of its free names, it means
    something else there, so rebinding a name in scope drops those keys.
    """
    if any(n in slots for n in names):
        return {k: i for k, i in slots.items() if isinstance(k, str)}
    return dict(slots)


def _invariant_parts(body: Term, var: str, slots: dict) -> list[Term]:
    """The subterms of ``λvar. body`` that every application recomputes.

    These are the maximal subterms of ``body``, other than variables,
    constants and ``*``, that mention neither ``var`` nor a name bound
    inside ``body`` above them.  Subterms an enclosing λ already hoisted
    (their ``id`` is in ``slots``) are left where they are.
    """
    out: list[Term] = []

    def walk(t: Term, bound: frozenset) -> set[str]:  # the free names of t
        if isinstance(t, Var):
            return {t.name}
        mark = len(out)
        if isinstance(t, Lam):
            names = walk(t.body, bound | {t.var}) - {t.var}
        elif isinstance(t, LetPair):
            names = walk(t.scrutinee, bound)
            names |= walk(t.body, bound | {t.var1, t.var2}) - {t.var1, t.var2}
        else:
            names = set().union(*[walk(c, bound) for c in children(t)])
        if not isinstance(t, (Const, Star)) and not names & bound:
            del out[mark:]  # t is invariant, so its parts are not maximal
            if id(t) not in slots:
                out.append(t)
        return names

    walk(body, frozenset((var,)))
    return out


# ---------------------------------------------------------------------------
# Ground distances


def ground_l1(v: Term, u: Term, ty: Ty) -> float:
    """Exact L1 distance between closed values of an observable type."""
    if isinstance(ty, TReal):
        if not (isinstance(v, Const) and isinstance(u, Const)):
            raise TypeError_("expected real constants")
        return abs(v.value - u.value)
    if isinstance(ty, TUnit):
        if not (isinstance(v, Star) and isinstance(u, Star)):
            raise TypeError_("expected unit values")
        return 0.0
    if isinstance(ty, TTensor):
        if not (isinstance(v, Pair) and isinstance(u, Pair)):
            raise TypeError_("expected pair values")
        return ground_l1(v.left, u.left, ty.left) + ground_l1(v.right, u.right, ty.right)
    raise TypeError_(f"type {ty!r} is not observable")


def sem_l1(a: Value, b: Value, ty: Ty) -> float:
    """Exact distance between denotations at an observable type."""
    if a is BOTTOM or b is BOTTOM:
        return 0.0 if (a is BOTTOM and b is BOTTOM) else INF
    if isinstance(ty, TReal):
        return abs(a - b)  # type: ignore[operator]
    if isinstance(ty, TUnit):
        return 0.0
    if isinstance(ty, TTensor):
        return sem_l1(a[0], b[0], ty.left) + sem_l1(a[1], b[1], ty.right)  # type: ignore[index]
    raise TypeError_(f"type {ty!r} is not observable")


# ---------------------------------------------------------------------------
# Probe batteries

DEFAULT_GRID = (-10.0, -1.0, -0.5, 0.0, 0.5, 1.0, 10.0)
# how deeply the function samples compose registry symbols
FN_DEPTH = 2
# the names the battery's templates read: a map's argument p, x or y, the
# components a and b of a pair, the sub-maps h and g and a sample value v
_P, _X, _Y, _A, _B, _H, _G, _V = (Var(n) for n in "pxyabhgv")


class ProbeBattery:
    """Deterministic finite samples of each semantic domain.

    Reals come from a fixed grid plus seeded uniform draws; functions
    come from a combinator pool (constants, projections into registry
    symbols, compositions up to depth ``FN_DEPTH``).  Every generated
    function is non-expansive by construction.

    Every sampled map is a compiled term: a small λ-term (a template)
    whose free names are bound to the sub-maps and sample values it
    composes, compiled once by ``compile_term`` and run on each binding
    of its parts, so only ``compile_term`` says what a map does at bottom.
    """

    def __init__(
        self,
        registry: Optional[SymbolRegistry] = None,
        seed: int = 0,
        draws: int = 25,
        max_samples: int = 48,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.seed = seed
        self.draws = draws
        self.max_samples = max_samples
        rng = random.Random(seed)
        self.reals = list(DEFAULT_GRID) + [rng.uniform(-100.0, 100.0) for _ in range(draws)]
        self._cache: dict[Ty, list[Value]] = {}
        self._codes: dict[tuple, Callable[[tuple], Value]] = {}

    def _compiled(self, template: Term, *names: str) -> Callable[..., Value]:
        """Compile ``template`` once per battery; the result, called with
        one part per name in ``names``, is the template's value with those
        names bound."""
        key = (template, names)
        code = self._codes.get(key)
        if code is None:
            code = compile_term(template, {n: i for i, n in enumerate(names)}, len(names), self.registry)
            self._codes[key] = code
        return lambda *parts: code(parts)

    # -- scalar-valued combinators ------------------------------------------

    def _real_probes(self, src: Ty, depth: int) -> list[Callable[[Value], Value]]:
        """Non-expansive maps src -> R, as compiled terms."""
        unary = self.registry.names_of_arity(1)
        binary = self.registry.names_of_arity(2)
        if isinstance(src, TReal):
            terms: list[Term] = [_P, *[FnApp(n, (_P,)) for n in unary]]
            terms += [FnApp(n, (_P, Const(c))) for n in binary for c in (0.0, 1.0, -1.0)]
            if depth > 1:
                terms += [FnApp(n, (h,)) for h in terms[: 1 + len(unary)] for n in unary]
            return [self._compiled(Lam("p", src, h))() for h in terms]
        if isinstance(src, TUnit):
            const = self._compiled(Lam("p", src, _V), "v")
            return [const(c) for c in (0.0, 1.0)]
        if isinstance(src, TTensor):
            lefts = self._real_probes(src.left, depth - 1)
            rights = self._real_probes(src.right, depth - 1)

            def split(body: Term, *names: str) -> Callable[..., Value]:
                return self._compiled(Lam("p", src, LetPair("a", "b", _P, body)), *names)

            via_left, via_right = split(App(_H, _A), "h"), split(App(_H, _B), "h")
            out = [via_left(h) for h in lefts[:4]] + [via_right(h) for h in rights[:4]]
            for n in binary:
                combined = split(FnApp(n, (App(_H, _A), App(_G, _B))), "h", "g")
                out += [combined(hl, hr) for hl in lefts[:2] for hr in rights[:2]]
            return out
        if isinstance(src, TLolli):
            if depth <= 0:
                return []
            args = self.samples(src.arg)[:3]
            if isinstance(src.res, TReal):
                probe = self._compiled(Lam("p", src, App(_P, _A)), "a")
                return [probe(a) for a in args]
            # a unit probe ignores its argument, so the unit is forced first
            body = LetStar(App(_P, _A), App(_H, STAR)) if isinstance(src.res, TUnit) else App(_H, App(_P, _A))
            probe = self._compiled(Lam("p", src, body), "h", "a")
            posts = self._real_probes(src.res, depth - 1)[:3]
            return [probe(h, a) for a in args for h in posts]
        raise AssertionError(src)

    # -- samples -------------------------------------------------------------

    def samples(self, ty: Ty) -> list[Value]:
        """The samples of ``ty``, built once per type; callers must not mutate them."""
        if ty not in self._cache:
            self._cache[ty] = self._build_samples(ty)
        return self._cache[ty]

    def _build_samples(self, ty: Ty) -> list[Value]:
        if isinstance(ty, TReal):
            return self.reals[: self.max_samples]
        if isinstance(ty, TUnit):
            return [UNIT]
        if isinstance(ty, TTensor):
            pairs = itertools.product(self.samples(ty.left), self.samples(ty.right))
            return list(itertools.islice(pairs, self.max_samples))
        if isinstance(ty, TLolli):
            return self._function_samples(ty)
        raise AssertionError(ty)

    def _function_samples(self, ty: TLolli) -> list[Value]:
        # constant maps: always non-expansive
        const = self._compiled(Lam("x", ty.arg, _V), "v")
        out = [const(v) for v in self.samples(ty.res)[:6]]
        out.extend(self._structured_functions(ty))
        if isinstance(ty.res, TReal):
            # pad with seeded constant maps up to the requested battery size
            rng = random.Random(self.seed ^ zlib.crc32(repr(ty).encode()))
            while len(out) < self.max_samples:
                out.append(const(rng.uniform(-100.0, 100.0)))
        return out[: self.max_samples]

    def _structured_functions(self, ty: TLolli) -> list[Value]:
        out: list[Value] = []
        # active maps, shaped by the result type
        if isinstance(ty.res, TReal):
            out.extend(self._real_probes(ty.arg, FN_DEPTH))
        elif isinstance(ty.res, TUnit):
            out.append(self._compiled(Lam("x", ty.arg, STAR))())
        elif isinstance(ty.res, TTensor):
            # one active component at a time keeps the map non-expansive
            left, right = ty.res.left, ty.res.right
            active = [(Pair(App(_H, _X), _V), right)] if isinstance(left, TReal) else []
            active += [(Pair(_V, App(_H, _X)), left)] if isinstance(right, TReal) else []
            hs = self._real_probes(ty.arg, FN_DEPTH)[:4] if active else []
            for body, passive in active:
                pair = self._compiled(Lam("x", ty.arg, body), "h", "v")
                out += [pair(h, w) for h in hs for w in self.samples(passive)[:2]]
        elif isinstance(ty.res, TLolli) and isinstance(ty.res.res, TReal):
            # x |-> (y |-> f(h(x), g(y))): non-expansive in each stage, and
            # λ-hoisting runs h x once per x
            hs = self._real_probes(ty.arg, 1)[:3]
            gs = self._real_probes(ty.res.arg, 1)[:3] if not isinstance(ty.res.arg, TUnit) else []
            for n in self.registry.names_of_arity(2)[:1]:
                stages = Lam("x", ty.arg, Lam("y", ty.res.arg, FnApp(n, (App(_H, _X), App(_G, _Y)))))
                curried = self._compiled(stages, "h", "g")
                out += [curried(h, g) for h in hs for g in gs]
        return out

    def env_samples(self, env: Env, limit: int = 64) -> list[SemEnvPoint]:
        pools = [self.samples(t) for _, t in env]
        return list(itertools.islice(itertools.product(*pools), limit))


# ---------------------------------------------------------------------------
# Distance engine

# how many arguments den applies to a function value before it reads 0
DEN_DEPTH = 2


@dataclass(frozen=True)
class LoWitness:
    """Environment and argument probes achieving the reported lower bound."""

    env_point: SemEnvPoint
    arg_path: tuple


def value_dist_lower(
    a: Value, b: Value, ty: Ty, battery: ProbeBattery, depth: int
) -> tuple[float, tuple]:
    """Lower bound on the hom distance between two denotations, with path."""
    if is_observable(ty):
        return sem_l1(a, b, ty), ()
    if isinstance(ty, TTensor):
        dl, pl = value_dist_lower(a[0], b[0], ty.left, battery, depth)  # type: ignore[index]
        dr, pr = value_dist_lower(a[1], b[1], ty.right, battery, depth)  # type: ignore[index]
        return dl + dr, (("pair", pl, pr),)
    if isinstance(ty, TLolli):
        if a is BOTTOM or b is BOTTOM:
            return (0.0, ()) if (a is BOTTOM and b is BOTTOM) else (INF, ())
        if depth <= 0:
            return 0.0, ()
        best, path = 0.0, ()
        for i, arg in enumerate(battery.samples(ty.arg)):
            d, sub = value_dist_lower(a(arg), b(arg), ty.res, battery, depth - 1)  # type: ignore[operator]
            if d > best:
                best, path = d, (("apply", i) + sub,)
        return best, path
    raise AssertionError(ty)


def den_distance(
    env: Env,
    ty: Ty,
    m: Term,
    n: Term,
    battery: Optional[ProbeBattery] = None,
    depth: int = DEN_DEPTH,
    upper_bound: float = INF,
    registry: Optional[SymbolRegistry] = None,
) -> DistInterval:
    """Sound enclosure of the denotational distance between two terms.

    The lower bound is witnessed by battery points; the upper bound is
    taken from the caller (an equational certificate dominates this
    metric) except in the exactly-computable cases.

    The search (``core.search``) runs in full whatever ``upper_bound``
    is, so that the ``ModelError`` check tests the bound;
    ``ordering_report`` skips the call at a certified 0.
    """
    registry = registry if registry is not None else default_registry()
    battery = battery if battery is not None else ProbeBattery(registry)
    if typecheck(env, m, registry) != ty or typecheck(env, n, registry) != ty:
        raise TypeError_("den_distance: terms do not have the stated type")
    if is_one_point(ty):
        return DistInterval(0.0, 0.0)
    if len(env) == 0 and is_observable(ty):
        d = ground_l1(evaluate(m, registry), evaluate(n, registry), ty)
        return DistInterval(d, d, lo_witness=LoWitness((), ()))
    points = battery.env_samples(env)
    if not points:
        raise TypeError_("den_distance: battery has no samples for this environment")
    fm = interp_den(env, m, registry)
    fn = interp_den(env, n, registry)
    found = (value_dist_lower(fm(p), fn(p), ty, battery, depth) for p in points)
    lo, witness = search((d, (p, path)) for p, (d, path) in zip(points, found))
    hi = max(upper_bound, lo) if upper_bound < INF else INF
    if lo > upper_bound + EPS:
        raise ModelError(
            f"lower bound {lo} exceeds certified upper bound {upper_bound}: engine bug"
        )
    return DistInterval(lo, hi, lo_witness=LoWitness(*witness) if witness else None)


def replay_lo(
    env: Env,
    ty: Ty,
    m: Term,
    n: Term,
    witness: LoWitness,
    battery: ProbeBattery,
    depth: int = DEN_DEPTH,
    registry: Optional[SymbolRegistry] = None,
) -> float:
    """Recompute the distance achieved by a stored witness point."""
    registry = registry if registry is not None else default_registry()
    a = interp_den(env, m, registry)(witness.env_point)
    b = interp_den(env, n, registry)(witness.env_point)
    d, _ = value_dist_lower(a, b, ty, battery, depth)
    return d
