"""Seeded corpora: random types, linear terms, pairs, and wire functions.

Generation is type-directed and resource-aware: a variable of function
type is consumed by applying it to a closed argument, tensors are split
by let, unit resources are discarded by let-star, and surplus real
resources are folded together with a binary symbol.  ``can_build``
decides feasibility first, so generation never dead-ends.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .core import (
    App,
    Const,
    Env,
    EMPTY_ENV,
    FnApp,
    HOLE,
    I,
    Lam,
    LetPair,
    LetStar,
    Pair,
    R,
    STAR,
    SymbolRegistry,
    Symbol,
    Term,
    TLolli,
    TReal,
    TTensor,
    TUnit,
    Ty,
    Var,
    _make_evaluator,
    const_paths,
    free_vars,
    paths,
    replace_at,
    subterm_at,
    term_size,
)
from .dynamics import _is_let, _let_parts, _make_let, beta_normalize, eq_decide, substitute
from .semden import compile_term
from .semint import WireFunction


def corpus_registry() -> SymbolRegistry:
    """Registry used by generated corpora; guarantees a binary folder."""
    return SymbolRegistry(
        [Symbol(kind, *_make_evaluator(kind, None)) for kind in ("add", "sin", "cos", "min", "max")],
        gaps={("sin", "cos"): math.sqrt(2.0), ("min", "max"): math.inf},
    )


# ---------------------------------------------------------------------------
# Feasibility


def real_yield(ty: Ty) -> int:
    """Real resources obtained by destructing a variable of this type."""
    if isinstance(ty, TReal):
        return 1
    if isinstance(ty, TUnit):
        return 0
    if isinstance(ty, TTensor):
        return real_yield(ty.left) + real_yield(ty.right)
    if isinstance(ty, TLolli):
        return real_yield(ty.res)
    raise AssertionError(ty)


def consumable(ty: Ty) -> bool:
    """A variable of this type can be fully destructed.

    Function variables are consumed by application, which needs a closed
    argument; tensors split; units are discarded by let-star.
    """
    if isinstance(ty, (TReal, TUnit)):
        return True
    if isinstance(ty, TTensor):
        return consumable(ty.left) and consumable(ty.right)
    if isinstance(ty, TLolli):
        return can_build(0, ty.arg) and consumable(ty.res)
    raise AssertionError(ty)


def can_build(n_reals: int, ty: Ty) -> bool:
    """Can a term of this type consume exactly n_reals real resources?"""
    if isinstance(ty, TReal):
        return True  # fold any surplus with a binary symbol
    if isinstance(ty, TUnit):
        return n_reals == 0
    if isinstance(ty, TTensor):
        return any(
            can_build(p, ty.left) and can_build(n_reals - p, ty.right)
            for p in range(n_reals + 1)
        )
    if isinstance(ty, TLolli):
        return consumable(ty.arg) and can_build(n_reals + real_yield(ty.arg), ty.res)
    raise AssertionError(ty)


def env_reals(env: Env) -> int:
    return sum(real_yield(t) for _, t in env)


def feasible_site(env: Env, ty: Ty) -> bool:
    return all(consumable(t) for _, t in env) and can_build(env_reals(env), ty)


# ---------------------------------------------------------------------------
# Types


def gen_type(rng: random.Random, max_order: int = 2, max_atoms: int = 4) -> Ty:
    if max_atoms <= 1:
        return R if rng.random() < 0.8 else I
    roll = rng.random()
    if roll < 0.45:
        return R if rng.random() < 0.8 else I
    left_atoms = rng.randint(1, max_atoms - 1)
    if roll < 0.72 or max_order == 0:
        return TTensor(
            gen_type(rng, max_order, left_atoms),
            gen_type(rng, max_order, max_atoms - left_atoms),
        )
    return TLolli(
        gen_type(rng, max_order - 1, left_atoms),
        gen_type(rng, max_order, max_atoms - left_atoms),
    )


def gen_observable_type(rng: random.Random, max_atoms: int = 4) -> Ty:
    if max_atoms <= 1:
        return R if rng.random() < 0.8 else I
    if rng.random() < 0.5:
        return R if rng.random() < 0.8 else I
    left = rng.randint(1, max_atoms - 1)
    return TTensor(
        gen_observable_type(rng, left), gen_observable_type(rng, max_atoms - left)
    )


def gen_env(rng: random.Random, max_bindings: int = 2, max_order: int = 2) -> Env:
    n = rng.randint(0, max_bindings)
    bindings = []
    for i in range(n):
        bindings.append((f"v{i}", gen_type(rng, max_order, rng.randint(1, 3))))
    return Env(tuple(bindings))


# ---------------------------------------------------------------------------
# Terms


class _TermGen:
    def __init__(self, rng: random.Random, registry: SymbolRegistry):
        self.rng = rng
        self.registry = registry
        self.unary = registry.names_of_arity(1)
        self.binary = registry.names_of_arity(2)
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"w{self.counter}"

    def literal(self) -> Term:
        return Const(round(self.rng.uniform(-10.0, 10.0), 2))

    def closed(self, ty: Ty, fuel: int) -> Term:
        if not can_build(0, ty):
            raise ValueError(f"no closed term of type {ty!r}")
        return self.go(EMPTY_ENV, ty, fuel)

    def go(self, env: Env, ty: Ty, fuel: int) -> Term:
        rng = self.rng
        if isinstance(ty, TLolli):
            x = self.fresh()
            return Lam(x, ty.arg, self.go(env.extend(x, ty.arg), ty.res, fuel - 1))
        if isinstance(ty, TTensor):
            masks = self._tensor_splits(env, ty)
            left_names = rng.choice(masks)
            env_l = env.restrict(set(left_names))
            env_r = env.restrict(set(env.names()) - set(left_names))
            return Pair(self.go(env_l, ty.left, fuel - 1), self.go(env_r, ty.right, fuel - 1))
        if isinstance(ty, TUnit):
            if len(env) == 0:
                if fuel > 1 and rng.random() < 0.2:
                    return LetStar(STAR, STAR)
                return STAR
            return self._consume_first(env, ty, fuel)
        if isinstance(ty, TReal):
            if len(env) == 0:
                return self._closed_real(fuel)
            if len(env) == 1:
                return self._consume_first(env, ty, fuel)
            k = rng.randint(1, len(env) - 1)
            names = env.names()
            left = env.restrict(set(names[:k]))
            right = env.restrict(set(names[k:]))
            sym = rng.choice(self.binary)
            return FnApp(sym, (self.go(left, R, fuel - 1), self.go(right, R, fuel - 1)))
        raise AssertionError(ty)

    def _tensor_splits(self, env: Env, ty: TTensor) -> list[tuple[str, ...]]:
        names = env.names()
        out = []
        for mask in range(1 << len(names)):
            left = tuple(n for i, n in enumerate(names) if mask & (1 << i))
            right = tuple(n for n in names if n not in left)
            ln = sum(real_yield(env.lookup(n)) for n in left)
            rn = sum(real_yield(env.lookup(n)) for n in right)
            if can_build(ln, ty.left) and can_build(rn, ty.right):
                out.append(left)
        if not out:
            raise ValueError("infeasible tensor split")
        return out

    def _closed_real(self, fuel: int) -> Term:
        rng = self.rng
        roll = rng.random()
        if fuel <= 0 or roll < 0.45:
            return self.literal()
        if roll < 0.7 and self.unary:
            return FnApp(rng.choice(self.unary), (self._closed_real(fuel - 1),))
        if roll < 0.9 and self.binary:
            return FnApp(
                rng.choice(self.binary),
                (self._closed_real(fuel - 1), self._closed_real(fuel - 1)),
            )
        # a harmless redex, normalized away in beta-normal corpora
        inner = self._closed_real(fuel - 1)
        v = self.fresh()
        return App(Lam(v, R, Var(v)), inner)

    def _consume_first(self, env: Env, ty: Ty, fuel: int) -> Term:
        rng = self.rng
        name, vt = env.bindings[0]
        rest = Env(env.bindings[1:])
        if isinstance(vt, TReal):
            assert isinstance(ty, TReal)
            if len(rest) == 0:
                if rng.random() < 0.4 and self.unary:
                    return FnApp(rng.choice(self.unary), (Var(name),))
                if rng.random() < 0.3 and self.binary:
                    return FnApp(rng.choice(self.binary), (Var(name), self._closed_real(fuel - 1)))
                return Var(name)
            sym = rng.choice(self.binary)
            return FnApp(sym, (Var(name), self.go(rest, R, fuel - 1)))
        if isinstance(vt, TUnit):
            return LetStar(Var(name), self.go(rest, ty, fuel - 1))
        if isinstance(vt, TTensor):
            a, b = self.fresh(), self.fresh()
            inner = rest.extend(a, vt.left).extend(b, vt.right)
            return LetPair(a, b, Var(name), self.go(inner, ty, fuel - 1))
        if isinstance(vt, TLolli):
            arg = self.closed(vt.arg, max(fuel - 2, 0))
            applied = App(Var(name), arg)
            y = self.fresh()
            body_env = rest.extend(y, vt.res)
            return App(Lam(y, vt.res, self.go(body_env, ty, fuel - 1)), applied)
        raise AssertionError(vt)


def gen_term(
    rng: random.Random,
    env: Env,
    ty: Ty,
    registry: Optional[SymbolRegistry] = None,
    fuel: int = 5,
) -> Term:
    """A term of the given type consuming the environment linearly."""
    registry = registry if registry is not None else corpus_registry()
    if not feasible_site(env, ty):
        raise ValueError("environment resources do not fit the target type")
    return _TermGen(rng, registry).go(env, ty, fuel)


def gen_closed_observable(rng: random.Random, registry: Optional[SymbolRegistry] = None) -> tuple[Ty, Term]:
    registry = registry if registry is not None else corpus_registry()
    ty = gen_observable_type(rng, max_atoms=rng.randint(1, 4))
    return ty, gen_term(rng, EMPTY_ENV, ty, registry, fuel=rng.randint(2, 5))


def gen_feasible_pair_site(
    rng: random.Random, max_order: int = 2
) -> tuple[Env, Ty]:
    """An (env, type) site at which terms exist."""
    for _ in range(64):
        env = gen_env(rng, max_bindings=2, max_order=max_order)
        ty = gen_type(rng, max_order, rng.randint(1, 4))
        if feasible_site(env, ty):
            return env, ty
    return EMPTY_ENV, R


# ---------------------------------------------------------------------------
# Mutations and derivably-equal variants


_SYM_SWAPS = {"sin": "cos", "cos": "sin", "min": "max", "max": "min"}


def mutate(rng: random.Random, t: Term) -> Term:
    """A same-type variant: literal nudges and same-arity symbol swaps."""
    out = t
    lits = const_paths(out)
    rng.shuffle(lits)
    for path in lits[: max(1, len(lits) // 2)]:
        c = subterm_at(out, path)
        out = replace_at(out, path, Const(c.value + rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])))
    if rng.random() < 0.3:
        sym_paths = [
            p
            for p in paths(out)
            if isinstance(subterm_at(out, p), FnApp) and subterm_at(out, p).symbol in _SYM_SWAPS
        ]
        if sym_paths:
            p = rng.choice(sym_paths)
            node = subterm_at(out, p)
            out = replace_at(out, p, FnApp(_SYM_SWAPS[node.symbol], node.args))
    return out


def _rename_binder_at(t: Term, rng: random.Random) -> Term:
    lam_paths = [p for p in paths(t) if isinstance(subterm_at(t, p), Lam)]
    if not lam_paths:
        return t
    p = rng.choice(lam_paths)
    node = subterm_at(t, p)
    nv = f"rn{rng.randint(0, 10 ** 6)}"
    renamed = Lam(nv, node.ann, substitute(node.body, node.var, Var(nv)))
    return replace_at(t, p, renamed)


def _swap_adjacent_lets(t: Term, rng: random.Random) -> Term:
    candidates = []
    for p in paths(t):
        node = subterm_at(t, p)
        if _is_let(node):
            b1, s1, inner = _let_parts(node)
            if _is_let(inner):
                b2, s2, body = _let_parts(inner)
                if not (set(b1) & free_vars(s2)) and not (set(b2) & free_vars(s1)):
                    candidates.append((p, b1, s1, b2, s2, body))
    if not candidates:
        return t
    p, b1, s1, b2, s2, body = rng.choice(candidates)
    return replace_at(t, p, _make_let(b2, s2, _make_let(b1, s1, body)))


def equal_variant(
    rng: random.Random, t: Term, ty: Ty, registry: Optional[SymbolRegistry] = None
) -> Term:
    """A syntactically different term that ``eq_decide`` proves equal.

    Candidate rewrites are all derivable; the decidability post-check
    keeps the promise even where the (incomplete) decider falls short.
    """
    registry = registry if registry is not None else corpus_registry()
    out = t
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.25:
            v = f"eqv{rng.randint(0, 10 ** 6)}"
            cand = App(Lam(v, ty, Var(v)), out)
        elif roll < 0.5:
            p = rng.choice(list(paths(out)))
            cand = replace_at(out, p, LetStar(STAR, subterm_at(out, p)))
        elif roll < 0.7:
            lits = const_paths(out)
            if lits:
                p = rng.choice(lits)
                c = subterm_at(out, p)
                cand = replace_at(out, p, FnApp("add", (Const(0.0), Const(c.value))))
            else:
                cand = LetStar(STAR, out)
        elif roll < 0.85:
            cand = _rename_binder_at(out, rng)
        else:
            cand = _swap_adjacent_lets(out, rng)
        if eq_decide(t, cand, registry):
            out = cand
    if out == t:
        out = LetStar(STAR, out)
    return out


# ---------------------------------------------------------------------------
# Ready-made corpora


def beta_normal_corpus(
    seed: int, count: int, max_size: int = 25, registry: Optional[SymbolRegistry] = None
) -> list[tuple[Env, Ty, Term]]:
    registry = registry if registry is not None else corpus_registry()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        env, ty = gen_feasible_pair_site(rng)
        try:
            t = gen_term(rng, env, ty, registry, fuel=rng.randint(2, 6))
        except ValueError:
            continue
        t = beta_normalize(t)
        if term_size(t) <= max_size:
            out.append((env, ty, t))
    return out


def closed_observable_corpus(
    seed: int, count: int, registry: Optional[SymbolRegistry] = None
) -> list[tuple[Ty, Term]]:
    registry = registry if registry is not None else corpus_registry()
    rng = random.Random(seed)
    return [gen_closed_observable(rng, registry) for _ in range(count)]


def typed_pair_corpus(
    seed: int, count: int, registry: Optional[SymbolRegistry] = None
) -> list[tuple[Env, Ty, Term, Term]]:
    registry = registry if registry is not None else corpus_registry()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        env, ty = gen_feasible_pair_site(rng)
        try:
            m = gen_term(rng, env, ty, registry, fuel=rng.randint(2, 5))
        except ValueError:
            continue
        roll = rng.random()
        if roll < 0.2:
            n = m
        elif roll < 0.75:
            n = mutate(rng, m)
        else:
            try:
                n = gen_term(rng, env, ty, registry, fuel=rng.randint(2, 5))
            except ValueError:
                n = mutate(rng, m)
        out.append((env, ty, m, n))
    return out


def admissibility_corpus(seed: int, count: int, registry: Optional[SymbolRegistry] = None) -> dict:
    registry = registry if registry is not None else corpus_registry()
    rng = random.Random(seed)
    constants = [
        (round(rng.uniform(-50, 50), 3), round(rng.uniform(-50, 50), 3)) for _ in range(count)
    ]
    tensor_prefixes = []
    while len(tensor_prefixes) < count:
        n = rng.randint(1, 3)
        a = [round(rng.uniform(-5, 5), 2) for _ in range(n)]
        b = [round(rng.uniform(-5, 5), 2) for _ in range(n)]
        tail_ty = rng.choice([I, TLolli(R, R), TTensor(R, R), R])
        try:
            tail = gen_term(rng, EMPTY_ENV, tail_ty, registry, fuel=2)
        except ValueError:
            continue
        m: Term = Const(a[0])
        nt: Term = Const(b[0])
        ty: Ty = R
        for v, w in zip(a[1:], b[1:]):
            m, nt, ty = Pair(m, Const(v)), Pair(nt, Const(w)), TTensor(ty, R)
        m, nt, ty = Pair(m, tail), Pair(nt, tail), TTensor(ty, tail_ty)
        expected = sum(abs(x - y) for x, y in zip(a, b))
        tensor_prefixes.append((EMPTY_ENV, ty, m, nt, expected))
    contexts = []
    for _ in range(count):
        a = round(rng.uniform(-5, 5), 2)
        b = round(rng.uniform(-5, 5), 2)
        ctx = FnApp("add", (HOLE, Const(round(rng.uniform(-3, 3), 2))))
        if rng.random() < 0.5:
            ctx = FnApp(rng.choice(["sin", "cos"]), (ctx,))
        contexts.append((EMPTY_ENV, R, Const(a), Const(b), ctx, EMPTY_ENV, R))
    equal_pairs = []
    while len(equal_pairs) < count:
        env, ty = gen_feasible_pair_site(rng)
        if len(env):
            continue
        try:
            m = gen_term(rng, env, ty, registry, fuel=3)
        except ValueError:
            continue
        equal_pairs.append((env, ty, m, equal_variant(rng, m, ty)))
    return {
        "constants": constants,
        "tensor_prefixes": tensor_prefixes,
        "contexts": contexts,
        "equal_pairs": equal_pairs,
    }


# ---------------------------------------------------------------------------
# Random wire functions (trace-law corpus)


def random_wire_function(
    rng: random.Random, n_in: int, n_out: int, registry: Optional[SymbolRegistry] = None
) -> WireFunction:
    """Each output is a random wire term over the inputs ``x0 ..``,
    compiled by ``compile_term``."""
    registry = registry if registry is not None else corpus_registry()
    unary = registry.names_of_arity(1)
    binary = registry.names_of_arity(2)

    def wire() -> Term:
        return Var(f"x{rng.randrange(n_in)}")

    outputs: list[Term] = []
    for _ in range(n_out):
        roll = rng.random()
        if roll < 0.3:
            outputs.append(wire())
        elif roll < 0.5:
            outputs.append(Const(round(rng.uniform(-5, 5), 2)))
        elif roll < 0.8 and unary:
            outputs.append(FnApp(rng.choice(unary), (wire(),)))
        elif binary:
            outputs.append(FnApp(rng.choice(binary), (wire(), wire())))
        else:
            outputs.append(Const(0.0))
    slots = {f"x{i}": i for i in range(n_in)}
    code = [compile_term(h, slots, n_in, registry) for h in outputs]
    return WireFunction(("R",) * n_in, ("R",) * n_out, lambda i: tuple([c(i) for c in code]))
