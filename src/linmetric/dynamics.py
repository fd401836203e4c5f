"""Operational semantics and a sound equality decision procedure.

Evaluation is big-step and total on typed closed terms.  It runs in an
environment of closures (Landin 1964; Reynolds 1972) and reads the value
back by substituting each closure's free variables into its λ; these
values are closed, so the term is the one that rewriting by substitution
gives.  The event guard sizes the term only once a closure is applied
twice: until then each node runs at most once, as a λ body runs once per
application of a closure made at that λ.  Normalization contracts beta
and let redexes under binders; each contraction strictly shrinks the
term (the language is linear), so both terminate.

``eq_canonical`` rewrites a term into a canonical representative of its
equational class using beta, the let laws, eta-contraction of all three
connectives, evaluation of symbols on literal arguments, and one
let-floating rule (``_float``, the commuting conversions): a let moves
out of a child of an application, symbol, pair or let, never out of a λ
body, and out of a let's body only past binders it does not read.  It
hoists lets and orders independent ones.  Each pass is a root rule
applied over the children (``_map_children``) and rebuilds a node only
when a child changed, so a pass that fires nowhere returns its input
and unchanged subtrees are shared.  No root rule fires at a leaf, so
``_map_children`` hands a ``Var``, ``Const``, ``Star`` or ``Hole``
child back without calling the pass on it; ``_fixed``,
``_step_normal_order``, ``substitute`` and ``literal_diffs`` likewise
read leaf children in the parent's frame.  Before each round a
read-only walk tries every root rule at every node; if none fires, the
round is not run.  ``beta_normalize`` and the round loop compute their
size bounds only after 8 steps.  Given a list, both record each root
rule that fires as a step at its position (``_record``), so that a
checker can replay the rewriting without running it again
(``metrics._eq_step``); a call given no list records nothing.
``eq_decide`` compares canonical forms up to alpha-renaming; it is sound
but deliberately incomplete.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional

from .core import (
    App,
    Const,
    EvalError,
    FnApp,
    Hole,
    INF,
    LEAVES,
    Lam,
    LetPair,
    LetStar,
    Pair,
    Star,
    SymbolRegistry,
    Term,
    Var,
    children,
    default_registry,
    free_vars,
    print_term,
    rebuild,
    replace_at,
    subterm_at,
    term_size,
)


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    for k in itertools.count():
        cand = f"{base}_{k}"
        if cand not in avoid:
            return cand


def substitute(term: Term, var: str, value: Term) -> Term:
    """Capture-avoiding substitution term[value/var]."""
    fv_value = free_vars(value)

    def go(t: Term) -> Term:
        cls = type(t)
        if cls is Var:
            return value if t.name == var else t
        if cls is Const or cls is Star:
            return t
        if cls is FnApp or cls is App or cls is Pair or cls is LetStar:
            # a leaf child is substituted here, with no call of its own
            kids = children(t)
            return rebuild(t, [
                (value if c.name == var else c) if type(c) is Var else c if type(c) in LEAVES else go(c)
                for c in kids
            ])
        if cls is Lam:
            if t.var == var:
                return t
            if t.var in fv_value and var in free_vars(t.body):
                avoid = fv_value | free_vars(t.body) | {var}
                nv = fresh_name(t.var, avoid)
                body = substitute(t.body, t.var, Var(nv))
                return Lam(nv, t.ann, go(body))
            return Lam(t.var, t.ann, go(t.body))
        if cls is LetPair:
            scrut = go(t.scrutinee)
            if var in (t.var1, t.var2):
                return LetPair(t.var1, t.var2, scrut, t.body)
            v1, v2, body = t.var1, t.var2, t.body
            if var in free_vars(body):
                avoid = fv_value | free_vars(body) | {var}
                if v1 in fv_value:
                    nv = fresh_name(v1, avoid)
                    body = substitute(body, v1, Var(nv))
                    v1 = nv
                    avoid = avoid | {nv}
                if v2 in fv_value:
                    nv = fresh_name(v2, avoid)
                    body = substitute(body, v2, Var(nv))
                    v2 = nv
            return LetPair(v1, v2, scrut, go(body))
        raise AssertionError(t)

    return go(term)


class _Closure:
    """A λ and the environment it was made in; ``applied`` once applied."""

    __slots__ = ("lam", "env", "applied")

    def __init__(self, lam: Lam, env: dict):
        self.lam, self.env, self.applied = lam, env, False


def _read_back(v) -> Term:
    """The term a value stands for.  Only a closure's free variables are
    read back: reading back its whole environment would take time
    exponential in the nesting of closures made in each other's scope."""
    if isinstance(v, _Closure):
        lam = v.lam
        fv = free_vars(lam)
        for name, value in v.env.items():
            if name in fv:
                lam = substitute(lam, name, _read_back(value))
        return lam
    if isinstance(v, tuple):
        return Pair(_read_back(v[0]), _read_back(v[1]))
    return v


def evaluate(term: Term, registry: Optional[SymbolRegistry] = None) -> Term:
    """Big-step evaluation of a closed typed term to a value.

    In a linear term every event (a symbol, an application or a let
    firing) consumes a syntax node, so the number of events is bounded
    by the term's size; exceeding it means the input was not typeable
    and evaluation aborts.  The size is computed only once a closure is
    applied twice (see the module docstring).
    """
    registry = registry if registry is not None else default_registry()
    limit = INF
    events = 0

    def fire():
        nonlocal events
        events += 1
        if events > limit:
            raise EvalError("reduction events exceeded the term size (untyped input?)")

    def go(t: Term, env: dict):
        nonlocal limit
        cls = type(t)  # exact classes: this loop is the hot path of obs
        if cls is Var:
            if t.name not in env:
                raise EvalError(f"free variable {t.name!r} during evaluation")
            return env[t.name]
        if cls is Const or cls is Star:
            return t
        if cls is FnApp:
            sym = registry.get(t.symbol)
            vals = []
            for a in t.args:
                v = go(a, env)
                if type(v) is not Const:
                    raise EvalError(f"argument of {t.symbol!r} evaluated to a non-number")
                vals.append(v.value)
            fire()
            return Const(sym(*vals))
        if cls is Lam:
            return _Closure(t, env)
        if cls is App:
            f = go(t.fn, env)
            if type(f) is not _Closure:
                raise EvalError("application head is not a function value")
            v = go(t.arg, env)
            fire()
            if f.applied and limit == INF:
                limit = term_size(term)
            f.applied = True
            return go(f.lam.body, {**f.env, f.lam.var: v})
        if cls is Pair:
            return go(t.left, env), go(t.right, env)
        if cls is LetPair:
            s = go(t.scrutinee, env)
            if type(s) is not tuple:
                raise EvalError("let (x) scrutinee did not evaluate to a pair")
            fire()
            # var1 last: where the names coincide it wins, as when substituted first
            return go(t.body, {**env, t.var2: s[1], t.var1: s[0]})
        if cls is LetStar:
            s = go(t.scrutinee, env)
            if type(s) is not Star:
                raise EvalError("let * scrutinee did not evaluate to *")
            fire()
            return go(t.body, env)
        raise AssertionError(t)

    return _read_back(go(term, {}))


# ---------------------------------------------------------------------------
# Rewrite traces


# Given a list, a pass appends a step ``(rule, path, *extra)`` for each
# root rule that fires: ``rule`` at the subterm at ``path`` of the whole
# term as it then stood.  A pass records a step at its own node with the
# empty path, and ``_under`` moves the steps a call recorded below child
# ``i`` into the parent's frame, so only a step that fires gets a path.


def _record(trace: Optional[list], rule: str, *extra) -> int:
    """Record ``rule`` at the node; the number of steps recorded so far."""
    if trace is None:
        return 0
    trace.append((rule, (), *extra))
    return len(trace)


def _under(trace: Optional[list], n: int, i: int) -> None:
    """Put child position ``i`` in front of the paths of ``trace[n:]``."""
    if trace is not None:
        for k in range(n, len(trace)):
            rule, path, *extra = trace[k]
            trace[k] = (rule, (i,) + path, *extra)


# ---------------------------------------------------------------------------
# Normalization


def _contract(t: Term) -> Optional[Term]:
    """One redex contraction at the root, or None."""
    cls = type(t)
    if cls is App and type(t.fn) is Lam:
        return substitute(t.fn.body, t.fn.var, t.arg)
    if cls is LetStar and type(t.scrutinee) is Star:
        return t.body
    if cls is LetPair and type(t.scrutinee) is Pair:
        # var2 is bound by a λ while the left half goes in, so that a
        # var2 free in the left half is not replaced by the right one
        lam = substitute(Lam(t.var2, None, t.body), t.var1, t.scrutinee.left)
        return substitute(lam.body, lam.var, t.scrutinee.right)
    return None


def _step_normal_order(t: Term) -> Optional[tuple[tuple, Term]]:
    """The leftmost-outermost redex of ``t`` as ``(path, contractum)``, or None."""
    contracted = _contract(t)
    if contracted is not None:
        return (), contracted
    for i, c in enumerate(children(t)):
        if type(c) in LEAVES:  # no redex in a leaf
            continue
        found = _step_normal_order(c)
        if found is not None:
            return (i,) + found[0], found[1]
    return None


def beta_normalize(term: Term, trace: Optional[list] = None) -> Term:
    """Leftmost-outermost reduction to beta/let normal form; a normal
    term is returned as it is.  Given a list, each contraction appends
    its step (see ``_record``)."""
    steps, limit = 0, INF
    while True:
        found = _step_normal_order(term)
        if found is None:
            return term
        path, contracted = found
        if trace is not None:
            cls = type(subterm_at(term, path))
            trace.append(("beta" if cls is App else "let*" if cls is LetStar else "let(x)", path))
        term = replace_at(term, path, contracted)
        steps += 1
        if steps == 8:  # sized only from step 8: each later step shrinks it
            limit = steps + term_size(term)
        if steps > limit:
            raise AssertionError("normalization exceeded the size bound of a linear term")


def is_beta_normal(t: Term) -> bool:
    return _step_normal_order(t) is None


def alpha_eq(a: Term, b: Term) -> bool:
    return literal_diffs(a, b) == []


def literal_diffs(
    a: Term, b: Term, ma: dict = {}, mb: dict = {}
) -> Optional[list[tuple[tuple, object, object]]]:
    """Where two terms that agree up to bound names differ, as
    ``(position, a_value, b_value)`` for each pair of unequal literals
    and each pair of unequal symbols of the same arity at the same
    position (values are floats for literals, names for symbols), in
    preorder; None if they differ anywhere else.

    ``ma``/``mb`` map each bound name of ``a``/``b`` to a tag naming its
    binder, so that two bound variables agree iff they have the same tag;
    they are only read, never written.  A tag is a new object per pair of
    binders, so a binder that shadows an outer name cannot share its tag
    with another.
    """
    if type(a) is not type(b):
        return None
    if isinstance(a, Const):
        return [] if a.value == b.value else [((), a.value, b.value)]
    if isinstance(a, Var):
        return [] if ma.get(a.name, a.name) == mb.get(b.name, b.name) else None
    if isinstance(a, (Star, Hole)):
        return []
    out = []
    if isinstance(a, FnApp):
        if len(a.args) != len(b.args):
            return None
        if a.symbol != b.symbol:
            out.append(((), a.symbol, b.symbol))
        pairs = [(x, y, ma, mb) for x, y in zip(a.args, b.args)]
    elif isinstance(a, Lam):
        if a.ann != b.ann:
            return None
        tag = object()
        pairs = [(a.body, b.body, {**ma, a.var: tag}, {**mb, b.var: tag})]
    elif isinstance(a, LetPair):
        t1, t2 = object(), object()
        pairs = [
            (a.scrutinee, b.scrutinee, ma, mb),
            (a.body, b.body, {**ma, a.var1: t1, a.var2: t2}, {**mb, b.var1: t1, b.var2: t2}),
        ]
    else:  # App, Pair, LetStar: positional children, no binders
        pairs = [(x, y, ma, mb) for x, y in zip(children(a), children(b))]
    for i, (x, y, mx, my) in enumerate(pairs):
        cls = type(x)  # a pair of leaves is compared here, with no call of its own
        if cls is not type(y):
            return None
        if cls is Const:
            if x.value != y.value:
                out.append(((i,), x.value, y.value))
            continue
        if cls is Var:
            if mx.get(x.name, x.name) != my.get(y.name, y.name):
                return None
            continue
        if cls is Star or cls is Hole:
            continue
        sub = literal_diffs(x, y, mx, my)
        if sub is None:
            return None
        if sub:
            out += [((i,) + p, u, v) for p, u, v in sub]
    return out


# ---------------------------------------------------------------------------
# Canonical forms for the equational theory


def _map_children(t: Term, f, trace: Optional[list], *args) -> Term:
    """``t`` with ``f(child, *args)`` for each child that is not a leaf,
    each child's steps moved under its position; ``t`` itself when every
    child came back as the same object.  Every pass given as ``f`` returns
    a leaf as it is and records nothing there, so a leaf is not passed."""
    old = children(t)
    if not old:
        return t
    if trace is None:
        kids = [c if type(c) in LEAVES else f(c, *args) for c in old]
    else:
        kids = []
        for i, c in enumerate(old):
            if type(c) in LEAVES:
                kids.append(c)
                continue
            n = len(trace)
            kids.append(f(c, *args, trace))
            if len(trace) > n:
                _under(trace, n, i)
    return t if all(map(operator.is_, kids, old)) else rebuild(t, kids)


def _eta_contract(t: Term, trace: Optional[list] = None) -> Term:
    return _eta_root(_map_children(t, _eta_contract, trace), trace)


def _eta_root(t: Term, trace: Optional[list] = None) -> Term:
    """``_eta_contract`` of a term whose children are contracted already."""
    if isinstance(t, Lam) and isinstance(t.body, App):
        arg = t.body.arg
        if isinstance(arg, Var) and arg.name == t.var and t.var not in free_vars(t.body.fn):
            _record(trace, "eta-lam")
            return t.body.fn
    if isinstance(t, LetStar) and isinstance(t.body, Star):
        _record(trace, "eta-let*")
        return t.scrutinee
    if isinstance(t, LetPair) and isinstance(t.body, Pair):
        l, r = t.body.left, t.body.right
        if (
            isinstance(l, Var)
            and isinstance(r, Var)
            and l.name == t.var1
            and r.name == t.var2
            and not ({t.var1, t.var2} & free_vars(t.scrutinee))
        ):
            _record(trace, "eta-let(x)")
            return t.scrutinee
    return t


def fold_literals(t: Term, registry: SymbolRegistry, trace: Optional[list] = None) -> Term:
    """Evaluate symbol applications on all-literal arguments.

    Denotation-preserving, so distances over folded terms equal
    distances over the originals; folding aligns skeletons that differ
    only in evaluated sub-expressions.
    """
    t = _map_children(t, fold_literals, trace, registry)
    if _foldable(t):
        _record(trace, "fold")
        return Const(registry.get(t.symbol)(*[a.value for a in t.args]))
    return t


def _foldable(t: Term) -> bool:
    """The root rule of ``fold_literals``: whether it rewrites ``t``."""
    return isinstance(t, FnApp) and all(isinstance(a, Const) for a in t.args)


def _is_let(t: Term) -> bool:
    return isinstance(t, (LetStar, LetPair))


def _let_parts(t: Term):
    if isinstance(t, LetStar):
        return (), t.scrutinee, t.body
    return (t.var1, t.var2), t.scrutinee, t.body


def _make_let(binders, scrut: Term, body: Term) -> Term:
    if binders:
        return LetPair(binders[0], binders[1], scrut, body)
    return LetStar(scrut, body)


def _float(t: Term, i: int, root, trace: Optional[list]) -> Term:
    """``t(.., let b = s in body, ..)``, its child ``i`` a let, as
    ``let b' = s in t(.., body, ..)``, the node under the let fixed by
    ``root``.  ``b'`` is ``b`` with each binder free in another child
    renamed apart; the step records ``i`` and ``b'``.  Out of a let's
    body, the caller checks that ``s`` reads none of the let's binders."""
    kids = list(children(t))
    binders, scrut, body = _let_parts(kids[i])
    other = set().union(*(free_vars(k) for j, k in enumerate(kids) if j != i))
    names = []
    for v in binders:
        if v in other:
            nv = fresh_name(v + "_", other | free_vars(body) | set(binders) | set(names))
            body = substitute(body, v, Var(nv))
            v = nv
        names.append(v)
    kids[i] = body
    n = _record(trace, "float", i, tuple(names))
    inner = root(rebuild(t, kids), trace)
    _under(trace, n, 1)
    return _make_let(tuple(names), scrut, inner)


def _hoist_lets(t: Term, trace: Optional[list] = None) -> Term:
    """Pull let bindings outward to a prenex chain under each lambda.

    Both orientations of the commuting conversions are derivable, so the
    outward one is a legitimate canonicalization choice.  Termination:
    un-nesting a let from a scrutinee shrinks the sum of scrutinee sizes,
    extraction from an operator child shrinks the sum of let depths and
    leaves scrutinee sizes unchanged.
    """
    return _hoist_root(_map_children(t, _hoist_lets, trace), trace)


def _hoist_root(t: Term, trace: Optional[list] = None) -> Term:
    """``_hoist_lets`` of a term whose children are hoisted already: a
    floated let's scrutinee and the subterms it moves stay fixpoints of
    the pass, so only the new node under the let is fixed.  A let leaves
    any child of an operator and only the scrutinee of a let."""
    cls = type(t)
    if cls is Lam:
        return t  # a let is never hoisted past a binder it may mention
    kids = (t.scrutinee,) if cls is LetStar or cls is LetPair else children(t)
    for i, c in enumerate(kids):
        if type(c) is LetStar or type(c) is LetPair:
            return _float(t, i, _hoist_root, trace)
    return t


def _mask_literals(t: Term) -> Term:
    """``t`` with every literal 0.0."""
    if type(t) is Const:
        return Const(0.0)
    kids = children(t)
    return rebuild(t, [_mask_literals(c) for c in kids]) if kids else t


def _let_sort_key(t: Term) -> tuple[str, str]:
    # primary key ignores literal values so that two terms differing only
    # in literals order their independent lets identically
    binders, scrut, _ = _let_parts(t)
    return print_term(_mask_literals(scrut)), print_term(scrut)


def _sort_lets(t: Term, trace: Optional[list] = None) -> Term:
    return _sort_root(_map_children(t, _sort_lets, trace), trace)


def _sort_root(t: Term, trace: Optional[list] = None) -> Term:
    """``_sort_lets`` of a term whose children are sorted already: an
    inner let that sorts first floats above an outer one it is
    independent of."""
    while _is_let(t) and _is_let(t.body):
        b1, s1, inner = _let_parts(t)
        b2, s2, _ = _let_parts(inner)
        if set(b1) & free_vars(s2) or set(b2) & free_vars(s1) or not _let_sort_key(inner) < _let_sort_key(t):
            break
        t = _float(t, 1, _sort_root, trace)
    return t


def _fixed(t: Term) -> bool:
    """True exactly when no rule of ``eq_canonical``'s round fires
    anywhere in ``t``, so that each of its passes would return ``t``
    itself: a pass is its root rule over ``_map_children``."""
    for c in children(t):
        if type(c) not in LEAVES and not _fixed(c):
            return False
    return (
        _contract(t) is None
        and not _foldable(t)
        and _hoist_root(t) is t
        and _sort_root(t) is t
        and _eta_root(t) is t
    )


def eq_canonical(
    term: Term, registry: Optional[SymbolRegistry] = None, trace: Optional[list] = None
) -> Term:
    """Canonical representative; every rewrite step is derivable.  The
    rounds stop once ``_fixed`` finds that the next would change nothing.
    Given a list, each root rule that fires appends its step (see
    ``_record``), so that replaying them from ``term`` reaches the result."""
    registry = registry if registry is not None else default_registry()
    t = beta_normalize(term, trace)
    for rounds in itertools.count(1):
        if _fixed(t):
            break
        # order lets before eta-contraction can dissolve a chain, so that
        # permuted chains reach the same representative
        t2 = _hoist_lets(t, trace)
        t2 = _sort_lets(t2, trace)
        t2 = _eta_contract(t2, trace)
        t2 = fold_literals(t2, registry, trace)
        t2 = beta_normalize(t2, trace)
        if t2 == t:
            break
        t = t2
        if rounds > 8 and rounds >= term_size(term) + 8:  # sized only past 8 rounds
            break
    return t


def eq_decide(m: Term, n: Term, registry: Optional[SymbolRegistry] = None) -> bool:
    """True only if the equality is derivable (shared canonical form)."""
    registry = registry if registry is not None else default_registry()
    return alpha_eq(eq_canonical(m, registry), eq_canonical(n, registry))
