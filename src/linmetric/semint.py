"""Interactive model: wire functions, trace feedback, wire decomposition.

A term ``Γ ⊢ M : σ`` denotes a strategy exchanging values with its
environment over wires.  Every type flattens into atomic wires tagged
``R`` or ``I``: the positive atoms of Γ plus the negative atoms of σ are
the inputs, the negative atoms of Γ plus the positive atoms of σ are the
outputs, enumerated left to right.  R-wires carry a real or a bottom
element; I-wires carry the one-point domain.

A rule with premises composes them in one of two shapes.  Side by side
(symbol application, pairs, ``let *``) runs the premises apart and
combines their results.  A cut (application, ``let (x)``) joins the
premise that produces a type to the one that consumes it, and feeds the
wires between them back through ``_traced``, the least-fixpoint loop of
``trace``, over the flat wire domains, so every feedback loop converges
in at most ``width + 1`` rounds.  A variable's strategy is ``symmetry``,
the identity of the Int construction.

A strategy is built once per typing derivation: ``_routes`` works out
which input wires each premise reads and where the premises'
environment outputs go, and the widths are checked and each node's
gathers fixed then, so a step only calls ``itemgetter``s and its
premises' steps bare; ``interp_int`` wraps the whole strategy in one
``WireFunction``, which checks outside calls.

For a beta-normal term the whole strategy is equivalent to a tuple of
first-order terms, one per output wire, over variables naming the input
wires.  ``decompose`` computes them symbolically, with the same routing
but its own account of the two shapes, with cut wires in place of feedback;
``int_distance`` sums per-wire distances between two such
decompositions.  A wire value is a plain number (R) or ``BOTTOM``, or
``UNIT`` (I), as in the denotational model.  ``int_term_denotation``
evaluates a wire term at one input in one walk over it; the distance
search evaluates both terms of a wire with ``_stage``, column-wise over a
batch of probe rows, each subterm once per value of the variables it reads.
Where two wire terms differ only in literals and in symbols of the same
arity (``dynamics.literal_diffs``), a wire's upper bound is the sum of
the literal differences and the registry's symbol gaps; a sampled gap
above that sum refutes a registry gap, which is a user error.  Nothing
here keeps state between calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .core import (
    App,
    Const,
    Derivation,
    DistInterval,
    EPS,
    Env,
    FnApp,
    INF,
    Lam,
    LetStar,
    ModelError,
    Pair,
    RegistryError,
    Star,
    STAR,
    SymbolRegistry,
    Term,
    Ty,
    TypeError_,
    Var,
    default_registry,
    derive,
    fmt_real,
    free_vars as int_term_vars,
    neg_atoms,
    pos_atoms,
    search,
)
from .dynamics import beta_normalize, fold_literals as fold_int_term, is_beta_normal, literal_diffs
from .semden import BOTTOM, UNIT, ProbeBattery


# ---------------------------------------------------------------------------
# Wire bookkeeping


def _block_labels(name: str, atoms: tuple[str, ...]) -> list[str]:
    if len(atoms) == 1:
        return [name]
    return [f"{name}.{i + 1}" for i in range(len(atoms))]


@dataclass(frozen=True)
class WireSignature:
    """Input/output wire counts and types of a typed term."""

    m: int
    n: int
    in_types: tuple[str, ...]
    out_types: tuple[str, ...]
    in_labels: tuple[str, ...]
    out_labels: tuple[str, ...]


def _wire_types(env: Env, ty: Ty) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Input and output wire types of ``env ⊢ _ : ty``, without labels."""
    ins = tuple(a for _, t in env for a in pos_atoms(t)) + neg_atoms(ty)
    return ins, tuple(a for _, t in env for a in neg_atoms(t)) + pos_atoms(ty)


def wire_signature(env: Env, ty: Ty) -> WireSignature:
    in_types, out_types = _wire_types(env, ty)
    in_labels = [x for name, t in env for x in _block_labels(name, pos_atoms(t))]
    out_labels = [x for name, t in env for x in _block_labels(name, neg_atoms(t))]
    return WireSignature(
        len(in_types), len(out_types), in_types, out_types,
        tuple(in_labels + _block_labels("ret", neg_atoms(ty))),
        tuple(out_labels + _block_labels("ret", pos_atoms(ty))),
    )


# ---------------------------------------------------------------------------
# Wire functions and trace

@dataclass(frozen=True)
class WireFunction:
    """Monotone non-expansive map between tuples of flat wire values."""

    in_types: tuple[str, ...]
    out_types: tuple[str, ...]
    step: Callable[[tuple], tuple]

    def __call__(self, inputs: tuple) -> tuple:
        if len(inputs) != len(self.in_types):
            raise TypeError_(f"expected {len(self.in_types)} wire inputs, got {len(inputs)}")
        out = self.step(tuple(inputs))
        if type(out) is not tuple:
            raise ModelError(f"wire function produced a {type(out).__name__}, not a tuple")
        if len(out) != len(self.out_types):
            raise ModelError("wire function produced a tuple of the wrong width")
        return out


def _gather(ix: list[int]) -> Callable[[tuple], tuple]:
    """``lambda x: tuple([x[i] for i in ix])`` as one C call: a slice if
    ``ix`` is a run, as every list of at most one index is."""
    start = ix[0] if ix else 0
    if ix == list(range(start, start + len(ix))):
        return itemgetter(slice(start, start + len(ix)))
    return itemgetter(*ix)


def _traced(
    step: Callable[[tuple], tuple], feedback: Callable[[tuple], tuple], z_types: tuple[str, ...]
) -> Callable[[tuple], tuple]:
    """``run(inputs)``: ``step``'s output on ``inputs`` followed by the
    wires ``feedback`` picks from that output, at their least fixpoint from
    bottom.  Raises ModelError if an update is not an increase in the flat order."""
    bottom = tuple([UNIT if t == "I" else BOTTOM for t in z_types])
    rounds = range(len(z_types) + 2)

    def run(inputs: tuple) -> tuple:
        z = bottom
        for _ in rounds:
            flat = step(inputs + z)
            z_new = feedback(flat)
            if z_new == z:
                return flat
            for old, new in zip(z, z_new):
                if old is not BOTTOM and old != new:
                    raise ModelError("non-monotone feedback step detected")
            z = z_new
        raise ModelError("feedback did not converge within width + 1 rounds")

    return run


def trace(f: WireFunction, z_width: int) -> WireFunction:
    """Feedback of the last ``z_width`` wires of ``f`` onto themselves."""
    if z_width == 0:
        return f
    if z_width > min(len(f.in_types), len(f.out_types)):
        raise TypeError_("feedback width exceeds the wire signature")
    in_keep = f.in_types[: len(f.in_types) - z_width]
    out_keep = f.out_types[: len(f.out_types) - z_width]
    z_in = f.in_types[len(in_keep):]
    z_out = f.out_types[len(out_keep):]
    if z_in != z_out:
        raise TypeError_(f"feedback wires disagree: {z_in} vs {z_out}")
    keep = len(out_keep)
    run = _traced(f, itemgetter(slice(keep, None)), z_in)
    return WireFunction(in_keep, out_keep, lambda inputs: run(inputs)[:keep])


def symmetry(types: tuple[str, ...], k: int) -> WireFunction:
    """Swap the first k wires with the rest: the identity of the Int
    construction, and so the strategy of a variable."""
    ix = list(range(len(types)))
    return WireFunction(types, types[k:] + types[:k], _gather(ix[k:] + ix[:k]))


# ---------------------------------------------------------------------------
# Interpretation


def interp_int(env: Env, term: Term, registry: Optional[SymbolRegistry] = None) -> WireFunction:
    registry = registry if registry is not None else default_registry()
    d = derive(env, term, registry)
    return WireFunction(*_wire_types(env, d.ty), _interp(d, registry)[0])


def _routes(d: Derivation) -> tuple[list[list[int]], list[int], list[int]]:
    """Environment-wire routing of a node with premises.

    Per premise (in the order of ``d.splits[0]``): the positions of its
    environment's positive atoms among the node's inputs, and the number
    of its environment's negative atoms, which lead its outputs.  Then
    the gather list: output ``j`` of the node's environment negative
    block is element ``gather[j]`` of the premises' environment negative
    outputs laid end to end.
    """
    owner = {name: k for k, names in enumerate(d.splits[0]) for name in names}
    pos: list[list[int]] = [[] for _ in d.splits[0]]
    neg: list[list[int]] = [[] for _ in d.splits[0]]
    i = j = 0
    for name, t in d.env:
        p, n = len(pos_atoms(t)), len(neg_atoms(t))
        pos[owner[name]].extend(range(i, i + p))
        neg[owner[name]].extend(range(j, j + n))
        i, j = i + p, j + n
    gather = [0] * j
    for c, out in enumerate(out for block in neg for out in block):
        gather[out] = c
    return pos, [len(block) for block in neg], gather


def _interp(d: Derivation, reg: SymbolRegistry) -> tuple[Callable[[tuple], tuple], int, int]:
    """The bare step of ``d``'s strategy, and its input and output widths.

    Steps call their premises' steps unchecked: each node's widths are
    checked here, once, and a mismatch is a ``ModelError``; the gathers
    that pick each premise's inputs and the node's outputs are made here."""
    t, ty = d.term, d.ty
    ins, outs = _wire_types(d.env, ty)
    m, n = len(ins), len(outs)

    def check(what: str, got: int, want: int) -> None:
        if got != want:
            raise ModelError(f"{type(t).__name__} node: {what} has {got} wires, expected {want}")

    if isinstance(t, Var):
        check("result", m, n)
        return symmetry(ins, len(pos_atoms(ty))).step, m, n

    if isinstance(t, (Const, Star)):
        check("result", 1, n)
        out = (UNIT if isinstance(t, Star) else t.value,)
        return (lambda _i: out), m, n

    subs = [_interp(c, reg) for c in d.children]
    if isinstance(t, Lam):
        (body, k, width), = subs
        check("body input", m, k)
        check("result", width, n)
        return body, m, n

    pos_idx, ks, gather = _routes(d)
    t_neg = list(range(m - len(neg_atoms(ty)), m))  # the node's negative inputs
    # premise k reads its environment inputs, then extra[k]
    if isinstance(t, (FnApp, Pair, LetStar)):
        # side by side: its share of t_neg (none for a symbol's argument, all for a body)
        share = iter(t_neg)
        extra = [list(itertools.islice(share, len(neg_atoms(c.ty)))) for c in d.children]
    else:
        # cut: the producer p of sigma reads the sigma-negative feedback
        # wires, its consumer c the sigma-positive ones, then t_neg; the
        # feedback wires follow the node's inputs
        p, c = (1, 0) if isinstance(t, App) else (0, 1)
        sigma = d.children[p].ty
        z_types = pos_atoms(sigma) + neg_atoms(sigma)
        sn = len(neg_atoms(sigma))
        z = list(range(m, m + len(z_types)))
        c_pos, c_neg = z[: len(z) - sn], z[len(z) - sn:]
        extra = [c_neg, c_pos + t_neg] if c else [c_pos + t_neg, c_neg]
    # each premise's step and input gather; the premises' outputs laid end
    # to end: each one's environment outputs, then its results
    parts, env_out, results, s = [], [], [], 0
    for (step, k_in, k_out), pos, x, k in zip(subs, pos_idx, extra, ks):
        ix = pos + x
        check("premise input", len(ix), k_in)
        parts.append((step, _gather(ix)))
        env_out += range(s, s + k)
        results.append(list(range(s + k, s + k_out)))
        s += k_out
    env_out = [env_out[g] for g in gather]

    if len(parts) == 1:
        (s0, g0), = parts
        premises = lambda x: s0(g0(x))
    elif len(parts) == 2:
        (s0, g0), (s1, g1) = parts
        premises = lambda x: s0(g0(x)) + s1(g1(x))
    else:

        def premises(x: tuple) -> tuple:
            flat: tuple = ()
            for step, g in parts:
                flat += step(g(x))
            return flat

    if isinstance(t, FnApp):
        sym = reg.get(t.symbol).evaluator
        args = _gather([r[0] for r in results])
        check("result", len(env_out) + 1, n)
        env_part = _gather(env_out)

        def step(inputs: tuple) -> tuple:
            flat = premises(inputs)
            vals = args(flat)
            return env_part(flat) + (BOTTOM if BOTTOM in vals else sym(*vals),)

        return step, m, n

    outputs = premises
    if isinstance(t, Pair):
        keep = env_out + results[0] + results[1]
    elif isinstance(t, LetStar):
        keep = env_out + results[1]
    else:
        # p's results are sigma's positive atoms, c's start with its negative ones
        keep = env_out + results[c][sn:]
        outputs = _traced(premises, _gather(results[p] + results[c][:sn]), z_types)
    check("result", len(keep), n)
    kept = _gather(keep)
    return (lambda inputs: kept(outputs(inputs))), m, n


# ---------------------------------------------------------------------------
# Wire decomposition of beta-normal terms

IntTerm = Term  # restricted to Var/Const/Star/FnApp over wire variables


class _Decomposer:
    def __init__(self):
        self.equations: dict[str, IntTerm] = {}
        self.counter = itertools.count()

    def fresh(self) -> Var:
        return Var(f"?{next(self.counter)}")

    def cut(self, n: int) -> list[Var]:
        return [self.fresh() for _ in range(n)]

    def define(self, placeholder: Var, value: IntTerm):
        self.equations[placeholder.name] = value

    def resolve(self, h: IntTerm, _stack: frozenset = frozenset()) -> IntTerm:
        if isinstance(h, Var) and h.name.startswith("?"):
            if h.name in _stack:
                raise ModelError("cyclic wire dependency in decomposition")
            if h.name not in self.equations:
                raise ModelError(f"unresolved cut wire {h.name}")
            return self.resolve(self.equations[h.name], _stack | {h.name})
        if isinstance(h, FnApp):
            return FnApp(h.symbol, tuple(self.resolve(a, _stack) for a in h.args))
        return h

    # Each case maps symbolic input wires to symbolic output wires,
    # mirroring the executable interpretation above.
    def go(self, d: Derivation, inputs: list[IntTerm]) -> list[IntTerm]:
        t, ty = d.term, d.ty

        if isinstance(t, Var):
            p = len(pos_atoms(ty))
            return inputs[p:] + inputs[:p]
        if isinstance(t, Const):
            return [Const(t.value)]
        if isinstance(t, Star):
            return [STAR]
        if isinstance(t, Lam):
            return self.go(d.children[0], inputs)
        pos_idx, ks, gather = _routes(d)
        t_neg = inputs[len(inputs) - len(neg_atoms(ty)):]
        # premise k reads its environment inputs, then extra[k]
        if isinstance(t, (FnApp, Pair, LetStar)):
            # side by side: its share of t_neg (none for a symbol's argument, all for a body)
            share = iter(t_neg)
            extra = [list(itertools.islice(share, len(neg_atoms(c.ty)))) for c in d.children]
        else:
            # cut: the producer p of sigma reads the sigma-negative cut wires,
            # its consumer c the sigma-positive ones, then t_neg
            p, c = (1, 0) if isinstance(t, App) else (0, 1)
            sigma = d.children[p].ty
            c_pos, c_neg = self.cut(len(pos_atoms(sigma))), self.cut(len(neg_atoms(sigma)))
            extra = [c_neg, c_pos + t_neg] if c else [c_pos + t_neg, c_neg]
        negs, rs = [], []
        for child, pos, x, k in zip(d.children, pos_idx, extra, ks):
            out = self.go(child, [inputs[i] for i in pos] + x)
            negs += out[:k]
            rs.append(out[k:])
        if isinstance(t, FnApp):
            res = [FnApp(t.symbol, tuple([r[0] for r in rs]))]
        elif isinstance(t, Pair):
            res = rs[0] + rs[1]
        elif isinstance(t, LetStar):
            res = rs[1]
        else:
            # p's results are sigma's positive atoms, c's start with its negative ones
            for ph, val in zip(c_pos + c_neg, rs[p] + rs[c]):
                self.define(ph, val)
            res = rs[c][len(c_neg):]
        return [negs[i] for i in gather] + res


def decompose(
    env: Env, term: Term, registry: Optional[SymbolRegistry] = None
) -> tuple[list[IntTerm], list[frozenset[int]]]:
    """First-order wire terms of a beta-normal term, one per output wire.

    Variables ``x1 .. xm`` name the input wires; the returned partition
    lists, per output wire, the 1-based input indices its term consumes
    (unused wires belong to no block).
    """
    registry = registry if registry is not None else default_registry()
    if not is_beta_normal(term):
        raise ModelError("decompose requires a beta-normal term")
    return _decompose(derive(env, term, registry))


def _decompose(d: Derivation) -> tuple[list[IntTerm], list[frozenset[int]]]:
    """``decompose`` on the derivation of a beta-normal term."""
    dec = _Decomposer()
    inputs: list[IntTerm] = [Var(f"x{i + 1}") for i in range(len(_wire_types(d.env, d.ty)[0]))]
    resolved = [dec.resolve(h) for h in dec.go(d, inputs)]
    partition = []
    seen: set[str] = set()
    for h in resolved:
        vs = int_term_vars(h)
        if vs & seen:
            raise ModelError("input wire used by two output terms")
        seen |= vs
        partition.append(frozenset(int(v[1:]) for v in vs))
    return resolved, partition


def int_term_denotation(h: IntTerm, assignment: dict[str, object], registry: SymbolRegistry):
    """Value of a wire term under an assignment of input wire values.

    One walk over the term, as ``dynamics.evaluate`` walks a closed term:
    a term run at one point is not worth compiling.  A symbol's evaluator
    is looked up before its arguments run, and a symbol is strict (bottom
    in, bottom out).  Like ``compile_term`` it dispatches on the exact
    class.
    """
    cls = type(h)
    if cls is Var:
        return assignment[h.name]
    if cls is Const:
        return h.value
    if cls is Star:
        return UNIT
    if cls is FnApp:
        f = registry.get(h.symbol).evaluator
        if len(h.args) == 1:
            a = int_term_denotation(h.args[0], assignment, registry)
            return BOTTOM if a is BOTTOM else f(a)
        if len(h.args) == 2:
            a = int_term_denotation(h.args[0], assignment, registry)
            b = int_term_denotation(h.args[1], assignment, registry)
            return BOTTOM if a is BOTTOM or b is BOTTOM else f(a, b)
        vals = [int_term_denotation(a, assignment, registry) for a in h.args]
        return BOTTOM if BOTTOM in vals else f(*vals)
    raise AssertionError(h)


def format_int_term(h: IntTerm, labels: dict[str, str] | None = None) -> str:
    if isinstance(h, Var):
        return labels.get(h.name, h.name) if labels else h.name
    if isinstance(h, Const):
        return fmt_real(h.value)
    if isinstance(h, Star):
        return "*"
    if isinstance(h, FnApp):
        return f"{h.symbol}({', '.join(format_int_term(a, labels) for a in h.args)})"
    raise AssertionError(h)


# ---------------------------------------------------------------------------
# Distances between wire terms


def _stage(h: IntTerm, slots: dict, registry: SymbolRegistry) -> tuple[int, Callable]:
    """The level of a wire term and its column-wise evaluator.

    Variable ``v`` is level ``slots[v]``; a term's level is the highest
    level of its variables, -1 if none.  The evaluator maps a batch of
    rows ``(cols, spread)`` to a column: ``cols[i]`` has one entry per
    distinct value of variables ``0 .. i`` in the batch, and
    ``spread(col, a, b)`` repeats a level-``a`` column to level ``b``.
    So a symbol runs once per batch (Boncz et al. 2005) and value of the
    variables it reads (Hughes 1983), unchecked on bounded probe values."""
    if isinstance(h, Var):
        i = slots[h.name]
        return i, lambda cols, spread: cols[i]
    if isinstance(h, (Const, Star)):
        col = [UNIT if isinstance(h, Star) else h.value]
        return -1, lambda cols, spread: col
    if isinstance(h, FnApp):
        f = registry.get(h.symbol).evaluator
        args = [_stage(a, slots, registry) for a in h.args]
        level = max(lev for lev, _ in args)

        def run(cols, spread):
            return list(map(f, *[spread(arg(cols, spread), lev, level) for lev, arg in args]))

        return level, run
    raise AssertionError(h)


def _grid_batch(grid: list, k: int, start: int, end: int) -> tuple[list, Callable]:
    """Rows ``start .. end - 1`` of ``itertools.product(grid, repeat=k)``
    as a batch for ``_stage``'s evaluators: level ``i`` has one entry
    per prefix ``lo[i] .. hi[i]`` of ``i + 1`` coordinates."""
    g = len(grid)
    lo = [start // g ** (k - 1 - i) for i in range(k)]
    hi = [(end - 1) // g ** (k - 1 - i) for i in range(k)]
    cols = [[grid[p % g] for p in range(lo[i], hi[i] + 1)] for i in range(k)]

    def spread(col: list, a: int, b: int) -> list:
        if a == b:
            return col
        if len(col) == 1:
            return col * (hi[b] - lo[b] + 1)
        m = g ** (b - a)  # level-b prefixes per level-a prefix; the batch cuts the first and last
        counts = [m - lo[b] % m] + [m] * (len(col) - 2) + [hi[b] % m + 1]
        return list(itertools.chain.from_iterable(map(itertools.repeat, col, counts)))

    return cols, spread


def _sampled_gap(
    h1: IntTerm, h2: IntTerm, battery: ProbeBattery, registry: SymbolRegistry, stop: float = INF
) -> float:
    """Max |h1 - h2| over battery assignments to the shared variables,
    refined by a few rounds of local bisection per variable.  ``_stage``
    evaluates grid rows in batches of 1, 1, 2, 4, ... and each variable's
    four trials as one batch; ``core.search`` scans the gaps in order, so
    a grid batch is built only once the scan reaches it.

    Returns as soon as the best gap reaches ``stop``: a caller that checks
    the gap against ``stop`` sees only the samples up to the first one
    that reaches it, not a later one further above ``stop``."""
    vs = sorted(int_term_vars(h1) | int_term_vars(h2))
    slots = {v: i for i, v in enumerate(vs)}
    k = len(vs)
    (l1, e1), (l2, e2) = _stage(h1, slots, registry), _stage(h2, slots, registry)

    def gaps(cols: list, spread: Callable) -> list:
        c1 = spread(e1(cols, spread), l1, k - 1)
        c2 = spread(e2(cols, spread), l2, k - 1)
        return [
            0.0 if a is BOTTOM or b is BOTTOM or a is UNIT or b is UNIT else abs(a - b)
            for a, b in zip(c1, c2)
        ]

    grid = battery.reals[:16]
    rows = min(4096, len(grid) ** k)

    def batches():
        start = 0
        while start < rows:
            end = min(rows, max(1, 2 * start))
            yield zip(gaps(*_grid_batch(grid, k, start, end)), range(start, end))
            start = end

    best, best_row = search(itertools.chain.from_iterable(batches()), stop)
    if best >= stop:
        return best
    n = len(grid)
    best_assign = [0.0 if best_row is None else grid[best_row // n ** (k - 1 - i) % n] for i in range(k)]
    # coordinate descent with local bisection
    span = 8.0
    for _round in range(3):
        for i in range(k):
            base = best_assign[i]
            cands = [base - span, base - span / 2, base + span / 2, base + span]
            cols = [[x] * 4 for x in best_assign]
            cols[i] = cands
            # every variable at one level: a column has 4 entries, or 1 if constant
            trials = gaps(cols, lambda col, a, b: col * (4 // len(col)))
            best, best_assign[i] = search(zip(trials, cands), stop, best, base)
            if best >= stop:
                return best
        span /= 2
    return best


def first_order_distance(
    h1: IntTerm,
    h2: IntTerm,
    battery: ProbeBattery,
    registry: SymbolRegistry,
    wire_type: str = "R",
) -> DistInterval:
    """Enclosure of sup over shared wire inputs of |h1 - h2|."""
    if wire_type == "I":
        return DistInterval(0.0, 0.0)
    h1 = fold_int_term(h1, registry)
    h2 = fold_int_term(h2, registry)
    if h1 == h2:
        return DistInterval(0.0, 0.0)
    diffs = literal_diffs(h1, h2)
    if diffs is None:
        return DistInterval(_sampled_gap(h1, h2, battery, registry), INF)
    hi = 0.0
    for _, a, b in diffs:
        hi += registry.gap(a, b) if isinstance(a, str) else abs(a - b)
    gaps = [f"{a}/{b}" for _, a, b in diffs if isinstance(a, str)]
    # a registry gap is the user's claim and the sampler its only check,
    # so the search stops at ``hi`` only when every difference is a literal;
    # the literal self-check below then sees the samples up to that stop
    lo = _sampled_gap(h1, h2, battery, registry, INF if gaps else hi)
    if lo > hi + EPS:
        if gaps:
            raise RegistryError(
                f"sampled gap {lo} exceeds the bound {hi} claimed by registry gaps {gaps}"
            )
        raise ModelError(f"sampled gap {lo} exceeds certified bound {hi}")
    return DistInterval(min(lo, hi), hi)


def int_distance(
    env: Env,
    ty: Ty,
    m: Term,
    n: Term,
    battery: Optional[ProbeBattery] = None,
    registry: Optional[SymbolRegistry] = None,
) -> DistInterval:
    """Interactive distance: per-wire sum over the decompositions.

    Non-normal inputs are normalized first and the result is flagged; it
    is then a lower-bound reading for the original pair (normalization
    never increases this metric). The search runs in full whatever the
    pair; ``ordering_report`` skips the call at a certified 0.
    """
    registry = registry if registry is not None else default_registry()
    battery = battery if battery is not None else ProbeBattery(registry)
    dm, dn = derive(env, m, registry), derive(env, n, registry)
    if dm.ty != ty or dn.ty != ty:
        raise TypeError_("type mismatch in int_distance")
    # a beta-normal term is decomposed on its check derivation, a normalized one derived again
    normalized = False
    if not is_beta_normal(m):
        dm, normalized = derive(env, beta_normalize(m), registry), True
    if not is_beta_normal(n):
        dn, normalized = derive(env, beta_normalize(n), registry), True
    hm, _ = _decompose(dm)
    hn, _ = _decompose(dn)
    total = DistInterval(0.0, 0.0)
    for h1, h2, wt in zip(hm, hn, _wire_types(env, ty)[1]):
        total = total + first_order_distance(h1, h2, battery, registry, wire_type=wt)
    return DistInterval(total.lo, total.hi, normalized=normalized)


# ---------------------------------------------------------------------------
# Diagram export


def export_diagram(env: Env, term: Term, registry: Optional[SymbolRegistry] = None) -> str:
    """Graphviz DOT rendering of the wire strategy of a term.

    Inputs on the left rank, outputs on the right; boxes for constants
    and symbol applications; output edges labeled with their wire terms.
    Node names b<k> and edge names w<k> are stable for golden tests.
    """
    registry = registry if registry is not None else default_registry()
    normalized = False
    if not is_beta_normal(term):
        term, normalized = beta_normalize(term), True
    d = derive(env, term, registry)
    sig = wire_signature(env, d.ty)
    hs, _ = _decompose(d)
    labels = {f"x{i + 1}": sig.in_labels[i] for i in range(sig.m)}

    lines = ["digraph wires {", "  rankdir=LR;", '  node [fontname="Courier"];']
    if normalized:
        lines.append("  // input was normalized before rendering")
    for i in range(sig.m):
        lines.append(f'  i{i} [shape=plaintext, label="{sig.in_labels[i]}:{sig.in_types[i]}"];')
    for j in range(sig.n):
        text = format_int_term(hs[j], labels)
        lines.append(
            f'  o{j} [shape=plaintext, label="H{j + 1}={text}"];'
        )
    box_counter = itertools.count()
    wire_counter = itertools.count()

    def emit(h: IntTerm) -> str:
        """Returns the source node of the wire carrying h."""
        if isinstance(h, Var):
            return f"i{int(h.name[1:]) - 1}"
        if isinstance(h, (Const, Star)):
            k = next(box_counter)
            label = "*" if isinstance(h, Star) else fmt_real(h.value)
            lines.append(f'  b{k} [shape=box, label="{label}"];')
            return f"b{k}"
        if isinstance(h, FnApp):
            k = next(box_counter)
            lines.append(f'  b{k} [shape=box, label="{h.symbol}"];')
            for a in h.args:
                src = emit(a)
                w = next(wire_counter)
                lines.append(f'  {src} -> b{k} [label="w{w}"];')
            return f"b{k}"
        raise AssertionError(h)

    for j, h in enumerate(hs):
        src = emit(h)
        w = next(wire_counter)
        lines.append(f'  {src} -> o{j} [label="w{w}:{sig.out_types[j]}"];')
    if sig.m:
        lines.append("  { rank=source; " + "; ".join(f"i{i}" for i in range(sig.m)) + "; }")
    lines.append("  { rank=sink; " + "; ".join(f"o{j}" for j in range(sig.n)) + "; }")
    lines.append("}")
    return "\n".join(lines) + "\n"
