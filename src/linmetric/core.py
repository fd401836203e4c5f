"""Object language: types, terms, environments, linear typechecking.

The calculus is a linear lambda calculus over the reals.  Types are
``R`` (reals), ``I`` (unit), tensor and linear function types.  Every
variable in scope must be consumed exactly once; two-premise typing
rules split the environment into order-preserving interleavings
(merges), which the checker reads off the premises in one pass.

Surface syntax (ASCII):

    term  := \\x:T. term | let * = term in term
           | let x (x) y = term in term | tensor
    tensor:= app (* app)*
    app   := atom atom*
    atom  := var | number | * | [-] | sym(term, ...) | (term)
    type  := tprod (-o type)?          -- right associative
    tprod := tatom ((x) tatom)*        -- left associative
    tatom := R | I | (type)

``*`` is the unit value in atom position and the tensor constructor
infix; ``f(...)`` is only permitted for registered symbol names.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

EPS = 1e-9
INF = math.inf

ExtReal = float  # non-negative float or math.inf


def fmt_real(a: float) -> str:
    """Compact rendering used in wire listings and diagram labels."""
    if math.isfinite(a) and a == int(a) and abs(a) < 1e15:
        return str(int(a))
    return repr(a)


class LinError(Exception):
    """Base class for user-facing errors."""


class ParseError(LinError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at offset {pos})")
        self.msg, self.pos = msg, pos


class TypeError_(LinError):
    """Typing failure: unbound/reused/unused variable or mismatch."""


class RegistryError(LinError):
    """Unknown symbol or ill-formed registry configuration."""


class ModelError(LinError):
    """Internal invariant violation in a semantic model."""


class EvalError(LinError):
    """Evaluation failed: a symbol's result is not a finite number, or the input is not typeable."""


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True, slots=True)
class Ty:
    pass


@dataclass(frozen=True, slots=True)
class TReal(Ty):
    def __repr__(self):
        return "R"


@dataclass(frozen=True, slots=True)
class TUnit(Ty):
    def __repr__(self):
        return "I"


@dataclass(frozen=True, slots=True)
class TTensor(Ty):
    left: Ty
    right: Ty

    def __repr__(self):
        return f"({self.left!r} (x) {self.right!r})"


@dataclass(frozen=True, slots=True)
class TLolli(Ty):
    arg: Ty
    res: Ty

    def __repr__(self):
        return f"({self.arg!r} -o {self.res!r})"


R = TReal()
I = TUnit()


def print_type(t: Ty) -> str:
    if isinstance(t, TReal):
        return "R"
    if isinstance(t, TUnit):
        return "I"
    if isinstance(t, TTensor):
        left = print_type(t.left)
        if isinstance(t.left, TLolli):
            # doubled on purpose: the benchmark's golden reports print it so
            # (ROADMAP item 1 drops one pair when it regenerates them)
            left = f"(({left}))"
        right = print_type(t.right)
        if isinstance(t.right, (TTensor, TLolli)):
            right = f"({right})"
        return f"{left} (x) {right}"
    if isinstance(t, TLolli):
        left = print_type(t.arg)
        if isinstance(t.arg, TLolli):
            left = f"({left})"
        return f"{left} -o {print_type(t.res)}"
    raise AssertionError(t)


def is_observable(t: Ty) -> bool:
    """Built from R, I and tensor only: values are tuples of reals/units."""
    if isinstance(t, (TReal, TUnit)):
        return True
    if isinstance(t, TTensor):
        return is_observable(t.left) and is_observable(t.right)
    return False


def is_one_point(t: Ty) -> bool:
    """The plain-function interpretation of t is a single point.

    Unit and tensors of units are one-point; so is any function space
    into a one-point codomain (only the constant map inhabits it).
    """
    if isinstance(t, TReal):
        return False
    if isinstance(t, TUnit):
        return True
    if isinstance(t, TTensor):
        return is_one_point(t.left) and is_one_point(t.right)
    if isinstance(t, TLolli):
        return is_one_point(t.res)
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, slots=True)
class Term:
    pass


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Const(Term):
    value: float


@dataclass(frozen=True, slots=True)
class Star(Term):
    pass


@dataclass(frozen=True, slots=True)
class FnApp(Term):
    symbol: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Lam(Term):
    var: str
    ann: Ty
    body: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class LetStar(Term):
    scrutinee: Term
    body: Term


@dataclass(frozen=True, slots=True)
class LetPair(Term):
    var1: str
    var2: str
    scrutinee: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Hole(Term):
    """The unique hole of a one-hole context."""


STAR = Star()
HOLE = Hole()
# The term classes with no children.  A hot walk handles a child of these
# classes in the parent's frame instead of calling itself on it.
LEAVES = frozenset((Var, Const, Star, Hole))

# A Context is a Term containing exactly one Hole.
Context = Term


def subterms(t: Term):
    yield t
    for child in children(t):
        yield from subterms(child)


def children(t: Term) -> tuple[Term, ...]:
    """The subterms of ``t``.  This and ``rebuild`` dispatch on the exact
    class, leaves last, so a subclass of a term class is not a term."""
    cls = type(t)
    if cls is App:
        return (t.fn, t.arg)
    if cls is FnApp:
        return t.args
    if cls is Lam:
        return (t.body,)
    if cls is Pair:
        return (t.left, t.right)
    if cls is LetStar or cls is LetPair:
        return (t.scrutinee, t.body)
    if cls is Var or cls is Const or cls is Star or cls is Hole:
        return ()
    raise AssertionError(t)


def rebuild(t: Term, new_children: list[Term]) -> Term:
    """``t`` with its children replaced, in the order and dispatch of ``children``."""
    cls = type(t)
    if cls is App:
        return App(new_children[0], new_children[1])
    if cls is FnApp:
        return FnApp(t.symbol, tuple(new_children))
    if cls is Lam:
        return Lam(t.var, t.ann, new_children[0])
    if cls is Pair:
        return Pair(new_children[0], new_children[1])
    if cls is LetStar:
        return LetStar(new_children[0], new_children[1])
    if cls is LetPair:
        return LetPair(t.var1, t.var2, new_children[0], new_children[1])
    raise AssertionError(t)


# A position in a term is the tuple of child indices leading to it.


def paths(t: Term, path: tuple = ()):
    """Every position in ``t``, preorder, leftmost first."""
    yield path
    for i, c in enumerate(children(t)):
        yield from paths(c, path + (i,))


def subterm_at(t: Term, path: tuple) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: Term, path: tuple, new: Term) -> Term:
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild(t, kids)


def const_paths(t: Term) -> list[tuple]:
    """Positions of the numeric literals in ``t``, leftmost first."""
    return [p for p in paths(t) if isinstance(subterm_at(t, p), Const)]


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in children(t))


def free_vars(t: Term) -> set[str]:
    """The free names of ``t``.  A leaf child is read in its parent's
    frame, with no call of its own."""
    cls = type(t)
    if cls is Var:
        return {t.name}
    if cls in LEAVES:
        return set()
    if cls is Lam:
        return free_vars(t.body) - {t.var}
    if cls is LetPair:
        return free_vars(t.scrutinee) | (free_vars(t.body) - {t.var1, t.var2})
    out: set[str] = set()
    for c in children(t):
        k = type(c)
        if k is Var:
            out.add(c.name)
        elif k not in LEAVES:
            out |= free_vars(c)
    return out


def plug(ctx: Context, m: Term) -> Term:
    """Fill the hole, without capture avoidance: contexts bind on purpose."""
    if isinstance(ctx, Hole):
        return m
    kids = children(ctx)
    return rebuild(ctx, [plug(c, m) for c in kids]) if kids else ctx


def hole_count(ctx: Term) -> int:
    return sum(1 for s in subterms(ctx) if isinstance(s, Hole))


# ---------------------------------------------------------------------------
# Environments: ordered (name, type) lists, names distinct


@dataclass(frozen=True)
class Env:
    bindings: tuple[tuple[str, Ty], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.bindings]
        if len(set(names)) != len(names):
            raise TypeError_(f"duplicate variable in environment: {names}")

    def names(self) -> tuple[str, ...]:
        return tuple([n for n, _ in self.bindings])

    def lookup(self, name: str) -> Ty:
        for n, t in self.bindings:
            if n == name:
                return t
        raise TypeError_(f"unbound variable {name!r}")

    def extend(self, name: str, ty: Ty) -> "Env":
        if name in self.names():
            raise TypeError_(f"variable {name!r} rebound in environment")
        return Env(self.bindings + ((name, ty),))

    def restrict(self, names: set[str]) -> "Env":
        return Env(tuple(b for b in self.bindings if b[0] in names))

    def __len__(self):
        return len(self.bindings)

    def __iter__(self):
        return iter(self.bindings)


EMPTY_ENV = Env()


def env_of(*pairs: tuple[str, Ty]) -> Env:
    return Env(tuple(pairs))


# ---------------------------------------------------------------------------
# Symbol registry


BUILTIN_KINDS = ("add", "sin", "cos", "const", "scale_le1", "min", "max")


def _make_evaluator(kind: str, value: Optional[float]) -> tuple[int, Callable[..., float]]:
    if kind == "add":
        return 2, operator.add
    if kind == "sin":
        return 1, math.sin
    if kind == "cos":
        return 1, math.cos
    if kind == "const":
        if value is None:
            raise RegistryError("builtin 'const' requires a value")
        return 1, lambda _a, _v=value: _v
    if kind == "scale_le1":
        if value is None or abs(value) > 1.0:
            raise RegistryError("builtin 'scale_le1' requires a value with |value| <= 1")
        return 1, lambda a, _v=value: _v * a
    if kind == "min":
        return 2, min
    if kind == "max":
        return 2, max
    raise RegistryError(f"unknown builtin kind {kind!r}")


def _entries(config: dict, key: str) -> list[dict]:
    entries = config.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise RegistryError(f"registry {key!r} must be a list of objects")
    return entries


def _field(entry: dict, key: str, kind: type = str):
    """``entry[key]``, which must be present and of type ``kind``."""
    if key not in entry:
        raise RegistryError(f"registry entry {entry!r} has no {key!r}")
    if not isinstance(entry[key], kind):
        raise RegistryError(f"registry entry {entry!r}: {key!r} must be a {kind.__name__}")
    return entry[key]


def _number(x) -> Optional[float]:
    """``x`` as a float if it is a JSON number, else None.  A boolean is
    not a number (Python makes it an int), nor is a string of digits."""
    if type(x) not in (int, float):
        return None
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        return None


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int
    evaluator: Callable[..., float]

    def __call__(self, *args: float) -> float:
        """The evaluator's result, checked to be a finite number.

        The interpreters' inner loops call ``evaluator`` directly and skip
        this check; their inputs are bounded probe values.
        """
        try:
            out = self.evaluator(*args)
        except (ValueError, OverflowError) as e:
            raise EvalError(f"{self.name}{args}: {e}") from None
        if not math.isfinite(out):
            raise EvalError(f"{self.name}{args} = {out!r} is not a finite number")
        return out


class SymbolRegistry:
    """The ambient set of non-expansive function symbols.

    Frozen after construction.  ``gap(f, g)`` is an optional upper bound
    on ``sup_x |f(x) - g(x)|`` for same-arity symbols, used when bounding
    distances between wire terms with differing symbols.
    """

    def __init__(self, symbols: Iterable[Symbol] = (), gaps: dict[tuple[str, str], float] | None = None):
        self._symbols = {s.name: s for s in symbols}
        self._gaps = dict(gaps or {})

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def get(self, name: str) -> Symbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise RegistryError(f"unregistered symbol {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._symbols))

    def names_of_arity(self, k: int) -> list[str]:
        return [n for n in self.names() if self._symbols[n].arity == k]

    def gap(self, f: str, g: str) -> ExtReal:
        if f == g:
            return 0.0
        return self._gaps.get((f, g), self._gaps.get((g, f), INF))

    def validate_nonexpansive(self, seed: int = 0, samples: int = 1000, span: float = 50.0) -> None:
        """Sampled check that every evaluator is L1-non-expansive."""
        rng = random.Random(seed)
        for name in self.names():
            sym = self.get(name)
            for _ in range(samples):
                xs = [rng.uniform(-span, span) for _ in range(sym.arity)]
                ys = [rng.uniform(-span, span) for _ in range(sym.arity)]
                lhs = abs(sym(*xs) - sym(*ys))
                rhs = sum(abs(a - b) for a, b in zip(xs, ys))
                if lhs > rhs + 1e-9:
                    raise RegistryError(
                        f"symbol {name!r} is not non-expansive: |f{tuple(xs)} - f{tuple(ys)}| = {lhs} > {rhs}"
                    )

    @staticmethod
    def from_config(config: dict) -> "SymbolRegistry":
        if not isinstance(config, dict):
            raise RegistryError("a registry must be a JSON object")
        symbols = []
        for entry in _entries(config, "symbols"):
            name = _field(entry, "name")
            kind, raw = entry.get("builtin"), entry.get("value")
            if kind not in BUILTIN_KINDS:
                raise RegistryError(f"symbol {name!r}: unknown builtin kind {kind!r}")
            value = None if raw is None else _number(raw)
            if raw is not None and (value is None or not math.isfinite(value)):
                raise RegistryError(f"symbol {name!r}: value {raw!r} is not a finite number")
            arity, fn = _make_evaluator(kind, value)
            declared = entry.get("arity", arity)
            if type(declared) is not int or declared != arity:
                raise RegistryError(f"symbol {name!r}: builtin {kind!r} has arity {arity}, not {declared!r}")
            symbols.append(Symbol(name, arity, fn))
        gaps = {}
        for entry in _entries(config, "gaps"):
            a, b, raw = _field(entry, "a"), _field(entry, "b"), _field(entry, "bound", object)
            bound = _number(raw)
            if bound is None:
                raise RegistryError(f"gap {a!r}/{b!r}: bound {raw!r} is not a number")
            if not bound >= 0.0:  # also rejects NaN
                raise RegistryError(f"gap {a!r}/{b!r}: bound {raw!r} is not >= 0")
            gaps[(a, b)] = bound
        return SymbolRegistry(symbols, gaps)

    @staticmethod
    def from_file(path: str) -> "SymbolRegistry":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except RecursionError:
                raise RegistryError(f"{path}: JSON nests too deeply") from None
        return SymbolRegistry.from_config(config)


def default_registry() -> SymbolRegistry:
    return SymbolRegistry(
        [Symbol(kind, *_make_evaluator(kind, None)) for kind in ("add", "sin", "cos")],
        gaps={("sin", "cos"): math.sqrt(2.0)},
    )


# ---------------------------------------------------------------------------
# Distance intervals


@dataclass(frozen=True)
class DistInterval:
    """Sound enclosure [lo, hi] of a true metric value."""

    lo: ExtReal
    hi: ExtReal
    lo_witness: object = None
    normalized: bool = False

    def __post_init__(self):
        if self.lo > self.hi + EPS:
            raise AssertionError(f"ill-formed interval [{self.lo}, {self.hi}]")

    def is_exact(self) -> bool:
        return self.hi - self.lo <= EPS

    def __add__(self, other: "DistInterval") -> "DistInterval":
        return DistInterval(self.lo + other.lo, self.hi + other.hi,
                            normalized=self.normalized or other.normalized)


def search(scored: Iterable, stop: float = INF, best: float = 0.0, witness=None) -> tuple:
    """The incumbent of a lower-bound search (Land & Doig, 1960): the
    first highest-scoring ``(score, witness)`` pair of ``scored`` if it
    beats ``best``, else ``(best, witness)``.  Returns as soon as the
    incumbent reaches ``stop``, pulling no further pair.  Callers stop
    only at a bound their report clips to: rounding can put the full
    search a few ulps above a certified bound (``add(v0, -0.7)`` vs
    ``add(v0, -1.7)`` gives 1.0000000000000002 against a certified 1.0)."""
    for score, w in scored:
        if score > best:
            best, witness = score, w
            if best >= stop:
                break
    return best, witness


# ---------------------------------------------------------------------------
# Wire atoms

def pos_atoms(t: Ty) -> tuple[str, ...]:
    """Positive atomic occurrences left to right, each 'R' or 'I'."""
    if isinstance(t, TReal):
        return ("R",)
    if isinstance(t, TUnit):
        return ("I",)
    if isinstance(t, TTensor):
        return pos_atoms(t.left) + pos_atoms(t.right)
    if isinstance(t, TLolli):
        return neg_atoms(t.arg) + pos_atoms(t.res)
    raise AssertionError(t)


def neg_atoms(t: Ty) -> tuple[str, ...]:
    if isinstance(t, (TReal, TUnit)):
        return ()
    if isinstance(t, TTensor):
        return neg_atoms(t.left) + neg_atoms(t.right)
    if isinstance(t, TLolli):
        return pos_atoms(t.arg) + neg_atoms(t.res)
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Parsing


_SYMBOL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789'"
_IDENT_START = _SYMBOL_CHARS[:53]  # letters and '_'
_DIGITS = frozenset("0123456789")  # ASCII only: float() also reads other scripts' digits
_NUMBER_CHARS = _DIGITS | {"."}


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of ``text``, ending in an ``eof`` token."""
    tokens, n = [], len(text)
    i = 0
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c == "-" and text[i : i + 2] == "-o":
            tokens.append(("-o", "-o", start))
            i += 2
        elif c == "[" and text[i : i + 3] == "[-]":
            tokens.append(("[-]", "[-]", start))
            i += 3
        elif c in "()\\.,*=":
            tokens.append((c, c, start))
            i += 1
        elif c == ":":
            tokens.append((":", ":", start))
            i += 1
        elif c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _NUMBER_CHARS:
                j += 1
            if j < n and text[j] in "eE":
                j += 1
                if j < n and text[j] in "+-":
                    j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad numeric literal {text[i:j]!r}", start)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text[i:j]!r} is out of range", start)
            tokens.append(("num", text[i:j], start))
            i = j
        elif c in _IDENT_START:
            j = i
            while j < n and text[j] in _SYMBOL_CHARS:
                j += 1
            tokens.append(("ident", text[i:j], start))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


def _found(kind: str, text: str) -> str:
    """A token as a parse error names it."""
    return "end of input" if kind == "eof" else repr(text)


# The deepest nesting of terms and types the parser accepts.  Every
# recursive walker (the parser, typing, evaluation, normalisation, the
# interpreters and printing) takes at most a few frames a level, so
# inputs within the limit stay inside Python's default recursion limit.
MAX_NESTING = 100


def _height(node) -> int:
    """Levels of a term or type tree, λ annotations included, without recursion."""
    best, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        best = max(best, level)
        if isinstance(node, Term):
            kids = children(node) + ((node.ann,) if isinstance(node, Lam) else ())
        elif isinstance(node, TTensor):
            kids = (node.left, node.right)
        elif isinstance(node, TLolli):
            kids = (node.arg, node.res)
        else:
            kids = ()
        stack.extend((k, level + 1) for k in kids)
    return best


class _Parser:
    def __init__(self, text: str, registry: SymbolRegistry):
        self.tokens = _tokens(text)
        self.idx = 0
        self.registry = registry
        self.nesting = 0  # parse_term and parse_type calls in progress

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        if tok[0] != "eof":
            self.idx += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_found(tok[0], tok[1])}", tok[2])
        return tok

    def at_tensor_marker(self) -> bool:
        # the three-token sequence '(' 'x' ')' used in types and let patterns;
        # a token before eof always has a successor
        tokens, i = self.tokens, self.idx
        return tokens[i][0] == "(" and tokens[i + 1][:2] == ("ident", "x") and tokens[i + 2][0] == ")"

    def eat_tensor_marker(self):
        self.expect("(")
        self.expect("ident")
        self.expect(")")

    def _enter(self) -> None:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"input nests deeper than {MAX_NESTING} levels", self.peek()[2])

    def parse_all(self, parse):
        """Parse the whole input with ``parse``: no trailing input, no deep trees."""
        node = parse()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", pos)
        # Application and tensor chains build trees deeper than the parser's
        # own nesting.  A tree has at most two nodes per token, so only a
        # long input needs the walk.
        if 2 * len(self.tokens) > MAX_NESTING and _height(node) > MAX_NESTING:
            raise ParseError(f"input nests deeper than {MAX_NESTING} levels", 0)
        return node

    # -- types

    def parse_type(self) -> Ty:
        self._enter()
        t = self._parse_tensor_type()
        if self.peek()[0] == "-o":
            self.next()
            t = TLolli(t, self.parse_type())
        self.nesting -= 1
        return t

    def _parse_tensor_type(self) -> Ty:
        t = self._parse_atom_type()
        while self.at_tensor_marker():
            self.eat_tensor_marker()
            t = TTensor(t, self._parse_atom_type())
        return t

    def _parse_atom_type(self) -> Ty:
        kind, text, pos = self.next()
        if kind == "ident" and text == "R":
            return R
        if kind == "ident" and text == "I":
            return I
        if kind == "(":
            t = self.parse_type()
            self.expect(")")
            return t
        raise ParseError(f"expected a type, found {_found(kind, text)}", pos)

    # -- terms

    def parse_term(self) -> Term:
        self._enter()
        kind, text, pos = self.peek()
        if kind == "\\":
            self.next()
            _, name, npos = self.expect("ident")
            if name in self.registry:
                raise ParseError(f"{name!r} is a registered symbol, not a variable", npos)
            self.expect(":")
            ann = self.parse_type()
            self.expect(".")
            t = Lam(name, ann, self.parse_term())
        elif kind == "ident" and text == "let":
            t = self._parse_let()
        else:
            t = self._parse_tensor()
        self.nesting -= 1
        return t

    def _parse_let(self) -> Term:
        # 'in' is a plain identifier that the term grammar never takes in
        # application position, so a scrutinee parses greedily up to it.
        self.next()  # let
        kind, text, pos = self.peek()
        if kind == "*":
            self.next()
            self.expect("=")
            scrut = self.parse_term()
            self._expect_kw("in")
            return LetStar(scrut, self.parse_term())
        _, v1, p1 = self.expect("ident")
        if not self.at_tensor_marker():
            tok = self.peek()
            raise ParseError(f"expected '(x)' in pair pattern, found {_found(tok[0], tok[1])}", tok[2])
        self.eat_tensor_marker()
        _, v2, p2 = self.expect("ident")
        for name, p in ((v1, p1), (v2, p2)):
            if name in self.registry:
                raise ParseError(f"{name!r} is a registered symbol, not a variable", p)
        self.expect("=")
        scrut = self.parse_term()
        self._expect_kw("in")
        return LetPair(v1, v2, scrut, self.parse_term())

    def _expect_kw(self, word: str):
        kind, text, pos = self.next()
        if kind != "ident" or text != word:
            raise ParseError(f"expected {word!r}, found {_found(kind, text)}", pos)

    def _parse_tensor(self) -> Term:
        t = self._parse_app()
        while self.peek()[0] == "*":
            # '*' in infix position is tensor; in atom position it is unit.
            self.next()
            t = Pair(t, self._parse_app())
        return t

    def _parse_app(self) -> Term:
        head_pos = self.peek()[2]
        head = self._parse_atom()
        args = []
        while self._starts_atom():
            args.append(self._parse_atom())
        if args and isinstance(head, (Const, Star)):
            raise ParseError("a constant cannot be applied", head_pos)
        for a in args:
            head = App(head, a)
        return head

    def _starts_atom(self) -> bool:
        kind, text, _ = self.peek()
        if kind in ("num", "(", "[-]", "\\"):
            return True
        if kind == "ident":
            return text != "in"
        return False

    def _parse_atom(self) -> Term:
        kind, text, pos = self.next()
        if kind == "num":
            return Const(float(text))
        if kind == "*":
            return STAR
        if kind == "[-]":
            return HOLE
        if kind == "\\":
            self.idx -= 1
            return self.parse_term()
        if kind == "(":
            t = self.parse_term()
            self.expect(")")
            return t
        if kind == "ident":
            if text in ("let", "in"):
                raise ParseError(f"unexpected keyword {text!r}", pos)
            nxt = self.peek()
            attached_call = nxt[0] == "(" and nxt[2] == pos + len(text)
            if attached_call:
                if text not in self.registry:
                    raise ParseError(f"unknown symbol name {text!r}", pos)
                self.next()
                args = [self.parse_term()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.parse_term())
                self.expect(")")
                sym = self.registry.get(text)
                if len(args) != sym.arity:
                    raise ParseError(
                        f"symbol {text!r} has arity {sym.arity}, got {len(args)} arguments", pos
                    )
                return FnApp(text, tuple(args))
            if text in self.registry:
                raise ParseError(f"registered symbol {text!r} must be applied as {text}(...)", pos)
            return Var(text)
        if kind == "eof":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_term(text: str, registry: Optional[SymbolRegistry] = None) -> Term:
    registry = registry if registry is not None else default_registry()
    p = _Parser(text, registry)
    return p.parse_all(p.parse_term)


def parse_type(text: str) -> Ty:
    p = _Parser(text, SymbolRegistry())
    return p.parse_all(p.parse_type)


def parse_env(text: str) -> Env:
    """Environment syntax: 'x:R -o R, y:R' (comma separated, ordered).
    A name is one identifier other than ``let`` and ``in``."""
    if not text.strip():
        return EMPTY_ENV
    bindings, pos = [], 0
    for part in text.split(","):
        if ":" not in part:
            end = pos + len(part) == len(text)
            found = repr(part.strip()) if part.strip() else "end of input" if end else "','"
            raise ParseError(f"expected an environment entry 'name:type', found {found}", pos)
        name, ty = part.split(":", 1)
        key = name.strip()
        bad = key in ("", "let", "in") or key[0] not in _IDENT_START
        if bad or any(c not in _SYMBOL_CHARS for c in key):
            at = pos + len(name) - len(name.lstrip())
            raise ParseError(f"expected a variable name, found {key or ':'!r}", at)
        try:
            bindings.append((key, parse_type(ty)))
        except ParseError as e:  # report the offset in the whole environment
            raise ParseError(e.msg, pos + len(name) + 1 + e.pos) from None
        pos += len(part) + 1
    return Env(tuple(bindings))


# ---------------------------------------------------------------------------
# Printing


def print_term(t: Term) -> str:
    return _print(t, 0)


def _print(t: Term, prec: int) -> str:
    # prec: 0 = top, 1 = tensor operand, 2 = application head/argument
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return repr(t.value)
    if isinstance(t, Star):
        return "(*)" if prec >= 3 else "*"  # in argument position * reads as tensor
    if isinstance(t, Hole):
        return "[-]"
    if isinstance(t, FnApp):  # a name or literal argument is printed here
        args = [
            a.name if type(a) is Var else repr(a.value) if type(a) is Const else _print(a, 0)
            for a in t.args
        ]
        return f"{t.symbol}({', '.join(args)})"
    if isinstance(t, App):
        s = f"{_print(t.fn, 2)} {_print(t.arg, 3)}"
        return f"({s})" if prec >= 3 else s
    if isinstance(t, Lam):
        ann = print_type(t.ann)
        if not isinstance(t.ann, (TReal, TUnit)):
            ann = f"({ann})"
        s = f"\\{t.var}:{ann}. {_print(t.body, 0)}"
        return f"({s})" if prec >= 1 else s
    if isinstance(t, Pair):
        s = f"{_print(t.left, 1)} * {_print(t.right, 2)}"
        return f"({s})" if prec >= 2 else s
    if isinstance(t, LetStar):
        s = f"let * = {_print(t.scrutinee, 0)} in {_print(t.body, 0)}"
        return f"({s})" if prec >= 1 else s
    if isinstance(t, LetPair):
        s = f"let {t.var1} (x) {t.var2} = {_print(t.scrutinee, 0)} in {_print(t.body, 0)}"
        return f"({s})" if prec >= 1 else s
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Typechecking

@dataclass(frozen=True)
class Derivation:
    """Records how each two-premise node split its environment."""

    term: Term
    env: Env
    ty: Ty
    splits: tuple[tuple[tuple[str, ...], ...], ...] = ()
    children: tuple["Derivation", ...] = ()


_new, _set = object.__new__, object.__setattr__


def _derivation(term: Term, env: Env, ty: Ty, splits: tuple = (), kids: tuple = ()) -> Derivation:
    """A ``Derivation`` built without the frozen ``__init__``; nothing changes it after."""
    d = _new(Derivation)
    _set(d, "__dict__", {"term": term, "env": env, "ty": ty, "splits": splits, "children": kids})
    return d


def _env(bindings: tuple[tuple[str, Ty], ...]) -> Env:
    """An ``Env`` of names known to be distinct, built without the duplicate check."""
    env = _new(Env)
    _set(env, "bindings", bindings)
    return env


class _Checker:
    """Linear typing in one walk, reading each split off the premises.

    ``_check(scope, t)`` takes ``scope``, each name in scope mapped to its
    type in environment order (a binder shadows an outer name it repeats),
    and returns the type of ``t``, the names of ``scope`` it uses, in scope
    order, and its derivation, which is None unless ``build`` is set (only
    ``derive`` sets it; no check depends on it).  A name two premises use
    is used twice; a binder, or a name of ``check``'s environment, that
    goes unused is an error.  A hole uses exactly the hole environment,
    which must be the part of ``scope`` it names, in order.  A derivation's
    ``env`` is the part of ``scope`` its names pick, built without ``Env``'s
    duplicate check: the keys of a dict are distinct.  Without ``build``, a
    leaf returns its result directly and a symbol's literal argument is
    typed in the symbol's frame, with no call of its own.
    """

    def __init__(
        self, registry: SymbolRegistry, hole: Optional[tuple[Env, Ty]] = None, build: bool = False
    ):
        self.registry = registry
        self.hole = hole
        self.build = build

    def check(self, env: Env, t: Term) -> tuple[Ty, Optional[Derivation]]:
        ty, names, d = self._check(dict(env.bindings), t)
        if len(names) != len(env):  # names is a part of env, in env's order
            unused = sorted(set(env.names()) - set(names))
            raise TypeError_(f"unused variable(s): {unused} (linearity violation)")
        return ty, d

    def _check(self, scope: dict[str, Ty], t: Term) -> tuple:
        cls = type(t)
        build = self.build
        if cls is Var:
            if t.name not in scope:
                raise TypeError_(f"unbound variable {t.name!r}")
            if not build:
                return scope[t.name], (t.name,), None
            return self._done(scope, t, scope[t.name], (t.name,))
        if cls is FnApp:
            sym = self.registry.get(t.symbol)
            if len(t.args) != sym.arity:
                raise TypeError_(f"symbol {t.symbol!r} has arity {sym.arity}, got {len(t.args)}")
            subs = [
                (R, (), None) if type(a) is Const and not build else self._check(scope, a) for a in t.args
            ]
            for s in subs:
                if s[0] is not R and s[0] != R:
                    raise TypeError_(f"argument of {t.symbol!r} must be R, got {print_type(s[0])}")
            return self._node(scope, t, R, subs)
        if cls is Const:
            return (R, (), None) if not build else self._done(scope, t, R, ())
        if cls is App:
            f = self._check(scope, t.fn)
            fty = f[0]
            if not isinstance(fty, TLolli):
                raise TypeError_(f"application head has type {print_type(fty)}, not a function")
            a = self._check(scope, t.arg)
            if a[0] is not fty.arg and a[0] != fty.arg:
                raise TypeError_(
                    f"argument type {print_type(a[0])} does not match {print_type(fty.arg)}"
                )
            return self._node(scope, t, fty.res, [f, a])
        if cls is Lam:
            b = self._check(_bind(scope, ((t.var, t.ann),)), t.body)
            return self._done(scope, t, TLolli(t.ann, b[0]), _unbind(b[1], (t.var,)), (), [b])
        if cls is Pair:
            l = self._check(scope, t.left)
            r = self._check(scope, t.right)
            return self._node(scope, t, TTensor(l[0], r[0]), [l, r])
        if cls is LetStar:
            s = self._check(scope, t.scrutinee)
            if s[0] is not I and s[0] != I:
                raise TypeError_(f"let * scrutinee must be I, got {print_type(s[0])}")
            b = self._check(scope, t.body)
            return self._node(scope, t, b[0], [s, b])
        if cls is LetPair:
            s = self._check(scope, t.scrutinee)
            sty = s[0]
            if not isinstance(sty, TTensor):
                raise TypeError_(f"let (x) scrutinee must be a tensor, got {print_type(sty)}")
            if t.var1 == t.var2:
                raise TypeError_(f"let (x) binds {t.var1!r} twice")
            binders = ((t.var1, sty.left), (t.var2, sty.right))
            bty, names, db = self._check(_bind(scope, binders), t.body)
            return self._node(scope, t, bty, [s, (bty, _unbind(names, (t.var1, t.var2)), db)])
        if cls is Star:
            return (I, (), None) if not build else self._done(scope, t, I, ())
        if cls is Hole:
            if self.hole is None:
                raise TypeError_("hole in a plain term")
            henv, hty = self.hole
            named = tuple([b for b in scope.items() if b[0] in henv.names()])
            if named != henv.bindings:
                raise TypeError_(f"hole expects environment {list(henv)}, got {list(named)}")
            return self._done(scope, t, hty, henv.names())
        raise AssertionError(t)

    def _node(self, scope: dict[str, Ty], t: Term, ty: Ty, subs: list[tuple]) -> tuple:
        """``t`` of type ``ty``, whose premises ``subs`` used disjoint parts of ``scope``."""
        split = tuple([s[1] for s in subs])
        parts = [p for p in split if p]
        if len(parts) < 2:  # nothing used twice, and a premise's names are in scope order
            names = parts[0] if parts else ()
        else:
            used = set().union(*parts)
            if len(used) != sum(map(len, parts)):
                seen: set[str] = set()
                for part in parts:
                    twice = seen.intersection(part)
                    if twice:
                        raise TypeError_(f"variable(s) used twice: {sorted(twice)} (linearity violation)")
                    seen.update(part)
            names = tuple([n for n in scope if n in used])
        if not self.build:
            return ty, names, None
        return self._done(scope, t, ty, names, (split,), subs)

    def _done(self, scope: dict, t: Term, ty: Ty, names: tuple, splits=(), subs=()) -> tuple:
        """``_check``'s result, with a derivation only if ``build`` is set."""
        if not self.build:
            return ty, names, None
        env = _env(tuple([(n, scope[n]) for n in names])) if names else EMPTY_ENV
        kids = tuple([s[2] for s in subs]) if subs else ()
        return ty, names, _derivation(t, env, ty, splits, kids)


def _bind(scope: dict[str, Ty], binders: tuple[tuple[str, Ty], ...]) -> dict[str, Ty]:
    """``scope`` with ``binders`` appended, each shadowing an outer name it repeats."""
    inner = dict(scope)
    for name, _ in binders:
        inner.pop(name, None)
    inner.update(binders)
    return inner


def _unbind(names: tuple[str, ...], binders: tuple[str, ...]) -> tuple[str, ...]:
    """A body's ``names`` less its binders, which ``_bind`` put last."""
    unused = [v for v in binders if v not in names]
    if unused:
        raise TypeError_(f"bound variable {unused[0]!r} unused (linearity violation)")
    return names[: -len(binders)]


def typecheck(env: Env, term: Term, registry: Optional[SymbolRegistry] = None) -> Ty:
    """The unique type of ``term`` under ``env``, or raises TypeError_; builds no derivation."""
    registry = registry if registry is not None else default_registry()
    return _Checker(registry).check(env, term)[0]


def derive(env: Env, term: Term, registry: Optional[SymbolRegistry] = None) -> Derivation:
    """The derivation ``typecheck`` checks: each node's term, env, type and premises' names."""
    registry = registry if registry is not None else default_registry()
    return _Checker(registry, build=True).check(env, term)[1]


def check_context(
    ctx: Context,
    src: tuple[Env, Ty],
    dst: tuple[Env, Ty],
    registry: Optional[SymbolRegistry] = None,
) -> bool:
    """True iff plugging any src-typed term yields a dst-typed term.

    The hole is checked as an opaque leaf that consumes exactly the source
    environment.
    """
    registry = registry if registry is not None else default_registry()
    if hole_count(ctx) != 1:
        return False
    checker = _Checker(registry, hole=src)
    try:
        ty = checker.check(dst[0], ctx)[0]
    except LinError:
        return False
    return ty == dst[1]
