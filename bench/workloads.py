"""The three benchmark workloads: inputs, per-item pipelines, oracles.

Every workload is built from its seed alone.  The constructor generates
the corpus with ``linmetric.gen`` and renders the terms to text;
``load_golden`` reads the digests checked at the default seed.  The
timed loop then parses that text, so the program only ever sees
generated inputs.  ``run_item`` is the untraced and the
traced pipeline at once: with a ``NullTracer`` its spans cost one
``with`` each.  ``replay`` runs only in the traced pass and re-derives
the layer split through public functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

from linmetric import gen
from linmetric.core import (
    DistInterval,
    INF,
    TTensor,
    is_observable,
    is_one_point,
    parse_term,
    print_term,
    term_size,
    typecheck,
)
from linmetric.dynamics import (
    alpha_eq,
    beta_normalize,
    eq_canonical,
    eq_decide,
    evaluate,
    is_beta_normal,
)
from linmetric.metrics import (
    EngineConfig,
    ObsBudget,
    check_qderivation,
    equ_upper_bound,
    obs_lower_bound,
    ordering_report,
    qderivation_to_dict,
)
from linmetric.semden import (
    BOTTOM,
    UNIT,
    ProbeBattery,
    den_distance,
    ground_l1,
    interp_den,
    value_dist_lower,
)
from linmetric.semint import (
    decompose,
    first_order_distance,
    fold_int_term,
    format_int_term,
    int_distance,
    int_term_denotation,
    int_term_vars,
    interp_int,
    wire_signature,
)

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# den probes value_dist_lower at depth 2, as EngineConfig does
DEN_DEPTH = 2
# ProbeBattery.env_samples keeps at most this many environment points
ENV_CAP = 64
# _sampled_gap walks at most this many grid combinations
GRID_CAP = 4096
GRID_SIZE = 16
WIRE_PROBES = 50

# Both streams below have the same mix of term sizes at every seed.
# The cost of an item grows with the size of its terms (log-log
# correlation 0.94-0.98), and a plain prefix of the generator lets the
# median item fall in a different size class from seed to seed.  The
# counts follow the natural rates over 30 seeds (100-129).
CERTIFY_STRATA = (  # (lowest, highest size of M plus N, pairs)
    (2, 3, 170), (4, 5, 92), (6, 7, 102), (8, 9, 88), (10, 11, 82),
    (12, 13, 80), (14, 15, 72), (16, 17, 70), (18, 19, 62), (20, 21, 60),
    (22, 23, 50), (24, 25, 44), (26, 27, 38), (28, 29, 34), (30, 31, 30),
    (32, 33, 26), (34, 35, 22), (36, 37, 16), (38, 39, 12), (40, 41, 12),
    (42, 43, 9), (44, 45, 8), (46, 47, 5), (48, 49, 5), (50, 51, 3),
    (52, 53, 2), (54, 55, 2), (56, 59, 2), (60, 99, 2),
)
WIRES_STRATA = tuple((k, k, q) for k, q in enumerate((  # (size, size, terms)
    206, 92, 113, 90, 97, 83, 79, 71, 65, 55, 50, 40, 35, 28, 23, 17, 16, 11,
    8, 8, 4, 4, 2, 2, 1,
), start=1))
CERTIFY_PAIRS = sum(q for _, _, q in CERTIFY_STRATA)
WIRES_TERMS = sum(q for _, _, q in WIRES_STRATA)


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def enc(x: float):
    return "inf" if x == INF else x


def load_golden(name: str) -> list[str]:
    path = GOLDEN_DIR / f"{name}.txt"
    return path.read_text(encoding="utf-8").split()


class Item:
    __slots__ = ("idx", "env", "ty", "texts", "extra")

    def __init__(self, idx, env, ty, texts, extra=None):
        self.idx = idx
        self.env = env
        self.ty = ty
        self.texts = texts
        self.extra = extra


class Workload:
    """Base: ``items`` is the stream; the timed loop cycles through it.

    The traced run measures the first ``trace_items`` items, a fixed set
    so that per-layer totals compare across commits.
    """

    name = ""
    trace_items = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.registry = gen.corpus_registry()
        self.items: list[Item] = []
        self.golden: list[str] | None = None
        self.gen_s = 0.0

    def load_golden(self) -> None:
        if self.seed == DEFAULT_SEED:
            self.golden = load_golden(self.name)

    def check_golden(self, item: Item, text: str) -> bool:
        if self.golden is None:
            return True
        return item.idx < len(self.golden) and self.golden[item.idx] == digest(text)

    def parse_pair(self, item: Item, tr):
        reg = self.registry
        with tr.span("core.parse_term", 2):
            m = parse_term(item.texts[0], reg)
            n = parse_term(item.texts[1], reg)
        with tr.span("core.typecheck", 2):
            typed = typecheck(item.env, m, reg) == item.ty and typecheck(item.env, n, reg) == item.ty
        return m, n, typed


# ---------------------------------------------------------------------------
# ordering: all four engines per pair, heavy-tailed


def den_leaves(battery: ProbeBattery, ty, depth: int) -> int:
    """Observable comparisons value_dist_lower makes for one env point."""
    if is_observable(ty):
        return 1
    if isinstance(ty, TTensor):
        return den_leaves(battery, ty.left, depth) + den_leaves(battery, ty.right, depth)
    if depth <= 0:
        return 0
    return len(battery.samples(ty.arg)) * den_leaves(battery, ty.res, depth - 1)


def den_probes(battery: ProbeBattery, env, ty) -> int:
    """Battery comparisons the den engine makes on a pair of this site."""
    if is_one_point(ty) or (len(env) == 0 and is_observable(ty)):
        return 0
    return len(battery.env_samples(env, ENV_CAP)) * den_leaves(battery, ty, DEN_DEPTH)


def cost_bin(battery: ProbeBattery, env, ty, m, n) -> int:
    """-1 if den makes no probe, else floor(log2(probes x size of the pair)).

    The den engine dominates the cost of a pair, and its cost grows with
    the number of battery comparisons times the size of the terms it
    interprets, so pairs in one bin cost about the same.
    """
    probes = den_probes(battery, env, ty)
    if probes == 0:
        return -1
    return int(math.log2(probes * (term_size(m) + term_size(n))))


# The stream is made of blocks with the same number of pairs from each
# range of cost bins, so every seed runs the same mix.  The counts per
# block follow the natural rates over 60k generated pairs (seeds
# 100-129), except for the heaviest pairs (curried results probed at
# depth 2).  Bins 19 and up hold 3.7 pairs per block at their natural
# rate, costing 0.8-7 s each, and their few draws in a run would decide
# the seed-to-seed spread.  A block takes one pair of bin 20 (about
# 1.6 s) instead, and none of bins 19 or 21 and up.
ORDERING_STRATA = (  # (lowest bin, highest bin, pairs per block)
    (-1, -1, 117),
    (0, 5, 24),
    (6, 6, 17),
    (7, 7, 30),
    (8, 8, 33),
    (9, 9, 56),
    (10, 10, 55),
    (11, 12, 18),
    (13, 13, 8),
    (14, 14, 11),
    (15, 15, 16),
    (16, 16, 9),
    (17, 18, 1),
    (20, 20, 1),
)
ORDERING_BLOCK = sum(q for _, _, q in ORDERING_STRATA)
ORDERING_BLOCKS = 2


def stratified(bins: list[int], strata, blocks: int = 1):
    """Indices of the candidates (with these bins) that make ``blocks``
    blocks of ``strata`` -- (lowest bin, highest bin, count per block) --
    or None if the candidates run out first.  Within a block candidates
    keep generator order."""
    queues = [[i for i, b in enumerate(bins) if lo <= b <= hi] for lo, hi, _ in strata]
    out = []
    for k in range(blocks):
        block = []
        for queue, (_, _, q) in zip(queues, strata):
            if len(queue) < (k + 1) * q:
                return None
            block += queue[k * q:(k + 1) * q]
        out += sorted(block)
    return out


class Ordering(Workload):
    """``ordering_report`` on generated pairs, as ``check --suite ordering``."""

    name = "ordering"
    trace_items = ORDERING_BLOCK

    def __init__(self, seed: int):
        super().__init__(seed)
        reg = self.registry
        self.cfg = EngineConfig(
            registry=reg,
            battery=ProbeBattery(reg, seed),
            budget=ObsBudget(values_per_type=3, max_contexts=60),
        )
        # a battery of its own, so the engines' battery starts cold
        sizer = ProbeBattery(reg, seed)
        count = 4 * ORDERING_BLOCK * ORDERING_BLOCKS
        while True:
            t0 = time.perf_counter()
            pairs = gen.typed_pair_corpus(seed, count, reg)
            self.gen_s += time.perf_counter() - t0
            bins = [cost_bin(sizer, env, ty, m, n) for env, ty, m, n in pairs]
            chosen = stratified(bins, ORDERING_STRATA, ORDERING_BLOCKS)
            if chosen is not None:
                break
            count *= 2
        for idx, i in enumerate(chosen):
            env, ty, m, n = pairs[i]
            self.items.append(Item(idx, env, ty, (print_term(m), print_term(n))))

    def run_item(self, item: Item, tr):
        m, n, typed = self.parse_pair(item, tr)
        with tr.span("metrics.ordering_report"):
            report = ordering_report(item.env, item.ty, m, n, self.cfg)
        text = json.dumps(report, sort_keys=True)
        ok = typed and report["chain_ok"]
        return text, ok, (m, n, report)

    def replay(self, item: Item, tr, state) -> bool:
        """The engines one by one, then the den and int splits.

        Returns False if an engine disagrees with the report it gave
        inside ``ordering_report`` (the program is then at fault).
        """
        m, n, report = state
        env, ty, reg, cfg = item.env, item.ty, self.registry, self.cfg
        with tr.span("metrics.obs_lower_bound"):
            obs_lo, _ = obs_lower_bound(env, ty, m, n, cfg.budget, reg)
        with tr.span("metrics.equ_upper_bound"):
            equ_hi, cert = equ_upper_bound(env, ty, m, n, reg)
        with tr.span("semden.den_distance"):
            den = den_distance(
                env, ty, m, n, cfg.battery, depth=cfg.depth, upper_bound=equ_hi, registry=reg
            )
        with tr.span("semint.int_distance"):
            ints = int_distance(env, ty, m, n, cfg.battery, registry=reg)
        got = report["metrics"]
        agree = (
            enc(obs_lo) == got["obs"]["lo"]
            and enc(equ_hi) == got["equ"]["hi"]
            and (enc(den.lo), enc(den.hi)) == (got["den"]["lo"], got["den"]["hi"])
            and (enc(ints.lo), enc(ints.hi)) == (got["int"]["lo"], got["int"]["hi"])
        )
        count_cert(tr, cert)
        agree = replay_canonical(tr, m, n, reg, equ_hi) and agree
        tr.count("semden.split_checked")
        if replay_den(tr, env, ty, m, n, cfg.battery, equ_hi, reg) == (den.lo, den.hi):
            tr.count("semden.split_exact")
        tr.count("semint.split_checked")
        if replay_int(tr, env, ty, m, n, cfg.battery, reg) == (ints.lo, ints.hi):
            tr.count("semint.split_exact")
        return agree


def const_steps(node: dict) -> int:
    """Constant-axiom steps in a serialised certificate."""
    subs = [node[k] for k in ("sub", "left", "right") if k in node]
    return (node["rule"] == "const") + sum(const_steps(s) for s in subs)


def count_cert(tr, cert) -> None:
    if cert is None:
        return
    tr.count("metrics.certificates")
    tr.count("metrics.const_steps", const_steps(qderivation_to_dict(cert)))


def replay_canonical(tr, m, n, reg, equ_hi) -> bool:
    """Times the canonical forms ``equ`` starts from; False if they agree
    but the reported bound is not 0."""
    with tr.span("dynamics.beta_normalize", 2):
        beta_normalize(m)
        beta_normalize(n)
    with tr.span("dynamics.eq_canonical", 2):
        same = alpha_eq(eq_canonical(m, reg), eq_canonical(n, reg))
    return not same or equ_hi == 0.0


def replay_den(tr, env, ty, m, n, battery, upper, reg):
    """``den_distance`` through its public parts; returns (lo, hi)."""
    if is_one_point(ty):
        return 0.0, 0.0
    if len(env) == 0 and is_observable(ty):
        d = ground_l1(evaluate(m, reg), evaluate(n, reg), ty)
        return d, d
    with tr.span("semden.env_samples"):
        points = battery.env_samples(env, ENV_CAP)
    sizes = 1
    for _, t in env:
        sizes *= len(battery.samples(t))
    tr.count("semden.env_sampled")
    tr.count("semden.env_capped", sizes > ENV_CAP)
    tr.count("semden.env_points", len(points))
    fm = interp_den(env, m, reg)
    fn = interp_den(env, n, reg)
    with tr.span("semden.interp_den", 2 * len(points)):
        values = [(fm(p), fn(p)) for p in points]
    lo = 0.0
    with tr.span("semden.value_dist_lower", len(points)):
        for a, b in values:
            d, _ = value_dist_lower(a, b, ty, battery, DEN_DEPTH)
            if d > lo:
                lo = d
    return lo, (max(upper, lo) if upper < INF else INF)


def replay_int(tr, env, ty, m, n, battery, reg):
    """``int_distance`` through its public parts; returns (lo, hi)."""
    normal = [is_beta_normal(m), is_beta_normal(n)]
    with tr.span("dynamics.beta_normalize", normal.count(False)):
        m = m if normal[0] else beta_normalize(m)
        n = n if normal[1] else beta_normalize(n)
    with tr.span("semint.decompose", 2):
        hm, _ = decompose(env, m, reg)
        hn, _ = decompose(env, n, reg)
    wire_types = wire_signature(env, ty).out_types
    with tr.span("semint.fold_int_term", 2 * len(hm)):
        folded = [(fold_int_term(a, reg), fold_int_term(b, reg)) for a, b in zip(hm, hn)]
    grid = min(GRID_SIZE, len(battery.reals))
    for (a, b), wt in zip(folded, wire_types):
        shared = int_term_vars(a) | int_term_vars(b)
        if wt == "R" and a != b and shared:
            tr.count("semint.grid_sampled")
            tr.count("semint.grid_capped", grid ** len(shared) > GRID_CAP)
    total = DistInterval(0.0, 0.0)
    with tr.span("semint.first_order_distance", len(hm)):
        for a, b, wt in zip(hm, hn, wire_types):
            total = total + first_order_distance(a, b, battery, reg, wire_type=wt)
    return total.lo, total.hi


# ---------------------------------------------------------------------------
# certify: equational bound, its certificate, and eq_decide; no interpreter


class Certify(Workload):
    """``equ_upper_bound`` + ``check_qderivation`` + ``eq_decide``.

    Items alternate a generated pair (M, N) with (M, equal variant of M).
    """

    name = "certify"
    trace_items = 2 * CERTIFY_PAIRS

    def __init__(self, seed: int):
        super().__init__(seed)
        reg = self.registry
        t0 = time.perf_counter()
        # 4x fills every stratum at 79 of 80 seeds (2x at 45), so set-up
        # rarely has to generate again
        count = 4 * CERTIFY_PAIRS
        while True:
            pairs = gen.typed_pair_corpus(seed, count, reg)
            bins = [term_size(m) + term_size(n) for _env, _ty, m, n in pairs]
            chosen = stratified(bins, CERTIFY_STRATA)
            if chosen is not None:
                break
            count *= 2
        pairs = [pairs[i] for i in chosen]
        rng = random.Random(seed)
        variants = [gen.equal_variant(rng, m, ty, reg) for _env, ty, m, _n in pairs]
        self.gen_s = time.perf_counter() - t0
        for (env, ty, m, n), v in zip(pairs, variants):
            mt = print_term(m)
            self.items.append(Item(len(self.items), env, ty, (mt, print_term(n)), False))
            self.items.append(Item(len(self.items), env, ty, (mt, print_term(v)), True))

    def run_item(self, item: Item, tr):
        reg = self.registry
        m, n, typed = self.parse_pair(item, tr)
        with tr.span("metrics.equ_upper_bound"):
            hi, cert = equ_upper_bound(item.env, item.ty, m, n, reg)
        if cert is None:
            certified = hi == INF
        else:
            with tr.span("metrics.check_qderivation"):
                certified = check_qderivation(cert, reg) == hi
        with tr.span("dynamics.eq_decide"):
            eq = eq_decide(m, n, reg)
        ok = typed and certified and (hi == 0.0 or not eq) and (hi == 0.0 or not item.extra)
        text = json.dumps(
            {
                "bound": enc(hi),
                "certificate": qderivation_to_dict(cert) if cert is not None else None,
                "eq": eq,
            },
            sort_keys=True,
        )
        return text, ok, (m, n, hi, cert)

    def replay(self, item: Item, tr, state) -> bool:
        m, n, hi, cert = state
        count_cert(tr, cert)
        return replay_canonical(tr, m, n, self.registry, hi)


# ---------------------------------------------------------------------------
# wires: decomposition against executable strategies, as check --suite decompose


class Wires(Workload):
    """``decompose`` and ``interp_int`` on beta-normal terms, each output
    checked against the other at 50 seeded wire inputs."""

    name = "wires"
    trace_items = WIRES_TERMS

    def __init__(self, seed: int):
        super().__init__(seed)
        reg = self.registry
        t0 = time.perf_counter()
        # 4x fills every stratum at 99 of 100 seeds (2x at 69), so set-up
        # rarely has to generate again
        count = 4 * WIRES_TERMS
        while True:
            corpus = gen.beta_normal_corpus(seed, count, registry=reg)
            chosen = stratified([term_size(t) for _env, _ty, t in corpus], WIRES_STRATA)
            if chosen is not None:
                break
            count *= 2
        corpus = [corpus[i] for i in chosen]
        self.gen_s = time.perf_counter() - t0
        rng = random.Random(seed)
        for env, ty, term in corpus:
            sig = wire_signature(env, ty)
            probes = [
                tuple(UNIT if t == "I" else rng.uniform(-20, 20) for t in sig.in_types)
                for _ in range(WIRE_PROBES)
            ]
            self.items.append(Item(len(self.items), env, ty, (print_term(term),), (sig, probes)))

    def run_item(self, item: Item, tr):
        reg = self.registry
        sig, probes = item.extra
        with tr.span("core.parse_term"):
            term = parse_term(item.texts[0], reg)
        with tr.span("core.typecheck"):
            typed = typecheck(item.env, term, reg) == item.ty
        with tr.span("semint.decompose"):
            hs, _ = decompose(item.env, term, reg)
        with tr.span("semint.interp_int"):
            wf = interp_int(item.env, term, reg)
        with tr.span("semint.strategy", len(probes)):
            got = [wf(ins) for ins in probes]
        tr.count("semint.probes", len(probes))
        with tr.span("semint.int_term_denotation", len(probes) * len(hs)):
            want = [
                tuple(
                    int_term_denotation(h, {f"x{i + 1}": v for i, v in enumerate(ins)}, reg)
                    for h in hs
                )
                for ins in probes
            ]
        ok = typed and all(map(outputs_agree, got, want))
        labels = {f"x{i + 1}": sig.in_labels[i] for i in range(sig.m)}
        text = "  ".join(f"H{j + 1}={format_int_term(h, labels)}" for j, h in enumerate(hs))
        return text, ok, None


def outputs_agree(got: tuple, want: tuple) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a is UNIT or b is UNIT or a is BOTTOM or b is BOTTOM:
            if a is not b:
                return False
        elif abs(a - b) > 1e-9:
            return False
    return True


WORKLOADS = {"ordering": Ordering, "certify": Certify, "wires": Wires}
