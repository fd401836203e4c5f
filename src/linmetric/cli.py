"""Command-line frontend.

Exit codes: 0 success, 1 user error (command line/parse/type/
configuration), 2 internal invariant violation (ordering-chain break,
non-monotone trace).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .core import (
    EMPTY_ENV,
    LinError,
    SymbolRegistry,
    default_registry,
    parse_env,
    parse_term,
    print_term,
    print_type,
    typecheck,
)
from .dynamics import beta_normalize, evaluate, is_beta_normal
from .metrics import (
    EngineConfig,
    ObsBudget,
    admissibility_suite,
    den_engine,
    den_entry,
    equ_entry,
    equ_upper_bound,
    int_entry,
    obs_entry,
    obs_lower_bound,
    ordering_report,
)
from .semden import UNIT, ProbeBattery
from .semint import (
    ModelError,
    WireFunction,
    decompose,
    export_diagram,
    format_int_term,
    int_distance,
    int_term_denotation,
    interp_int,
    symmetry,
    trace,
    wire_signature,
)
from . import gen

USER_ERROR = 1
INTERNAL_ERROR = 2


def count(text: str) -> int:
    """A non-negative integer (``--budget``, ``--count``)."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


class Parser(argparse.ArgumentParser):
    """A malformed command line is a user error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USER_ERROR, f"{self.prog}: error: {message}\n")


def read_inputs(args, *paths: str) -> tuple:
    """``(registry, env, *terms)``, read in that order; no ``--env`` is the empty one."""
    symbols = getattr(args, "symbols", None) or os.environ.get("LINMETRIC_SYMBOLS")
    registry = SymbolRegistry.from_file(symbols) if symbols else default_registry()
    env = parse_env(args.env) if getattr(args, "env", None) else EMPTY_ENV
    terms = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            terms.append(parse_term(fh.read(), registry))
    return (registry, env, *terms)


def suite_config(args) -> EngineConfig:
    """The engines' configuration for ``check --suite ordering`` and ``admissibility``."""
    registry = gen.corpus_registry()
    return EngineConfig(
        registry=registry,
        battery=ProbeBattery(registry, seed=args.seed),
        budget=ObsBudget(values_per_type=3, max_contexts=60),
    )


def cmd_term(args) -> int:
    """``typecheck``, ``eval`` and ``normalize``: what ``args.show`` prints of a well-typed term."""
    registry, env, term = read_inputs(args, args.file)
    ty = typecheck(env, term, registry)
    print(args.show(ty, term, registry))
    return 0


def cmd_dist(args) -> int:
    registry, env, m, n = read_inputs(args, args.file_m, args.file_n)
    ty = typecheck(env, m, registry)
    ty_n = typecheck(env, n, registry)
    if ty != ty_n:
        raise LinError(
            f"terms have different types: {print_type(ty)} vs {print_type(ty_n)}"
        )
    cfg = EngineConfig(
        registry=registry,
        battery=ProbeBattery(registry, seed=args.seed),
        budget=ObsBudget(max_contexts=args.budget),
    )
    exit_code = 0
    if args.metric == "all":
        report = ordering_report(env, ty, m, n, cfg)
        if not report["chain_ok"]:
            exit_code = INTERNAL_ERROR
    elif args.metric == "obs":
        report = {"obs": obs_entry(*obs_lower_bound(env, ty, m, n, cfg.budget, registry))}
    elif args.metric == "den":
        report = {"den": den_entry(den_engine(env, ty, m, n, cfg))}
    elif args.metric == "int":
        report = {"int": int_entry(int_distance(env, ty, m, n, cfg.battery, registry=registry))}
    else:  # equ
        report = {"equ": equ_entry(*equ_upper_bound(env, ty, m, n, registry))}
    try:
        text = json.dumps(report, sort_keys=True, indent=None if args.json else 2, allow_nan=False)
    except ValueError as e:  # each report number should be finite or go through an entry builder
        raise ModelError(f"report is not valid JSON: {e}") from None
    print(text)
    return exit_code


def cmd_wires(args) -> int:
    registry, env, term = read_inputs(args, args.file)
    ty = typecheck(env, term, registry)
    if not is_beta_normal(term):
        term = beta_normalize(term)
        print("note: term was normalized before wire decomposition")
    hs, _ = decompose(env, term, registry)
    sig = wire_signature(env, ty)
    labels = {f"x{i + 1}": sig.in_labels[i] for i in range(sig.m)}
    print("  ".join(f"H{j + 1}={format_int_term(h, labels)}" for j, h in enumerate(hs)))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_diagram(env, term, registry))
    return 0


def _check_ordering(args) -> tuple[int, str]:
    cfg = suite_config(args)
    pairs = gen.typed_pair_corpus(args.seed, args.count, cfg.registry)
    ok = 0
    for env, ty, m, n in pairs:
        report = ordering_report(env, ty, m, n, cfg)
        if report["chain_ok"]:
            ok += 1
    line = f"{ok}/{len(pairs)} chain_ok"
    return (0 if ok == len(pairs) else INTERNAL_ERROR), line


def _check_trace(args) -> tuple[int, str]:
    rng = random.Random(args.seed)
    registry = gen.corpus_registry()
    failures = 0
    count = args.count
    for _ in range(count):
        wf = gen.random_wire_function(rng, 2, 2, registry)
        tr = trace(wf, 1)
        # naturality in the forward input: tr(f o (g (x) id)) = tr(f) o g
        pre = WireFunction(("R", "R"), ("R", "R"), lambda i, _w=wf: _w((i[0] - 1.0, i[1])))
        for x in (-1.0, 0.0, 2.5):
            if trace(pre, 1)((x,)) != tr((x - 1.0,)):
                failures += 1
        # yanking: tracing a crossing is the identity
        v = rng.uniform(-5, 5)
        if trace(symmetry(("R", "R"), 1), 1)((v,)) != (v,):
            failures += 1
    line = f"trace: {count} functions, yanking+naturality, failures={failures}"
    return (0 if failures == 0 else INTERNAL_ERROR), line


def _check_decompose(args) -> tuple[int, str]:
    registry = gen.corpus_registry()
    rng = random.Random(args.seed)
    corpus = gen.beta_normal_corpus(args.seed, args.count, registry=registry)
    failures = 0
    for env, ty, term in corpus:
        hs, _ = decompose(env, term, registry)
        wf = interp_int(env, term, registry)
        sig = wire_signature(env, ty)
        for _ in range(50):
            ins = tuple(UNIT if t == "I" else rng.uniform(-20, 20) for t in sig.in_types)
            assignment = {f"x{i + 1}": v for i, v in enumerate(ins)}
            want = [int_term_denotation(h, assignment, registry) for h in hs]
            for a, b in zip(wf(ins), want):
                if a is UNIT or b is UNIT:
                    if a is not b:
                        failures += 1
                elif abs(a - b) > 1e-9:
                    failures += 1
    line = f"decompose: {len(corpus)} terms x 50 probes, mismatches={failures}"
    return (0 if failures == 0 else INTERNAL_ERROR), line


def _check_admissibility(args) -> tuple[int, str]:
    cfg = suite_config(args)
    corpus = gen.admissibility_corpus(args.seed, args.count, cfg.registry)
    lines = []
    bad = 0
    for engine in ("den", "int", "equ"):
        report = admissibility_suite(engine, corpus, cfg)
        status = "pass" if report.ok else f"FAIL ({len(report.violations)} violations)"
        lines.append(f"{engine}: {report.checks} checks, {status}")
        bad += len(report.violations)
    return (0 if bad == 0 else INTERNAL_ERROR), "\n".join(lines)


def cmd_check(args) -> int:
    runner = {
        "ordering": _check_ordering,
        "trace": _check_trace,
        "decompose": _check_decompose,
        "admissibility": _check_admissibility,
    }[args.suite]
    code, line = runner(args)
    print(line)
    return code


def build_parser() -> argparse.ArgumentParser:
    p = Parser(prog="linmetric", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--symbols", help="registry config JSON (or env LINMETRIC_SYMBOLS)")
        sp.add_argument("--env", help='environment, e.g. "k:R -o I, x:R"')

    sp = sub.add_parser("typecheck", help="print the type of a term file")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_term, show=lambda ty, t, reg: print_type(ty))

    sp = sub.add_parser("eval", help="evaluate a closed term file")
    sp.add_argument("file")
    sp.add_argument("--symbols")
    sp.set_defaults(fn=cmd_term, show=lambda ty, t, reg: print_term(evaluate(t, reg)))

    sp = sub.add_parser("normalize", help="print the beta-normal form")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_term, show=lambda ty, t, reg: print_term(beta_normalize(t)))

    sp = sub.add_parser("dist", help="distance report for two term files")
    sp.add_argument("file_m")
    sp.add_argument("file_n")
    common(sp)
    sp.add_argument("--metric", choices=["obs", "den", "int", "equ", "all"], default="all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=count, default=300, help="max observing contexts")
    sp.add_argument("--json", action="store_true", help="compact single-line JSON")
    sp.set_defaults(fn=cmd_dist)

    sp = sub.add_parser("wires", help="wire decomposition of a beta-normal term")
    sp.add_argument("file")
    common(sp)
    sp.add_argument("--dot", help="write a Graphviz diagram to this path")
    sp.set_defaults(fn=cmd_wires)

    sp = sub.add_parser("check", help="run a property suite")
    sp.add_argument(
        "--suite",
        choices=["admissibility", "ordering", "trace", "decompose"],
        required=True,
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=count, default=100)
    sp.set_defaults(fn=cmd_check)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ModelError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL_ERROR
    except (LinError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USER_ERROR


if __name__ == "__main__":
    sys.exit(main())
