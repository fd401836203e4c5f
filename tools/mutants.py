"""Seeded mutation testing for one module, with the standard library only.

Each mutant changes one operator or constant of the module: a relational
operator (``<`` to ``<=``, ``is`` to ``is not``, ...), an arithmetic one
(``+`` to ``-``, ``*`` to ``/``), a boolean connective (``and`` to
``or``), a ``not`` dropped, or a constant (a number plus one, a boolean
flipped).  This is the selective operator set of Offutt, Lee, Rothermel,
Untch & Zapf (TOSEM 1996).  The script lists every such site, draws
``--count`` of them with ``--seed``, and runs ``pytest -x`` on a copy of
the repository once per mutant.  A mutant is *killed* when a test fails
or the run times out after ``TIMEOUT`` seconds, and *survives* when the
suite passes.

    python tools/mutants.py src/linmetric/semden.py --count 30 --seed 0 \\
        --out mutants.json

The JSON lists each mutant's site (file, line, column), operator, the
mutated source text, the result and the first failing test.  A survivor
is either a gap in the tests or an equivalent mutant; its ``note`` field
is left ``null`` for a person to say which.  The script never edits the
repository it is run from: it mutates a copy in ``--workdir`` (a fresh
temporary directory by default).  A killed mutant takes seconds, a
survivor a full run of the suite.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
# seconds allowed per test run; a mutant that loops counts as killed
TIMEOUT = 600.0
# address-space cap for each test run, so a mutant that allocates without
# end fails instead of taking the machine's memory
MEMORY_LIMIT = 3 << 30


def _op(name_of) -> str:
    return type(name_of).__name__


def sites(tree: ast.Module) -> list[tuple[ast.expr, str, ast.expr]]:
    """Every (node, operator, mutated node) of the module, in source order.

    Nodes inside f-strings are skipped, and so are strings: a mutant
    must change what the code computes, not what it prints."""
    skip = {id(n) for j in ast.walk(tree) if isinstance(j, ast.JoinedStr) for n in ast.walk(j)}
    out = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                ops = list(node.ops)
                ops[i] = SWAPS[type(op)]()
                out.append((node, f"ROR {_op(op)}->{_op(ops[i])}", ast.Compare(node.left, ops, node.comparators)))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]()
            out.append((node, f"AOR {_op(node.op)}->{_op(new)}", ast.BinOp(node.left, new, node.right)))
        elif isinstance(node, ast.BoolOp):
            new = SWAPS[type(node.op)]()
            out.append((node, f"LCR {_op(node.op)}->{_op(new)}", ast.BoolOp(new, node.values)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, "UOD Not", node.operand))
        elif isinstance(node, ast.Constant) and type(node.value) in (bool, int, float):
            value = (not node.value) if type(node.value) is bool else node.value + 1
            out.append((node, f"CRP {node.value!r}->{value!r}", ast.Constant(value)))
    out.sort(key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))
    return out


def splice(source: str, node: ast.expr, replacement: ast.expr) -> str:
    """``source`` with ``node``'s text replaced by ``replacement``, in parentheses."""
    lines = source.splitlines(keepends=True)
    start = sum(len(x.encode()) for x in lines[: node.lineno - 1]) + node.col_offset
    end = sum(len(x.encode()) for x in lines[: node.end_lineno - 1]) + node.end_col_offset
    raw = source.encode()
    return (raw[:start] + f"({ast.unparse(replacement)})".encode() + raw[end:]).decode()


def run_tests(workdir: Path) -> tuple[str, str | None, float]:
    """Run ``pytest -x`` in ``workdir``: (result, first failing test, seconds)."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT)),
        )
    except subprocess.TimeoutExpired:
        return "timeout", None, time.monotonic() - t0
    seconds = time.monotonic() - t0
    if proc.returncode == 0:
        return "survived", None, seconds
    failed = [ln for ln in proc.stdout.splitlines() if ln.startswith(("FAILED ", "ERROR "))]
    killer = failed[0].split(" ", 1)[1].split(" - ", 1)[0] if failed else f"exit {proc.returncode}"
    return "killed", killer, seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="the module to mutate, relative to the repository root")
    ap.add_argument("--count", type=int, default=30, help="number of mutants to run")
    ap.add_argument("--seed", type=int, default=0, help="seed of the draw of mutation sites")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workdir", help="directory for the copy of the repository (default: a temp dir)")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="mutants-")) / "repo"
    shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
    target = workdir / args.module
    source = target.read_text(encoding="utf-8")
    candidates = sites(ast.parse(source))
    drawn = sorted(random.Random(args.seed).sample(range(len(candidates)), min(args.count, len(candidates))))

    result, killer, _ = run_tests(workdir)
    if result != "survived":
        print(f"the unmutated suite does not pass ({result}: {killer})", file=sys.stderr)
        return 1
    mutants = []
    try:
        for k, i in enumerate(drawn):
            node, operator, replacement = candidates[i]
            target.write_text(splice(source, node, replacement), encoding="utf-8")
            result, killer, seconds = run_tests(workdir)
            mutants.append({
                "site": f"{args.module}:{node.lineno}:{node.col_offset}",
                "operator": operator,
                "mutated": ast.unparse(replacement),
                "result": result,
                "killed_by": killer,
                "seconds": round(seconds, 1),
                "note": None,
            })
            print(f"[{k + 1}/{len(drawn)}] {mutants[-1]['site']} {operator}: {result} {killer or ''}", flush=True)
    finally:
        target.write_text(source, encoding="utf-8")
    killed = sum(m["result"] != "survived" for m in mutants)
    report = {
        "module": args.module,
        "seed": args.seed,
        "sites": len(candidates),
        "mutants": len(mutants),
        "killed": killed,
        "score": round(killed / len(mutants), 3) if mutants else None,
        "results": mutants,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{killed} of {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
