"""linmetric benchmark: one closed-loop caller drives the library in-process.

    python3 bench/run.py --workload ordering --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` cycles through the
workload's stream for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs the stream's first ``trace_items`` items (cut short
at a third of ``--seconds``) untraced, then again traced, with each
engine also replayed through its public parts (cut short at the other
two thirds); it reports the per-layer metrics and the tracing overhead,
traced over untraced time of the same items less one.  Item times are
rescaled to a reference speed (see ``calibrate.py``).  The last line of
standard output is the result as JSON; the line before it holds details
(passes, raw rate, reference probe times, tail percentile, first
failures).  Spans of a traced run go to ``.bench_out/`` as gzipped JSON.
The exit code is 0 when every item passed its checks, 1 when one failed
and 2 when the benchmark could not start."""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import PROBE_EVERY_S, REF_PROBE_S, probe
from tracing import NullTracer, Tracer, median, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("core", "dynamics", "semden", "semint", "metrics", "gen", "cli", "__init__")
SETUP_RUNS = 3
SETUP_PROBES = 5

TIMED = (
    "core.parse_term",
    "core.typecheck",
    "dynamics.beta_normalize",
    "dynamics.eq_canonical",
    "dynamics.eq_decide",
    "semden.env_samples",
    "semden.interp_den",
    "semden.value_dist_lower",
    "semint.decompose",
    "semint.fold_int_term",
    "semint.first_order_distance",
    "semint.interp_int",
    "semint.strategy",
    "semint.int_term_denotation",
    "metrics.equ_upper_bound",
    "metrics.check_qderivation",
    "metrics.ordering_report",
)
ENGINES = ("semden.den_distance", "semint.int_distance", "metrics.obs_lower_bound")
RATIOS = {
    # name: (counter, base counter, unit)
    "semden.env_capped_ratio": ("semden.env_capped", "semden.env_sampled", "ratio"),
    "semint.grid_capped_ratio": ("semint.grid_capped", "semint.grid_sampled", "ratio"),
    "metrics.cert_steps": ("metrics.const_steps", "metrics.certificates", "steps/cert"),
    "semden.split_exact_ratio": ("semden.split_exact", "semden.split_checked", "ratio"),
    "semint.split_exact_ratio": ("semint.split_exact", "semint.split_checked", "ratio"),
}
COUNTS = ("semden.env_points", "semint.probes")


def module_lines() -> dict[str, int]:
    pkg = SRC / "linmetric"
    out = {}
    for path in sorted(pkg.glob("*.py")):
        with path.open(encoding="utf-8") as fh:
            out[path.stem] = sum(1 for _ in fh)
    return out


class Pass:
    """What one closed-loop pass measured."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, per item run
        self.starts: list[float] = []  # perf_counter at the start of each run
        self.idx: list[int] = []  # item index of each run
        self.probes: list[tuple[float, float]] = []  # (perf_counter, probe seconds)
        self.start = 0.0
        self.elapsed = 0.0
        self.failed = 0
        self.failures: list[str] = []

    def note(self, failure: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(failure)

    def take_probe(self) -> None:
        self.probes.append((time.perf_counter(), probe()))

    def scaled(self) -> list[float]:
        """Each item run's latency at the reference speed.

        A run is rescaled by the mean of the two probes around its
        middle: the host's speed changes within a second, so the
        nearest probes track it best.
        """
        times = [t for t, _ in self.probes]
        vals = [v for _, v in self.probes]
        out = []
        for t0, lat in zip(self.starts, self.latencies):
            k = min(max(bisect.bisect_left(times, t0 + lat / 2), 1), len(times) - 1)
            out.append(lat * 2.0 * REF_PROBE_S / (vals[k - 1] + vals[k]))
        return out

    def item_times(self) -> dict[int, float]:
        """Median rescaled run of each distinct item, in seconds."""
        runs: dict[int, list[float]] = {}
        for idx, x in zip(self.idx, self.scaled()):
            runs.setdefault(idx, []).append(x)
        return {idx: median(xs) for idx, xs in runs.items()}


def run_pass(wl, tr, seconds: float, limit: int | None = None, replay=False) -> Pass:
    """Closed loop over the workload's stream: next item after the last
    finishes.  Stops at the deadline or after ``limit`` items.  Between
    items, every ``PROBE_EVERY_S``, it times the reference kernel."""
    tr = tr if tr is not None else NullTracer()
    items = wl.items
    res = Pass()
    res.take_probe()
    next_probe = time.perf_counter() + PROBE_EVERY_S
    i = 0
    res.start = time.perf_counter()
    deadline = res.start + seconds
    while (limit is None or i < limit) and time.perf_counter() < deadline:
        if time.perf_counter() >= next_probe:
            res.take_probe()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        item = items[i % len(items)]
        tr.item = i
        i += 1
        with tr.span("bench.item"):
            t0 = time.perf_counter()
            try:
                text, ok, state = wl.run_item(item, tr)
                ok = ok and wl.check_golden(item, text)
            except Exception:  # an item that raises is a failed item
                ok, state = False, None
                res.note(f"item {item.idx}: {traceback.format_exc(limit=-3)}")
            lat = time.perf_counter() - t0
            res.latencies.append(lat)
            res.starts.append(t0)
            res.idx.append(item.idx)
            if replay and state is not None:
                with tr.span("bench.replay"):
                    try:
                        ok = wl.replay(item, tr, state) and ok
                    except Exception:
                        ok = False
                        res.note(f"item {item.idx} replay: {traceback.format_exc(limit=-3)}")
        if not ok:
            res.failed += 1
            res.note(f"item {item.idx} failed: {' | '.join(item.texts)}")
    res.elapsed = time.perf_counter() - res.start
    res.take_probe()
    return res


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Pass, wl, setup_s: float, lines):
    """Timings use each distinct item's median run at the reference
    speed (``calibrate``).

    The run cycles through the stream, so every item runs several times.
    Rescaling takes out the slow-downs that other tenants of the host
    cause; the median of an item's runs takes out interrupts and
    garbage-collection pauses that fall into one run of it.
    """
    times = list(run.item_times().values())
    n = len(run.latencies)
    tail_ms, pct = tail([x * 1e3 for x in times])
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(len(times) / sum(times), "1/s"),
        "item_p50_ms": metric(median(times) * 1e3, "ms"),
        "item_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": metric((n - run.failed) / n, "ratio"),
        "src_lines": metric(sum(lines.values()), "lines"),
    }
    probes = [v for _, v in run.probes]
    extra = {
        "item_runs": n,
        "distinct_items_run": len(times),
        "passes": n / len(wl.items),
        "raw_items_per_s": n / run.elapsed,
        "probe_p50_ms": median(probes) * 1e3,
        "probe_max_ms": max(probes) * 1e3,
        "tail_percentile": pct,
        "elapsed_s": run.elapsed,
    }
    return metrics, extra


def per_layer(tr, gen_s, lines, overhead):
    metrics = {}
    for name in TIMED + ENGINES:
        metrics[f"{name}.s"] = metric(sum(tr.durations(name), 0.0), "s")
        metrics[f"{name}.calls"] = metric(tr.calls(name), "count")
    for name in ENGINES:
        ms = [d * 1e3 for d in tr.durations(name)]
        metrics[f"{name}.p50_ms"] = metric(median(ms), "ms")
        metrics[f"{name}.tail_ms"] = metric(tail(ms)[0], "ms")
    for name in COUNTS:
        metrics[name] = metric(tr.counters.get(name, 0), "count")
    for name, (num, base, unit) in RATIOS.items():
        b = tr.counters.get(base, 0)
        metrics[name] = metric(tr.counters.get(num, 0) / b if b else 0.0, unit)
    metrics["gen.corpus.s"] = metric(gen_s, "s")
    for mod in MODULES:
        metrics[f"{mod.strip('_')}.lines"] = metric(lines.get(mod, 0), "lines")
    metrics["bench.trace_overhead"] = metric(overhead, "ratio")
    return metrics


def speed() -> float:
    """The median of ``SETUP_PROBES`` probes."""
    return median([probe() for _ in range(SETUP_PROBES)])


def scaled_since(t0: float, before: float) -> float:
    """Seconds since ``t0``, rescaled to the reference speed by the
    probes taken just before ``t0`` and now."""
    elapsed = time.perf_counter() - t0
    return elapsed * 2.0 * REF_PROBE_S / (before + speed())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ordering", "certify", "wires"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "linmetric" / "__init__.py").is_file():
        print(f"error: no linmetric sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    before = speed()
    t0 = time.perf_counter()
    import linmetric

    import_s = scaled_since(t0, before)
    if Path(linmetric.__file__).resolve().parent != (SRC / "linmetric").resolve():
        print(f"error: imported linmetric from {linmetric.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    setups, gens = [], []
    for _ in range(SETUP_RUNS):
        before = speed()
        t0 = time.perf_counter()
        wl = build(args.seed)
        wl.load_golden()
        setups.append(scaled_since(t0, before))
        gens.append(wl.gen_s)
    setup_s = import_s + median(setups)
    lines = module_lines()
    gc.collect()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "distinct_items": len(wl.items),
        "golden_checked": wl.golden is not None,
        "import_s": import_s,
        "setup_runs_s": setups,
    }
    if args.trace == 0:
        run = run_pass(wl, None, args.seconds)
        metrics, extra = end_to_end(run, wl, setup_s, lines)
        detail.update(extra)
        runs = [run]
    else:
        ref = run_pass(wl, None, args.seconds / 3, limit=wl.trace_items)
        tr = Tracer()
        traced = run_pass(wl, tr, 2 * args.seconds / 3, limit=len(ref.latencies), replay=True)
        overhead = sum(traced.scaled()) / sum(ref.scaled()[: len(traced.latencies)]) - 1.0
        metrics = per_layer(tr, median(gens), lines, overhead)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tr.write(out, {"workload": args.workload, "seed": args.seed, "items": len(traced.latencies)})
        detail.update(traced_items=len(traced.latencies), trace_file=str(out.relative_to(ROOT)))
        for engine in ("semden", "semint"):
            checked = tr.counters.get(f"{engine}.split_checked", 0)
            exact = tr.counters.get(f"{engine}.split_exact", 0)
            detail[f"{engine}_split"] = "not run" if not checked else ("exact" if exact == checked else "invalid")
        runs = [ref, traced]
    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    detail["failures"] = [f for r in runs for f in r.failures][:5]
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
