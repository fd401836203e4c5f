"""Write the golden digests the benchmark checks at the default seed.

    python3 bench/make_golden.py [ordering certify wires]

For every distinct item of a workload's stream at the default seed this
runs the untraced pipeline once, requires its checks to pass, and writes
one digest of the serialised result per line to ``golden/<name>.txt``.
The first 50 ordering reports are also kept in full, one JSON object a
line, in ``golden/ordering_head.jsonl``, so a mismatch can be read.
Regenerate only when a change is meant to alter the reports.
"""

from __future__ import annotations

import sys

from run import SRC

sys.path.insert(0, str(SRC))

from tracing import NullTracer  # noqa: E402
from workloads import DEFAULT_SEED, GOLDEN_DIR, WORKLOADS, digest  # noqa: E402

HEAD = 50


def main(names: list[str]) -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    tr = NullTracer()
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name](DEFAULT_SEED)
        digests, head = [], []
        for item in wl.items:
            text, ok, _ = wl.run_item(item, tr)
            if not ok:
                print(f"{name}: item {item.idx} fails its checks: {item.texts}", file=sys.stderr)
                return 1
            digests.append(digest(text))
            if len(head) < HEAD:
                head.append(text)
        (GOLDEN_DIR / f"{name}.txt").write_text("\n".join(digests) + "\n", encoding="utf-8")
        if name == "ordering":
            (GOLDEN_DIR / "ordering_head.jsonl").write_text("\n".join(head) + "\n", encoding="utf-8")
        print(f"{name}: {len(digests)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
