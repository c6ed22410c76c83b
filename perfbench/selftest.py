"""Self-test of the traced run: its integer counts repeat exactly.

Runs the first round of each workload twice, traced, with the same seed,
and compares every integer count (calls, failed calls, iterations, search
candidates) and every item's failure reasons.  Exits 1 on any difference.
Later changes cite these counts exactly, so they must not depend on
timing.  This is not part of the test suite; run it from the repository
root (it takes a few minutes, most of it the gap-rsb item that runs into
its deadline):

    python3 perfbench/selftest.py [--seed N]
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

INTEGER_SUFFIXES = (".calls", ".failed", ".iterations", ".candidates")


def traced_counts(workload: str, seed: int) -> dict:
    sv, specs, first_round = bench.setup(workload, seed)
    tracer = Tracer(ignore=(bench.ItemTimeout,))
    tracer.install()
    try:
        records, _, _ = bench.run_items(
            sv, first_round, wl.DEADLINE_S * wl.TRACE_DEADLINE_FACTOR, math.inf, tracer
        )
    finally:
        tracer.uninstall()
    layer = tracer.summary({r["index"]: r["label"] for r in records})
    counts = {k: v for k, v in layer.items() if k.endswith(INTEGER_SUFFIXES)}
    for r in records:
        counts[f"item{r['index']}.{r['label']}.reasons"] = ",".join(r["reasons"])
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench.check_checkout()
    ok = True
    for workload in bench.WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        calls = sum(v for k, v in first.items() if k.endswith(".calls"))
        print(f"{workload}: {len(first)} counts, {calls} traced calls, "
              f"{'identical' if not diff else f'{len(diff)} differ'}")
        for k in diff:
            print(f"  {k}: {first.get(k)} != {second.get(k)}")
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
