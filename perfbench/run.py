"""spinvar benchmark: time to a certified free energy, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload gap-rs --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
wraps the public functions of the library modules, reports per-layer counts
and self times, and replays the same items untraced to report the tracing
overhead.  Items run one after another in one process (a closed loop with
one client).  A run holds a fixed number of whole rounds of items, sized so
that it takes about ``--seconds`` on the reference machine (``rounds_for``);
so which items a run attempts, and which of them fail, depends on its
arguments alone, never on how fast the machine happens to be.  The last
line of standard output is the JSON result; the per-item outputs, the
environment and (traced) the spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import os

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PIN_VARS:  # the matrices are at most 8x8: one BLAS thread, set before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

WORKLOADS = ("gap-rs", "gap-rsb", "verify")
# Seconds one round takes, untraced, on the reference machine (2 shared
# cores, Python 3.11, numpy with one BLAS thread).  They size a run in
# whole rounds; a gap-rsb round (~36 s, 10 s of it the beta=0.5 timeout)
# is the smallest gap-rsb run.
ROUND_S = {"gap-rs": 6.0, "gap-rsb": 36.0, "verify": 2.3}
# Set-ups timed per untraced run, spread evenly over its items.  How fast a
# shared machine runs drifts over seconds, so set-ups timed in one burst
# moved by 25-35% between runs; spread out, they see the machine the items
# see.  A fixed count keeps the memory the re-imports leave behind the same.
SETUP_SAMPLES = 20
HARD_STOP_S = 100.0  # start no item this long after the run began, so it ends inside 180 s

# End-to-end metrics of the JSON result, which BENCHMARK.json bounds.
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed and written to the output file only.  The percentiles of one run
# rest on few items and moved by 15-25% (quartile spread over ten seeds) on
# a shared 2-core machine, too much for a bound; the last three reach the
# JSON result through "correct", "attempted" and "failed".
REPORTED_UNITS = {"item_s_p50": "s", "item_s_p90": "s", "failed_frac": "1",
                  "gap_max": "1", "ref_dev_max": "1"}


class ItemTimeout(BaseException):
    """Raised by the interval timer when an item overruns its deadline."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


# -- set-up ------------------------------------------------------------------


def check_checkout():
    """Refuse to run outside a checkout holding the library sources."""
    missing = [p for p in (SRC / "spinvar" / "__init__.py", PROBLEMS) if not p.exists()]
    if missing:
        raise SystemExit(f"error: not a spinvar checkout, missing {', '.join(map(str, missing))}")


def benchmark() -> dict:
    """The benchmark definition: workloads and the metrics to report."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_library() -> dict:
    """Import ``spinvar`` afresh from ``src/``; returns the modules by short name."""
    for name in [m for m in sys.modules if m == "spinvar" or m.startswith("spinvar.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sv = {short: importlib.import_module(f"spinvar.{short}") for short in MODULES}
    if not Path(sv["matcore"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: spinvar imported from {sv['matcore'].__file__}, not {SRC}")
    return sv


def make_round(workload: str, seed: int, k: int, specs) -> list:
    if workload == "gap-rs":
        return wl.gap_rs_round(seed, k, specs)
    if workload == "gap-rsb":
        return wl.gap_rsb_round(seed, k)
    return wl.verify_round(seed, k)


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` on the reference machine."""
    return max(1, round(seconds / ROUND_S[workload]))


def setup(workload: str, seed: int):
    """Import the library, load the problem files and generate round 0."""
    sv = load_library()
    specs = []
    if workload == "gap-rs":
        specs = [(p.stem, sv["cli"].load_spec(str(p))) for p in sorted(PROBLEMS.glob("*.json"))]
        if not specs:
            raise SystemExit(f"error: no problem files in {PROBLEMS}")
    if workload == "verify" and len(wl.CHECKS) != len(sv["battery"].ALL_CHECKS):
        raise SystemExit("error: the benchmark's check list no longer matches battery.ALL_CHECKS")
    return sv, specs, make_round(workload, seed, 0, specs)


def time_setup(workload: str, seed: int) -> float:
    """Time one set-up, then put the modules in use back into ``sys.modules``
    and free the new ones, so that they leave the same memory behind in
    every run."""
    in_use = {k: v for k, v in sys.modules.items() if k == "spinvar" or k.startswith("spinvar.")}
    t0 = time.perf_counter()
    setup(workload, seed)
    elapsed = time.perf_counter() - t0
    sys.modules.update(in_use)
    gc.collect()
    return elapsed


# -- measuring ---------------------------------------------------------------


def execute(sv, item, index: int, deadline: float, scratch: Path, tracer=None) -> dict:
    """Run one item under its deadline; returns its record."""
    out, error, reasons = None, None, []
    if tracer is not None:
        tracer.open_item(index)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = wl.run_item(sv, item, scratch)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        reasons.append("timeout")
    except Exception as exc:  # an item that raises is a failed item; the run goes on
        reasons.append("exception")
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close_item(t1)
    numbers = {}
    if out is not None:
        more, numbers = wl.judge(item, out)
        reasons += more
    record = {"index": index, "label": item.label, "kind": item.kind, "n": item.n,
              "wall_s": t1 - t0, "reasons": reasons}
    if item.kind == "check":
        record["check_seed"] = item.seed
    else:
        record.update(r_max=item.r_max, x_grid=item.x_grid)
    if error is not None:
        record["error"] = error
    record.update(numbers)
    if out is not None:
        record["outputs"] = out
    return record


@contextlib.contextmanager
def item_scope():
    """The item deadline handler and a scratch directory for ``cli`` output."""
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=RESULTS))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield scratch
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(scratch, ignore_errors=True)


def run_items(sv, items, deadline, stop_at, tracer=None, time_setup_of=None):
    """Run ``items`` once each, in order, starting none after the
    ``time.perf_counter()`` value ``stop_at``.

    With ``time_setup_of`` = (workload, seed), it also times SETUP_SAMPLES
    set-ups spread evenly over the items, each before the item it falls
    on; their time is left out of the wall time.  Returns the item records,
    the wall time of the loop and the set-up times.
    """
    records, setup_times = [], []
    due = [] if time_setup_of is None else [len(items) * j // SETUP_SAMPLES for j in range(SETUP_SAMPLES)]
    with item_scope() as scratch:
        t_start = time.perf_counter()
        paused = 0.0
        for index, item in enumerate(items):
            while due and due[0] == index:
                due.pop(0)
                t0 = time.perf_counter()
                setup_times.append(time_setup(*time_setup_of))
                paused += time.perf_counter() - t0
            if time.perf_counter() > stop_at:
                break
            records.append(execute(sv, item, index, deadline, scratch, tracer))
        wall = time.perf_counter() - t_start - paused
    return records, wall, setup_times


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def failed(record) -> bool:
    return bool(record["reasons"])


def wrong_answer(record) -> bool:
    """A certificate the solver reported as converged, but that is wrong."""
    reasons = record["reasons"]
    return ("gap" in reasons or "reference" in reasons) and not (
        {"unconverged", "timeout", "exception"} & set(reasons)
    )


def end_to_end(records, wall, setup_s) -> dict:
    times = [r["wall_s"] for r in records]
    gaps = [r["gap"] for r in records if "gap" in r]
    devs = [r["ref_dev"] for r in records if "ref_dev" in r]
    return {
        "setup_s": setup_s,
        "items_per_s": len(records) / wall,
        "item_s_p50": statistics.median(times),
        "item_s_p90": percentile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": sum(map(failed, records)) / len(records),
        "gap_max": max(gaps) if gaps else None,
        "ref_dev_max": max(devs) if devs else None,
    }


def environment(workload, seed, seconds, trace, deadline) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in PIN_VARS},
        "workload": workload,
        "why": next(w["why"] for w in benchmark()["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "deadline_s": deadline,
        "loop": "closed, one client, no threads",
    }


# -- per-layer metrics ---------------------------------------------------------


def traced_run(sv, items, deadline, stop_at):
    """Traced measurement, then an untraced replay of the same items."""
    tracer = Tracer(ignore=(ItemTimeout,))
    tracer.install()
    try:
        records, _, _ = run_items(sv, items, deadline * wl.TRACE_DEADLINE_FACTOR, stop_at, tracer)
    finally:
        tracer.uninstall()
    # items that timed out take their deadline either way; leave them out
    kept = [i for i, r in enumerate(records) if "timeout" not in r["reasons"]]
    replay, replay_wall, _ = run_items(sv, [items[i] for i in kept], deadline, stop_at)
    traced_s = sum(records[i]["wall_s"] for i in kept[: len(replay)])
    labels = {r["index"]: r["label"] for r in records}
    layer = tracer.summary(labels)
    traced_rate = len(replay) / traced_s if traced_s > 0 else 0.0
    untraced_rate = len(replay) / replay_wall if replay_wall > 0 else 0.0
    layer["trace.items_per_s"] = traced_rate
    layer["trace.untraced_items_per_s"] = untraced_rate
    layer["trace.overhead_items_per_s"] = traced_rate - untraced_rate
    return records, layer, tracer


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stop_at = time.perf_counter() + HARD_STOP_S
    check_checkout()

    sv, specs, first_round = setup(args.workload, args.seed)
    rounds = rounds_for(args.workload, args.seconds)
    items = first_round + [item for k in range(1, rounds)
                           for item in make_round(args.workload, args.seed, k, specs)]
    deadline = wl.DEADLINE_S
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    result = {"env": environment(args.workload, args.seed, args.seconds, args.trace, deadline)}
    result["env"]["rounds"] = rounds
    if args.trace:
        records, layer, tracer = traced_run(sv, items, deadline, stop_at)
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in benchmark()["per_layer"]}
        tracer.save(str(RESULTS / f"{stem}_spans.npz"))
        result["per_layer"] = layer
        print(f"{args.workload} seed={args.seed} traced: {len(records)} items, "
              f"{layer['matcore.cholesky.calls']} cholesky calls; items_per_s traced "
              f"{layer['trace.items_per_s']:.4g}, untraced {layer['trace.untraced_items_per_s']:.4g}, "
              f"overhead {layer['trace.overhead_items_per_s']:.4g} 1/s")
    else:
        records, wall, setup_times = run_items(
            sv, items, deadline, stop_at, time_setup_of=(args.workload, args.seed)
        )
        values = end_to_end(records, wall, statistics.median(setup_times))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        result["end_to_end"] = values
        times = [r["wall_s"] for r in records]
        print(f"{args.workload} seed={args.seed}: {len(records)} items in {wall:.2f} s, "
              f"{sum(t > values['item_s_p90'] for t in times)} samples beyond p90")
        for k, u in {**END_TO_END_UNITS, **REPORTED_UNITS}.items():
            if values[k] is not None:  # gap_max and ref_dev_max do not apply to verify
                print(f"  {k:12s} {values[k]!s:>24s} {u}")

    reasons: dict[str, int] = {}
    for r in records:
        for reason in r["reasons"]:
            reasons[reason] = reasons.get(reason, 0) + 1
    print(f"  failures by reason: {json.dumps(reasons, sort_keys=True)}")
    result["failures_by_reason"] = reasons
    result["items"] = records
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    summary = {
        "correct": not any(map(wrong_answer, records)),
        "attempted": len(records),
        "failed": sum(map(failed, records)),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
