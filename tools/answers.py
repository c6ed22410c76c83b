"""Write the answers of the package to a file, or compare two answer files.

An answers file holds three sections of outputs, each float written as
``float.hex`` and as a decimal:

- ``workloads``: every ``run_item`` output of round 0 of the benchmark's
  gap-rs, gap-rsb and verify workloads at seeds 1-3, keyed
  ``workload/seed/index/label``, each with the work it cost under
  ``work``: its counts of ``continuations``, ``stages`` (``minimize_fixed``
  calls), Newton ``iterations``, forward passes (``evaluations``) and
  tangent passes (``hessians``), read by wrapping ``optimize``'s
  ``minimize_fixed`` and ``continuation``; no timing is recorded;
- ``battery``: the battery checks at their default seeds, keyed by name;
- ``cli``: ``cli.run`` of each command of each problem file, without its
  ``wall_time``, keyed ``file/command``.

Run from the repository root:

    python tools/answers.py --write BENCH_answers.json
    python tools/answers.py --compare OLD NEW --tol 0

``--compare`` lists every key and field that differs and exits 1 if any
does.  Two floats differ when |a - b| > tol max(1, |a|); ``--tol 0`` asks
for the same bits.  Every other value must be equal.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
WORKLOADS = ("gap-rs", "gap-rsb", "verify")
MODULES = ("battery", "cli", "matcore", "optimize")
WORK = ("continuations", "stages", "iterations", "evaluations", "hessians")


def _library():
    """The package's modules by short name, imported from ``src/``, and the
    benchmark's workload definitions, imported from ``perfbench/``."""
    for folder in ("src", "perfbench"):
        if str(ROOT / folder) not in sys.path:
            sys.path.insert(0, str(ROOT / folder))
    sv = {name: importlib.import_module(f"spinvar.{name}") for name in MODULES}
    return sv, importlib.import_module("workloads")


def encode(value):
    """``value`` as JSON data: a float as {"hex", "dec"}, containers entry by entry."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return {"hex": float(value).hex(), "dec": repr(float(value))}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


@contextlib.contextmanager
def counting(opt):
    """Count the work of the ``optimize`` module ``opt`` while the block
    runs: its ``minimize_fixed`` and ``continuation`` are rebound to
    wrappers that add to the yielded dict of ``WORK`` counts.  Calls from
    inside ``optimize`` read the module's globals, so they are counted too;
    a stage that raises is not."""
    counts = dict.fromkeys(WORK, 0)
    minimize, continuation = opt.minimize_fixed, opt.continuation

    def counted_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        counts["stages"] += 1
        for name in ("iterations", "evaluations", "hessians"):
            counts[name] += getattr(res, name)
        return res

    def counted_continuation(*args, **kwargs):
        counts["continuations"] += 1
        return continuation(*args, **kwargs)

    opt.minimize_fixed, opt.continuation = counted_minimize, counted_continuation
    try:
        yield counts
    finally:
        opt.minimize_fixed, opt.continuation = minimize, continuation


def _problems(sv):
    return [(p.stem, sv["cli"].load_spec(str(p))) for p in sorted((ROOT / "problems").glob("*.json"))]


def workload_answers(seeds=SEEDS) -> dict:
    """The encoded ``run_item`` outputs of round 0 of each workload at ``seeds``."""
    sv, wl = _library()
    specs = _problems(sv)
    rounds = {"gap-rs": lambda s: wl.gap_rs_round(s, 0, specs), "gap-rsb": lambda s: wl.gap_rsb_round(s, 0),
              "verify": lambda s: wl.verify_round(s, 0)}
    answers = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in WORKLOADS:
            for seed in seeds:
                for index, item in enumerate(rounds[workload](seed)):
                    with counting(sv["optimize"]) as work:
                        out = wl.run_item(sv, item, Path(scratch))
                    answers[f"{workload}/{seed}/{index}/{item.label}"] = encode({**out, "work": work})
    return answers


def all_answers() -> dict:
    """The three sections of an answers file."""
    sv, _ = _library()
    battery = {c.name: encode(dataclasses.asdict(c)) for c in sv["battery"].run_battery()}
    cli = {}
    for name, spec in _problems(sv):
        for command in spec.commands:
            record = dataclasses.asdict(sv["cli"].run(command, spec))
            del record["wall_time"]
            cli[f"{name}/{command}"] = encode(record)
    return {"workloads": workload_answers(), "battery": battery, "cli": cli}


def _leaves(value, field=()):
    """(field, leaf) pairs of encoded data; an encoded float is one leaf."""
    if isinstance(value, dict) and set(value) != {"hex", "dec"}:
        for k, v in value.items():
            yield from _leaves(v, field + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, field + (str(i),))
    else:
        yield field, value


def _same(a, b, tol) -> bool:
    if a == b:
        return True
    if not (isinstance(a, dict) and isinstance(b, dict)) or tol == 0:
        return False
    x, y = float.fromhex(a["hex"]), float.fromhex(b["hex"])
    return math.isfinite(x) and math.isfinite(y) and abs(x - y) <= tol * max(1.0, abs(x))


def compare(old: dict, new: dict, tol: float, skip=()) -> list[str]:
    """One line per key and field where ``old`` and ``new`` differ; fields
    whose path holds a name in ``skip`` are left out."""
    lines = []
    for section in sorted(set(old) | set(new)):
        a, b = old.get(section, {}), new.get(section, {})
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                lines.append(f"{section}  {key}  only in {'NEW' if key not in a else 'OLD'}")
                continue
            fa, fb = dict(_leaves(a[key])), dict(_leaves(b[key]))
            for field in list(fa) + [f for f in fb if f not in fa]:
                if skip and set(field) & set(skip):
                    continue
                va, vb = fa.get(field, "<missing>"), fb.get(field, "<missing>")
                if not _same(va, vb, tol):
                    lines.append(f"{section}  {key}  {'/'.join(field)}  {va} != {vb}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE", help="write the answers of this checkout to FILE")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="list the differences of two files")
    parser.add_argument("--tol", type=float, default=0.0, help="relative tolerance of a float (default 0)")
    args = parser.parse_args(argv)
    if args.write:
        Path(args.write).write_text(json.dumps(all_answers(), indent=1) + "\n", encoding="utf-8")
        return 0
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
    lines = compare(old, new, args.tol)
    print("\n".join(lines + [f"{len(lines)} differences at tol {args.tol:g}"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
