"""Problem files, run orchestration, and result emission.

A problem file is a JSON document:

    {
      "version": 1,
      "n": 2,
      "mixture": [[2, [0.4, 0.3]]],
      "h": [0.1, 0.0],
      "Q": [1.0, 0.25, 1.0],
      "solve": {"r_max": 2, "seed": 0},
      "commands": ["gap"],
      "path": {"x": [0.0, 1.0], "levels": [[0.2, 0.05, 0.2]], "lambda": [...]}
    }

``Q`` and every matrix in ``path`` are row-major upper triangles (diagonal
included).  Unknown keys are rejected; validation reports every problem it
finds, not just the first.  Exit codes: 0 success, 2 validation or an
``--out`` that cannot be created or a result file in it that cannot be
written, 3 infeasible, 4 non-convergence (results still emitted
best-effort).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import __version__
from . import battery as battery_mod
from . import continuous as continuous_mod
from .errors import DomainError, ParseError, SpinvarError, ValidationError
from .functionals import eval_barrier, eval_cs, eval_parisi
from .matcore import MixtureSpec, check_constraint, real
from .optimize import DEFAULT_EPS_SCHEDULE, SolveOptions, duality_gap, search
from .path import DiscretePath
from .path import validate as validate_path

TOOL_VERSION = f"spinvar {__version__}"
FORMAT_VERSION = 3
FORMAT_HEADER = f"# spinvar-result v{FORMAT_VERSION}"
COMMANDS = ("eval", "minimize", "gap", "verify", "continuous", "probe")
_SPEC_KEYS = {"version", "n", "mixture", "h", "Q", "solve", "commands", "path"}
_PATH_KEYS = {"x", "levels", "lambda"}
MAX_N = 8  # the largest species count; r_max and x_grid are capped by SolveOptions
_SOLVE_KEYS = {f.name: f for f in fields(SolveOptions)}


def _reals(values) -> list[float]:
    """A list of JSON numbers as floats; an entry that is a bool, a string
    or an integer beyond the float range is a validation problem."""
    values = list(values)
    reals = [real(v) for v in values]
    if None in reals:
        raise ValidationError(f"entries must be real numbers in the float range: {values!r}")
    return reals


def upper_to_matrix(values, n: int) -> np.ndarray:
    """Row-major upper triangle (diagonal included) to a full symmetric matrix."""
    values = _reals(values)
    expect = n * (n + 1) // 2
    if len(values) != expect:
        raise ValidationError(f"upper triangle for n={n} needs {expect} entries, got {len(values)}")
    m = np.zeros((n, n))
    rows, cols = np.triu_indices(n)
    m[rows, cols] = m[cols, rows] = values
    return m


def matrix_to_upper(m: np.ndarray) -> list[float]:
    n = m.shape[0]
    return [float(m[i, j]) for i in range(n) for j in range(i, n)]


@dataclass
class ProblemSpec:
    n: int
    mixture: MixtureSpec
    constraint: np.ndarray
    solve: SolveOptions
    commands: tuple[str, ...]
    path: DiscretePath | None
    lam: np.ndarray | None
    raw: dict


@dataclass
class ResultRecord:
    command: str
    inputs_digest: str
    outputs: dict
    wall_time: float
    tool_version: str
    seed: int


def load_spec(path: str) -> ProblemSpec:
    """Parse and fully validate a problem file, collecting every error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("problem file must be a JSON object")
    return build_spec(raw)


def build_spec(raw: dict) -> ProblemSpec:
    problems = []
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        problems.append(f"unknown keys: {sorted(unknown)}")
    version = raw.get("version")
    if type(version) is not int or version != 1:
        problems.append("version must be 1")
    n = raw.get("n")
    # checked before anything is sized by n, such as the default field
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_N:
        problems.append(f"n must be an integer from 1 to {MAX_N}")
        n = 1

    mixture = None
    terms = raw.get("mixture", [])
    h = raw.get("h", [0.0] * n)
    try:
        mixture = MixtureSpec(n=n, terms=tuple(terms), h=h)
    except (ValidationError, TypeError, ValueError) as exc:
        msgs = exc.problems if isinstance(exc, ValidationError) else [str(exc)]
        problems.extend(f"mixture: {m}" for m in msgs)

    constraint = None
    if "Q" not in raw:
        problems.append("Q is required")
    else:
        try:
            constraint = upper_to_matrix(raw["Q"], n)
            bad = [f"Q: {m}" for m in check_constraint(constraint)]
            if bad:
                problems.extend(bad)
                constraint = None  # a path is checked only against a valid constraint
        except (ValidationError, TypeError, ValueError) as exc:
            problems.append(f"Q: {exc}")

    solve = SolveOptions()
    solve_raw = raw.get("solve", {})
    if not isinstance(solve_raw, dict):
        problems.append("solve must be an object")
    else:
        unknown = set(solve_raw) - set(_SOLVE_KEYS)
        if unknown:
            problems.append(f"solve: unknown keys {sorted(unknown)}")
        else:
            try:
                solve = _options_from(solve_raw)
            except ValidationError as exc:
                problems.extend(f"solve: {m}" for m in exc.problems)

    commands = raw.get("commands", [])
    if not isinstance(commands, list):
        problems.append("commands must be a list")
        commands = []
    commands = tuple(commands)
    for c in commands:
        if c not in COMMANDS:
            problems.append(f"unknown command {c!r}")

    parsed_path = None
    lam = None
    if "path" in raw:
        p = raw["path"]
        if not isinstance(p, dict) or set(p) - _PATH_KEYS:
            problems.append(f"path: keys must be among {sorted(_PATH_KEYS)}")
        else:
            try:
                x = tuple(_reals(p.get("x", ())))
                levels = [upper_to_matrix(u, n) for u in p.get("levels", ())]
                if len(x) != len(levels) + 1:
                    problems.append("path: need len(x) == len(levels) + 1 (the constraint is implicit)")
                elif constraint is not None:
                    parsed_path = DiscretePath(x, [*levels, constraint])
                    problems.extend(f"path: {m}" for m in validate_path(parsed_path))
                if "lambda" in p:
                    lam = upper_to_matrix(p["lambda"], n)
                    if not np.all(np.isfinite(lam)):
                        problems.append("path: lambda has non-finite entries")
            except (ValidationError, TypeError, ValueError) as exc:
                problems.append(f"path: {exc}")

    if problems:
        raise ValidationError(problems)
    return ProblemSpec(
        n=n,
        mixture=mixture,
        constraint=constraint,
        solve=solve,
        commands=commands,
        path=parsed_path,
        lam=lam,
        raw=raw,
    )


def _options_from(data: dict) -> SolveOptions:
    """SolveOptions from a ``solve`` object, which checks every value and
    names its key.  The one coercion is the file format's: an integral
    float (``4.0``) for an int option becomes that int."""
    return SolveOptions(**{
        key: int(value)
        if isinstance(_SOLVE_KEYS[key].default, int) and isinstance(value, float) and value.is_integer()
        else value
        for key, value in data.items()
    })


def _digest(raw: dict, command: str, seed: int, overrides: dict) -> str:
    blob = json.dumps(
        {"spec": raw, "command": command, "seed": seed, "overrides": overrides},
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _path_payload(path: DiscretePath) -> dict:
    return {
        "x": list(path.x),
        "levels": [matrix_to_upper(q) for q in path.qs[:-1]],
    }


def _search_payload(result) -> dict:
    return {
        "r": result.r,
        "x": list(result.x),
        "value": result.value,
        "value_extrapolated": result.best.value_extrapolated,
        "converged": result.best.converged,
        "argmin": _path_payload(result.best.path),
        "lambda": None if result.best.lam is None else matrix_to_upper(result.best.lam),
    }


def run(command: str, spec: ProblemSpec, flags=None) -> ResultRecord:
    """Dispatch one command; returns the record (traces live in outputs)."""
    flags = flags or {}
    t0 = time.perf_counter()
    opts = spec.solve
    outputs: dict = {}
    if command == "eval":
        if spec.path is None:
            raise ValidationError("eval needs an explicit path in the problem file")
        outputs["barrier"] = eval_barrier(spec.path)
        if spec.path.r >= 2:
            outputs["cs"] = eval_cs(spec.path, spec.mixture)
        if spec.lam is not None:
            outputs["parisi"] = eval_parisi(spec.lam, spec.path, spec.mixture)
    elif command in ("minimize", "gap"):
        # sides: the forms the command solved, in trace order
        if command == "gap":
            report = duality_gap(spec.mixture, spec.constraint, opts)
            sides = (("parisi", report.argmin_parisi), ("cs", report.argmin_cs))
            outputs.update(gap=report.gap, eps_trace=report.eps_trace)
        else:
            sides = (("cs", search(spec.mixture, spec.constraint, opts)),)
        for form, res in sides:
            outputs.update({f"min_{form}": res.value, f"argmin_{form}": _search_payload(res)})
        outputs["trace"] = [(form,) + astuple(row) for form, res in sides for row in res.best.trace]
        outputs["converged"] = all(res.best.converged for _, res in sides)
    elif command == "verify":
        results = battery_mod.run_battery()
        outputs["checks"] = [
            {"name": c.name, "passed": bool(c.passed), "count": int(c.checks), "worst": float(c.worst),
             "detail": c.detail}
            for c in results
        ]
        outputs["all_passed"] = all(c.passed for c in results)
    elif command == "continuous":
        source = spec.path
        if source is None:
            source = search(spec.mixture, spec.constraint, opts).best.path
        cdf, phi = continuous_mod.from_discrete(source)
        value_c = continuous_mod.eval_cs_continuous(cdf, phi, spec.mixture)
        box = continuous_mod.feasible_box(spec.mixture, spec.constraint)
        support = continuous_mod.support_check(cdf, phi, spec.mixture)
        outputs.update(
            cs_discrete=eval_cs(source, spec.mixture),
            cs_continuous=value_c,
            box_T=box.T,
            box_L=box.L,
            t_x=cdf.t_x,
            atoms=[
                {"t": t, "mass": mass, "condition": c, "flagged": f}
                for t, mass, c, f in zip(support.t.tolist(), support.mass.tolist(),
                                         support.condition.tolist(), support.flagged.tolist())
            ],
            flagged_atoms=int(support.flagged.sum()),
        )
    elif command == "probe":
        base = spec.path
        if base is None:
            base = search(spec.mixture, spec.constraint, opts).best.path
        box = continuous_mod.feasible_box(spec.mixture, spec.constraint)
        rng = np.random.default_rng(opts.seed)
        pairs = []
        for _ in range(8):
            jitter = rng.uniform(0.9, 1.0)
            pairs.append(continuous_mod.from_discrete(base.with_levels(jitter * base.qs[:-1])))
        empirical, bound = continuous_mod.lipschitz_probe(spec.mixture, box, pairs)
        outputs.update(empirical_modulus=empirical, bound=bound, within=empirical <= bound)
    else:
        raise ValidationError(f"unknown command {command!r}")
    wall = time.perf_counter() - t0
    return ResultRecord(
        command=command,
        inputs_digest=_digest(spec.raw, command, opts.seed, flags),
        outputs=outputs,
        wall_time=wall,
        tool_version=TOOL_VERSION,
        seed=opts.seed,
    )


def emit(record: ResultRecord, fmt: str, out_path: str):
    """Write a record deterministically; floats carry 17 significant digits.

    ``json-lines`` writes the format line, then one line holding every
    ``ResultRecord`` field (the argmin levels under
    ``outputs.argmin_*.argmin.levels``); ``csv`` writes ``FORMAT_HEADER``,
    then one row per trace entry.
    """
    if fmt == "json-lines":
        lines = [
            {"format": "spinvar-result", "version": FORMAT_VERSION},
            _fmt({f.name: getattr(record, f.name) for f in fields(record)}),
        ]
        text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    elif fmt == "csv":
        rows = [FORMAT_HEADER]
        trace = record.outputs.get("trace", [])
        rows.append("form,stage,eps,iter,value,grad_norm,min_increment_eig")
        for form, stage, eps, iteration, value, gnorm, mineig in trace:
            rows.append(
                f"{form},{stage},{eps:.17g},{iteration},{value:.17g},{gnorm:.17g},{mineig:.17g}"
            )
        text = "\n".join(rows) + "\n"
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _apply_overrides(spec: ProblemSpec, args) -> tuple[ProblemSpec, dict]:
    overrides = {}
    for f in fields(SolveOptions):
        value = getattr(args, f.name)
        if value is not None:
            overrides[f.name] = value
    spec.solve = replace(spec.solve, **overrides)
    return spec, overrides


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinvar",
        description="Free-energy functionals of vector-spin spherical models: "
        "evaluate, minimize, and verify.",
    )
    parser.add_argument("command", choices=COMMANDS + ("run",))
    parser.add_argument("--spec", required=True, help="problem file (JSON)")
    parser.add_argument("--out", help="directory for result and trace files")
    # one flag per SolveOptions field, each with the field's name as its dest
    parser.add_argument("--seed", type=int)
    parser.add_argument("--eps-schedule", dest="eps_schedule", type=_floats,
                        help="comma-separated decreasing schedule (default %s)"
                        % ",".join(map(str, DEFAULT_EPS_SCHEDULE)))
    parser.add_argument("--r-max", dest="r_max", type=int)
    parser.add_argument("--grid", "--x-grid", dest="x_grid", type=int,
                        help="weight grid resolution (x_grid)")
    parser.add_argument("--tol", "--grad-tol", dest="grad_tol", type=float,
                        help="representer norm tolerance (grad_tol)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = load_spec(args.spec)
        spec, overrides = _apply_overrides(spec, args)
    except (ParseError, ValidationError) as exc:
        problems = getattr(exc, "problems", [str(exc)])
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2

    commands = [args.command] if args.command != "run" else list(spec.commands)
    if not commands:
        print("error: 'run' needs a nonempty commands list in the problem file", file=sys.stderr)
        return 2
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
            return 2
    exit_code = 0
    for command in commands:
        try:
            record = run(command, spec, overrides)
        except ValidationError as exc:
            for p in exc.problems:
                print(f"error: {p}", file=sys.stderr)
            return 2
        except DomainError as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return 3
        except SpinvarError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        summary = {k: v for k, v in record.outputs.items() if k not in ("trace", "eps_trace")}
        print(json.dumps({"command": command, **_fmt(summary)}, sort_keys=True, default=str))
        if command == "verify":
            for item in record.outputs["checks"]:
                status = "PASS" if item["passed"] else "FAIL"
                print(f"{status}  {item['name']:34s} checks={item['count']:<5d} "
                      f"worst={item['worst']:+.3e} {item['detail']}".rstrip())
            if not record.outputs["all_passed"]:
                exit_code = max(exit_code, 4)
        if record.outputs.get("converged") is False:
            exit_code = max(exit_code, 4)
        if args.out:
            targets = {"json-lines": f"{command}.jsonl"}
            if "trace" in record.outputs:
                targets["csv"] = f"{command}_trace.csv"
            for fmt, name in targets.items():
                target = os.path.join(args.out, name)
                try:
                    emit(record, fmt, target)
                except OSError as exc:
                    print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
                    return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
