"""Seeded inputs, items and correctness rules of the three workloads.

An *item* is one ``duality_gap`` solve (``gap-rs``, ``gap-rsb``) or one
seeded battery check (``verify``).  Inputs are plain numpy data generated
here; the library only ever receives them.  A workload is a sequence of
*rounds*, and round ``k`` of a run is a pure function of ``(seed, k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAP_TOL = 5e-4  # duality gap accepted as a certificate (Tier-1 tolerance)
REF_TOL = 1e-4  # deviation from the closed-form RS value (Tier-1 tolerance)

# Seconds an item may take before it is abandoned and counted as a timeout:
# more than twice the slowest item that completes (a gap-rsb solve, ~4.5 s).
# The traced run multiplies it by TRACE_DEADLINE_FACTOR to absorb the
# tracing cost, so that the same items time out with and without tracing.
DEADLINE_S = 10.0
TRACE_DEADLINE_FACTOR = 2.0

# The gap workloads solve jittered copies of a fixed family draw.  A fresh
# draw per seed made throughput differ by 30% between seeds, because which
# instances a run got set its cost; the jitter still makes every seed's and
# every round's inputs new.
RS_NS = (1, 2, 3, 4, 6, 8)
RSB_NS = (1, 2, 3)
BASE_SEED = 20191111
JITTER = 0.05  # relative jitter of the coefficients, per seed and round

# (battery function, keyword arguments, check name); one entry per member
# of battery.ALL_CHECKS, in its order.
CHECKS = (
    ("check_logdet_concavity", {}, "logdet-concavity"),
    ("check_mixture_convexity", {}, "mixture-sum-convexity"),
    ("check_amgm_determinant", {}, "amgm-determinant"),
    ("check_trace_positivity", {}, "psd-trace-positivity"),
    ("check_perturbation_radius", {}, "perturbation-radius"),
    ("check_mixture_gap_pd", {}, "mixture-derivative-gap-pd"),
    ("check_gradient_oracle", {"kind": "parisi"}, "gradient-oracle-parisi"),
    ("check_gradient_oracle", {"kind": "cs"}, "gradient-oracle-cs"),
    ("check_critical_points", {}, "critical-point-identities"),
    ("check_tilde_bounds", {}, "tilde-bounds"),
    ("check_roundtrip", {}, "discrete-continuous-roundtrip"),
    ("check_hatphi_dominated", {}, "tail-dominated-by-gap"),
    ("check_temperature_continuity", {}, "temperature-continuity"),
    ("check_level_merge", {}, "level-merge-invariance"),
    ("check_support_condition", {}, "support-condition"),
    ("check_lipschitz_bound", {}, "lipschitz-modulus"),
    ("check_compactness_box", {}, "compactness-box"),
    ("check_diagonal_separability", {}, "diagonal-separability"),
    ("check_continuation_monotone", {}, "continuation-monotonicity"),
)


def rs_value_closed_form(beta: float) -> float:
    """Single-jump value of the multiplier-free form at its stationary jump
    (pure p=2, n=1, Q=1); a copy of the oracle of the acceptance suite."""
    q = 0.0 if 2 * beta**2 <= 1.0 else 1.0 - 1.0 / math.sqrt(2.0 * beta**2)
    return 0.5 * (math.log(1 - q) + q / (1 - q) + beta**2 * (1 - q * q))


def random_correlation(rng, n, jitter):
    """Unit-diagonal positive definite matrix with controlled conditioning."""
    a = rng.normal(size=(n, n + 2))
    s = a @ a.T + jitter * n * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(s))
    m = s * np.outer(d, d)
    return 0.5 * (m + m.T)


@dataclass
class Item:
    """One unit of work.  ``kind`` is ``gap``, ``file`` or ``check``."""

    label: str
    kind: str
    n: int = 1
    terms: tuple = ()
    h: np.ndarray | None = None
    q: np.ndarray | None = None
    r_max: int = 2
    x_grid: int = 4
    beta_ref: float | None = None  # pure p=2 scalar: closed-form reference
    spec: object = None  # parsed problem file (kind ``file``)
    check: tuple | None = None
    seed: int = 0


def _family_instance(rng, n, p4, with_field):
    """One member of the random family of the gap robustness test: a p=2
    term, an optional p=4 term and optional fields."""
    terms = [(2, rng.uniform(0.1, 0.8, n))]
    if p4:
        terms.append((4, rng.uniform(0.0, 1.5, n)))
    h = rng.uniform(-0.5, 0.5, n) if with_field else np.zeros(n)
    q = random_correlation(rng, n, jitter=float(rng.uniform(0.1, 0.6)))
    return tuple(terms), h, q


def _pure2(beta, r_max, label):
    return Item(
        label=label, kind="gap", n=1, terms=((2, np.array([beta])),), h=np.zeros(1),
        q=np.eye(1), r_max=r_max, beta_ref=beta,
    )


def _round_rng(seed, workload, k):
    return np.random.default_rng(np.random.SeedSequence([seed, sum(map(ord, workload)), k]))


def file_reference(spec) -> float | None:
    """beta of a pure p=2, n=1, Q=1, h=0 problem file, else None."""
    terms = spec.mixture.terms
    if spec.n != 1 or len(terms) != 1 or terms[0][0] != 2:
        return None
    if float(spec.constraint[0, 0]) != 1.0 or np.any(spec.mixture.h != 0.0):
        return None
    return float(terms[0][1][0])


def _fixed_family(ns) -> list[tuple]:
    """Twice as many members as ``ns``: each n with and without the p=4
    term, fields on alternate members, drawn from BASE_SEED.  Returns
    (label, n, terms, h, q) per member."""
    base = np.random.default_rng(BASE_SEED)
    family = []
    for i in range(2 * len(ns)):
        n = ns[i % len(ns)]
        p4 = i < len(ns)
        with_field = (i + (0 if p4 else 1)) % 2 == 0
        label = f"family-n{n}{'-p4' if p4 else ''}{'-h' if with_field else ''}"
        family.append((label, n) + _family_instance(base, n, p4, with_field))
    return family


def _jittered(member, rng, r_max) -> Item:
    """A family member with its coefficients jittered by up to JITTER."""
    label, n, terms, h, q = member
    terms = tuple((p, b * (1.0 + JITTER * rng.uniform(-1, 1, n))) for p, b in terms)
    h = h * (1.0 + JITTER * rng.uniform(-1, 1, n))
    t = JITTER * float(rng.uniform())
    q = (1.0 - t) * q + t * np.eye(n)  # stays unit-diagonal and PD
    return Item(label=label, kind="gap", n=n, terms=terms, h=h, q=q, r_max=r_max)


def gap_rs_round(seed: int, k: int, problem_specs) -> list[Item]:
    """The twelve members of the RS_NS family, jittered; the two scalar
    reference instances; and each problem file through ``cli.run`` and
    ``cli.emit``.  ``problem_specs`` is a list of (name, parsed spec) pairs."""
    rng = _round_rng(seed, "gap-rs", k)
    items = [_jittered(m, rng, r_max=2) for m in _fixed_family(RS_NS)]
    items.append(_pure2(0.3, 2, "pure2-beta0.3"))
    items.append(_pure2(1.0, 2, "pure2-beta1.0"))
    for name, spec in problem_specs:
        items.append(Item(label=f"file-{name}", kind="file", n=spec.n, r_max=spec.solve.r_max,
                          x_grid=spec.solve.x_grid, spec=spec, beta_ref=file_reference(spec)))
    return items


def gap_rsb_round(seed: int, k: int) -> list[Item]:
    """The two fixed reference instances, then twice the six members of the
    RSB_NS family, each time jittered afresh."""
    items = [_pure2(0.5, 3, "pure2-beta0.5"), _pure2(1.0, 3, "pure2-beta1.0")]
    rng = _round_rng(seed, "gap-rsb", k)
    family = _fixed_family(RSB_NS)
    items += [_jittered(m, rng, r_max=3) for _ in range(2) for m in family]
    return items


def verify_round(seed: int, k: int) -> list[Item]:
    """Every battery check once, each with its own seed drawn from the run seed."""
    seeds = _round_rng(seed, "verify", k).integers(0, 2**31 - 1, size=len(CHECKS))
    return [
        Item(label=label, kind="check", check=(fn, kwargs), seed=int(s))
        for (fn, kwargs, label), s in zip(CHECKS, seeds)
    ]


# -- running and judging one item -------------------------------------------


def _gap_outputs(min_parisi, min_cs, gap, argmins, eps_trace) -> dict:
    """The numbers a gap item reports; ``argmins`` holds (r, x, converged)
    for the parisi and the cs side."""
    out = {"min_parisi": float(min_parisi), "min_cs": float(min_cs), "gap": float(gap)}
    for side, (r, x, converged) in zip(("parisi", "cs"), argmins):
        out[f"argmin_{side}"] = {"r": int(r), "x": [float(v) for v in x], "converged": bool(converged)}
    out["stage_iterations"] = {
        side: [int(s["iterations"]) for s in eps_trace[side]] for side in ("parisi", "cs")
    }
    return out


def run_item(sv, item: Item, scratch_dir) -> dict:
    """Run one item on the imported library ``sv`` and return its outputs.

    ``sv`` maps module short names to modules, looked up at call time so
    the tracer's rebound functions are the ones called.
    """
    if item.kind == "check":
        fn, kwargs = item.check
        res = getattr(sv["battery"], fn)(seed=item.seed, **kwargs)
        return {"check": res.name, "passed": bool(res.passed), "count": int(res.checks),
                "worst": float(res.worst)}
    if item.kind == "file":
        cli = sv["cli"]
        record = cli.run("gap", item.spec)
        cli.emit(record, "json-lines", str(scratch_dir / f"{item.label}.jsonl"))
        cli.emit(record, "csv", str(scratch_dir / f"{item.label}_trace.csv"))
        o = record.outputs
        argmins = [(o[k]["r"], o[k]["x"], o[k]["converged"]) for k in ("argmin_parisi", "argmin_cs")]
        return _gap_outputs(o["min_parisi"], o["min_cs"], o["gap"], argmins, o["eps_trace"])
    opt = sv["optimize"]
    mix = sv["matcore"].MixtureSpec(n=item.n, terms=item.terms, h=item.h)
    rep = opt.duality_gap(mix, item.q, opt.SolveOptions(r_max=item.r_max, x_grid=item.x_grid))
    argmins = [(s.r, s.x, s.best.converged) for s in (rep.argmin_parisi, rep.argmin_cs)]
    return _gap_outputs(rep.min_parisi, rep.min_cs, rep.gap, argmins, rep.eps_trace)


def judge(item: Item, out: dict) -> tuple[list[str], dict]:
    """Failure reasons of a finished item, and its certificate numbers.

    ``gap`` and ``reference`` mark a wrong answer: a gap above GAP_TOL, or
    a minimum off the closed form by more than REF_TOL.  ``unconverged``
    marks an argmin the solver itself flags as not converged.
    """
    if item.kind == "check":
        return ([] if out["passed"] else ["check-failed"]), {}
    reasons = []
    if not (out["argmin_parisi"]["converged"] and out["argmin_cs"]["converged"]):
        reasons.append("unconverged")
    gap = out["gap"]
    if not gap <= GAP_TOL:
        reasons.append("gap")
    numbers = {"gap": gap}
    if item.beta_ref is not None:
        ref = rs_value_closed_form(item.beta_ref)
        dev = max(abs(out["min_parisi"] - ref), abs(out["min_cs"] - ref))
        numbers.update(reference=ref, ref_dev=dev)
        if not dev <= REF_TOL:
            reasons.append("reference")
    return reasons, numbers
