import json
from pathlib import Path

import numpy as np
import pytest

from spinvar.cli import (
    build_spec,
    emit,
    load_spec,
    main,
    matrix_to_upper,
    run,
    upper_to_matrix,
)
from spinvar.errors import (
    DegenerateIncrement,
    DomainError,
    InfeasibleMultiplier,
    InfeasiblePath,
    NoFeasibleStart,
    NotPositiveDefinite,
    ParseError,
    ValidationError,
)


def minimal_spec(**extra):
    raw = {
        "version": 1,
        "n": 1,
        "mixture": [[2, [0.3]]],
        "h": [0.0],
        "Q": [1.0],
    }
    raw.update(extra)
    return raw


def write_spec(tmp_path, raw, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def test_upper_triangle_roundtrip():
    m = upper_to_matrix([1.0, 0.25, 1.0], 2)
    np.testing.assert_allclose(m, [[1.0, 0.25], [0.25, 1.0]])
    assert matrix_to_upper(m) == [1.0, 0.25, 1.0]
    with pytest.raises(ValidationError):
        upper_to_matrix([1.0, 0.25], 2)


def test_load_spec_minimal(tmp_path):
    spec = load_spec(write_spec(tmp_path, minimal_spec()))
    assert spec.n == 1
    assert spec.mixture.terms[0][0] == 2
    np.testing.assert_allclose(spec.constraint, [[1.0]])


def test_load_spec_collects_all_errors():
    raw = minimal_spec()
    raw["mixture"] = [[3, [0.3]]]
    raw["Q"] = [2.0]
    raw["bogus"] = 1
    with pytest.raises(ValidationError) as info:
        build_spec(raw)
    text = "\n".join(info.value.problems)
    assert "even p" in text
    assert "unit diagonal" in text
    assert "bogus" in text
    assert len(info.value.problems) >= 3


def test_load_spec_rejects_unknown_solve_keys():
    raw = minimal_spec(solve={"nonsense": 1})
    with pytest.raises(ValidationError) as info:
        build_spec(raw)
    assert any("nonsense" in p for p in info.value.problems)


def test_load_spec_rejects_truncated_int_options():
    # these used to parse silently as x_grid=3, r_max=2, seed=1
    raw = minimal_spec(solve={"x_grid": 3.7, "r_max": 2.9, "seed": True})
    with pytest.raises(ValidationError) as info:
        build_spec(raw)
    text = "\n".join(info.value.problems)
    for key in ("x_grid", "r_max", "seed"):
        assert key in text


def test_load_spec_rejects_bools_for_real_options():
    # these used to parse silently as grad_tol=1.0, beta2_delta=0.0, eps_schedule=(1.0,)
    raw = minimal_spec(solve={"grad_tol": True, "beta2_delta": False, "eps_schedule": [True]})
    with pytest.raises(ValidationError) as info:
        build_spec(raw)
    text = "\n".join(info.value.problems)
    for key in ("grad_tol", "beta2_delta", "eps_schedule"):
        assert key in text


def test_main_exits_2_on_a_bool_real_option(tmp_path, capsys):
    for solve in ({"grad_tol": True}, {"beta2_delta": False}, {"eps_schedule": [1e-1, True]}):
        spec_file = write_spec(tmp_path, minimal_spec(solve=solve))
        assert main(["eval", "--spec", spec_file]) == 2
        assert f"solve: {next(iter(solve))}" in capsys.readouterr().err


# (key, JSON text of its value, a word the problem names): values that
# int(), float() or tuple() would reject with a traceback, that int() would
# silently convert (p = 2.5 or "2" to 2), nested lists that would be
# flattened and booleans that would be read as 1 or 0
MALFORMED = (
    ("Q", '["a"]', "Q:"),
    ("commands", "5", "commands"),
    ("mixture", "[[1e400, [1.0]]]", "p must be"),
    ("mixture", "[[2.5, [1.0]]]", "p must be"),
    ("mixture", '[["2", [1.0]]]', "p must be"),
    ("mixture", "[[2, [[1.0]]]]", "flat list"),
    ("h", "[[0.0]]", "flat list"),
    ("version", "true", "version"),
    ("n", "true", "n must be"),
    ("Q", "[true]", "Q:"),
    ("mixture", "[[2, [true]]]", "flat list"),
    ("h", "[false]", "flat list"),
    ("path", '{"x": [false]}', "path:"),
    ("path", '{"x": [0.0, 1.0], "levels": [[true]]}', "path:"),
    ("path", '{"x": [0.0], "lambda": [true]}', "path:"),
)


@pytest.mark.parametrize("key, text, word", MALFORMED)
def test_build_spec_rejects_malformed_values(key, text, word):
    with pytest.raises(ValidationError) as info:
        build_spec(minimal_spec(**{key: json.loads(text)}))
    assert any(word in p for p in info.value.problems)


@pytest.mark.parametrize("key, text, word", MALFORMED)
def test_main_exits_2_on_malformed_values(tmp_path, capsys, key, text, word):
    spec_file = tmp_path / "problem.json"
    spec_file.write_text(json.dumps(minimal_spec(**{key: None})).replace("null", text))
    assert main(["gap", "--spec", str(spec_file)]) == 2
    assert word in capsys.readouterr().err


def test_load_spec_rejects_removed_solver_knobs(tmp_path, capsys):
    for knob in ({"armijo": [1e-4, 0.5]}, {"max_iters": 100}):
        spec_file = write_spec(tmp_path, minimal_spec(solve=knob))
        assert main(["gap", "--spec", spec_file]) == 2
        assert "unknown keys" in capsys.readouterr().err


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_spec(str(p))


def test_run_eval_and_determinism():
    raw = minimal_spec(
        mixture=[[2, [1.0]]],
        path={"x": [0.0, 0.5], "levels": [[0.25]], "lambda": [3.0]},
    )
    spec = build_spec(raw)
    rec1 = run("eval", spec)
    rec2 = run("eval", spec)
    assert rec1.outputs == rec2.outputs
    assert rec1.inputs_digest == rec2.inputs_digest
    assert rec1.outputs["parisi"] == pytest.approx(0.6151120392288372)
    assert rec1.outputs["cs"] == pytest.approx(0.28002626088155225)
    assert rec1.outputs["barrier"] == pytest.approx(1.6739764335716716)


def test_run_gap_record():
    spec = build_spec(minimal_spec(solve={"eps_schedule": [1e-1, 1e-3, 1e-6]}))
    rec = run("gap", spec)
    assert rec.outputs["min_parisi"] == pytest.approx(0.045, abs=1e-3)
    assert rec.outputs["min_cs"] == pytest.approx(0.045, abs=1e-3)
    assert rec.outputs["gap"] <= 1e-4
    assert rec.outputs["converged"]
    assert rec.tool_version.startswith("spinvar")


def test_emit_deterministic(tmp_path):
    spec = build_spec(minimal_spec(solve={"eps_schedule": [1e-1, 1e-3]}))
    rec = run("gap", spec)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    emit(rec, "json-lines", str(out1))
    emit(rec, "json-lines", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(l) for l in out1.read_text().splitlines()]
    assert lines[0]["format"] == "spinvar-result"
    level_lines = [l for l in lines if l.get("record") == "level"]
    assert {l["side"] for l in level_lines} == {"parisi", "cs"}
    assert all("q_upper" in l and "x" in l for l in level_lines)
    assert lines[-1]["command"] == "gap"

    csv1 = tmp_path / "a.csv"
    emit(rec, "csv", str(csv1))
    lines = csv1.read_text().splitlines()
    assert lines[0].startswith("# spinvar-result")
    assert lines[1] == "stage,eps,iter,value,grad_norm,min_increment_eig"
    assert len(lines) > 3
    stages = {line.split(",")[0] for line in lines[2:]}
    assert stages == {"0", "1"}


def test_float_emission_roundtrips(tmp_path):
    spec = build_spec(minimal_spec(path={"x": [0.0, 0.5], "levels": [[0.25]], "lambda": [3.0]}))
    rec = run("eval", spec)
    out = tmp_path / "r.jsonl"
    emit(rec, "json-lines", str(out))
    payload = json.loads(out.read_text().splitlines()[1])
    assert float(payload["outputs"]["parisi"]) == rec.outputs["parisi"]


def test_main_exit_codes(tmp_path, capsys):
    good = write_spec(tmp_path, minimal_spec(path={"x": [0.0, 0.5], "levels": [[0.25]]}))
    assert main(["eval", "--spec", good]) == 0
    out = capsys.readouterr().out
    assert "barrier" in out

    bad = write_spec(tmp_path, minimal_spec(Q=[2.0]), name="bad.json")
    assert main(["eval", "--spec", bad]) == 2

    # eval without a path is a validation failure
    no_path = write_spec(tmp_path, minimal_spec(), name="nopath.json")
    assert main(["eval", "--spec", no_path]) == 2

    # a degenerate top increment is infeasible, not a validation error
    degenerate = write_spec(
        tmp_path,
        minimal_spec(path={"x": [0.0, 1.0], "levels": [[1.0]]}),
        name="degenerate.json",
    )
    assert main(["eval", "--spec", degenerate]) == 3


def test_main_rejects_negative_seed(capsys):
    # used to end in a ValueError traceback from np.random.default_rng
    spec_file = str(Path(__file__).resolve().parent.parent / "problems" / "pure2_scalar.json")
    assert main(["probe", "--spec", spec_file, "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_domain_errors_share_one_base():
    # main maps DomainError to exit code 3 and every other SpinvarError to 4
    for cls in (NotPositiveDefinite, InfeasibleMultiplier, InfeasiblePath,
                DegenerateIncrement, NoFeasibleStart):
        assert issubclass(cls, DomainError)
    assert not issubclass(ValidationError, DomainError)


def test_main_rejects_non_finite_options(capsys):
    # --tol inf used to exit 0 with a "converged" gap of 0.133, and a nan
    # eps exited 3 from inside the solver
    spec_file = str(Path(__file__).resolve().parent.parent / "problems" / "pure2_scalar.json")
    assert main(["gap", "--spec", spec_file, "--tol", "inf"]) == 2
    assert "grad_tol must be positive and finite" in capsys.readouterr().err
    assert main(["gap", "--spec", spec_file, "--eps-schedule", "1e-1,nan"]) == 2
    assert "eps_schedule must be a nonempty list of positive finite reals" in capsys.readouterr().err


def test_main_gap_with_overrides_and_outputs(tmp_path, capsys):
    spec_file = write_spec(tmp_path, minimal_spec())
    out_dir = tmp_path / "out"
    code = main([
        "gap", "--spec", spec_file, "--out", str(out_dir),
        "--eps-schedule", "1e-1,1e-3", "--seed", "5",
    ])
    assert code == 0
    assert (out_dir / "gap.jsonl").exists()
    assert (out_dir / "gap_trace.csv").exists()
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["command"] == "gap"


def test_override_flags_and_aliases_keep_inputs_digest(tmp_path):
    # every SolveOptions flag lands on the field of the same name; the
    # digest is the one the per-flag override code gave these flags
    spec_file = write_spec(tmp_path, minimal_spec())
    for grid, tol in (("--x-grid", "--tol"), ("--grid", "--grad-tol")):
        out_dir = tmp_path / grid.strip("-")
        code = main([
            "gap", "--spec", spec_file, "--out", str(out_dir),
            grid, "3", tol, "1e-7", "--seed", "5",
        ])
        assert code == 0
        summary = json.loads((out_dir / "gap.jsonl").read_text().splitlines()[-1])
        assert summary["inputs_digest"] == (
            "80a60c74706abcfc30798fba536511af5ee2a9d8417c81f0c46bf00e2a31e651"
        )


def test_main_minimize_kind(tmp_path, capsys):
    spec_file = write_spec(tmp_path, minimal_spec(solve={"eps_schedule": [1e-1, 1e-3, 1e-6]}))
    assert main(["minimize", "--spec", spec_file, "--kind", "parisi"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert abs(float(payload["min_parisi"]) - 0.045) < 1e-3
    assert main(["minimize", "--spec", spec_file]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert abs(float(payload["min_cs"]) - 0.045) < 1e-3


def test_main_run_uses_spec_commands(tmp_path):
    raw = minimal_spec(
        commands=["eval", "continuous"],
        path={"x": [0.0, 1.0], "levels": [[0.25]]},
    )
    spec_file = write_spec(tmp_path, raw)
    assert main(["run", "--spec", spec_file]) == 0


def test_main_probe_and_continuous(tmp_path):
    raw = minimal_spec(solve={"eps_schedule": [1e-1, 1e-3, 1e-6]})
    spec_file = write_spec(tmp_path, raw)
    assert main(["continuous", "--spec", spec_file]) == 0
    assert main(["probe", "--spec", spec_file]) == 0
