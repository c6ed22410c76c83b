import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinvar.cli import (
    FORMAT_HEADER,
    FORMAT_VERSION,
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
from spinvar.optimize import duality_gap


PURE2_SCALAR = str(Path(__file__).resolve().parent.parent / "problems" / "pure2_scalar.json")


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
    # these used to parse silently as grad_tol=1.0, eps_schedule=(1.0,)
    raw = minimal_spec(solve={"grad_tol": True, "eps_schedule": [True]})
    with pytest.raises(ValidationError) as info:
        build_spec(raw)
    text = "\n".join(info.value.problems)
    for key in ("grad_tol", "eps_schedule"):
        assert key in text


def test_main_exits_2_on_a_bool_real_option(tmp_path, capsys):
    for solve in ({"grad_tol": True}, {"eps_schedule": [1e-1, True]}):
        spec_file = write_spec(tmp_path, minimal_spec(solve=solve))
        assert main(["eval", "--spec", spec_file]) == 2
        assert f"solve: {next(iter(solve))}" in capsys.readouterr().err


# an integer literal beyond the float range, where float() raises OverflowError
HUGE = "1" + "0" * 400

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
    ("mixture", "[[2, 0.3]]", "flat list"),
    ("h", "0.0", "flat list"),
    ("version", "1.0", "version"),
    ("path", '{"x": [0.0, 1.0], "levels": [[0.5]], "lambda": [NaN]}', "lambda"),
    ("path", '{"x": [0.0, 1.0], "levels": [[0.5]], "lambda": [Infinity]}', "lambda"),
    # these raised a RuntimeWarning inside the constraint checks
    ("Q", "[Infinity]", "Q:"),
    ("Q", "[1e308]", "Q:"),
    # float() turned strings into numbers and the other errors lost their key
    ("solve", '{"grad_tol": "1e-8"}', "grad_tol"),
    ("solve", '{"eps_schedule": ["1e-5"]}', "eps_schedule"),
    ("solve", '{"eps_schedule": 1e-5}', "eps_schedule"),
    ("solve", '{"eps_schedule": "1e-5"}', "eps_schedule"),
    ("solve", '{"grad_tol": null}', "grad_tol"),
    # float() and astype(float) turned numeric strings into numbers
    ("Q", '["1.0"]', "Q:"),
    ("h", '["0.1"]', "field h"),
    ("mixture", '[[2, ["1.0"]]]', "flat list"),
    ("path", '{"x": ["0.0"]}', "path:"),
    ("path", '{"x": [0.0, 1.0], "levels": [["0.5"]]}', "path:"),
    ("path", '{"x": [0.0, 1.0], "levels": [[0.5]], "lambda": ["3.0"]}', "path:"),
    # and raised OverflowError on an integer beyond the float range
    ("h", f"[{HUGE}]", "field h"),
    ("mixture", f"[[2, [{HUGE}]]]", "beta"),
    ("Q", f"[{HUGE}]", "Q:"),
    ("path", f'{{"x": [{HUGE}]}}', "path:"),
    ("solve", f'{{"grad_tol": {HUGE}}}', "grad_tol"),
    ("solve", f'{{"eps_schedule": [{HUGE}]}}', "eps_schedule"),
    # sizes beyond n <= 8, r_max <= 5 and x_grid <= 64 were accepted, and a
    # huge n raised OverflowError while the default field was built
    ("n", "9", "n must be"),
    ("n", HUGE, "n must be"),
    ("solve", '{"r_max": 6}', "r_max"),
    ("solve", '{"x_grid": 65}', "x_grid"),
    ("solve", f'{{"x_grid": {HUGE}}}', "x_grid"),
)


@pytest.mark.parametrize("key, text, word", MALFORMED)
def test_build_spec_rejects_malformed_values(key, text, word):
    with pytest.raises(ValidationError) as info:
        build_spec(minimal_spec(**{key: json.loads(text)}))
    assert any(word in p for p in info.value.problems)


@pytest.mark.parametrize("q, problems", [
    (None, ["Q is required"]),
    ([1.0, 2.0], ["Q: upper triangle for n=1 needs 1 entries, got 2"]),
    ([-1.0], ["Q: unit diagonal required, got [-1.0]",
              "Q: constraint must be positive definite, lam_min = -1.000e+00"]),
], ids=("missing", "malformed", "invalid"))
def test_bad_q_reports_no_false_path_problem(q, problems):
    # a path of the right length was reported as the wrong length whenever Q
    # did not parse, and checked against Q when Q parsed but was invalid
    raw = {"version": 1, "n": 1, "mixture": [[2, [0.5]]],
           "path": {"x": [0, 1], "levels": [[0.5]]}}
    if q is not None:
        raw["Q"] = q
    with pytest.raises(ValidationError) as info:
        build_spec(raw)
    assert info.value.problems == problems


@pytest.mark.parametrize("key, text, word", MALFORMED)
def test_main_exits_2_on_malformed_values(tmp_path, capsys, key, text, word):
    spec_file = tmp_path / "problem.json"
    spec_file.write_text(json.dumps(minimal_spec(**{key: None})).replace("null", text))
    assert main(["gap", "--spec", str(spec_file)]) == 2
    # each problem is an "error:" line; a solve problem reads "solve: <key> must be ..."
    want = f"error: solve: {word} must be" if key == "solve" else "error: "
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith(want) and word in line for line in lines)


def test_load_spec_rejects_removed_solver_knobs(tmp_path, capsys):
    # beta2_delta went with the beta2 floor: the gap solves the mixture as given
    for knob in ({"armijo": [1e-4, 0.5]}, {"max_iters": 100}, {"beta2_delta": 1e-4}):
        spec_file = write_spec(tmp_path, minimal_spec(solve=knob))
        assert main(["gap", "--spec", spec_file]) == 2
        assert f"solve: unknown keys {sorted(knob)}" in capsys.readouterr().err
    plain = write_spec(tmp_path, minimal_spec(), name="plain.json")
    with pytest.raises(SystemExit) as info:
        main(["gap", "--spec", plain, "--beta2-delta", "1e-4"])
    assert info.value.code == 2


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_spec(str(p))


def test_run_eval_and_determinism():
    raw = minimal_spec(
        mixture=[[2, [1.0]]],
        path={"x": [0.0, 1.0], "levels": [[0.25]], "lambda": [3.0]},
    )
    spec = build_spec(raw)
    rec1 = run("eval", spec)
    rec2 = run("eval", spec)
    assert rec1.outputs == rec2.outputs
    assert rec1.inputs_digest == rec2.inputs_digest
    # pure p = 2, beta = 1, Q = 1, x = (0, 1), Q_1 = 1/4, Lambda = 3
    assert rec1.outputs["parisi"] == pytest.approx(0.5 * (2 - math.log(3) + math.log(2) + 1 / 3 - 15 / 16))
    assert rec1.outputs["cs"] == pytest.approx(0.5 * (math.log(3 / 4) + 1 / 3 + 15 / 16))
    assert rec1.outputs["barrier"] == pytest.approx(1.6739764335716716)


def test_run_gap_record():
    spec = build_spec(minimal_spec(solve={"eps_schedule": [1e-1, 1e-3, 1e-6]}))
    rec = run("gap", spec)
    assert rec.outputs["min_parisi"] == pytest.approx(0.045, abs=1e-3)
    assert rec.outputs["min_cs"] == pytest.approx(0.045, abs=1e-3)
    assert rec.outputs["gap"] <= 1e-4
    assert rec.outputs["converged"]
    assert rec.tool_version.startswith("spinvar")
    # each stage of the winning candidates names its exit
    for side in ("parisi", "cs"):
        stages = rec.outputs["eps_trace"][side]
        assert [s["eps"] for s in stages] == [1e-1, 1e-3, 1e-6]
        assert all(s["stop_reason"] == "converged" for s in stages)


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.mark.parametrize(
    "name, min_parisi, min_cs",
    [
        ("coupled_pair.json", 0.10519285648613524, 0.10519285648613502),
        ("pure2_scalar.json", 0.04500049810828878, 0.04500049858802677),
    ],
    ids=["coupled_pair", "pure2_scalar"],
)
def test_problem_file_gap_results_are_pinned(name, min_parisi, min_cs):
    """The minima and argmins of ``gap`` on the shipped problem files: a
    refactor of the kernel or the solver must reproduce them to 1e-10."""
    out = run("gap", load_spec(str(PROBLEMS / name))).outputs
    assert out["min_parisi"] == pytest.approx(min_parisi, rel=0, abs=1e-10)
    assert out["min_cs"] == pytest.approx(min_cs, rel=0, abs=1e-10)
    for side in ("argmin_parisi", "argmin_cs"):
        assert out[side]["r"] == 2
        assert out[side]["x"] == pytest.approx([0.0, 1.0], rel=0, abs=1e-10)


def test_main_verify_passes_every_battery_check(capsys):
    assert main(["verify", "--spec", str(PROBLEMS / "pure2_scalar.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0])["all_passed"] is True
    assert sum(line.startswith("PASS") for line in lines) == 19
    assert not any(line.startswith("FAIL") for line in lines)


def test_main_verify_reports_each_checks_detail(monkeypatch, capsys, tmp_path):
    # the detail says what a check's worst measures; neither the PASS/FAIL
    # lines nor the JSON entries carried it
    from spinvar import battery

    monkeypatch.setattr(battery, "ALL_CHECKS", (battery.check_temperature_continuity,
                                                battery.check_lipschitz_bound,
                                                battery.check_amgm_determinant))
    out = tmp_path / "out"
    assert main(["verify", "--spec", str(PROBLEMS / "pure2_scalar.json"), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    details = {c["name"]: c["detail"] for c in json.loads(lines[0])["checks"]}
    assert details["temperature-continuity"] == "(band 2*delta = 0.420)"
    assert details["lipschitz-modulus"].startswith("(empirical ")
    assert details["amgm-determinant"] == ""
    assert lines[1].startswith("PASS") and lines[1].endswith("(band 2*delta = 0.420)")
    assert lines[2].endswith(details["lipschitz-modulus"])
    assert lines[3].startswith("PASS") and not lines[3].endswith(" ")
    record = json.loads((out / "verify.jsonl").read_text().splitlines()[1])
    assert [c["detail"] for c in record["outputs"]["checks"]] == list(details.values())


def test_main_verify_fails_a_nan_check(monkeypatch, capsys):
    # with every log-det NaN, amgm-determinant passed with worst = inf
    from spinvar import battery, matcore

    monkeypatch.setattr(battery, "ALL_CHECKS", (battery.check_amgm_determinant,))
    monkeypatch.setattr(matcore, "chol_logdet", lambda a: math.nan)
    assert main(["verify", "--spec", str(PROBLEMS / "pure2_scalar.json")]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[0])["all_passed"] is False
    assert lines[1].startswith("FAIL  amgm-determinant") and "worst=+nan" in lines[1]


def test_emit_deterministic(tmp_path):
    spec = build_spec(minimal_spec(solve={"eps_schedule": [1e-1, 1e-3]}))
    rec = run("gap", spec)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    emit(rec, "json-lines", str(out1))
    emit(rec, "json-lines", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(l) for l in out1.read_text().splitlines()]
    assert lines[0] == {"format": "spinvar-result", "version": 4}
    assert lines[-1]["command"] == "gap"

    csv1 = tmp_path / "a.csv"
    emit(rec, "csv", str(csv1))
    lines = csv1.read_text().splitlines()
    assert lines[0] == "# spinvar-result v4"
    assert lines[1] == "form,stage,eps,iter,value,grad_norm,min_increment_eig"
    assert len(lines) > 3
    rows = {tuple(line.split(",")[:2]) for line in lines[2:]}
    assert rows == {(form, stage) for form in ("parisi", "cs") for stage in ("0", "1")}


def test_gap_json_lines_hold_each_level_once(tmp_path):
    # the format line, then the record line, whose argmin levels are the
    # solve's; each level used to be written a second time on a line of its own
    spec = build_spec(minimal_spec(
        n=2, mixture=[[2, [0.4, 0.3]]], h=[0.1, 0.0], Q=[1.0, 0.25, 1.0],
        solve={"eps_schedule": [1e-1, 1e-3]},
    ))
    out = tmp_path / "gap.jsonl"
    emit(run("gap", spec), "json-lines", str(out))
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0] == {"format": "spinvar-result", "version": FORMAT_VERSION}
    assert lines[1]["command"] == "gap"
    report = duality_gap(spec.mixture, spec.constraint, spec.solve)
    for side, result in (("parisi", report.argmin_parisi), ("cs", report.argmin_cs)):
        path = result.best.path
        levels = lines[1]["outputs"][f"argmin_{side}"]["argmin"]["levels"]
        assert len(levels) == path.r - 1 >= 1
        assert [[float(v) for v in upper] for upper in levels] == [
            matrix_to_upper(path.level(k)) for k in range(1, path.r)
        ]


def test_float_emission_roundtrips(tmp_path):
    spec = build_spec(minimal_spec(path={"x": [0.0, 1.0], "levels": [[0.25]], "lambda": [3.0]}))
    rec = run("eval", spec)
    out = tmp_path / "r.jsonl"
    emit(rec, "json-lines", str(out))
    payload = json.loads(out.read_text().splitlines()[1])
    assert float(payload["outputs"]["parisi"]) == rec.outputs["parisi"]


def test_main_exit_codes(tmp_path, capsys):
    good = write_spec(tmp_path, minimal_spec(path={"x": [0.0, 1.0], "levels": [[0.25]]}))
    assert main(["eval", "--spec", good]) == 0
    out = capsys.readouterr().out
    assert "barrier" in out

    # the multiplier-free form is the CS functional only at x_{r-1} = 1
    low_top = write_spec(tmp_path, minimal_spec(path={"x": [0.0, 0.5], "levels": [[0.25]]}), name="low.json")
    assert main(["eval", "--spec", low_top]) == 2
    assert "the multiplier-free form needs x_{r-1} = 1, got 0.5" in capsys.readouterr().err

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


def test_main_out_naming_a_file_exits_2_before_any_command(tmp_path, capsys, monkeypatch):
    # verify ran the whole battery, then died on FileExistsError with exit 1
    from spinvar import cli

    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args))
    taken = tmp_path / "taken.txt"
    taken.write_text("")
    assert main(["verify", "--spec", PURE2_SCALAR, "--out", str(taken)]) == 2
    assert f"error: cannot write --out {taken}" in capsys.readouterr().err
    assert calls == []


def test_main_out_that_cannot_take_a_file_exits_2(tmp_path, capsys):
    # the solve ran, then emit raised IsADirectoryError with exit 1
    (tmp_path / "gap.jsonl").mkdir()
    assert main(["gap", "--spec", PURE2_SCALAR, "--out", str(tmp_path)]) == 2
    assert f"error: cannot write {tmp_path / 'gap.jsonl'}: Is a directory" in capsys.readouterr().err


def test_main_exits_4_on_non_convergence_and_still_writes(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["gap", "--spec", PURE2_SCALAR, "--tol", "1e-300", "--out", str(out_dir)]) == 4
    assert (out_dir / "gap.jsonl").exists() and (out_dir / "gap_trace.csv").exists()


def test_main_run_with_no_commands_exits_2(tmp_path, capsys):
    spec_file = write_spec(tmp_path, minimal_spec(commands=[]))
    assert main(["run", "--spec", spec_file]) == 2
    assert "nonempty commands list" in capsys.readouterr().err


def test_build_spec_rejects_a_path_of_the_wrong_length():
    raw = minimal_spec(path={"x": [0.0, 0.5, 1.0], "levels": [[0.25]]})
    with pytest.raises(ValidationError, match=r"need len\(x\) == len\(levels\) \+ 1"):
        build_spec(raw)


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
    assert "eps_schedule must be a nonempty list of nonnegative finite reals" in capsys.readouterr().err


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


def test_gap_completes_a_warm_winners_stages(tmp_path):
    # pure p = 4 at beta = 2 wins at r = 3, x = (0, 0.625, 1), a warm
    # candidate that ran only the last eps stage; the record must hold both
    # of its stages, converged, and the trace file rows of both, and the
    # minima must stay within 1e-9 of their pinned values; each trace row
    # begins with its form
    spec_file = write_spec(tmp_path, minimal_spec(mixture=[[4, [2.0]]]))
    out_dir = tmp_path / "warm"
    assert main(["gap", "--spec", spec_file, "--r-max", "3", "--out", str(out_dir)]) == 0
    records = [json.loads(line) for line in (out_dir / "gap.jsonl").read_text().splitlines()]
    out = next(rec for rec in records if rec.get("command") == "gap")["outputs"]
    assert float(out["min_parisi"]) == pytest.approx(1.8659232293444, rel=0, abs=1e-9)
    assert float(out["min_cs"]) == pytest.approx(1.8659232293442, rel=0, abs=1e-9)
    for kind in ("parisi", "cs"):
        assert out[f"argmin_{kind}"]["r"] == 3
        assert [float(v) for v in out[f"argmin_{kind}"]["x"]] == [0.0, 0.625, 1.0]
        stages = out["eps_trace"][kind]
        assert len(stages) == 2
        assert all(s["converged"] is True and s["stop_reason"] == "converged" for s in stages)
    lines = (out_dir / "gap_trace.csv").read_text().splitlines()
    rows = {tuple(line.split(",")[:2]) for line in lines[2:]}
    assert rows == {(form, stage) for form in ("parisi", "cs") for stage in ("0", "1")}


def test_gap_trace_file_carries_both_forms(tmp_path):
    # the CSV names its format version and each row's form; the JSON-lines
    # format record carries the same version number
    out_dir = tmp_path / "out"
    assert main(["gap", "--spec", str(PROBLEMS / "pure2_scalar.json"), "--out", str(out_dir)]) == 0
    lines = (out_dir / "gap_trace.csv").read_text().splitlines()
    assert lines[0] == FORMAT_HEADER
    assert lines[1].startswith("form,")
    assert {line.split(",")[0] for line in lines[2:]} == {"parisi", "cs"}
    record = json.loads((out_dir / "gap.jsonl").read_text().splitlines()[0])
    assert record["format"] == "spinvar-result"
    assert FORMAT_HEADER == f"# spinvar-result v{record['version']}"


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


def _gap_outputs(out_dir):
    records = [json.loads(line) for line in (out_dir / "gap.jsonl").read_text().splitlines()]
    return next(rec for rec in records if rec.get("command") == "gap")["outputs"]


def test_main_eval_matches_closed_forms(tmp_path, capsys):
    # an explicit path and multiplier exit 0 with both forms within 1e-12
    # of their closed forms; a NaN multiplier is a validation problem
    path = {"x": [0.0, 1.0], "levels": [[0.25]], "lambda": [3.0]}
    spec_file = write_spec(tmp_path, minimal_spec(mixture=[[2, [1.0]]], path=path))
    assert main(["eval", "--spec", spec_file]) == 0
    out = json.loads(capsys.readouterr().out)
    # pure p = 2, beta = 1, Q = 1, x = (0, 1), Q_1 = 1/4, Lambda = 3
    want = {
        "parisi": 0.5 * (2 - math.log(3) + math.log(2) + 1 / 3 - 15 / 16),
        "cs": 0.5 * (math.log(3 / 4) + 1 / 3 + 15 / 16),
    }
    for key, value in want.items():
        assert abs(float(out[key]) - value) <= 1e-12
    nan_file = tmp_path / "nan.json"
    nan_file.write_text(Path(spec_file).read_text().replace("[3.0]", "[NaN]"))
    assert main(["eval", "--spec", str(nan_file)]) == 2
    assert "lambda has non-finite entries" in capsys.readouterr().err


def test_main_warm_weight_search_closes_the_gap(tmp_path):
    # r_max = 3 sends the later weight candidates through warm starts
    out_dir = tmp_path / "rsb"
    spec_file = str(PROBLEMS / "coupled_pair.json")
    assert main(["run", "--spec", spec_file, "--r-max", "3", "--out", str(out_dir)]) == 0
    assert float(_gap_outputs(out_dir)["gap"]) <= 5e-4


def test_main_default_and_six_stage_schedules_agree(tmp_path):
    # the default schedule starts every cold solve at eps = 1e-5 and ends at
    # eps = 0; its minima must match those of the six-stage barrier path
    # that ends at eps = 0 too, to 1e-9
    spec_file = str(PROBLEMS / "coupled_pair.json")
    short, long = tmp_path / "short", tmp_path / "long"
    assert main(["gap", "--spec", spec_file, "--out", str(short)]) == 0
    schedule = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6,0"
    assert main(["gap", "--spec", spec_file, "--out", str(long), "--eps-schedule", schedule]) == 0
    for key in ("min_parisi", "min_cs"):
        assert abs(float(_gap_outputs(short)[key]) - float(_gap_outputs(long)[key])) <= 1e-9


def test_main_minimize_kind(tmp_path, capsys):
    # minimize reports the weight search's answer under the keys gap uses;
    # the multiplier form's answer is gap's, so there is no --kind
    spec_file = write_spec(tmp_path, minimal_spec(solve={"eps_schedule": [1e-1, 1e-3, 1e-6]}))
    with pytest.raises(SystemExit) as exc:
        main(["minimize", "--spec", spec_file, "--kind", "parisi"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["minimize", "--spec", spec_file]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert abs(float(payload["min_cs"]) - 0.045) < 1e-3
    assert set(payload) == {"command", "min_cs", "argmin_cs", "converged"}
    assert payload["argmin_cs"]["r"] == 2


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


# the continuous and probe records of the problem files: each atom is
# (t, mass, condition, flagged); CI runs other numpy builds, so the pins
# hold to rel 1e-12 rather than bitwise
RECORD_PINS = {
    "coupled_pair.json": {
        "continuous": {
            "cs_continuous": 0.10519285648613502, "cs_discrete": 0.10519285648613502,
            "t_x": 0.016697828424103955, "box_T": 1.947718469281479, "box_L": 19.127213496940477,
            "atoms": [(0.016697828424103955, 1.0, 1.5246692933544044, False)], "flagged_atoms": 0,
        },
        "probe": {"empirical_modulus": 0.0003240010295736088, "bound": 29269.343692603357,
                  "within": True},
    },
    "pure2_scalar.json": {
        "continuous": {
            "cs_continuous": 0.045000498588026766, "cs_discrete": 0.04500049858802677,
            "t_x": 0.0015575563749100879, "box_T": 0.6927212613988687, "box_L": 3.2543742028896707,
            "atoms": [(0.0015575563749100879, 1.0, 1.1784412293731519, False)], "flagged_atoms": 0,
        },
        "probe": {"empirical_modulus": 0.0006322155815401886, "bound": 45.79818001262479,
                  "within": True},
    },
}


@pytest.mark.parametrize("name", sorted(RECORD_PINS))
def test_continuous_and_probe_records_match_pins(name):
    def near(value):
        return pytest.approx(value, rel=1e-12, abs=1e-15)

    pins = RECORD_PINS[name]
    out = run("continuous", load_spec(str(PROBLEMS / name))).outputs
    want = pins["continuous"]
    for key in ("cs_continuous", "cs_discrete", "t_x", "box_T", "box_L"):
        assert out[key] == near(want[key]), key
    assert type(out["box_T"]) is float and type(out["box_L"]) is float  # box_T was np.float64
    assert [(a["t"], a["mass"], a["condition"], a["flagged"]) for a in out["atoms"]] == [
        (near(t), near(mass), near(condition), flagged) for t, mass, condition, flagged in want["atoms"]
    ]
    assert out["flagged_atoms"] == want["flagged_atoms"]
    out = run("probe", load_spec(str(PROBLEMS / name))).outputs
    want = pins["probe"]
    assert (out["empirical_modulus"], out["bound"]) == (near(want["empirical_modulus"]), near(want["bound"]))
    assert out["within"] is want["within"]
