"""The committed answers file, ``BENCH_answers.json``, against this checkout.

``tools/answers.py`` writes it; a change that moves an answer rewrites the
file and quotes ``--compare``.  Here seed 1 of its workload outputs is
recomputed and compared at 1e-10, not bit for bit, since other numpy builds
may differ in the last bits.  ``stage_iterations`` and the ``work`` counts
are left out: one ulp more or less at a stop test can change an iteration
count.
"""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("answers", ROOT / "tools" / "answers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "BENCH_answers.json").read_text(encoding="utf-8"))


def test_seed_1_matches_the_committed_answers(committed):
    tool = _tool()
    fresh = tool.workload_answers(seeds=(1,))
    mine = {k: v for k, v in committed["workloads"].items() if k.split("/")[1] == "1"}
    assert len(fresh) == len(mine) == 49
    assert tool.compare({"workloads": mine}, {"workloads": fresh}, 1e-10, skip=("stage_iterations", "work")) == []


def test_compare_reports_a_one_ulp_edit_only_at_tol_0(committed, tmp_path, capsys):
    tool = _tool()
    assert tool.compare(committed, committed, 0.0) == []
    edited = copy.deepcopy(committed)
    key = "gap-rsb/2/0/pure2-beta0.5"
    entry = edited["workloads"][key]["min_cs"]
    value = math.nextafter(float.fromhex(entry["hex"]), math.inf)
    entry.update(hex=value.hex(), dec=repr(value))
    lines = tool.compare(committed, edited, 0.0)
    assert len(lines) == 1 and lines[0].startswith(f"workloads  {key}  min_cs  ")
    assert tool.compare(committed, edited, 1e-10) == []
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(committed))
    new.write_text(json.dumps(edited))
    assert tool.main(["--compare", str(old), str(new), "--tol", "0"]) == 1
    assert tool.main(["--compare", str(old), str(new), "--tol", "1e-10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 differences at tol 1e-10"
