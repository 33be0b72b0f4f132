"""Smoke test of the benchmark's schema and metric names.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_benchmark.py

It checks ``BENCHMARK.json`` against the names the harness reports,
runs one short untraced and one short traced ``pt2pt_self``, and
checks that a directory holding only the benchmark fails without a
result.  It checks shapes and names, never a speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    for m in SPEC["per_layer"]:
        higher = m["name"] in layers.HIGHER_IS_BETTER
        assert m["better"] == ("higher" if higher else "lower")


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_short_runs_report_every_metric():
    for trace, declared in (("0", SPEC["end_to_end"]),
                            ("1", SPEC["per_layer"])):
        result = _result(_run("--workload", "pt2pt_self", "--seed", "7",
                              "--seconds", "1", "--trace", trace))
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    assert metrics["mpi.calls_per_op"]["value"] == 2.0
    assert metrics["build.no-err-single-ipo.instructions_per_op"]["value"] \
        < metrics["build.default.instructions_per_op"]["value"]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p)
    proc = _run("--workload", "pt2pt_self", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
