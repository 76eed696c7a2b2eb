"""Tiny-size smoke test of the benchmark: every workload, traced and
untraced, with the oracle check, in well under a minute.

Run from the repository root::

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads() -> list[str]:
    return [w["name"] for w in spec()["workloads"]]


def bench(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def clean_env() -> dict:
    env = dict(os.environ)
    for name in ("REPRO_BACKEND", "REPRO_LAYOUT", "REPRO_TRACE"):
        env.pop(name, None)
    return env


def check_run(workload: str, trace: int) -> dict:
    done = bench(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", env=clean_env(),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout + done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    return result["metrics"]


def test_every_workload_untraced():
    for workload in workloads():
        metrics = check_run(workload, 0)
        for metric in spec()["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0, (workload, metric)


def test_every_workload_traced():
    for workload in workloads():
        metrics = check_run(workload, 1)
        assert metrics["trace.coverage"]["value"] > 0, workload
        if workload in ("small-warm", "large-join"):
            assert metrics["decompose.calls"]["value"] == 0, workload


def test_large_join_oracles_agree():
    """The naive-join oracle the large-join run checks against agrees
    with the backtracking oracle (too slow at full size)."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.db.naive import backtracking_answers, naive_join_eval
    from workloads import large_shapes

    for shape in large_shapes(7, "tiny"):
        assert (
            naive_join_eval(shape.query, shape.db).rows
            == backtracking_answers(shape.query, shape.db).rows
        ), shape.query


def test_refuses_ci_mode_variables():
    env = clean_env()
    env["REPRO_LAYOUT"] = "row"
    done = bench(
        "--workload", "small-warm", "--seed", "1", "--seconds", "1",
        "--size", "tiny", env=env,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def test_fails_without_program_source():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = bench(
            "--workload", "small-warm", "--seed", "1", "--seconds", "1",
            cwd=bare, env=clean_env(),
        )
        assert done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
