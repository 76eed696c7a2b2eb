"""End-to-end and per-layer benchmark of the engine and ``repro.serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small-warm --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md``): ``small-warm``, ``large-join``,
``plan-cold``, ``serve-rw``.  Each runs in a fresh interpreter
(``worker.py``) whose ``PYTHONHASHSEED`` is derived from ``--seed``.

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload traced and reports the per-layer
metrics, plus ``plan.digest_mismatch`` measured across three hash seeds.

The run refuses to start when ``REPRO_BACKEND``, ``REPRO_LAYOUT`` or
``REPRO_TRACE`` is set, since those change what is measured.  It prints
a human-readable report, writes the full result (configuration, extra
figures, spans) to ``.perfbench_out/``, and prints as its last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-warm", "large-join", "plan-cold", "serve-rw")
REFUSED_ENV = ("REPRO_BACKEND", "REPRO_LAYOUT", "REPRO_TRACE")
#: Hash seeds per traced run for plan.digest_mismatch.
DIGEST_HASH_SEEDS = 3
#: Wall-clock limit of one worker process, seconds.
WORKER_TIMEOUT = 170

END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "throughput_qps": "1/s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "parse.ms": "ms",
    "decompose.ms": "ms",
    "decompose.calls": "count/req",
    "decompose.width_sum": "count",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "compile.ms": "ms",
    "bind.ms": "ms",
    "bind.rows": "rows/req",
    "bag.ms": "ms",
    "sweep.ms": "ms",
    "eval.max_intermediate": "rows/req",
    "eval.tuples_produced": "rows/req",
    "eval.joins": "count/req",
    "eval.semijoins": "count/req",
    "eval.useful_ratio": "ratio",
    "plan.digest_mismatch": "count",
    "serve.admission_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.shed": "count",
    "serve.rate_limited": "count",
    "live.apply_ms": "ms",
    "live.views_changed": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


class BenchError(Exception):
    """A run that cannot produce a result."""


def hash_seed(seed: int, offset: int = 0) -> int:
    """The ``PYTHONHASHSEED`` of a run: part of the workload seed."""
    return (seed + offset) % 4_294_967_296


def worker(args: argparse.Namespace, mode: str, offset: int = 0) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON line."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src}")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(args.seed, offset))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size, "--mode", mode,
    ]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=WORKER_TIMEOUT, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT}s") from None
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {done.returncode}")
    return json.loads(lines[-1])


def digest_mismatch(runs: list[list[list[str]]]) -> int:
    """Shapes whose cold and warm plan digests differ in some run, or
    whose cold digest differs across runs (hash seeds)."""
    mismatched = 0
    for per_run in zip(*runs):
        colds = {cold for cold, _ in per_run}
        if len(colds) > 1 or any(cold != warm for cold, warm in per_run):
            mismatched += 1
    return mismatched


def run(args: argparse.Namespace) -> dict:
    if args.trace:
        main = worker(args, "traced")
        runs = [main["digests"]] + [
            worker(args, "digest", offset)["digests"]
            for offset in range(1, DIGEST_HASH_SEEDS)
        ]
        values = dict(main["layers"])
        values["plan.digest_mismatch"] = digest_mismatch(runs)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        main = worker(args, "measure")
        metrics = {
            name: {"value": main["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": main["correct"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "config": main["config"],
        "extra": main.get("extra", {}),
        "spans": main.get("spans", []),
    }


def report(args: argparse.Namespace, result: dict) -> None:
    """Human-readable lines, and the full record under .perfbench_out/."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("config " + json.dumps(result["config"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:26s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in result["extra"].items():
        if name != "setups_s":
            print(f"  {name:26s} {value}")
    print(f"  correct {result['correct']}  attempted {result['attempted']}"
          f"  failed {result['failed']}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"),
        help="input scale; tiny is the smoke test's",
    )
    args = parser.parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: it changes "
              "what is measured", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    report(args, result)
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
