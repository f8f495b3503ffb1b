"""The er2rds benchmark.

    python3 bench/run.py --seed 1                  # every workload, one row each
    python3 bench/run.py --workload corpus_cli --seed 1 --seconds 40 --trace 0

Each workload runs in fresh interpreters (bench/worker.py) from the root of a
checkout: a few that only set up, for the set-up time, then one that times the
workload's CLI ops (`--trace 0`, end-to-end metrics) or also replays them as
traced library calls (`--trace 1`, per-layer metrics).  Metric names and
units come from BENCHMARK.json.  With `--workload NAME` the last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is non-zero when an output check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/er2rds/cli.py", "tests/genmodels.py", "tests/golden/company.er",
            "tests/golden/company.rds", "tests/golden/company_consult_project.rds")
SETUP_SAMPLES = 9       # set-up times per run; the median is reported
RUN_LIMIT_S = 170       # a run must end within 180 s


class BenchError(Exception):
    pass


def _worker(mode: str, workload: str, seed: int, seconds: float,
            timeout: float, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--root", str(ROOT), *extra]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} worker ran past {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: {mode} worker failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Raw figures of one workload: the measuring worker's result, with
    setup_s replaced by the median over SETUP_SAMPLES set-ups."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        spans = ROOT / ".bench_work" / f"spans-{workload}.jsonl"
        return _worker("trace", workload, seed, seconds,
                       deadline - time.monotonic(), "--spans", str(spans))
    # Set-ups before and after the measuring worker, on alternate CPUs, so
    # that the median spans the whole run rather than one moment of one CPU
    # of a shared machine.
    def setup(index: int) -> float:
        return _worker("setup", workload, seed, seconds,
                       min(30.0, deadline - time.monotonic()),
                       "--cpu", str(index))["setup_s"]

    setups = [setup(i) for i in range(SETUP_SAMPLES // 2)]
    result = _worker("measure", workload, seed, seconds, deadline - time.monotonic())
    setups += [result["setup_s"]]
    setups += [setup(i) for i in range(len(setups), SETUP_SAMPLES)]
    result["setup_s"] = statistics.median(setups)
    result["error_rate"] = result["failed"] / result["attempted"]
    return result


def report(raw: dict, declared: list[dict]) -> dict:
    """The result object: the declared metrics, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in raw]
    if missing:
        raise BenchError(f"worker reported no {', '.join(missing)}")
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def row(workload: str, result: dict, raw: dict) -> str:
    cells = [f"{name}={m['value']:.6g} {m['unit']}"
             for name, m in result["metrics"].items()]
    if "tail_percentile" in raw:
        cells.append(f"op_tail=p{raw['tail_percentile']} of {raw['samples']} samples")
        cells.append(f"error_rate={raw['error_rate']:.6g} ratio")
        cells += [f"{name}={raw[name]:.6g} {unit}" for name, unit in (
            ("measured_ops_per_s", "ops/s"), ("measured_op_p50_ms", "ms"),
            ("measured_op_tail_ms", "ms"), ("reference_ms", "ms"))]
    cells.append(f"passes={raw['passes']}")
    return f"{workload}: " + ", ".join(cells)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the er2rds benchmark workloads.")
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"bench: not in an er2rds checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    correct = True
    try:
        for workload in workloads:
            raw = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            result = report(raw, declared)
            print(row(workload, result, raw), flush=True)
            correct = correct and result["correct"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
