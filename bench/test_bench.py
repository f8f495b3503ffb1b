"""Smoke test of the benchmark at its smallest size.

    PYTHONPATH=src python -m pytest bench

Outside the tier-1 suite, which collects only tests/.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import inputs  # noqa: E402
import worker  # noqa: E402
from er2rds import emit_rds, parse_er, transform_model  # noqa: E402
from er2rds.cli import main as cli_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {
    "corpus_cli": {"golden": ROOT / "tests" / "golden", "count": 3},
    "large_roundtrip": {"sizes": (2, 4)},
}


@pytest.mark.parametrize("n", [2, 4, 10])
def test_scaled_model_expectations_hold(n):
    scaled = inputs.scaled_model(n, seed=7)
    model, diagnostics = parse_er(scaled.er)
    assert model is not None and diagnostics == []
    schema, trace = transform_model(model)
    assert emit_rds(schema) == scaled.rds
    assert scaled.relations == 5 * n // 2 and scaled.fks == 3 * n // 2 - 1
    assert len(trace) == scaled.relations + scaled.fks


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_one_pass_each_way_meets_every_known_answer(workload, tmp_path):
    ops = inputs.WORKLOADS[workload](tmp_path, 3, **SMALL[workload])
    argvs = [op.argv() for op in ops]
    measured = worker.measure(ops, argvs, cli_main, passes=1)
    known = sum(op.command == "roundtrip" and op.rds is not None for op in ops)
    assert known >= 1
    assert measured["failed"] == 0 and measured["attempted"] == len(ops) + known
    traced = worker.traced(ops, argvs, cli_main, 0, worker.Tracer())
    assert traced["failed"] == 0 and traced["attempted"] == 2 * len(ops)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert end_to_end <= measured.keys()
    assert {m["name"] for m in SPEC["per_layer"]} <= traced.keys()


def test_a_wrong_answer_is_counted_as_failed(tmp_path):
    ops = inputs.large_roundtrip_ops(tmp_path, 3, sizes=(2,))
    wrong = [inputs.Op(op.command, op.source, op.relations + 1, op.entities, op.fks)
             for op in ops]
    assert worker.measure(wrong, [op.argv() for op in wrong], cli_main, 1)["failed"] == 1


def test_a_wrong_schema_is_counted_as_failed(tmp_path):
    ops = [dataclasses.replace(op, rds=op.rds + "\n")
           for op in inputs.large_roundtrip_ops(tmp_path, 3, sizes=(2,))]
    assert worker.measure(ops, [op.argv() for op in ops], cli_main, 1)["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
