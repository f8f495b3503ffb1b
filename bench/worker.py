"""One workload in a fresh interpreter: set up its inputs, then either stop
(`setup`), time the CLI ops (`measure`), or also replay them as traced
library calls (`trace`).  Prints one JSON object on its last stdout line.

Run by bench/run.py; see bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from inputs import WORKLOADS, Op

clock = time.perf_counter

# Spans of the traced replay that are program stages.  The benchmark's own
# spans ("op", "cli.build_parser") are left out of the stage sum, so that
# cli.unaccounted_s covers argparse, file I/O, formatting and difflib.
STAGES = (
    "er_text.parse_er", "validator.validate_notation", "forward.transform_model",
    "forward.trace_read", "rds_text.emit_rds", "rds_text.parse_rds",
    "reverse.reverse_transform", "reverse.normalize_model", "reverse.model_diff",
    "reverse.reconstruct_sog_choices", "cli.render_ddl",
)
# A measuring run makes round(--seconds / PASS_SECONDS) passes, at least two:
# 5 and 40 at the declared 40 s, so that each op runs at several moments of
# the run.  The count depends on --seconds alone, so both sides of a
# comparison do the same work however fast they are.  On the parent commit
# on a 2-core machine a pass takes about 8 and 1 s.
PASS_SECONDS = {"corpus_cli": 8.0, "large_roundtrip": 1.0}
# On a shared host one CPU can run far slower than the other for minutes,
# and a lone busy process stays on the CPU it started on.  Passes, rounds and
# set-ups therefore rotate over the CPUs this process may use.
CPUS = sorted(os.sched_getaffinity(0))
# Host speed.  On a shared host the same op can run 40% slower for minutes
# on end, so times are scaled by a reference kernel timed in bursts of
# REFERENCE_BURST between ops, at least REFERENCE_GAP_S apart, all through
# the run.  REFERENCE_MS is the kernel's typical median on the 2-CPU machine
# the benchmark was tuned on; a scaled time is what the op would take on a
# host running the kernel in that time.
REFERENCE_MS = 0.4
REFERENCE_BURST = 5
REFERENCE_GAP_S = 0.04
# Stages whose self time is fitted against model size (scale_exp).
SCALED = ("er_text.parse_er", "forward.transform_model",
          "reverse.reverse_transform", "cli.render_ddl")


def on_cpu(index: int) -> None:
    """Pin this process to one of CPUS, chosen by index."""
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


# --------------------------------------------------------------------------
# Known-answer checks


def _ddl_matches(op: Op, sql: str) -> bool:
    return (sql.count("CREATE TABLE ") == op.relations
            and sql.count("FOREIGN KEY (") == op.ddl_foreign_keys
            and "unresolved" not in sql)


def check_cli(op: Op, code: int, out: str, err: str) -> bool:
    """Whether one CLI invocation gave the op's known answer."""
    if op.command == "roundtrip":
        if op.reversible:
            return (code == 0 and err == ""
                    and out == f"round trip OK: {op.relations} relations reproduced\n")
        return code == 2 and out.startswith("round trip FAILED\n")
    if op.command == "transform":
        lines = err.splitlines()
        steps = sum(line.startswith("step ") for line in lines)
        return (code == 0 and out == "" and steps == op.trace_events
                and all(line.startswith(("step ", "    ")) for line in lines)
                and Path(op.output).read_text(encoding="utf-8") == op.rds)
    return code == 0 and err == "" and _ddl_matches(op, out)


def schema_matches(op: Op) -> bool:
    """Whether the op's model transforms to its expected schema text."""
    import er2rds as lib
    model, _ = lib.parse_er(Path(op.source).read_text(encoding="utf-8"), op.source)
    if model is None:
        return False
    cfg = lib.TransformConfig(sog_choice=dict(op.choices),
                              prefer_regular=op.prefer_regular)
    schema, _ = lib.transform_model(model, cfg)
    return lib.emit_rds(schema) == op.rds


# --------------------------------------------------------------------------
# Untraced CLI passes


def reference() -> float:
    """One timed run of the reference kernel: fixed pure-Python work, with the
    collector off so that the ops' garbage is not collected on its time."""
    gc.disable()
    try:
        start = clock()
        table = {f"k{i}": (i, str(i * 7)) for i in range(600)}
        "".join(sorted(table, key=lambda key: table[key][1]))
        return clock() - start
    finally:
        gc.enable()


def cli_pass(ops: list[Op], argvs: list[list[str]], cli_main,
             reference_times: list[float] | None = None) -> tuple[list[float], int]:
    """Run every op once through cli.main; returns op times and failures.
    With `reference_times`, a burst of reference runs follows an op whenever
    REFERENCE_GAP_S has passed since the last burst."""
    times, failed = [], 0
    last_burst = clock()
    for op, argv in zip(ops, argvs):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = clock()
            code = cli_main(argv)
            times.append(clock() - start)
        if not check_cli(op, code, out.getvalue(), err.getvalue()):
            failed += 1
        if reference_times is not None and clock() - last_burst >= REFERENCE_GAP_S:
            reference_times.extend(reference() for _ in range(REFERENCE_BURST))
            last_burst = clock()
    return times, failed


def tail(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile above the median with at least ten
    samples, and at least a twentieth of them, beyond it (nearest rank), and
    its value; the maximum (p100) when there are too few samples.  A twentieth
    keeps the corpus tail from resting on its few heaviest models, which
    change with the seed."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = max(10, math.ceil(n / 20))
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def measure(ops, argvs, cli_main, passes: int) -> dict:
    """`passes` passes over the op list.  Each op's time is the median of its
    executions, scaled to a host on which the reference kernel's median is
    REFERENCE_MS; rate, median and tail are taken over these op times.  The
    unscaled figures are returned beside them."""
    # The CLI prints only a verdict for roundtrip; where the op's schema
    # text is known, check it once, outside the timed passes.
    known = [op for op in ops if op.command == "roundtrip" and op.rds is not None]
    runs, reference_times = [], []
    failed = sum(not schema_matches(op) for op in known)
    try:
        for index in range(passes):
            on_cpu(index)
            times, pass_failed = cli_pass(ops, argvs, cli_main, reference_times)
            runs.append(times)
            failed += pass_failed
    finally:
        os.sched_setaffinity(0, CPUS)
    per_op = [statistics.median(times) for times in zip(*runs)]
    if not reference_times:
        reference_times.append(reference())
    reference_s = statistics.median(reference_times)
    scale = REFERENCE_MS / 1e3 / reference_s
    percentile, tail_s = tail(per_op)
    return {
        "ops_per_s": len(per_op) / sum(per_op) / scale,
        "op_p50_ms": statistics.median(per_op) * scale * 1e3,
        "op_tail_ms": tail_s * scale * 1e3,
        "measured_ops_per_s": len(per_op) / sum(per_op),
        "measured_op_p50_ms": statistics.median(per_op) * 1e3,
        "measured_op_tail_ms": tail_s * 1e3,
        "reference_ms": reference_s * 1e3,
        "tail_percentile": percentile,
        "samples": len(per_op),
        "passes": passes,
        "attempted": passes * len(ops) + len(known),
        "failed": failed,
    }


# --------------------------------------------------------------------------
# Traced replay


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id)."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, op_id: int) -> int:
        self.spans.append([name, clock(), None, -1, op_id])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        op_id = self.spans[parent][4] if parent >= 0 else -1
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, clock(), parent, op_id])

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result.append(end - start - covered)
        return result

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op_id}) + "\n")


def _fk_count(schema) -> int:
    return sum(a.suffix is not None for r in schema.relations for a in r.attributes)


def _read_trace(trace) -> int:
    return sum(len(line) for entry in trace for line in entry.schema_after)


def replay(op: Op, argv: list[str], tracer: Tracer, root: int, counts) -> bool:
    """Replay one op as the public calls the CLI makes; True when the replay
    reaches the op's known answer."""
    import er2rds as lib
    from er2rds import cli

    def call(name, fn, *args, **kwargs):
        return tracer.call(name, root, fn, *args, **kwargs)

    def transformed(schema, trace) -> None:
        counts["forward.trace_entries"] += len(trace)
        counts["forward.relations_out"] += len(schema.relations)

    call("cli.build_parser", lambda: cli.build_parser().parse_args(argv))
    text = Path(op.source).read_text(encoding="utf-8")
    if op.command == "ddl":
        counts["rds_bytes"] += len(text.encode())
        schema, diagnostics = call("rds_text.parse_rds", lib.parse_rds, text, op.source)
        if schema is None:
            return False
        sql, ddl_diagnostics = call("cli.render_ddl", cli.render_ddl, schema)
        return not diagnostics and not ddl_diagnostics and _ddl_matches(op, sql)

    counts["er_bytes"] += len(text.encode())
    model, _ = call("er_text.parse_er", lib.parse_er, text, op.source)
    if model is None:
        return False
    cfg = lib.TransformConfig(sog_choice=dict(op.choices),
                              prefer_regular=op.prefer_regular)
    schema, trace = call("forward.transform_model", lib.transform_model, model, cfg)
    transformed(schema, trace)
    shape_ok = (len(schema.relations) == op.relations and _fk_count(schema) == op.fks
                and len(trace) == op.trace_events)

    if op.command == "transform":
        diagnostics = call("validator.validate_notation", lib.validate_notation,
                           model, allow_extensions=False)
        call("forward.trace_read", _read_trace, trace)
        rds = call("rds_text.emit_rds", lib.emit_rds, schema)
        return shape_ok and not diagnostics and rds == op.rds

    first = call("rds_text.emit_rds", lib.emit_rds, schema)
    shape_ok = shape_ok and (op.rds is None or first == op.rds)
    reversed_model, _ = call("reverse.reverse_transform", lib.reverse_transform, schema)
    counts["fks_reversed"] += op.fks
    if reversed_model is None:
        return shape_ok and not op.reversible
    normalized = call("reverse.normalize_model", lib.normalize_model, model)
    differences = call("reverse.model_diff", lib.model_diff, normalized, reversed_model)
    counts["reverse.model_diff.unequal"] += bool(differences)
    choices = call("reverse.reconstruct_sog_choices", lib.reconstruct_sog_choices, schema)
    try:
        second_schema, second_trace = call(
            "forward.transform_model", lib.transform_model, reversed_model,
            lib.TransformConfig(sog_choice=choices))
    except lib.TransformError:
        return shape_ok and not op.reversible
    transformed(second_schema, second_trace)
    second = call("rds_text.emit_rds", lib.emit_rds, second_schema)
    return shape_ok and (not differences and second == first) == op.reversible


def _slope(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median self time) against log(relations)."""
    xs, ys = [], []
    for relations, values in points.items():
        value = statistics.median(values)
        if relations > 0 and value > 0:
            xs.append(math.log(relations))
            ys.append(math.log(value))
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def traced(ops, argvs, cli_main, seconds: float, tracer: Tracer) -> dict:
    """Rounds of one untraced CLI pass followed by one traced replay pass,
    until the next round would overrun `seconds`.  Each per-layer figure is
    the median over rounds of its per-pass value."""
    op_round, op_relations, rounds = [], [], []
    failed = attempted = 0
    start = clock()
    while True:
        round_start = clock()
        on_cpu(len(rounds))
        times, cli_failed = cli_pass(ops, argvs, cli_main)
        counts = defaultdict(float)
        for op, argv in zip(ops, argvs):
            op_round.append(len(rounds))
            op_relations.append(op.relations)
            root = tracer.begin("op", len(op_round) - 1)
            ok = replay(op, argv, tracer, root, counts)
            tracer.end(root)
            counts["traced_s"] += tracer.spans[root][2] - tracer.spans[root][1]
            failed += not ok
        rounds.append({"untraced_s": sum(times), **counts})
        failed += cli_failed
        attempted += 2 * len(ops)
        if clock() - start + (clock() - round_start) > seconds:
            break
    os.sched_setaffinity(0, CPUS)

    sums = [defaultdict(float) for _ in rounds]
    calls = [defaultdict(int) for _ in rounds]
    by_size = defaultdict(lambda: defaultdict(list))
    emit_er_s = 0.0
    for (name, _, _, _, op_id), self_s in zip(tracer.spans, tracer.self_times()):
        if op_id < 0:  # set-up: the corpus written through emit_er
            emit_er_s += self_s
            continue
        r = op_round[op_id]
        sums[r][name] += self_s
        calls[r][name] += 1
        if name in SCALED:
            by_size[name][op_relations[op_id]].append(self_s)

    def per_pass(value) -> float:
        return statistics.median(value(r, s, c) for r, s, c in zip(rounds, sums, calls))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {"er_text.emit_er.self_s": emit_er_s}
    for name in STAGES + ("cli.build_parser",):
        metrics[f"{name}.calls"] = per_pass(lambda r, s, c: c[name])
        metrics[f"{name}.self_s"] = per_pass(lambda r, s, c: s[name])
    for name in SCALED:
        metrics[f"{name}.scale_exp"] = _slope(by_size[name])
    for key in ("forward.trace_entries", "forward.relations_out",
                "reverse.model_diff.unequal"):
        metrics[key] = per_pass(lambda r, s, c: r.get(key, 0))
    metrics.update({
        "er_text.parse_er.bytes_per_s": per_pass(
            lambda r, s, c: ratio(r.get("er_bytes", 0), s["er_text.parse_er"])),
        "rds_text.parse_rds.bytes_per_s": per_pass(
            lambda r, s, c: ratio(r.get("rds_bytes", 0), s["rds_text.parse_rds"])),
        "reverse.reverse_transform.us_per_fk": per_pass(
            lambda r, s, c: ratio(s["reverse.reverse_transform"] * 1e6,
                                  r.get("fks_reversed", 0))),
        "cli.unaccounted_s": per_pass(
            lambda r, s, c: r["untraced_s"] - sum(s[name] for name in STAGES)),
        "bench.trace_overhead": per_pass(
            lambda r, s, c: ratio(r["traced_s"], r["untraced_s"])),
    })
    return {**metrics, "attempted": attempted, "failed": failed,
            "passes": len(rounds)}


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write the traced spans here")
    parser.add_argument("--cpu", type=int, help="run on this index into CPUS")
    args = parser.parse_args()
    if args.cpu is not None:
        on_cpu(args.cpu)

    started = clock()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "tests")]
    from er2rds.cli import main as cli_main
    tracer = Tracer()
    # The inputs stay in .bench_work/<workload>/ and the next set-up
    # rewrites them; runs in one checkout must not overlap.
    work = args.root / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    kwargs = {}
    if args.workload == "corpus_cli":
        kwargs["golden"] = args.root / "tests" / "golden"
        if args.mode == "trace":
            from er2rds import emit_er
            kwargs["emit_er"] = lambda model: tracer.call(
                "er_text.emit_er", -1, emit_er, model)
    ops = WORKLOADS[args.workload](work, args.seed, **kwargs)
    argvs = [op.argv() for op in ops]
    result = {"setup_s": clock() - started}
    # The inputs live as long as the run; keep them out of the collector's
    # scans, as they would be in a one-shot CLI process.
    gc.collect()
    gc.freeze()
    if args.mode == "measure":
        passes = max(2, round(args.seconds / PASS_SECONDS[args.workload]))
        result.update(measure(ops, argvs, cli_main, passes))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    elif args.mode == "trace":
        result.update(traced(ops, argvs, cli_main, args.seconds, tracer))
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
