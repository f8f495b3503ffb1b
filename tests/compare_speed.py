"""Compare two er2rds source trees in one process: outputs, then speed.

    python tests/compare_speed.py OLD_SRC NEW_SRC [--rounds N] [--startup PAIRS]

OLD_SRC and NEW_SRC are directories that each hold an ``er2rds`` package,
such as the ``src`` directory of two checkouts.  Both trees are loaded under
distinct package names, so their calls can interleave in one interpreter
and meet the same phases of a shared host.

First, 20,000 models from ``geninputs.model_spec`` are built in code in
both trees from one fixed seed (generator seed 19), with names drawn from a
small alphabet of capitalized, lowercase, plural, non-alphabetic and
dangling names, and participation pairs drawn from ``geninputs.PAIRS``: the
four of the notation and three outside it (``2..n``, ``1..5``, ``0..N``).
With ``extensions`` false and true, ``validate_notation`` must return the
same ``(rule_id, severity, message, line, column, element)`` list in both
trees for each of them, and ``forward.gated_transform`` the same emitted
schema text (or None), events and diagnostics.  Each built model must also
have the same ``repr`` and ``hash`` in both trees.  Parsed text never
reaches ``R2.5.2``, a dangling or repeated name or a pair outside the
notation, since the parser refuses them, so only models built in code can
show a difference there.  A second batch of 20,000 (generator seed 23,
``geninputs.step_spec``) draws only clean names, so that about one run in
ten passes the gate.  For every run that the gate passes, the script also
counts how often the new tree's ``parse_er`` refuses the model's ``emit_er``
text and its ``parse_rds`` the schema's ``emit_rds`` text; the gate
promises 0.

Then every call of ``callset.py`` (39,976 ``cli.main`` calls, run in the
directory of its inputs with ``COLUMNS=80``) must give the same exit code,
stdout, stderr and ``-o`` file in both trees.  Each check counts every model
or call that differs, prints the first three and goes on, so a change that
alters some outcomes on purpose still reaches the later checks and the
timing; calls are counted and shown per kind of block, with the block's
label.  The script stops after the checks with ``--rounds 0``, and exits 1
at the end, after the checks or after the timing, when anything differed.

Before timing, it collects and freezes the heap (``gc.collect()``,
``gc.freeze()``), as the benchmark's worker does after its set-up, so that
the inputs and what the checks left behind stay out of the collector's
scans.  Four workloads are the call set's blocks of that name: ``corpus``
(round trips of 500 models under every side choice), ``large`` (round trips
of 100 to 400 relations), ``errors`` (``validate`` of texts that mostly
fail to parse, which times the positioned reader) and ``schemas``
(``reverse`` and ``ddl`` of the large models' schemas).  Each round times
one pass of each tree over each workload, and the script prints ops/s per
tree and the ratio NEW/OLD, both for the summed time and as the median of
the per-round ratios.  Inside a round the two trees take turns op by op, so
a slow phase of the host slows both.

With ``--startup PAIRS`` the script then times a fifth workload,
``startup``, in fresh interpreters: each copies both trees' ``er2rds`` into
a temporary directory and runs PAIRS pairs of child processes, the two
trees alternating which runs first.  Each child runs with
``python -X importtime``, times ``import er2rds.cli`` and one ``roundtrip``
with ``time.perf_counter``, and reports that time and the sum of the
``er2rds.*`` self times that ``-X importtime`` prints.  The round trip is
of ``tests/golden/company.er``, which succeeds, and, in another PAIRS
pairs, of ``FAILING_TEXT``, which fails in ``model_diff``.  It runs under
two conditions: with ``PYTHONDONTWRITEBYTECODE=1`` on copies with no
bytecode, so that every er2rds module is compiled from source in every
child, as in the benchmark's set-up; and on copies whose bytecode
``compileall`` wrote first.  For each model and condition it prints each
tree's median, the median and quartiles of the paired differences (new
minus old) with the pairs the new tree won, and each tree's median
import self time.  ``--startup 0``, the default, skips it.

Pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib.util
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import callset

# Passes over each workload's ops in one round, so that a round of each
# workload lasts about as long as one of the corpus.
REPEATS = {"corpus": 1, "large": 40, "errors": 6, "schemas": 40}
VALIDATOR_MODELS = 20000
VALIDATOR_SEED = 19
# A second batch, from geninputs.step_spec, draws only clean names, so that
# more of its models pass the gate (about one run in ten).
STEP_MODELS = 20000
STEP_SEED = 23
# Differences printed per check; every one is counted.
SHOWN = 3
# A model whose round trip fails in model_diff: the multivalued attribute's
# relation reads back as an entity of its own.
FAILING_TEXT = "entity Ivory { key IvoNo; multi IvoryNo; }\n"
# What each child of the startup workload runs, with the tree's copy and the
# model as arguments; it prints the seconds from before the import to after
# the round trip, and the exit code.
STARTUP_CHILD = """\
import io, sys, time
from contextlib import redirect_stdout
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from er2rds.cli import main
with redirect_stdout(io.StringIO()):
    code = main(["roundtrip", sys.argv[2]])
print(time.perf_counter() - started, code)
"""


def load(src: Path, name: str):
    """Import ``src/er2rds`` as the package ``name``, with its cli module;
    returns the package."""
    init = src / "er2rds" / "__init__.py"
    if not init.is_file():
        sys.exit(f"compare_speed: no er2rds package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def show(label: str, differences: list[str]) -> str:
    """Print the first ``SHOWN`` differences a check found; returns
    "identical" or "N differing" for its summary line."""
    for difference in differences[:SHOWN]:
        print(f"{label}: {difference}")
    if len(differences) > SHOWN:
        print(f"{label}: ... and {len(differences) - SHOWN} more")
    return f"{len(differences)} differing" if differences else "identical"


def check_validator(old, new, draw, models: int, seed: int) -> int:
    """Count the runs on models built in code, under either ``extensions``
    value, on which the two packages' ``validate_notation`` or
    ``forward.gated_transform`` differ, and the models whose ``repr`` or
    ``hash`` differs; print the first few of each and how many runs were
    compared, how many had findings and how many transformed.  Of the runs
    that the gate passes, also print how many the new tree's readers refuse:
    ``parse_er`` on the model's ``emit_er`` text, and ``parse_rds`` on the
    schema text.  Returns the number of differences."""
    from geninputs import build_model

    rng = random.Random(seed)
    with_findings = transformed = er_refused = rds_refused = 0
    differences: list[str] = []
    stored: list[str] = []
    for index in range(models):
        spec = draw(rng)
        built = build_model(old, spec), build_model(new, spec)
        if (repr(built[0]) != repr(built[1])
                or hash(built[0]) != hash(built[1])):
            stored.append(f"repr or hash differs on model {index} (seed {seed}): "
                          f"{spec}")
        for extensions in (False, True):
            old_found, new_found = (
                rows(package.validate_notation(model, extensions))
                for package, model in zip((old, new), built))
            if old_found != new_found:
                differences.append(f"validate_notation differs on model {index} "
                                   f"(seed {seed}, allow_extensions={extensions}): "
                                   f"{spec}")
            with_findings += bool(old_found)
            old_gated, new_gated = (
                gated(package, model, extensions)
                for package, model in zip((old, new), built))
            if old_gated != new_gated:
                differences.append(f"gated_transform differs on model {index} "
                                   f"(seed {seed}, extensions={extensions}): {spec}")
            schema_text = new_gated[0]
            if schema_text is not None:
                transformed += 1
                er_refused += new.parse_er(new.emit_er(built[1]))[0] is None
                rds_refused += new.parse_rds(schema_text)[0] is None
    print(f"{draw.__name__}: {models} models built in code give "
          f"{show(draw.__name__, differences)} validate_notation and "
          f"gated_transform results under both extensions values "
          f"({with_findings} of {2 * models} runs with findings, "
          f"{transformed} transformed)")
    print(f"{draw.__name__}: {models} models built in code give "
          f"{show(draw.__name__, stored)} repr and hash")
    print(f"{draw.__name__}: of the {transformed} runs the gate passes, parse_er "
          f"refuses the emit_er text of {er_refused} and parse_rds the emit_rds "
          f"text of {rds_refused}")
    return len(differences) + len(stored)


def rows(diagnostics) -> list[tuple]:
    return [(d.rule_id, d.severity.value, d.message, d.line, d.column, d.element)
            for d in diagnostics]


def gated(package, model, extensions: bool) -> tuple:
    """``forward.gated_transform`` as plain data: the emitted schema text or
    None, the events, and the diagnostics as tuples."""
    schema, events, diagnostics = package.forward.gated_transform(
        model, package.TransformConfig(extensions=extensions))
    return (None if schema is None else package.emit_rds(schema), events,
            rows(diagnostics))


def check_calls(old, new, kinds: dict[str, list[tuple[str, list[str]]]]) -> int:
    """Count the calls of each kind whose outcome differs between the two
    trees and print the first few with their block's label; print how many
    calls were compared.  Returns the number of differences."""
    differing = 0
    for kind, calls in kinds.items():
        differences = [f"{' '.join(argv)} differs between the two trees, in "
                       f"block {label}"
                       for label, argv in calls
                       if callset.outcome(old, argv) != callset.outcome(new, argv)]
        print(f"{kind}: {len(calls)} calls give {show(kind, differences)} exit "
              f"codes, stdout, stderr and -o files")
        differing += len(differences)
    print(f"identity: {sum(map(len, kinds.values()))} calls give "
          f"{f'{differing} differing' if differing else 'identical'} exit codes, "
          f"stdout, stderr and -o files")
    return differing


def timed_round(old, new, argvs: list[list[str]], flip: bool) -> tuple[float, float]:
    """One pass of each tree over ``argvs``, op by op: each op runs in both
    trees back to back, the order alternating from op to op.  Returns the
    summed times of the old and the new tree."""
    clock = time.perf_counter
    times = [0.0, 0.0]
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        for index, argv in enumerate(argvs):
            for side in ((0, 1) if (index % 2 == 0) != flip else (1, 0)):
                main = (old, new)[side]
                start = clock()
                main(argv)
                times[side] += clock() - start
            sink.seek(0)
            sink.truncate()
    return times[0], times[1]


def time_workloads(old, new, workloads: dict[str, list[list[str]]],
                   rounds: int) -> None:
    """Time ``rounds`` rounds of each workload and print the rates."""
    gc.collect()
    gc.freeze()
    for workload, argvs in workloads.items():
        argvs = argvs * REPEATS[workload]
        old_times, new_times = [], []
        for round_ in range(rounds):
            old_time, new_time = timed_round(old, new, argvs, round_ % 2 == 1)
            old_times.append(old_time)
            new_times.append(new_time)
        ops = len(argvs)
        old_rate = ops * rounds / sum(old_times)
        new_rate = ops * rounds / sum(new_times)
        ratios = [o / n for o, n in zip(old_times, new_times)]
        print(f"{workload}: old {old_rate:.1f} ops/s, new {new_rate:.1f} ops/s, "
              f"ratio {new_rate / old_rate:.3f} "
              f"(median of {rounds} rounds {statistics.median(ratios):.3f}, "
              f"range {min(ratios):.3f}-{max(ratios):.3f})")


def startup_child(tree: Path, model: Path, code: int,
                  env: dict[str, str]) -> tuple[float, float]:
    """One fresh interpreter's seconds for the import and the round trip of
    ``model``, which must exit with ``code``, and the sum of its ``er2rds.*``
    import self times in seconds."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", STARTUP_CHILD, str(tree),
         str(model)], capture_output=True, text=True, env=env)
    if child.returncode != 0 or not child.stdout.endswith(f" {code}\n"):
        sys.exit(f"compare_speed: the startup child of {tree} failed:\n{child.stderr}")
    self_us = 0
    for line in child.stderr.splitlines():
        # "import time: SELF | CUMULATIVE | NAME", self and cumulative in µs
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().startswith("er2rds"):
            self_us += int(fields[0])
    return float(child.stdout.split()[0]), self_us / 1e6


def time_startup(old_src: Path, new_src: Path, pairs: int) -> None:
    """Time the startup workload on each model under both bytecode
    conditions and print the figures of each."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as work:
        failing = Path(work) / "failing.er"
        failing.write_text(FAILING_TEXT, encoding="utf-8")
        for condition, cached in (("compiled from source", False),
                                  ("bytecode cached", True)):
            trees = []
            for side, src in (("old", old_src), ("new", new_src)):
                tree = Path(work) / f"{side}-{int(cached)}"
                shutil.copytree(src / "er2rds", tree / "er2rds",
                                ignore=shutil.ignore_patterns("__pycache__"))
                if cached:
                    compileall.compile_dir(tree, quiet=1)
                trees.append(tree)
            child_env = env if cached else dict(env, PYTHONDONTWRITEBYTECODE="1")
            for label, model, code in (("golden", callset.GOLDEN / "company.er", 0),
                                       ("failing", failing, 2)):
                times: tuple[list, list] = ([], [])
                imports: tuple[list, list] = ([], [])
                for pair in range(pairs):
                    for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                        seconds, self_s = startup_child(trees[side], model, code,
                                                        child_env)
                        times[side].append(seconds)
                        imports[side].append(self_s)
                differences = [new - old for old, new in zip(*times)]
                low, _, high = (statistics.quantiles(differences, n=4) if pairs > 1
                                else differences * 3)
                won = sum(new < old for old, new in zip(*times))
                old_ms, new_ms = (statistics.median(side) * 1e3 for side in times)
                old_import, new_import = (statistics.median(side) * 1e3
                                          for side in imports)
                print(f"startup {label}, {condition}: old {old_ms:.1f} ms, new "
                      f"{new_ms:.1f} ms; new - old median "
                      f"{statistics.median(differences) * 1e3:+.1f} ms (quartiles "
                      f"{low * 1e3:+.1f} to {high * 1e3:+.1f}), new faster in {won} "
                      f"of {pairs} pairs; er2rds.* import self time old "
                      f"{old_import:.1f} ms, new {new_import:.1f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--rounds", type=int, default=10,
                        help="timed rounds per workload (default 10; 0 runs "
                             "the checks only)")
    parser.add_argument("--startup", type=int, default=0, metavar="PAIRS",
                        help="pairs of fresh interpreters per bytecode condition "
                             "for the startup workload (default 0: not run)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.new_src.resolve()))  # geninputs imports er2rds by name
    from geninputs import model_spec, step_spec

    old_package = load(args.old_src.resolve(), "er2rds_old")
    new_package = load(args.new_src.resolve(), "er2rds_new")
    differing = check_validator(old_package, new_package, model_spec,
                                VALIDATOR_MODELS, VALIDATOR_SEED)
    differing += check_validator(old_package, new_package, step_spec, STEP_MODELS,
                                 STEP_SEED)
    old, new = old_package.cli.main, new_package.cli.main

    os.environ["COLUMNS"] = callset.COLUMNS
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        kinds: dict[str, list[tuple[str, list[str]]]] = {}
        for label, calls in callset.write_inputs(Path(work)):
            kinds.setdefault(label.split()[0], []).extend((label, argv) for argv in calls)
        os.chdir(work)
        differing += check_calls(old, new, kinds)
        if args.rounds > 0:
            time_workloads(old, new, {kind: [argv for _, argv in kinds[kind]]
                                      for kind in REPEATS}, args.rounds)
        os.chdir(home)
    if args.startup > 0:
        time_startup(args.old_src.resolve(), args.new_src.resolve(), args.startup)
    if differing:
        sys.exit(f"compare_speed: {differing} differences between the two trees")


if __name__ == "__main__":
    main()
