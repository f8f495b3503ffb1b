"""Compare the speed of two er2rds source trees in one process.

    python tests/compare_speed.py OLD_SRC NEW_SRC [--seed S] [--rounds N]

OLD_SRC and NEW_SRC are directories that each hold an ``er2rds`` package,
such as the ``src`` directory of two checkouts.  Both trees are loaded under
distinct package names, so their calls can interleave in one interpreter
and meet the same phases of a shared host.  Two workloads are run through
each tree's ``cli.main``, in memory apart from the input files:

- ``corpus``: ``roundtrip`` over 500 models from ``genmodels.generate_model``
  (model seeds ``500·S … 500·S+499``), with no options, with every
  combination of ``--sog-choice`` and with ``--prefer-regular``;
- ``large``: ``roundtrip`` over ``genmodels.scaled_model(n)`` at n = 40, 80
  and 160 (100, 200 and 400 relations).

Before any timing, every op must give the same exit code, stdout and stderr
in both trees; the script stops at the first op that does not.  Then each
round times one pass of each tree over each workload, and the script
prints ops/s per tree and the ratio NEW/OLD, both for the summed time and
as the median of the per-round ratios.  Inside a round the
two trees take turns op by op, so a slow phase of the host slows both.

Pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

CORPUS_MODELS = 500
LARGE_SIZES = (40, 80, 160)
# Passes over each workload's ops in one round, so that a round of the large
# workload lasts about as long as one of the corpus.
REPEATS = {"corpus": 1, "large": 10}


def load(src: Path, name: str):
    """Import ``src/er2rds`` as the package ``name``; returns its cli module."""
    init = src / "er2rds" / "__init__.py"
    if not init.is_file():
        sys.exit(f"compare_speed: no er2rds package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def write_inputs(work: Path, seed: int, new_src: Path) -> dict[str, list[list[str]]]:
    """Write the input models; returns the argv lists of each workload."""
    sys.path.insert(0, str(new_src))  # genmodels imports er2rds by name
    from er2rds import emit_er
    from genmodels import generate_model, scaled_model, sog_configs

    corpus = []
    for index in range(CORPUS_MODELS):
        model = generate_model(seed * CORPUS_MODELS + index)
        path = work / f"model{index}.er"
        path.write_text(emit_er(model), encoding="utf-8")
        corpus.append(["roundtrip", str(path)])
        for choices in sog_configs(model):
            if choices:
                argv = ["roundtrip", str(path)]
                for relationship, participant in choices.items():
                    argv += ["--sog-choice", f"{relationship}={participant}"]
                corpus.append(argv)
        corpus.append(["roundtrip", str(path), "--prefer-regular"])
    large = []
    for n in LARGE_SIZES:
        path = work / f"scaled{n}.er"
        path.write_text(emit_er(scaled_model(n)), encoding="utf-8")
        large.append(["roundtrip", str(path)])
    return {"corpus": corpus, "large": large}


def call(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seed", type=int, default=1,
                        help="corpus seed (default 1)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="timed rounds per workload (default 10)")
    args = parser.parse_args()
    old = load(args.old_src.resolve(), "er2rds_old").main
    new = load(args.new_src.resolve(), "er2rds_new").main

    with tempfile.TemporaryDirectory() as work:
        workloads = write_inputs(Path(work), args.seed, args.new_src.resolve())
        for workload, argvs in workloads.items():
            for argv in argvs:
                if call(old, argv) != call(new, argv):
                    sys.exit(f"compare_speed: {workload} op {' '.join(argv)} "
                             f"differs between the two trees")
            print(f"{workload}: {len(argvs)} ops give identical exit codes, "
                  f"stdout and stderr")

        for workload, argvs in workloads.items():
            argvs = argvs * REPEATS[workload]
            old_times, new_times = [], []
            for round_ in range(args.rounds):
                old_time, new_time = timed_round(old, new, argvs, round_ % 2 == 1)
                old_times.append(old_time)
                new_times.append(new_time)
            ops = len(argvs)
            old_rate = ops * args.rounds / sum(old_times)
            new_rate = ops * args.rounds / sum(new_times)
            ratios = [o / n for o, n in zip(old_times, new_times)]
            print(f"{workload}: old {old_rate:.1f} ops/s, new {new_rate:.1f} ops/s, "
                  f"ratio {new_rate / old_rate:.3f} "
                  f"(median of {args.rounds} rounds {statistics.median(ratios):.3f}, "
                  f"range {min(ratios):.3f}-{max(ratios):.3f})")


if __name__ == "__main__":
    main()
