"""Check that several Python interpreters give the pinned command-line bytes.

    python tests/check_interpreters.py PY [PY...]

The interpreter that runs the script writes the inputs of ``callset.py``
once into a temporary directory.  Each interpreter PY then runs every block
of calls through ``cli.main`` in a child process, with the checkout's
``src`` put ahead of any ``PYTHONPATH`` it was given, that directory as its
working directory and ``COLUMNS=80``.  It does so twice, in fresh processes
under ``PYTHONHASHSEED=0`` and ``=1``, so output that hangs on the order of
a hashed set shows.  For each run the script prints how many of the blocks
match ``tests/golden/cli_digests.txt``, then the new line of each block that
does not, in the file's own form, ready to paste there when the output
changed on purpose.

The same child then checks the model values' contract.  It takes every
value reachable through ``__match_args__`` from the golden model (its
ratios and entity partitions read first), the ``RdsAttribute`` values of
its schema and the diagnostics of the call set's 3,000 ``colliding`` texts.
A value fails when it is a tuple, or when ``copy.copy``, ``copy.deepcopy``
or a ``pickle`` round trip gives a value of another class, an unequal value,
an unequal hash or another instance ``__dict__``.  The script prints the
number of values and of failures.  A second child of each interpreter
imports ``er2rds.cli`` alone, which must load no ``dataclasses``.

Where PY can import pytest, it also runs the tier-1 suite (``PY -m pytest
-q``) in the checkout and prints the suite's last line.  The script exits 1
when a block differs, a value fails, an import loads ``dataclasses`` or a
suite fails.

Pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import callset

CHECKOUT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "1")


def contract_values() -> list:
    """The model values that ``check_values`` checks, read from the input
    files in the working directory."""
    from er2rds import parse_er, transform_model, validate_notation

    values = []

    def walk(item) -> None:
        if hasattr(item, "__match_args__"):
            values.append(item)
            for name in item.__match_args__:
                walk(getattr(item, name))
        elif isinstance(item, tuple):
            for member in item:
                walk(member)

    model, _ = parse_er(Path("company.er").read_text(encoding="utf-8"))
    for entity in model.entities:
        entity.keys()
    walk((model, model.ratios))
    schema, _ = transform_model(model)
    walk(tuple(attr for relation in schema.relations for attr in relation.attributes))
    for path in Path().glob("colliding*.er"):
        parsed, diagnostics = parse_er(path.read_text(encoding="utf-8"))
        walk(tuple(diagnostics))
        if parsed is not None:
            walk(tuple(validate_notation(parsed)))
    return values


def equal(copied, value) -> bool:
    """Whether ``copied`` is a value of ``value``'s class, equal to it and with
    its hash."""
    return type(copied) is type(value) and copied == value and hash(copied) == hash(value)


def check_values(values: list) -> int:
    """The number of ``values`` that are tuples, or that do not copy and
    pickle to an equal value with an equal ``__dict__``."""
    failures = 0
    for value in values:
        copies = (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value)))
        failures += isinstance(value, tuple) or not all(
            equal(copied, value)
            and getattr(copied, "__dict__", None) == getattr(value, "__dict__", None)
            for copied in copies)
    return failures


def run_blocks(blocks_file: str) -> None:
    """Run each block of ``blocks_file`` through ``cli.main`` in this
    process, then check the model values; print the interpreter version,
    the digest lines and the value counts as JSON."""
    from er2rds.cli import main

    blocks = json.loads(Path(blocks_file).read_text(encoding="utf-8"))
    lines = [callset.digest_line(main, label, calls) for label, calls in blocks]
    values = contract_values()
    print(json.dumps({"version": sys.version.split()[0], "lines": lines,
                      "values": len(values), "value_failures": check_values(values)}))


def check(python: str, work: Path, blocks_file: Path) -> bool:
    """Whether ``python``'s blocks all match the golden digests under each
    hash seed, its model values all passed, its import of ``er2rds.cli``
    loaded no ``dataclasses`` and its tier-1 run passed (where it imports
    pytest)."""
    env = dict(os.environ, COLUMNS=callset.COLUMNS, PYTHONPATH=os.pathsep.join(
        filter(None, (str(CHECKOUT / "src"), os.environ.get("PYTHONPATH")))))
    golden = set(callset.golden_lines())
    passed = True
    for seed in HASH_SEEDS:
        child = subprocess.run([python, str(Path(__file__).resolve()), "--calls",
                                str(blocks_file)], cwd=work, capture_output=True,
                               env=dict(env, PYTHONHASHSEED=seed), text=True)
        if child.returncode != 0:
            sys.exit(f"check_interpreters: {python} failed:\n{child.stderr}")
        result = json.loads(child.stdout)
        differing = [line for line in result["lines"] if line not in golden]
        print(f"{python}: Python {result['version']}, PYTHONHASHSEED={seed}: "
              f"{len(result['lines']) - len(differing)} of {len(result['lines'])} "
              f"blocks match cli_digests.txt; {result['values']} model values, "
              f"{result['value_failures']} value-contract failure(s)")
        for line in differing:
            print(line)
        passed &= not differing and result["value_failures"] == 0
    imported = subprocess.run([python, "-c", "import sys, er2rds.cli; "
                               "print('dataclasses' in sys.modules)"],
                              env=env, capture_output=True, text=True).stdout.strip()
    print(f"{python}: import er2rds.cli loads dataclasses: {imported}")
    passed &= imported == "False"
    has_pytest = subprocess.run([python, "-c", "import pytest"],
                                capture_output=True).returncode == 0
    if not has_pytest:
        print(f"{python}: pytest does not import, tier-1 not run")
        return passed
    suite = subprocess.run([python, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                           cwd=CHECKOUT, env=env, capture_output=True, text=True)
    last = (suite.stdout.strip().splitlines() or [""])[-1]
    print(f"{python}: tier-1 {last}")
    return passed and suite.returncode == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="*", metavar="PY")
    parser.add_argument("--calls", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.calls:
        run_blocks(args.calls)
        return
    if not args.pythons:
        parser.error("name at least one interpreter")
    sys.path.insert(0, str(CHECKOUT / "src"))
    with tempfile.TemporaryDirectory() as work:
        blocks_file = Path(work) / "blocks.json"
        blocks_file.write_text(json.dumps(callset.write_inputs(Path(work))),
                               encoding="utf-8")
        failed = sum(not check(python, Path(work), blocks_file)
                     for python in args.pythons)
    print(f"check_interpreters: {failed} of {len(args.pythons)} interpreter(s) "
          f"failing the digests, the values, the import or the suite")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
