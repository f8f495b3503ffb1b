"""Check that several Python interpreters give the same command-line results.

    python tests/check_interpreters.py PY [PY...]

The interpreter that runs the script writes the inputs once into a
temporary directory.  Then each interpreter PY runs the same fixed list of
``cli.main`` calls in one child process, with the checkout's ``src`` put
ahead of any ``PYTHONPATH`` it was given and that directory as its working
directory, so every path in the output is the same relative name:

- the golden commands on ``tests/golden/company.er`` and ``company.rds``:
  ``validate``, ``transform`` (plain, ``--trace``, ``--prefer-regular
  --trace`` and ``--sog-choice Consult=Project``), ``roundtrip`` (plain and
  ``--prefer-regular``), ``reverse`` and ``ddl``;
- ``roundtrip`` and ``transform`` on the 500 corpus models of the
  acceptance suite (``genmodels.generate_model``, seeds 0-499);
- ``validate`` and ``roundtrip`` on 3,000 ``geninputs.colliding_text``
  texts (generator seed 705), most of which the reader refuses.

For each interpreter the script prints its version, the number of calls
and one SHA-256 over every call's argv, exit code, stdout and stderr, so
equal digests mean identical output.

The same child then checks the model values' contract, which
``model.record`` gives every interpreter by the same code (under
``dataclasses``, 3.10 pickled frozen slot classes by other code than 3.11
and later).  It takes every value reachable through ``__match_args__`` from
the golden model (its ratios and entity partitions read first), the
``RdsAttribute`` values of its schema and the diagnostics of the colliding
texts.  A value fails when it is a tuple, or when ``copy.copy``,
``copy.deepcopy`` or a ``pickle`` round trip gives a value of another
class, an unequal value, an unequal hash or another instance ``__dict__``.
The script prints the number of values and of failures; they stay out of
the digest, because the hash of a ``str`` varies between processes.  A
second child of each interpreter imports ``er2rds.cli`` alone, which must
load no ``dataclasses``.

Where PY can import pytest, it also runs the tier-1 suite (``PY -m pytest
-q``) in the checkout and prints the suite's last line.  The script exits 1
when the digests differ, a value fails, an import loads ``dataclasses`` or a
suite fails.

Pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
GOLDEN = CHECKOUT / "tests" / "golden"
CORPUS_MODELS = 500
COLLIDING_TEXTS = 3000
COLLIDING_SEED = 705
GOLDEN_CALLS = (
    ["validate", "company.er"],
    ["transform", "company.er"],
    ["transform", "company.er", "--trace"],
    ["transform", "company.er", "--prefer-regular", "--trace"],
    ["transform", "company.er", "--sog-choice", "Consult=Project"],
    ["roundtrip", "company.er"],
    ["roundtrip", "company.er", "--prefer-regular"],
    ["reverse", "company.rds"],
    ["ddl", "company.rds"],
)


def write_inputs(work: Path) -> list[list[str]]:
    """Write the input files into ``work``; returns the argv of every call,
    with paths relative to ``work``."""
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "tests")]
    from er2rds import emit_er
    from geninputs import colliding_text
    from genmodels import generate_model

    for name in ("company.er", "company.rds"):
        shutil.copyfile(GOLDEN / name, work / name)
    calls = [list(argv) for argv in GOLDEN_CALLS]
    for seed in range(CORPUS_MODELS):
        name = f"model{seed}.er"
        (work / name).write_text(emit_er(generate_model(seed)), encoding="utf-8")
        calls += [["roundtrip", name], ["transform", name]]
    rng = random.Random(COLLIDING_SEED)
    for index in range(COLLIDING_TEXTS):
        name = f"colliding{index}.er"
        (work / name).write_text(colliding_text(rng), encoding="utf-8")
        calls += [["validate", name], ["roundtrip", name]]
    return calls


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
    for index in range(COLLIDING_TEXTS):
        parsed, diagnostics = parse_er(
            Path(f"colliding{index}.er").read_text(encoding="utf-8"))
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


def run_calls(calls_file: str) -> None:
    """Run each call of ``calls_file`` through ``cli.main`` in this process,
    then check the model values; print the interpreter version, the call
    count, the digest and the value counts as JSON."""
    from er2rds.cli import main

    calls = json.loads(Path(calls_file).read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()])
                      .encode("utf-8") + b"\n")
    values = contract_values()
    print(json.dumps({"version": sys.version.split()[0], "calls": len(calls),
                      "sha256": digest.hexdigest(), "values": len(values),
                      "value_failures": check_values(values)}))


def check(python: str, work: Path, calls_file: Path) -> tuple[str, bool]:
    """The digest of ``python``'s calls, and whether its model values all
    passed, its import of ``er2rds.cli`` loaded no ``dataclasses`` and its
    tier-1 run passed (True where it cannot import pytest)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(CHECKOUT / "src"), os.environ.get("PYTHONPATH")))))
    child = subprocess.run([python, str(Path(__file__).resolve()), "--calls",
                            str(calls_file)], cwd=work, env=env,
                           capture_output=True, text=True)
    if child.returncode != 0:
        sys.exit(f"check_interpreters: {python} failed:\n{child.stderr}")
    result = json.loads(child.stdout)
    print(f"{python}: Python {result['version']}, {result['calls']} calls, "
          f"sha256 {result['sha256']}")
    print(f"{python}: {result['values']} model values, "
          f"{result['value_failures']} value-contract failure(s)")
    imported = subprocess.run([python, "-c", "import sys, er2rds.cli; "
                               "print('dataclasses' in sys.modules)"],
                              env=env, capture_output=True, text=True).stdout.strip()
    print(f"{python}: import er2rds.cli loads dataclasses: {imported}")
    passed = result["value_failures"] == 0 and imported == "False"
    has_pytest = subprocess.run([python, "-c", "import pytest"],
                                capture_output=True).returncode == 0
    if not has_pytest:
        print(f"{python}: pytest does not import, tier-1 not run")
        return result["sha256"], passed
    suite = subprocess.run([python, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                           cwd=CHECKOUT, env=env, capture_output=True, text=True)
    last = (suite.stdout.strip().splitlines() or [""])[-1]
    print(f"{python}: tier-1 {last}")
    return result["sha256"], passed and suite.returncode == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="*", metavar="PY")
    parser.add_argument("--calls", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.calls:
        run_calls(args.calls)
        return
    if not args.pythons:
        parser.error("name at least one interpreter")
    with tempfile.TemporaryDirectory() as work:
        calls_file = Path(work) / "calls.json"
        calls_file.write_text(json.dumps(write_inputs(Path(work))), encoding="utf-8")
        results = [check(python, Path(work), calls_file) for python in args.pythons]
    digests = {digest for digest, _ in results}
    failed = sum(not passed for _, passed in results)
    print(f"check_interpreters: {len(digests)} distinct digest(s) over "
          f"{len(results)} interpreter(s), {failed} failing the values, the "
          f"import or the suite")
    if len(digests) > 1 or failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
