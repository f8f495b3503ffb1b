"""The command-line calls whose bytes the project pins, in named blocks.

``write_inputs(work)`` writes every input file into the directory ``work``
and returns the calls as blocks of at most 100 ``cli.main`` argument lists,
each labelled ``KIND START-END`` by its kind and its place in that kind.
Every path in a call is relative to ``work``, and every ``-o`` file is
``written``, so the calls run with ``work`` as the working directory, and
with ``COLUMNS`` set to ``COLUMNS``, since argparse sizes help and usage
text from it.  The kinds, in order:

- ``edges``: the golden commands on ``company.er`` and ``company.rds``
  (``validate``, ``transform`` plain, with ``--trace``, ``--prefer-regular
  --trace`` and ``--sog-choice Consult=Project``, ``roundtrip`` plain and
  with ``--prefer-regular``, ``reverse``, ``ddl``); every command on a
  missing file and on a file that is not UTF-8; ``-o`` into a missing
  directory; usage errors; and lines that ``cli.main`` leaves to argparse:
  an abbreviated flag, ``--output=FILE``, ``-oFILE``, ``--`` before the
  input, ``-h``, and a ``--sog-choice`` value that starts with ``-``, as one
  token and as two; beside them a plain ``--sog-choice`` and a repeated flag;
- ``corpus``: ``roundtrip`` of 500 corpus models (``genmodels.generate_model``,
  seeds 500-999) plain, under every combination of ``--sog-choice`` and with
  ``--prefer-regular``;
- ``large``: ``roundtrip`` of ``genmodels.scaled_model(n)`` at n = 40, 80
  and 160 (100, 200 and 400 relations);
- ``schemas``: ``reverse`` and ``ddl`` of those three models' schemas;
- ``errors``: ``validate`` of 1,000 ``geninputs.colliding_text`` texts
  (generator seed 91), most of which the reader refuses;
- ``model_options`` and ``text_options``: ``validate``, ``transform --trace
  -o`` and ``roundtrip`` of the ``corpus`` models and of the ``errors``
  texts, each under every entry of ``OPTIONS``;
- ``repeating``: ``validate`` and ``roundtrip`` of 1,000
  ``geninputs.repeating_text`` texts (seed 92), which reach the parser's
  repeated-name and partial-key findings;
- ``produced``: ``reverse`` and ``ddl`` of the golden schemas and of every
  schema the options kinds' ``transform`` calls write;
- ``drawn`` and ``edited``: ``reverse -o`` and ``ddl`` of 1,000
  ``geninputs.schema_text`` texts (seed 93), whose relations share
  prefixes, and of 1,000 ``geninputs.edited_schema_text`` texts (seed 94);
- ``models``: ``roundtrip`` and ``transform`` of the corpus models of seeds
  0-499, those of the acceptance suite;
- ``colliding``: ``validate`` and ``roundtrip`` of 3,000 more
  ``colliding_text`` texts (seed 705).

``digest_line`` runs one block through a ``cli.main`` and gives its line of
``golden/cli_digests.txt``: the label and one SHA-256 over each call's argv,
exit code, stdout, stderr and ``-o`` file.  ``test_cli_digests.py`` checks
one block in ten of each kind, ``check_interpreters.py`` every block on
several interpreters under two hash seeds, and ``compare_speed.py`` compares every call between
two source trees and times the ``corpus``, ``large``, ``errors`` and
``schemas`` blocks.

Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "cli_digests.txt"
COLUMNS = "80"
BLOCK = 100
WRITTEN = "written"
CORPUS_MODELS = 1000  # seeds from SWEPT_MODELS on run under every option
SWEPT_MODELS = 500
LARGE_SIZES = (40, 80, 160)
COMMANDS = ("validate", "transform", "reverse", "roundtrip", "ddl")
OPTIONS = ([], ["--prefer-regular"], ["--extensions"],
           ["--sog-choice", "Malformed"], ["--sog-choice", "Ghost=Nobody"])


def write_inputs(work: Path) -> list[tuple[str, list[list[str]]]]:
    """Write the input files into ``work``; returns the labelled blocks."""
    from er2rds import TransformConfig, emit_er, emit_rds, forward, parse_er
    from geninputs import colliding_text, edited_schema_text, repeating_text, schema_text
    from genmodels import generate_model, scaled_model, sog_configs

    def write(name: str, text: str) -> str:
        (work / name).write_text(text, encoding="utf-8")
        return name

    def draw(prefix: str, suffix: str, generator, seed: int, count: int) -> list[str]:
        rng = random.Random(seed)
        return [write(f"{prefix}{index}{suffix}", generator(rng)) for index in range(count)]

    golden = ("company.er", "company.rds", "company_consult_project.rds")
    for name in golden:
        shutil.copyfile(GOLDEN / name, work / name)
    (work / "latin.er").write_bytes(b"entity Dep\xff { key DepNo; }")
    edges = [["validate", "company.er"], ["transform", "company.er"],
             ["transform", "company.er", "--trace"],
             ["transform", "company.er", "--prefer-regular", "--trace"],
             ["transform", "company.er", "--sog-choice", "Consult=Project"],
             ["roundtrip", "company.er"], ["roundtrip", "company.er", "--prefer-regular"],
             ["reverse", "company.rds"], ["ddl", "company.rds"],
             *([command, name] for command in COMMANDS for name in ("absent.er", "latin.er")),
             *([command, source, "-o", f"missing/{WRITTEN}"] for command, source in
               (("transform", "company.er"), ("reverse", "company.rds"), ("ddl", "company.rds"))),
             [], ["bogus"], ["validate"], ["ddl", "company.rds", "--trace"],
             ["transform", "company.er", "--sog-choice"],
             ["roundtrip", "company.er", "--pref"],
             ["transform", "company.er", f"--output={WRITTEN}"],
             ["transform", "company.er", f"-o{WRITTEN}"],
             ["roundtrip", "--", "company.er"], ["roundtrip", "-h"],
             ["roundtrip", "company.er", "-h"],
             ["roundtrip", "company.er", "--sog-choice", "-Consult=Project"],
             ["roundtrip", "company.er", "--sog-choice=-Consult=Project"],
             ["roundtrip", "company.er", "--sog-choice", "Consult=Project"],
             ["roundtrip", "company.er", "--prefer-regular", "--prefer-regular"]]

    models, corpus = [], []
    for seed in range(CORPUS_MODELS):
        model = generate_model(seed)
        models.append(write(f"model{seed}.er", emit_er(model)))
        if seed >= SWEPT_MODELS:
            corpus.append(["roundtrip", models[-1]])
            for choices in sog_configs(model):
                if choices:
                    corpus.append(["roundtrip", models[-1], *(
                        token for pair in choices.items()
                        for token in ("--sog-choice", "=".join(pair)))])
            corpus.append(["roundtrip", models[-1], "--prefer-regular"])
    large, schemas = [], []
    for n in LARGE_SIZES:
        model = scaled_model(n)
        large.append(["roundtrip", write(f"scaled{n}.er", emit_er(model))])
        schema = forward.gated_transform(model, TransformConfig())[0]
        name = write(f"scaled{n}.rds", emit_rds(schema))
        schemas += [["reverse", name], ["ddl", name]]
    texts = draw("error", ".er", colliding_text, 91, 1000)

    def swept(names: list[str]) -> list[list[str]]:
        return [call for name in names for options in OPTIONS for call in (
            ["validate", name, *options],
            ["transform", name, "--trace", "-o", WRITTEN, *options],
            ["roundtrip", name, *options])]

    produced = {(GOLDEN / name).read_text(encoding="utf-8") for name in golden[1:]}
    configs = (TransformConfig(), TransformConfig(prefer_regular=True),
               TransformConfig(extensions=True))
    for name in models[SWEPT_MODELS:] + texts:
        model = parse_er((work / name).read_text(encoding="utf-8"))[0]
        for config in configs if model is not None else ():
            schema = forward.gated_transform(model, config)[0]
            if schema is not None:
                produced.add(emit_rds(schema))
    produced_names = [write(f"produced{index}.rds", text)
                      for index, text in enumerate(sorted(produced))]
    kinds = {
        "edges": edges, "corpus": corpus, "large": large, "schemas": schemas,
        "errors": [["validate", name] for name in texts],
        "model_options": swept(models[SWEPT_MODELS:]),
        "text_options": swept(texts),
        "repeating": [[command, name] for name in draw(
            "repeating", ".er", repeating_text, 92, 1000)
            for command in ("validate", "roundtrip")],
        "produced": [[command, name] for name in produced_names
                     for command in ("reverse", "ddl")],
        **{kind: [call for name in draw(kind, ".rds", generator, seed, 1000)
                  for call in (["reverse", name, "-o", WRITTEN], ["ddl", name])]
           for kind, generator, seed in (("drawn", schema_text, 93),
                                         ("edited", edited_schema_text, 94))},
        "models": [[command, name] for name in models[:SWEPT_MODELS]
                   for command in ("roundtrip", "transform")],
        "colliding": [[command, name] for name in draw(
            "colliding", ".er", colliding_text, 705, 3000)
            for command in ("validate", "roundtrip")],
    }
    return [(f"{kind} {start}-{min(start + BLOCK, len(calls)) - 1}",
             calls[start:start + BLOCK])
            for kind, calls in kinds.items() for start in range(0, len(calls), BLOCK)]


def outcome(main, argv: list[str]) -> tuple[int, str, str, str | None]:
    """The exit code, stdout and stderr of one call of ``main`` in this
    process, and the text it wrote to ``written``, which is then removed.
    A ``SystemExit`` from help or a usage error gives the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = Path(WRITTEN)
    text = written.read_text(encoding="utf-8") if written.exists() else None
    written.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), text


def digest_line(main, label: str, calls: list[list[str]]) -> str:
    """The block's line of ``golden/cli_digests.txt``."""
    digest = hashlib.sha256()
    for argv in calls:
        digest.update(json.dumps([argv, *outcome(main, argv)]).encode("utf-8") + b"\n")
    return f"{label} sha256 {digest.hexdigest()}"


def golden_lines() -> list[str]:
    """The lines of ``golden/cli_digests.txt``, one per block in order."""
    return DIGESTS.read_text(encoding="utf-8").splitlines()
