"""Command-line interface.

Five subcommands over `.er` and `.rds` files: validate, transform, reverse,
roundtrip, and ddl.  Diagnostics go to standard error; primary output goes
to standard output or the file named by -o.  Exit codes: 0 clean, 1 warnings
only, 2 model or schema errors, 3 I/O errors.  A usage error also exits 2,
from argparse, after a usage line on standard error.  A reverse run's NORM
notes describe inherent normalizations rather than problems, so they alone
do not raise the exit code.

A plain command line (the command, its input, then only options that command
takes, spelled in full) is read directly, without argparse; every other
line, help and usage errors included, is read by argparse, which only such a
line imports.  Both readings give the same namespace, and one option table,
``_OPTIONS``, drives both.
"""

from __future__ import annotations

import functools
import gc
import sys
from types import SimpleNamespace

from .ddl import render_ddl
from .er_text import emit_er, parse_er
from .errors import BadSideChoice, PrerequisiteFailed, TransformError
from .forward import TraceEntry, TransformConfig, gated_transform, trace_entries
from .model import ERModel, RelationalSchema, format_diagnostic, has_errors
from .rds_text import emit_rds, parse_rds
from .reverse import reverse_transform, run_roundtrip

EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2
EXIT_IO = 3


def _print_diagnostics(diagnostics, path: str) -> None:
    for diag in diagnostics:
        print(format_diagnostic(diag, path), file=sys.stderr)


def _exit_code(diagnostics) -> int:
    if has_errors(diagnostics):
        return EXIT_ERRORS
    if diagnostics:
        return EXIT_WARNINGS
    return EXIT_CLEAN


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_choices(pairs: list[str]) -> dict[str, str]:
    choices: dict[str, str] = {}
    for pair in pairs:
        relationship, sep, participant = pair.partition("=")
        if not sep or not relationship or not participant:
            raise BadSideChoice(
                f"--sog-choice expects RELATIONSHIP=PARTICIPANT, got {pair!r}"
            )
        choices[relationship] = participant
    return choices


def _config_from(args: SimpleNamespace) -> TransformConfig:
    return TransformConfig(
        sog_choice=_parse_choices(args.sog_choice),
        prefer_regular=args.prefer_regular,
        extensions=args.extensions,
    )


def _print_trace(trace: list[TraceEntry]) -> None:
    for entry in trace:
        print(f"step {entry.step} {entry.subject} -> {entry.relation}",
              file=sys.stderr)
        for line in entry.schema_after:
            print(f"    {line}", file=sys.stderr)


def cmd_check(args: SimpleNamespace, model: ERModel) -> int:
    """validate and transform: the gate under the command's options, then,
    for transform only, the trace and the schema."""
    schema, events, diagnostics = gated_transform(model, _config_from(args))
    _print_diagnostics(diagnostics, args.input)
    if schema is None:
        return EXIT_ERRORS
    if args.command == "transform":
        if args.trace:
            _print_trace(trace_entries(events, schema))
        _write_output(emit_rds(schema), args.output)
    return _exit_code(diagnostics)


def cmd_reverse(args: SimpleNamespace, schema: RelationalSchema) -> int:
    model, diagnostics = reverse_transform(schema)
    _print_diagnostics(diagnostics, args.input)
    if model is None:
        return EXIT_ERRORS
    _write_output(emit_er(model), args.output)
    # NORM notes accompany every reversal; they alone keep the exit clean.
    if any(d.rule_id != "NORM" for d in diagnostics):
        return EXIT_WARNINGS
    return EXIT_CLEAN


def cmd_roundtrip(args: SimpleNamespace, model: ERModel) -> int:
    try:
        report = run_roundtrip(model, _config_from(args))
    except PrerequisiteFailed as exc:
        _print_diagnostics(exc.diagnostics, args.input)
        return EXIT_ERRORS
    if report.ok:
        count = report.schema_text.count("\n")
        print(f"round trip OK: {count} relations reproduced")
        return EXIT_CLEAN
    print("round trip FAILED")
    for line in report.differences:
        print(line)
    return EXIT_ERRORS


def cmd_ddl(args: SimpleNamespace, schema: RelationalSchema) -> int:
    sql, diagnostics = render_ddl(schema)
    _print_diagnostics(diagnostics, args.input)
    _write_output(sql, args.output)
    return _exit_code(diagnostics)


# Each command's reader, handler and help line: ``main`` parses the input
# with the reader, which returns its value with no diagnostic or None with its
# errors, and hands the value to the handler.
_COMMANDS = {
    "validate": (parse_er, cmd_check,
                 "check a .er model against the notation rules"),
    "transform": (parse_er, cmd_check,
                  "compile a .er model to an annotated .rds schema"),
    "reverse": (parse_rds, cmd_reverse,
                "rebuild the .er model a .rds schema came from"),
    "roundtrip": (parse_er, cmd_roundtrip,
                  "verify transform-reverse-transform reproduces the input"),
    "ddl": (parse_rds, cmd_ddl,
            "project a .rds schema onto CREATE TABLE statements"),
}

# The commands that take a transform configuration.
_CONFIGURED = ("validate", "transform", "roundtrip")

# Every option: its flags, the commands that take it, its dest, action and
# default, and its help keywords.  build_parser adds them in this order, and
# _plain_args reads a plain command line by the same table.
_OPTIONS = (
    (("-o", "--output"), ("transform", "reverse", "ddl"), "output", "store", None,
     {"help": "output file (default: standard output)"}),
    (("--extensions",), _CONFIGURED, "extensions", "store_true", False,
     {"help": "accept subtype endpoints in 1:N relationships"}),
    (("--sog-choice",), _CONFIGURED, "sog_choice", "append", [],
     {"metavar": "RELATIONSHIP=PARTICIPANT",
      "help": "host this 1:1 relationship's foreign key in the named "
              "participant's relation (repeatable)"}),
    (("--prefer-regular",), _CONFIGURED, "prefer_regular", "store_true", False,
     {"help": "default 1:1 foreign keys into the regular entity's relation "
              "instead of the subtype's"}),
    (("--trace",), ("transform",), "trace", "store_true", False,
     {"help": "write the step-by-step schema trace to standard error"}),
)

# For each command, the (dest, action) of each of its flags and the
# (dest, action, default) of each of its options, for _plain_args.
_PLAIN = {command: ({}, []) for command in _COMMANDS}
for flags, commands, dest, action, default, _ in _OPTIONS:
    for command in commands:
        _PLAIN[command][0].update(dict.fromkeys(flags, (dest, action)))
        _PLAIN[command][1].append((dest, action, default))


# Built once and reused: parse_args leaves the parser unchanged, and the
# --sog-choice append action copies its default list before appending.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    import argparse  # only lines the plain reader leaves need it

    parser = argparse.ArgumentParser(
        prog="er2rds",
        description="Transform ER models to annotated relational schemas "
                    "and back.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        sub.add_argument("input", help="input file")
        for flags, commands, dest, action, default, keywords in _OPTIONS:
            if command in commands:
                sub.add_argument(*flags, dest=dest, action=action, default=default,
                                 **keywords)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives for a plain
    command line, or None for any other.  A plain command line is a command,
    its input, then only options that command takes, each flag spelled in
    full as its own token or as ``--sog-choice=VALUE``, with no value that
    starts with "-".  Any other line, help, abbreviations and usage errors
    included, is argparse's to read, so its messages and exit codes stay
    argparse's."""
    if len(argv) < 2 or argv[0] not in _PLAIN or argv[1][:1] == "-":
        return None
    by_flag, defaults = _PLAIN[argv[0]]
    values = {"command": argv[0], "input": argv[1]}
    for dest, action, default in defaults:
        values[dest] = list(default) if action == "append" else default
    tokens = iter(argv[2:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if flag not in by_flag:
            return None
        dest, action = by_flag[flag]
        if action == "store_true":
            if equals:
                return None
            values[dest] = True
            continue
        if not equals:
            value = next(tokens, "-")  # "-": the value is missing
        elif action != "append":  # of the joined spellings, only --sog-choice=
            return None
        if value[:1] == "-":
            return None
        if action == "append":
            values[dest].append(value)
        else:
            values[dest] = value
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused.  A run makes
    no reference cycle, so the collector would only trace the model and
    schemas being built, all still alive; it is on again afterwards if it was
    on before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _read(path: str) -> str:
    """The file's text, decoded as UTF-8 without one leading byte-order
    mark, with a carriage return alone or before a line feed read as a line
    feed, as text mode reads them."""
    with open(path, "rb", buffering=0) as handle:
        text = handle.read().decode("utf-8").removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
    reader, handler, _ = _COMMANDS[args.command]
    try:
        text = _read(args.input)
        value, errors = reader(text, args.input)
        if value is None:
            _print_diagnostics(errors, args.input)
            return EXIT_ERRORS
        return handler(args, value)
    except OSError as exc:  # reading the input or writing -o
        print(f"er2rds: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:  # only the input is decoded
        print(f"er2rds: {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    except TransformError as exc:  # a bad side choice
        print(f"er2rds: {exc}", file=sys.stderr)
        return EXIT_ERRORS


if __name__ == "__main__":
    sys.exit(main())
