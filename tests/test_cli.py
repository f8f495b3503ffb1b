import ast
import gc
import io
import itertools
import os
import pathlib
import shutil
import sqlite3
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import er2rds
from er2rds import (
    RoundtripReport, cli, emit_er, emit_rds, forward, model_diff, normalize_model,
    parse_er, render_ddl, run_roundtrip, transform_model, validate_notation,
)
from er2rds.cli import main
from conftest import golden_path
from genmodels import generate_model, sog_configs

COMPANY_ER = str(golden_path("company.er"))
COMPANY_RDS = str(golden_path("company.rds"))
VARIANT_RDS = str(golden_path("company_consult_project.rds"))
CHECKOUT = pathlib.Path(__file__).resolve().parent.parent


def checkout_env() -> dict[str, str]:
    """The inherited environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(CHECKOUT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# Found at seed 54 by tests/probe_clean_models.py: it clashes under the
# default side choices only.
SIDE_CHOICE_CLASH = """\
subtype Ivory of Del { attr Ced; attr Ivo; }
entity Del { key DelNo; attr Ivo; }
rel DelNo (Ivory 1..1, Del 1..1) { attr Ivory; attr Delta; }
subtype Brave of Del { attr Bra; }
"""


class TestValidate:
    def test_clean_model_exits_zero_silently(self, capsys):
        assert main(["validate", COMPANY_ER]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_errors_exit_two_with_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.er"
        bad.write_text("entity Employee { key EmpNo; attr Start_Date; }")
        assert main(["validate", str(bad)]) == 2
        assert "R2.5.2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, elements", [
        ("entity Employees { key EmpNo; }", ["entity Employees"]),
        ("entity Cedar { key CedNo; }\n"
         "subtype Managers of Cedar { attr Level; }\n"
         "weak Badges of Cedar via BadgesOf { partial Code; attr Note; }",
         ["subtype Managers", "weak entity Badges"]),
    ], ids=["entity", "subtype-and-weak-entity"])
    def test_warnings_exit_one(self, text, elements, tmp_path, capsys):
        advisory = tmp_path / "advisory.er"
        advisory.write_text(text)
        assert main(["validate", str(advisory)]) == 1
        assert capsys.readouterr() == ("", "".join(
            f"{advisory}: warning[R2.5.1]: name {element.split()[-1]!r} looks "
            f"plural; names should be singular ({element})\n" for element in elements))

    def test_side_choices_decide_the_clash_as_in_transform(self, tmp_path, capsys):
        # Under the default policy the unprefixed DelNo foreign key lands in
        # Ivory, whose key is DelNo already; --prefer-regular puts it in Del.
        model = tmp_path / "seed54.er"
        model.write_text(SIDE_CHOICE_CLASH)
        assert main(["validate", str(model)]) == 2
        assert capsys.readouterr().err == (
            f"{model}: error[CLASH]: relation 'Ivory' has two attributes named "
            f"'DelNo' (Ivory)\n")
        for options in (["--prefer-regular"], ["--sog-choice", "DelNo=Del"]):
            assert main(["validate", str(model), *options]) == 0
            assert capsys.readouterr().err == ""
            assert main(["transform", str(model), *options]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "Ivory-DelNo(DelNo, 1, 1, 1)" in captured.out

    @pytest.mark.parametrize("choice, message", [
        ("Consult", "--sog-choice expects RELATIONSHIP=PARTICIPANT, got 'Consult'"),
        ("Ghost=Project", "unknown relationship 'Ghost' in side choice"),
        ("Consult=Ghost", "'Ghost' is not a participant of relationship 'Consult'"),
    ])
    def test_a_bad_side_choice_exits_two_as_in_transform(self, choice, message,
                                                          capsys):
        for command in ("validate", "transform", "roundtrip"):
            assert main([command, COMPANY_ER, "--sog-choice", choice]) == 2
            assert capsys.readouterr() == ("", f"er2rds: {message}\n")

    def test_a_value_error_from_a_handler_propagates(self, monkeypatch):
        # Only a bad side choice, malformed ones included (above), is an
        # er2rds: line; any other error is a bug.
        def failing(args, value):
            raise ValueError("not a side choice")

        monkeypatch.setitem(cli._COMMANDS, "validate", (parse_er, failing, ""))
        with pytest.raises(ValueError, match="not a side choice"):
            main(["validate", COMPANY_ER])

    @pytest.mark.parametrize("argv, usage", [
        (["validate"], "usage: er2rds validate"),
        ([], "usage: er2rds [-h] {validate,transform,reverse,roundtrip,ddl} ...\n"
             "er2rds: error: the following arguments are required: command\n"),
    ], ids=["no-input", "no-command"])
    def test_a_usage_error_exits_two(self, argv, usage, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(usage)

    def test_missing_file_exits_three(self, capsys):
        assert main(["validate", str(golden_path("absent.er"))]) == 3
        assert "absent.er" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["validate", "transform", "reverse", "roundtrip", "ddl"])
    def test_input_that_is_not_utf8_exits_three(self, command, tmp_path, capsys):
        latin = tmp_path / "latin.er"
        latin.write_bytes(b"entity Dep\xff { key DepNo; }")
        assert main([command, str(latin)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"er2rds: {latin}: 'utf-8' codec can't decode byte 0xff in "
            f"position 10: invalid start byte\n")


class TestTransform:
    def test_writes_the_golden_schema_to_stdout(self, capsys, company_rds_text):
        assert main(["transform", COMPANY_ER]) == 0
        assert capsys.readouterr().out == company_rds_text

    def test_writes_to_a_file_with_dash_o(self, tmp_path, company_rds_text):
        out = tmp_path / "company.rds"
        assert main(["transform", COMPANY_ER, "-o", str(out)]) == 0
        assert out.read_text() == company_rds_text

    def test_side_choice_flag_selects_the_variant(self, capsys, variant_rds_text):
        assert main(["transform", COMPANY_ER,
                     "--sog-choice", "Consult=Project"]) == 0
        assert capsys.readouterr().out == variant_rds_text

    def test_a_side_choice_does_not_outlive_its_call(self, capsys, variant_rds_text,
                                                     company_rds_text):
        assert main(["transform", COMPANY_ER,
                     "--sog-choice", "Consult=Project"]) == 0
        assert capsys.readouterr().out == variant_rds_text
        assert main(["transform", COMPANY_ER]) == 0
        assert capsys.readouterr().out == company_rds_text

    def test_validates_the_model_once(self, monkeypatch, capsys, company_rds_text):
        calls = []

        def counting(model, allow_extensions=False):
            calls.append(model)
            return validate_notation(model, allow_extensions)

        monkeypatch.setattr(forward, "validate_notation", counting)
        assert main(["transform", COMPANY_ER]) == 0
        assert capsys.readouterr().out == company_rds_text
        assert len(calls) == 1

    def test_malformed_side_choice_exits_two(self, capsys):
        assert main(["transform", COMPANY_ER, "--sog-choice", "Consult"]) == 2
        assert "RELATIONSHIP=PARTICIPANT" in capsys.readouterr().err

    def test_unknown_side_choice_name_exits_two(self, capsys):
        assert main(["transform", COMPANY_ER, "--sog-choice", "Ghost=Project"]) == 2
        assert "Ghost" in capsys.readouterr().err

    def test_notation_errors_exit_two_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.er"
        bad.write_text(
            "entity Alpha { key AlpNo; }\n"
            "entity Bravo { key BraNo; }\n"
            "rel Grove (Alpha 1..n, Bravo 0..n) { }"
        )
        assert main(["transform", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "SUBSET" in captured.err
        assert captured.out == ""

    def test_warnings_still_transform_but_exit_one(self, tmp_path, capsys):
        advisory = tmp_path / "advisory.er"
        advisory.write_text("entity Employee { key EmpNo; key EmpId; }")
        assert main(["transform", str(advisory)]) == 1
        captured = capsys.readouterr()
        assert "R2.4.2" in captured.err
        assert captured.out == "Employee[_EmpNo_, _EmpId_]\n"

    def test_trace_goes_to_stderr(self, capsys):
        assert main(["transform", COMPANY_ER, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "step REG Employee -> Employee" in captured.err
        assert "step WAK Dependent -> Dependent" in captured.err

    @pytest.mark.parametrize("extra, golden", [
        ([], "company.trace"),
        (["--prefer-regular"], "company_prefer_regular.trace"),
    ])
    def test_trace_matches_the_golden_file(self, extra, golden, capsys):
        assert main(["transform", COMPANY_ER, "--trace", *extra]) == 0
        assert capsys.readouterr().err == \
            golden_path(golden).read_text(encoding="utf-8")


class TestReverse:
    def test_golden_schema_reverses_to_the_normalized_model(
            self, capsys, company_model):
        assert main(["reverse", COMPANY_RDS]) == 0
        captured = capsys.readouterr()
        reversed_model, diagnostics = parse_er(captured.out, "reversed.er")
        assert reversed_model is not None and not diagnostics
        assert model_diff(normalize_model(company_model), reversed_model) == []

    def test_normalization_notes_go_to_stderr_without_raising_the_exit_code(
            self, capsys):
        assert main(["reverse", COMPANY_RDS]) == 0
        assert "NORM" in capsys.readouterr().err

    def test_classification_errors_exit_two(self, tmp_path, capsys):
        orphan = tmp_path / "orphan.rds"
        orphan.write_text("Dependent[_EmpNo_, _Name_, Sex]\n")
        assert main(["reverse", str(orphan)]) == 2
        assert "CLASSIFY" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reverse", "ddl"])
    def test_a_lower_case_name_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                            command):
        # The .er text a reversal would write is one that validate refuses.
        lower = tmp_path / "lower.rds"
        lower.write_text("dept[_DepNo_, Name]\n"
                         "Project[_ProNo_, DepNo(controls, 1, 1, n)]\n")
        assert main([command, str(lower), "-o", str(tmp_path / "out")]) == 2
        assert list(tmp_path.iterdir()) == [lower]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{lower}:1: error[R2.5.1]: name 'dept' must start with an uppercase "
            f"letter",
            f"{lower}:2: error[R2.5.1]: name 'controls' must start with an "
            f"uppercase letter",
        ]

    def test_classification_warnings_exit_one(self, tmp_path, capsys):
        shared = tmp_path / "shared.rds"
        shared.write_text("Abc[_AbcNo_, Name]\nAbcd[_AbcNo_, Size]\n")
        assert main(["reverse", str(shared)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ("entity Abc {\n  key AbcNo;\n  attr Name;\n}\n\n"
                                "entity Abcd {\n  key AbcNo;\n  attr Size;\n}\n")
        assert captured.err.splitlines() == [
            f"{shared}: warning[CLASSIFY]: relations 'Abc' and 'Abcd' both own "
            f"primary key 'AbcNo'; references resolve to 'Abc' (Abcd)",
            f"{shared}: warning[CLASSIFY]: relation 'Abcd' also matches the "
            f"subtype shape; treating it as a regular entity relation (Abcd)",
            f"{shared}: warning[NORM]: element declaration order reconstructed "
            f"from schema order",
            f"{shared}: warning[NORM]: entity attribute order reconstructed from "
            f"relation order: designated key first, multivalued attributes last",
        ]

    def test_single_relation_schema_reverses_to_one_entity(self, tmp_path, capsys):
        lone = tmp_path / "lone.rds"
        lone.write_text("Employee[_EmpNo_]\n")
        assert main(["reverse", str(lone)]) == 0
        assert capsys.readouterr().out == "entity Employee {\n  key EmpNo;\n}\n"


# Two entities that own a key named Bra, and a relation keyed by it.
TWO_OWNERS = [
    "entity BraNo { key Bra; }\nentity Bra { key Bra; }\n"
    "subtype Ivory of Bra { attr Ivory; }\n",
    "entity Bravo { key Bra; }\nentity Brave { key Bra; key Ced; multi Cedar; }\n",
]


class TestRoundtrip:
    def test_default_configuration(self, capsys):
        assert main(["roundtrip", COMPANY_ER]) == 0
        assert "round trip OK" in capsys.readouterr().out

    @pytest.mark.parametrize("choice", [
        "Consult=Project", "Consult=Engineer", "Manages=Manager",
        "Manages=Department",
    ])
    def test_every_side_choice_converges(self, choice, capsys):
        assert main(["roundtrip", COMPANY_ER, "--sog-choice", choice]) == 0

    def test_prefer_regular_converges(self):
        assert main(["roundtrip", COMPANY_ER, "--prefer-regular"]) == 0

    # Both keys match the entity's name; normalization puts the designated
    # one, the first declared, first in either order.
    @pytest.mark.parametrize("keys", ["key CedNo; key CedId;", "key CedId; key CedNo;"],
                             ids=["CedNo-first", "CedId-first"])
    def test_two_keys_named_after_the_entity_converge(self, keys, tmp_path, capsys):
        source = tmp_path / "cedar.er"
        source.write_text(f"entity Cedar {{ {keys} attr Size; }}")
        assert main(["roundtrip", str(source)]) == 0
        assert capsys.readouterr() == ("round trip OK: 1 relations reproduced\n", "")

    def test_invalid_models_fail_gracefully(self, tmp_path, capsys):
        bad = tmp_path / "bad.er"
        bad.write_text("entity Employee { key SSN; }")
        assert main(["roundtrip", str(bad)]) == 2
        assert "R2.4.2" in capsys.readouterr().err

    # Models that validate clean but do not survive the round trip: a
    # multivalued attribute named with its owner key's three-letter prefix
    # comes back as an entity, and a weak entity without simple attributes
    # reads as a malformed multivalued relation.  A subtype named with its
    # supertype key's prefix also comes back as an entity, so its one-to-one
    # relationship no longer fits the subset when transformed again; without
    # a relationship, as when it takes the key's own name, the reversed model
    # differs from the source.  Two entities sharing a key name across a 1:n
    # relationship collide in the holding relation, which validate and
    # roundtrip both report as the same CLASH.  An entity named
    # like the <Name>Of that reversal gives a weak entity's identifying
    # relationship makes the second transformation stop on REF.  Two entities
    # that own a key of one name both fit a dependent relation keyed by it;
    # reversal takes the first declared as its owner, so a subtype comes back
    # under the other supertype or a multivalued attribute under the other
    # entity.
    @pytest.mark.parametrize("text, validated, out, err", [
        ("entity Brave { key BraNo; multi Bravo; }", 0,
         "round trip FAILED\nmodel.entities: 1 elements expected, 2 found\n", ""),
        ("entity Ivory { key IvoNo; attr Name; }\n"
         "weak Cedar of Ivory via CedarOf { partial CedNo; }", 0,
         "round trip FAILED\nreverse transformation failed:\n"
         "<schema>: error[CLASSIFY]: relation 'Cedar' is unclassifiable: two "
         "underlined attributes but the second is not named after the "
         "relation (Cedar)\n", ""),
        ("entity Delta { key DelNo; }\nentity Deltoid { key DelNo; }\n"
         "rel Has (Delta 1..1, Deltoid 0..n) { }", 2,
         "", "{path}: error[CLASH]: relation 'Delta' has two attributes named "
             "'DelNo' (Delta)\n"),
        ("entity Brave { key BraNo; }\nentity Flint { key FliNo; }\n"
         "subtype Bravo of Brave { attr Size; }\n"
         "rel Owns (Bravo 0..1, Flint 0..1) { }", 0,
         "round trip FAILED\nmodel.entities: 2 elements expected, 3 found\n"
         "model.subtypes: 1 elements expected, 0 found\n"
         "second transformation failed:\n"
         "<schema>: error[SUBSET]: one-to-one relationship 'Owns' must relate a "
         "subtype to a regular entity type (relationship Owns)\n", ""),
        ("entity Bra { key BraNo; attr Bra; }\n"
         "subtype BraNo of Bra { attr Ivory; attr DelNo; }", 0,
         "round trip FAILED\nmodel.entities: 1 elements expected, 2 found\n"
         "model.subtypes: 1 elements expected, 0 found\n", ""),
        ("entity Alpha { key AlpNo; attr Name; }\n"
         "entity BetaOf { key BetNo; attr Size; }\n"
         "weak Beta of Alpha via Owns { partial Code; attr Note; }", 0,
         "round trip FAILED\nsecond transformation failed:\n"
         "<schema>: error[REF]: name 'BetaOf' is already declared (weak Beta)\n",
         ""),
        (TWO_OWNERS[0], 0,
         "round trip FAILED\n"
         "model.subtypes[0].supertype: expected 'Bra', found 'BraNo'\n", ""),
        (TWO_OWNERS[1], 0,
         "round trip FAILED\n"
         "model.entities[0].attributes: 3 elements expected, 2 found\n"
         "model.entities[1].attributes: 1 elements expected, 2 found\n", ""),
    ], ids=["multi-named-like-an-entity", "weak-partial-key", "shared-key-name",
            "subtype-named-like-its-supertype", "subtype-named-like-its-supertypes-key",
            "entity-named-like-a-regenerated-of", "two-owners-of-a-supertype-key",
            "two-owners-of-a-multivalued-key"])
    def test_clean_models_that_fail_the_round_trip(self, text, validated, out, err,
                                                   tmp_path, capsys):
        source = tmp_path / "model.er"
        source.write_text(text)
        err = err.format(path=source)
        assert main(["validate", str(source)]) == validated
        assert capsys.readouterr() == ("", err)
        assert main(["roundtrip", str(source)]) == 2
        assert capsys.readouterr() == (out, err)

    # The ambiguity depends on declaration order: with the true owner
    # declared first, the same models round-trip.
    @pytest.mark.parametrize("text", TWO_OWNERS,
                             ids=["supertype-key", "multivalued-key"])
    def test_the_two_owners_swapped_round_trip(self, text, tmp_path, capsys):
        first, second, *rest = text.splitlines(keepends=True)
        source = tmp_path / "model.er"
        source.write_text("".join([second, first, *rest]))
        assert main(["roundtrip", str(source)]) == 0
        assert capsys.readouterr() == ("round trip OK: 3 relations reproduced\n", "")

    def test_a_changed_schema_text_prints_a_unified_diff(self, tmp_path, capsys):
        # Reversal reads the weak entity BraNo as a regular entity, so the
        # second transformation lists its relation before Del's.
        source = tmp_path / "model.er"
        source.write_text(
            "entity Bra { key Bravo; key Bra; key Cedar; attr Brave; }\n"
            "weak Del of Bra via CedNo { partial Cedar; attr Del; }\n"
            "weak BraNo of Bra via DeltaNo { partial BraNo; attr Ced; }\n")
        assert main(["roundtrip", str(source)]) == 2
        assert capsys.readouterr() == (
            "round trip FAILED\n"
            "model.entities: 1 elements expected, 2 found\n"
            "model.weak_entities: 2 elements expected, 1 found\n"
            "schema texts differ:\n"
            "--- first\n"
            "+++ second\n"
            "@@ -1,3 +1,3 @@\n"
            " Bra[_Bravo_, _Bra_, _Cedar_, Brave]\n"
            "+BraNo[_Bravo_, _BraNo_, Ced]\n"
            " Del[_Bravo_, _Cedar_, Del]\n"
            "-BraNo[_Bravo_, _BraNo_, Ced]\n", "")


class TestDdl:
    def test_golden_schema_matches_the_golden_ddl(self, capsys):
        assert main(["ddl", COMPANY_RDS]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == golden_path("company.sql").read_text(encoding="utf-8")

    def test_golden_schema_tables(self, capsys):
        assert main(["ddl", COMPANY_RDS]) == 0
        sql = capsys.readouterr().out
        assert sql.count("CREATE TABLE") == 6
        assert "PRIMARY KEY (DepNo, Location)" in sql
        assert "PRIMARY KEY (EmpNo, Name)" in sql
        assert "FOREIGN KEY (DepNo) REFERENCES Department (DepNo)" in sql
        assert "FOREIGN KEY (EmpNo) REFERENCES Employee (EmpNo)" in sql
        assert '"Manager-EmpNo" TEXT, -- (Manages, 1, 1, 1)' in sql

    def test_unresolved_references_become_comments_and_exit_one(
            self, tmp_path, capsys):
        dangling = tmp_path / "dangling.rds"
        dangling.write_text("Alpha[_AlpNo_, BetNo(Grove, 1, 1, n)]\n")
        assert main(["ddl", str(dangling)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "CREATE TABLE Alpha (\n"
            "    AlpNo TEXT,\n"
            "    BetNo TEXT, -- (Grove, 1, 1, n)\n"
            "    PRIMARY KEY (AlpNo)\n"
            "    -- unresolved reference: no relation owns primary key BetNo\n"
            ");\n")
        assert captured.err == (f"{dangling}: warning[FK]: no relation owns "
                                f"primary key 'BetNo' (Alpha)\n")

    def test_classification_errors_are_reported_and_exit_two(self, tmp_path, capsys):
        orphan = tmp_path / "orphan.rds"
        orphan.write_text("Dependent[_EmpNo_, _Name_, Sex]\n")
        assert main(["ddl", str(orphan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == (
            "CREATE TABLE Dependent (\n"
            "    EmpNo TEXT,\n"
            "    Name TEXT,\n"
            "    Sex TEXT,\n"
            "    PRIMARY KEY (EmpNo, Name)\n"
            ");\n")
        assert captured.err == (
            f"{orphan}: error[CLASSIFY]: relation 'Dependent' is unclassifiable: "
            f"leading attribute 'EmpNo' is not the primary key of another "
            f"regular relation (Dependent)\n")

    def test_empty_schema_produces_empty_output(self, tmp_path, capsys):
        empty = tmp_path / "empty.rds"
        empty.write_text("")
        assert main(["ddl", str(empty)]) == 0
        assert capsys.readouterr().out == ""


class TestEntryPoints:
    def test_console_script(self, company_rds_text):
        # Run the launcher an installer generates for the script declared in
        # pyproject.toml, so the checkout's declaration is tested, not
        # whatever copy an earlier install left on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(CHECKOUT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["er2rds"]
        module, attr = target.split(":")
        launcher = (f"import sys; from {module} import {attr}; "
                    f"sys.argv[0] = 'er2rds'; sys.exit({attr}())")
        result = subprocess.run([sys.executable, "-c", launcher,
                                 "transform", COMPANY_ER],
                                capture_output=True, text=True,
                                env=checkout_env())
        assert result.returncode == 0
        assert result.stdout == company_rds_text

    def test_module_invocation(self):
        result = subprocess.run([sys.executable, "-m", "er2rds",
                                 "validate", COMPANY_ER],
                                capture_output=True, text=True,
                                env=checkout_env())
        assert result.returncode == 0

    def test_importing_the_cli_loads_no_difflib(self):
        # Only a failed round trip diffs its schema texts, so start-up
        # leaves difflib (and the heapq it pulls in) unloaded.
        result = subprocess.run([sys.executable, "-c",
                                 "import sys, er2rds.cli; "
                                 "print('difflib' in sys.modules)"],
                                capture_output=True, text=True,
                                env=checkout_env())
        assert (result.stdout, result.stderr) == ("False\n", "")

    def test_importing_the_cli_and_a_round_trip_load_no_dataclasses(self, tmp_path):
        # model.record builds every value class without dataclasses or
        # inspect; only a refused assignment imports dataclasses, for its
        # FrozenInstanceError.  A round trip that fails in model_diff loads
        # neither.  What the interpreter loaded at start-up (a site hook may
        # load inspect) is left out.
        failing = tmp_path / "ivory.er"
        failing.write_text("entity Ivory { key IvoNo; multi IvoryNo; }\n")
        script = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "started = set(sys.modules)\n"
            "from er2rds import cli\n"
            f"for path in ({COMPANY_ER!r}, {str(failing)!r}):\n"
            "    with redirect_stdout(io.StringIO()) as out:\n"
            "        code = cli.main(['roundtrip', path])\n"
            "    loaded = set(sys.modules) - started\n"
            "    print(code, 'dataclasses' in loaded, 'inspect' in loaded,\n"
            "          out.getvalue().splitlines()[-1])\n"
            "from er2rds import Attribute\n"
            "attr = Attribute('AlpNo')\n"
            "def show(exc):\n"
            "    print(f'{type(exc).__module__}.{type(exc).__name__}: {exc}')\n"
            "try:\n"
            "    attr.name = 'Other'\n"
            "except AttributeError as exc:\n"
            "    show(exc)\n"
            "try:\n"
            "    del attr.name\n"
            "except AttributeError as exc:\n"
            "    show(exc)\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=checkout_env())
        assert (result.stdout, result.stderr) == (
            "0 False False round trip OK: 6 relations reproduced\n"
            "2 False False model.entities: 1 elements expected, 2 found\n"
            "dataclasses.FrozenInstanceError: cannot assign to field 'name'\n"
            "dataclasses.FrozenInstanceError: cannot delete field 'name'\n", "")

    def test_a_plain_command_line_loads_no_argparse(self):
        # argparse (and the gettext it pulls in) is imported only for a line
        # that the plain reader leaves to it, such as --help.
        script = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from er2rds import cli\n"
            f"code = cli.main(['validate', {COMPANY_ER!r}])\n"
            "loaded = lambda: ['argparse' in sys.modules, 'gettext' in sys.modules]\n"
            "print(code, *loaded())\n"
            "try:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        cli.main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, *loaded())\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=checkout_env())
        assert (result.stdout, result.stderr) == ("0 False False\n0 True True\n", "")


class TestPlainCommandLines:
    """``main`` reads a plain command line without argparse: a command, its
    input, then only options the command takes.  It must give the namespace
    argparse gives, and leave every other line to argparse."""

    # Commands, options spelled in full, values, and spellings that only
    # argparse reads: abbreviations, joined values, "--", help, values that
    # start with "-".
    ALPHABET = (
        "validate", "transform", "reverse", "roundtrip", "ddl",
        "--prefer-regular", "--extensions", "--trace", "--sog-choice", "-o",
        "--output", "--sog-choice=R=P", "--sog-choice=", "--sog-choice=-x",
        "in.er", "R=P", "-x", "", "--", "-h", "--pref", "-oout",
        "--output=out", "-o=out", "--trace=1",
    )

    def test_the_plain_reader_gives_argparses_namespace_or_none(self):
        parser = cli.build_parser()
        accepted = 0
        for length in range(1, 5):
            for argv in map(list, itertools.product(self.ALPHABET, repeat=length)):
                args = cli._plain_args(argv)
                if args is None:
                    continue
                accepted += 1
                with redirect_stderr(io.StringIO()):
                    try:
                        expected = parser.parse_args(argv)
                    except SystemExit:
                        pytest.fail(f"argparse refuses {argv}")
                assert vars(args) == vars(expected), argv
        # 1,176 of the 406,900 lines are plain; the count pins that set.
        assert accepted == 1176

    @pytest.mark.parametrize("argv", [
        ["roundtrip", COMPANY_ER, "--pref"],
        ["transform", COMPANY_ER, "--output=out.rds"],
        ["transform", COMPANY_ER, "-oout.rds"],
        ["roundtrip", "--", COMPANY_ER],
        ["roundtrip", COMPANY_ER, "-h"],
        ["roundtrip", "--prefer-regular", COMPANY_ER],
        ["transform", COMPANY_ER, "-o"],
        ["roundtrip", COMPANY_ER, "--sog-choice", "-x"],
        ["validate", COMPANY_ER, "--trace"],
        ["roundtrip"],
        ["--help"],
        [],
    ])
    def test_any_other_line_is_left_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_plain_lines_run_as_through_argparse_without_building_it(
            self, tmp_path, monkeypatch, capsys):
        readme = (CHECKOUT / "README.md").read_text(encoding="utf-8")
        argvs = [line.split()[1:] for line in readme.splitlines()
                 if line.startswith("er2rds ")]
        assert len(argvs) == 7
        # One line of each shape the benchmark runs.
        argvs += [
            ["roundtrip", "company.er", "--sog-choice=Consult=Project",
             "--prefer-regular"],
            ["transform", "company.er", "--sog-choice=Consult=Project",
             "--trace", "-o", "company.rds"],
            ["ddl", "company.rds"],
        ]
        monkeypatch.chdir(tmp_path)
        shutil.copy(COMPANY_ER, "model.er")
        shutil.copy(COMPANY_ER, "company.er")

        def run(argv):
            code = main(argv)
            files = {path.name: path.read_text(encoding="utf-8")
                     for path in sorted(tmp_path.iterdir())}
            return code, capsys.readouterr(), files

        def refuse():
            raise AssertionError("a plain command line built the parser")

        codes = []
        for argv in argvs:
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_plain_args", lambda _: None)
                expected = run(argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "build_parser", refuse)
                assert run(argv) == expected, argv
            codes.append(expected[0])
        assert codes == [0] * len(argvs)


class TestRunRoundtrip:
    def test_report_carries_both_schema_texts(self, company_model,
                                              company_rds_text):
        report = run_roundtrip(company_model)
        assert report.ok
        assert report.schema_text == company_rds_text
        assert report.second_schema_text == company_rds_text
        assert report.differences == []

    def test_report_of_a_failed_round_trip(self):
        model, diagnostics = parse_er("entity Brave { key BraNo; multi Bravo; }",
                                      "brave.er")
        assert not diagnostics
        schema_text = "Brave[_BraNo_]\nBravo[_BraNo_, _Bravo_]\n"
        assert run_roundtrip(model) == RoundtripReport(
            ok=False, schema_text=schema_text, second_schema_text=schema_text,
            differences=["model.entities: 1 elements expected, 2 found"])


@pytest.fixture
def trace_built(monkeypatch):
    """Counts TraceEntry constructions and trace_entries calls while the test
    runs; the CLI binds trace_entries at import, so it is counted there too."""
    counts = {"TraceEntry": 0, "trace_entries": 0}
    init = forward.TraceEntry.__init__

    def counting_init(self, *args, **kwargs):
        counts["TraceEntry"] += 1
        init(self, *args, **kwargs)

    def counting_entries(*args, _build=forward.trace_entries):
        counts["trace_entries"] += 1
        return _build(*args)

    monkeypatch.setattr(forward.TraceEntry, "__init__", counting_init)
    for module in (forward, cli):
        monkeypatch.setattr(module, "trace_entries", counting_entries)
    return counts


class TestTraceOnlyWhenRead:
    EVENTS = 9  # steps of the company model, one trace entry each

    def test_a_round_trip_builds_no_trace(self, company_model, trace_built):
        assert run_roundtrip(company_model).ok
        assert trace_built == {"TraceEntry": 0, "trace_entries": 0}

    def test_the_roundtrip_command_builds_no_trace(self, trace_built, capsys):
        assert main(["roundtrip", COMPANY_ER]) == 0
        assert trace_built == {"TraceEntry": 0, "trace_entries": 0}

    def test_transform_without_trace_builds_none(self, trace_built,
                                                 company_rds_text, capsys):
        assert main(["transform", COMPANY_ER]) == 0
        assert capsys.readouterr().out == company_rds_text
        assert trace_built == {"TraceEntry": 0, "trace_entries": 0}

    def test_transform_with_trace_builds_one_entry_per_event(self, trace_built,
                                                             capsys):
        assert main(["transform", COMPANY_ER, "--trace"]) == 0
        assert capsys.readouterr().err.count("step ") == self.EVENTS
        assert trace_built == {"TraceEntry": self.EVENTS, "trace_entries": 1}

    def test_transform_model_still_returns_one_entry_per_event(
            self, company_model, trace_built):
        _, trace = forward.transform_model(company_model)
        assert len(trace) == self.EVENTS
        assert trace_built == {"TraceEntry": self.EVENTS, "trace_entries": 1}


def load_in_sqlite(sql: str) -> sqlite3.Connection:
    """An in-memory SQLite database with foreign keys on, holding ``sql`` and
    one row per table whose every column is ``'v'``, so that each row's
    parent rows exist.  A write checks the parent key of each foreign key of
    its table, and raises ``foreign key mismatch`` when that key is neither
    a primary key nor unique."""
    connection = sqlite3.connect(":memory:", isolation_level=None)
    connection.execute("PRAGMA foreign_keys = ON")
    connection.executescript(sql)
    assert connection.execute("PRAGMA foreign_key_check").fetchall() == []
    tables = [name for (name,) in connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")]
    connection.execute("BEGIN")
    connection.execute("PRAGMA defer_foreign_keys = ON")
    for table in tables:
        width = len(connection.execute(f'PRAGMA table_info("{table}")').fetchall())
        connection.execute(f'INSERT INTO "{table}" VALUES ({", ".join("?" * width)})',
                           ["v"] * width)
    connection.execute("COMMIT")
    assert connection.execute("PRAGMA foreign_key_check").fetchall() == []
    return connection


class TestRenderDdl:
    def test_quoting_only_where_needed(self, company_schema):
        sql, diagnostics = render_ddl(company_schema)
        assert not diagnostics
        assert "CREATE TABLE Employee (" in sql
        assert '"Manager-EmpNo"' in sql
        assert '"EmpNo"' not in sql

    def test_the_golden_ddl_loads_and_enforces_its_foreign_keys(self):
        connection = load_in_sqlite(
            golden_path("company.sql").read_text(encoding="utf-8"))
        with pytest.raises(sqlite3.IntegrityError):
            connection.execute("INSERT INTO Location VALUES ('absent', 'v')")
        connection.close()

    def test_every_corpus_ddl_loads(self):
        # Most corpus models have a composite regular key, which a reference
        # can name only through its UNIQUE designated key.
        for seed in range(500):
            sql, diagnostics = render_ddl(transform_model(generate_model(seed))[0])
            assert not diagnostics, seed
            load_in_sqlite(sql).close()

    def test_keyword_names_are_quoted_and_load(self):
        # Tables, columns, keys and referenced names alike.
        model, _ = parse_er(
            "entity Group { key Group; attr Order; multi Index; }\n"
            "entity Table { key Table; key Code; attr Select; }\n"
            "rel Where (Group 0..n, Table 1..1) { attr Values; }\n")
        sql, diagnostics = render_ddl(transform_model(model)[0])
        assert not diagnostics
        assert 'CREATE TABLE "Index" (' in sql
        assert 'PRIMARY KEY ("Table", Code)' in sql
        assert 'FOREIGN KEY ("Group") REFERENCES "Group" ("Group")' in sql
        load_in_sqlite(sql).close()


class TestPipeline:
    @pytest.mark.parametrize("command, name, text, message", [
        (command, "bad.er", "entity Alpha { key AlpNo }",
         "1:26: error[SYNTAX]: expected ';', found '}'")
        for command in ("validate", "transform", "roundtrip")
    ] + [
        (command, "bad.rds", "Employee[_EmpNo_",
         "1: error[SYNTAX]: malformed relation line 'Employee[_EmpNo_'")
        for command in ("reverse", "ddl")
    ] + [
        ("reverse", "bad.rds", "Alpha[_AlpNo_, _Aa_(R, 0, 1, 1)]",
         "1: error[INVARIANT]: underlined attribute 'Aa' cannot carry a "
         "foreign-key suffix"),
    ])
    def test_an_unreadable_input_exits_two_with_the_readers_errors(
            self, command, name, text, message, tmp_path, capsys):
        bad = tmp_path / name
        bad.write_text(text)
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr() == ("", f"{bad}:{message}\n")

    @pytest.mark.parametrize("command, name, text", [
        ("validate", "company.er", None),
        ("ddl", "company.rds", None),
        ("validate", "bad.er", "entity Alpha { key AlpNo }"),
    ])
    def test_a_leading_byte_order_mark_is_dropped(self, command, name, text,
                                                  tmp_path, capsys):
        text = text or golden_path(name).read_text(encoding="utf-8")
        source = tmp_path / name
        outcomes = []
        for mark in ("", "\ufeff"):
            source.write_text(mark + text, encoding="utf-8")
            outcomes.append((main([command, str(source)]), capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("command, source", [
        ("transform", COMPANY_ER), ("reverse", COMPANY_RDS), ("ddl", COMPANY_RDS),
    ])
    def test_output_into_a_missing_directory_exits_three(self, command, source,
                                                          tmp_path, capsys):
        target = tmp_path / "missing" / "out"
        assert main([command, source, "-o", str(target)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # reverse says its NORM notes first
        said = [line for line in captured.err.splitlines() if line.startswith("er2rds:")]
        assert said == [f"er2rds: [Errno 2] No such file or directory: '{target}'"]
        assert captured.err.endswith(said[0] + "\n")


def _parsed_modules(directory: pathlib.Path):
    for path in sorted(directory.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


class TestThinCli:
    def test_only_the_cli_reads_arguments_or_prints(self):
        # The library is pure; sys, argparse and print belong to the CLI.
        users = set()
        for name, tree in _parsed_modules(CHECKOUT / "src" / "er2rds"):
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    modules = []
                if (any(m.split(".")[0] in ("sys", "argparse") for m in modules)
                        or isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    users.add(name)
        assert users == {"cli.py", "__main__.py"}

    def test_tests_import_only_main_from_the_cli(self):
        imported = {
            (name, alias.name)
            for name, tree in _parsed_modules(CHECKOUT / "tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "er2rds.cli"
            for alias in node.names
        }
        assert {alias for _, alias in imported} == {"main"}

    def test_the_cli_reexports_the_library_ddl(self):
        assert cli.render_ddl is render_ddl


class TestPublicNamesBetweenModules:
    def test_no_module_imports_a_private_name_from_a_sibling(self):
        private = sorted(
            (name, f"{node.module}.{alias.name}")
            for name, tree in _parsed_modules(CHECKOUT / "src" / "er2rds")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_")
        )
        assert private == []


class TestNoNestedFunctions:
    def test_no_function_defines_a_function_or_lambda(self):
        functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        nested = sorted(
            (name, outer.name, inner.lineno)
            for name, tree in _parsed_modules(CHECKOUT / "src" / "er2rds")
            for outer in ast.walk(tree)
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(outer)
            if inner is not outer and isinstance(inner, functions)
        )
        assert nested == []


class TestGeneratorModules:
    def test_no_module_imports_a_test_module(self):
        # Shared generators live in genmodels and geninputs, not in tests.
        importers = sorted({
            name
            for name, tree in _parsed_modules(CHECKOUT / "tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name.startswith("test_") for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("test_")
        })
        assert importers == []

    def test_importing_genmodels_loads_no_test_only_module(self):
        # The benchmark's timed set-up imports genmodels.
        result = subprocess.run([sys.executable, "-c",
                                 "import sys; sys.path.insert(0, 'tests'); "
                                 "import genmodels; print(sorted("
                                 "{'dataclasses', 'geninputs', 'hypothesis', "
                                 "'pytest'} & "
                                 "{name.split('.')[0] for name in sys.modules}))"],
                                capture_output=True, text=True, cwd=CHECKOUT,
                                env=checkout_env())
        assert (result.stdout, result.stderr) == ("[]\n", "")


class TestErrorClasses:
    def test_every_error_class_is_raised_somewhere(self):
        # A class with no raise site is dead API; only the base may have none.
        source = CHECKOUT / "src" / "er2rds"
        errors = ast.parse((source / "errors.py").read_text(encoding="utf-8"))
        declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
        raised = {
            getattr(node.exc, "func", node.exc).id
            for _, tree in _parsed_modules(source)
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and isinstance(getattr(node.exc, "func", node.exc), ast.Name)
        }
        assert declared == {"TransformError", "BadSideChoice", "PrerequisiteFailed"}
        assert declared - raised - {"TransformError"} == set()

    def test_the_forward_steps_raise_nothing(self):
        # The gate checks every name the steps look up, so only the side
        # choice check and transform_model's stop at the gate may raise.
        tree = ast.parse((CHECKOUT / "src" / "er2rds" / "forward.py")
                         .read_text(encoding="utf-8"))
        raising = {
            getattr(top, "name", None)
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Raise)
        }
        assert raising == {"_check_side_choices", "transform_model"}

    def test_the_model_raises_nothing(self):
        # Its types and derived operations trust the gate, as the steps do.
        tree = ast.parse((CHECKOUT / "src" / "er2rds" / "model.py")
                         .read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Raise) for node in ast.walk(tree))


def test_the_public_names_are_pinned():
    assert sorted(er2rds.__all__) == [
        "Attribute", "AttributeKind", "BadSideChoice", "CardinalityPair",
        "Diagnostic", "ERModel", "FkSuffix", "PrerequisiteFailed", "RatioKind",
        "RdsAttribute", "RegularEntityType", "Relation", "RelationKind",
        "RelationalSchema", "RelationshipEndpoint", "RelationshipType",
        "RoundtripReport", "Severity", "Subtype", "TraceEntry", "TransformConfig",
        "TransformError", "WeakEntityType", "__version__", "canonical_model",
        "classify_relations", "emit_er", "emit_rds", "format_diagnostic",
        "has_errors", "model_diff", "normalize_model", "parse_er", "parse_rds",
        "ratio_class", "reconstruct_sog_choices", "render_ddl",
        "reverse_transform", "run_roundtrip", "transform_model",
        "validate_notation",
    ]
    assert all(hasattr(er2rds, name) for name in er2rds.__all__)


def cyclic_garbage(*argvs: list[str]) -> list[int]:
    """For each argv in turn, the objects that one ``main(argv)`` run leaves
    for the cyclic collector: what ``gc.collect()`` finds unreachable after
    the run, with the collector off throughout.  A usage error's SystemExit
    counts as a run."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.freeze()  # so that each collection scans only what the runs made
    try:
        found = []
        for argv in argvs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    main(argv)
                except SystemExit:
                    pass
            found.append(gc.collect())
        return found
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


# Models that validate clean but fail the round trip: a weak entity with no
# plain attribute, and a multivalued attribute named with its owner key's
# prefix.
KNOWN_FAILURES = [
    "entity Ivory { key IvoNo; attr Name; }\n"
    "weak Cedar of Ivory via CedarOf { partial CedNo; }\n",
    "entity Ivory { key IvoNo; multi IvoryNo; }\n",
]


class TestCollectorPause:
    """``main`` pauses the cyclic collector for the call, so a run must make
    no reference cycle: a cycle made while the collector is paused outlives
    the call."""

    @pytest.mark.parametrize("argv", [
        ["validate", COMPANY_ER],
        ["transform", COMPANY_ER],
        ["reverse", COMPANY_RDS],
        ["roundtrip", COMPANY_ER],
        ["roundtrip", COMPANY_ER, "--prefer-regular"],
        ["ddl", COMPANY_RDS],
        ["reverse", VARIANT_RDS],
        ["roundtrip", COMPANY_ER, "--sog-choice", "Consult"],
        ["transform", COMPANY_ER, "--sog-choice", "Ghost=Project"],
        ["validate", str(golden_path("absent.er"))],
    ], ids=lambda argv: " ".join(pathlib.Path(a).name for a in argv))
    def test_a_run_leaves_no_cyclic_garbage(self, argv):
        assert cyclic_garbage(argv) == [0]

    def test_a_traced_transform_into_a_file_leaves_none(self, tmp_path):
        output = tmp_path / "out.rds"
        argv = ["transform", COMPANY_ER, "--trace", "-o", str(output)]
        assert cyclic_garbage(argv) == [0]
        assert output.exists()

    @pytest.mark.parametrize("text", KNOWN_FAILURES + [
        "entity Alpha { key AlpNo }",
    ], ids=["weak-partial-key", "multi-named-like-its-key", "syntax-error"])
    def test_failing_models_leave_none(self, text, tmp_path):
        source = tmp_path / "model.er"
        source.write_text(text)
        commands = ("validate", "transform", "roundtrip")
        assert cyclic_garbage(*([c, str(source)] for c in commands)) == [0, 0, 0]

    def test_generated_models_leave_none(self, tmp_path):
        argvs = []
        for seed in range(50):
            model = generate_model(seed)
            source = tmp_path / f"model{seed}.er"
            source.write_text(emit_er(model), encoding="utf-8")
            variants = [[]]
            variants += [[f"--sog-choice={rel}={side}" for rel, side in choice.items()]
                         for choice in sog_configs(model) if choice]
            variants.append(["--prefer-regular"])
            argvs += [["roundtrip", str(source), *extra] for extra in variants]
        found = cyclic_garbage(*argvs)
        assert [(argv, garbage) for argv, garbage in zip(argvs, found)
                if garbage] == []

    def test_the_first_run_of_a_process_leaves_none(self):
        # argparse's help formatters hold cycles, so a plain command line
        # must not build the parser; a fresh interpreter shows whether it did.
        script = (
            "import gc, io\n"
            "from contextlib import redirect_stdout\n"
            "from er2rds import cli\n"
            "gc.disable(); gc.collect(); gc.freeze()\n"
            "with redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['roundtrip', {COMPANY_ER!r}])\n"
            "print(code, gc.collect(), cli.build_parser.cache_info().currsize)\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=checkout_env())
        assert (result.stdout, result.stderr) == ("0 0 0\n", "")

    def test_the_collector_is_off_while_a_command_runs(self, monkeypatch, capsys):
        seen = []

        def emit(schema):
            seen.append(gc.isenabled())
            return emit_rds(schema)

        monkeypatch.setattr(cli, "emit_rds", emit)
        assert main(["transform", COMPANY_ER]) == 0
        assert seen == [False]

    RUNS = [
        (["validate", COMPANY_ER], 0),
        (["roundtrip", COMPANY_RDS], 2),  # .rds text does not parse as .er
        (["validate", str(golden_path("absent.er"))], 3),
        (["validate"], SystemExit),
        (["--help"], SystemExit),
    ]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv, outcome", RUNS,
                             ids=["exit-0", "exit-2", "exit-3", "usage-error", "help"])
    def test_the_collector_state_is_restored(self, argv, outcome, enabled, capsys):
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == outcome
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()


class TestLineEndings:
    """The input is read as bytes; carriage returns end lines as in text
    mode."""

    ENDINGS = ["\n", "\r\n", "\r"]

    def outcomes(self, command, text, tmp_path, capsys):
        results = []
        for index, ending in enumerate(self.ENDINGS):
            source = tmp_path / f"input{index}"
            source.write_bytes(text.replace("\n", ending).encode("utf-8"))
            code = main([command, str(source)])
            out, err = capsys.readouterr()
            results.append((code, out, err.replace(str(source), "<input>")))
        return results

    @pytest.mark.parametrize("command, golden", [
        ("transform", "company.er"), ("roundtrip", "company.er"),
        ("reverse", "company.rds"), ("ddl", "company.rds"),
    ])
    def test_every_line_ending_gives_the_same_output(self, command, golden,
                                                     tmp_path, capsys):
        text = golden_path(golden).read_text(encoding="utf-8")
        first, *others = self.outcomes(command, text, tmp_path, capsys)
        assert first[0] in (0, 1) and first[1]
        assert others == [first, first]

    def test_an_error_has_the_same_position_for_every_line_ending(self, tmp_path,
                                                                 capsys):
        text = "entity Alpha { key AlpNo; }\n\nentity Bravo {\n  key BraNo\n}\n"
        first, *others = self.outcomes("validate", text, tmp_path, capsys)
        assert first == (2, "", "<input>:5:1: error[SYNTAX]: expected ';', "
                                "found '}'\n")
        assert others == [first, first]
