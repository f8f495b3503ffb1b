import random
from types import SimpleNamespace

import pytest

from conftest import golden_path
from er2rds import (
    Attribute, AttributeKind, ERModel, FkSuffix, RdsAttribute, RegularEntityType,
    Relation, RelationalSchema, emit_rds, parse_rds, transform_model, validate_notation,
)
from er2rds import rds_text
from er2rds.model import Severity
from er2rds.rds_text import render_attribute, render_relation, render_suffix
from genmodels import scaled_model

MALFORMED_LINES = ["Employee", "Employee[_EmpNo_", "Emp loyee[_EmpNo_]"]
MALFORMED_ATTRIBUTES = [
    "DepNo(Controls, 1, 1)",
    "DepNo(Controls, 1, 1, x)",
    "DepNo(Controls, 2, 1, n)",
    "_Emp_No_",
]
# Each with one name, the second item, that starts in lower case.
LOWER_CASE_NAMES = [
    ("dept[_DepNo_, Name]", "dept"),
    ("Dept[_depNo_, Name]", "depNo"),
    ("Dept[_DepNo_, name]", "name"),
    ("Dept[_DepNo_, manager-EmpNo(Manages, 1, 1, 1)]", "manager"),
    ("Dept[_DepNo_, EmpNo(manages, 1, 1, 1)]", "manages"),
]
# Every other text the tests below read.
TEXTS = [
    "Project[_ProNo_, DepNo(Controls,1,1,n)]",
    "Department[_DepNo_, Manager–EmpNo(Manages, 1, 1, 1)]",
    "// header\n\nEmployee[_EmpNo_] // trailing\n",
    "",
    "Project[_ProNo_(Controls, 1, 1, n)]",
    "Department[_DepNo_, Manager-EmpNo]",
    "Employee[]",
    "Employee[_EmpNo_]\nEmployee[_Name_]",
    "Employee[_EmpNo_, Name, Name]",
    "Employee[_EmpNo_]\nbroken line\n",
]


def parse_clean(text):
    schema, diagnostics = parse_rds(text, "test.rds")
    assert schema is not None and not diagnostics, diagnostics
    return schema


def rule_ids(diagnostics):
    return [d.rule_id for d in diagnostics]


class TestRendering:
    def test_underlined(self):
        assert render_attribute(RdsAttribute("EmpNo", underlined=True)) == "_EmpNo_"

    def test_suffixed(self):
        attr = RdsAttribute("DepNo", suffix=FkSuffix("Controls", "1", "1", "n"))
        assert render_suffix(attr.suffix) == "(Controls, 1, 1, n)"
        assert render_attribute(attr) == "DepNo(Controls, 1, 1, n)"

    def test_prefixed_and_suffixed(self):
        attr = RdsAttribute("EmpNo", prefix="Manager",
                            suffix=FkSuffix("Manages", "1", "1", "1"))
        assert render_attribute(attr) == "Manager-EmpNo(Manages, 1, 1, 1)"

    def test_relation_line(self):
        relation = Relation("Employee", [
            RdsAttribute("EmpNo", underlined=True), RdsAttribute("Name"),
        ])
        assert render_relation(relation) == "Employee[_EmpNo_, Name]"

    def test_empty_schema_emits_nothing(self):
        assert emit_rds(RelationalSchema()) == ""


class TestParsing:
    def test_golden_file_round_trips_byte_for_byte(self, company_rds_text):
        schema = parse_clean(company_rds_text)
        assert emit_rds(schema) == company_rds_text

    def test_variant_golden_file_round_trips(self, variant_rds_text):
        schema = parse_clean(variant_rds_text)
        assert emit_rds(schema) == variant_rds_text

    def test_reparsing_emitted_text_reproduces_the_schema(self, company_schema):
        again, diagnostics = parse_rds(emit_rds(company_schema), "again.rds")
        assert not diagnostics
        assert again == company_schema

    def test_flags_survive_the_round_trip(self, company_schema):
        (department,) = [relation for relation in company_schema.relations
                         if relation.name == "Department"]
        names = [(a.display_name(), a.underlined) for a in department.attributes]
        assert names == [("DepNo", True), ("Name", True), ("Field", False),
                         ("Manager-EmpNo", False), ("StartDate", False)]
        fk = department.attributes[3]
        assert fk.prefix == "Manager"
        assert fk.suffix == FkSuffix("Manages", "1", "1", "1")

    def test_spacing_inside_suffixes_is_normalized(self):
        schema = parse_clean("Project[_ProNo_, DepNo(Controls,1,1,n)]")
        assert emit_rds(schema) == "Project[_ProNo_, DepNo(Controls, 1, 1, n)]\n"

    def test_an_en_dash_prefix_separator_is_read_as_a_hyphen(self):
        schema = parse_clean("Department[_DepNo_, Manager–EmpNo(Manages, 1, 1, 1)]")
        assert emit_rds(schema) == \
            "Department[_DepNo_, Manager-EmpNo(Manages, 1, 1, 1)]\n"

    def test_comments_and_blank_lines_are_skipped(self):
        schema = parse_clean(
            "// header\n\nEmployee[_EmpNo_] // trailing\n"
        )
        assert [relation.name for relation in schema.relations] == ["Employee"]

    def test_empty_input_is_an_empty_schema(self):
        assert parse_clean("").relations == []


class TestParseErrors:
    def test_suffix_on_an_underlined_attribute(self):
        schema, diagnostics = parse_rds("Project[_ProNo_(Controls, 1, 1, n)]")
        assert schema is None
        assert rule_ids(diagnostics) == ["INVARIANT"]

    def test_prefix_without_a_suffix(self):
        schema, diagnostics = parse_rds("Department[_DepNo_, Manager-EmpNo]")
        assert schema is None
        assert rule_ids(diagnostics) == ["INVARIANT"]

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_relation_lines(self, line):
        schema, diagnostics = parse_rds(line)
        assert schema is None
        assert rule_ids(diagnostics) == ["SYNTAX"]

    @pytest.mark.parametrize("attr", MALFORMED_ATTRIBUTES)
    def test_malformed_attributes(self, attr):
        schema, diagnostics = parse_rds(f"Employee[{attr}]")
        assert schema is None
        assert rule_ids(diagnostics) == ["SYNTAX"]

    # A comma inside parentheses, even unbalanced ones, does not split.
    @pytest.mark.parametrize("text, part", [
        ("R[A), B]", "A), B"),
        ("R[_RNo_, A(B, C]", "A(B, C"),
    ])
    def test_unbalanced_parentheses_keep_their_commas(self, text, part):
        schema, diagnostics = parse_rds(text)
        assert schema is None
        assert [(d.rule_id, d.message) for d in diagnostics] == [
            ("SYNTAX", f"malformed attribute {part!r}")]

    def test_a_relation_needs_attributes(self):
        schema, diagnostics = parse_rds("Employee[]")
        assert schema is None
        assert rule_ids(diagnostics) == ["SYNTAX"]

    def test_duplicate_relation_names(self):
        schema, diagnostics = parse_rds("Employee[_EmpNo_]\nEmployee[_Name_]")
        assert schema is None
        assert rule_ids(diagnostics) == ["REF"]
        # Classification words a repeat in a schema built in code the same way.
        assert diagnostics[0].message == (
            "relation 'Employee' is declared more than once")

    def test_duplicate_attribute_names_within_a_relation(self):
        schema, diagnostics = parse_rds("Employee[_EmpNo_, Name, Name]")
        assert schema is None
        assert rule_ids(diagnostics) == ["REF"]

    @pytest.mark.parametrize("text, name", LOWER_CASE_NAMES)
    def test_names_must_start_in_upper_case(self, text, name):
        schema, diagnostics = parse_rds(f"Employee[_EmpNo_]\n{text}")
        assert schema is None
        assert [(d.rule_id, d.severity, d.message, d.line) for d in diagnostics] == [
            ("R2.5.1", Severity.ERROR,
             f"name {name!r} must start with an uppercase letter", 2)]

    def test_a_lower_case_name_is_refused_in_the_validators_words(self):
        _, diagnostics = parse_rds("dept[_DepNo_]")
        model = ERModel(entities=(
            RegularEntityType("dept", (Attribute("DepNo", AttributeKind.KEY),)),))
        assert [d.message for d in diagnostics] == [
            d.message for d in validate_notation(model) if d.rule_id == "R2.5.1"]

    def test_diagnostics_carry_line_numbers(self):
        _, diagnostics = parse_rds("Employee[_EmpNo_]\nbroken line\n")
        assert diagnostics[0].line == 2


def company_mutants(company_rds_text, count=1000):
    """Texts one character away from the golden schema."""
    rng = random.Random(4)
    alphabet = "aEnN01_-–[](),/ \t\n"
    for _ in range(count):
        at = rng.randrange(len(company_rds_text) + 1)
        if rng.random() < 0.5 and at < len(company_rds_text):
            yield company_rds_text[:at] + company_rds_text[at + 1:]
        else:
            yield company_rds_text[:at] + rng.choice(alphabet) + company_rds_text[at:]


class TestValueOrErrors:
    def test_every_text_reads_to_a_schema_or_to_errors(self, company_rds_text):
        # the contract the command-line pipeline relies on
        texts = [*TEXTS, *MALFORMED_LINES, *(text for text, _ in LOWER_CASE_NAMES),
                 *(f"Employee[{attr}]" for attr in MALFORMED_ATTRIBUTES),
                 company_rds_text,
                 golden_path("company_consult_project.rds").read_text(encoding="utf-8"),
                 *company_mutants(company_rds_text)]
        verdicts = set()
        for text in texts:
            schema, diagnostics = parse_rds(text)
            if schema is None:
                assert diagnostics, repr(text)
                assert all(d.severity is Severity.ERROR for d in diagnostics), repr(text)
            else:
                assert diagnostics == [], repr(text)
            verdicts.add(schema is None)
        assert verdicts == {True, False}


def _parse_calls_per_element(n, monkeypatch):
    """The calls that parse_rds makes on the schema of scaled_model(n): of
    the relation-line pattern and the splitter per relation, of the attribute
    reader and the underlined pattern per attribute, and of the plain pattern
    per attribute that is not underlined."""
    schema, _ = transform_model(scaled_model(n))
    attributes = [a for relation in schema.relations for a in relation.attributes]
    per = {"_LINE_RE": len(schema.relations), "_split_attributes": len(schema.relations),
           "_parse_attribute": len(attributes), "_UNDERLINED_RE": len(attributes),
           "_PLAIN_RE": sum(not a.underlined for a in attributes)}
    calls = dict.fromkeys(per, 0)

    def counting(name, call):
        def counted(*args):
            calls[name] += 1
            return call(*args)
        return counted

    with monkeypatch.context() as patch:
        for name in per:
            original = getattr(rds_text, name)
            if name.endswith("_RE"):
                patch.setattr(rds_text, name,
                              SimpleNamespace(match=counting(name, original.match)))
            else:
                patch.setattr(rds_text, name, counting(name, original))
        assert parse_rds(emit_rds(schema)) == (schema, [])
    return {name: calls[name] / count for name, count in per.items()}


class TestLinearParse:
    def test_parse_rds_calls_its_readers_once_per_element_at_every_size(
            self, monkeypatch):
        once = {name: 1.0 for name in ("_LINE_RE", "_split_attributes",
                                       "_parse_attribute", "_UNDERLINED_RE",
                                       "_PLAIN_RE")}
        assert _parse_calls_per_element(20, monkeypatch) == once
        assert _parse_calls_per_element(80, monkeypatch) == once
