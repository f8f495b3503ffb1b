import hashlib
import random

import pytest

from er2rds import (
    Attribute,
    AttributeKind,
    CardinalityPair,
    Diagnostic,
    ERModel,
    FkSuffix,
    RdsAttribute,
    RegularEntityType,
    Relation,
    RelationalSchema,
    RelationshipEndpoint,
    Severity,
    canonical_model,
    classify_relations,
    emit_er,
    format_diagnostic,
    model_diff,
    normalize_model,
    parse_er,
    parse_rds,
    reconstruct_sog_choices,
    render_ddl,
    reverse_transform,
    transform_model,
    validate_notation,
)
from er2rds import ddl, reverse
from er2rds.reverse import RelationKind
from conftest import golden_path, named
from genmodels import scaled_model
from geninputs import edited_schema_text, schema_text


def schema_of(text):
    schema, diagnostics = parse_rds(text, "test.rds")
    assert schema is not None, diagnostics
    return schema


def reverse_clean(text):
    model, diagnostics = reverse_transform(schema_of(text))
    assert model is not None
    assert all(d.rule_id == "NORM" for d in diagnostics), diagnostics
    return model


def error_rules(text):
    model, diagnostics = reverse_transform(schema_of(text))
    assert model is None
    return [d.rule_id for d in diagnostics if d.severity is Severity.ERROR]


def errors_of(schema):
    """The formatted error diagnostics of a failed reversal."""
    model, diagnostics = reverse_transform(schema)
    assert model is None
    return [format_diagnostic(d, "test.rds") for d in diagnostics
            if d.severity is Severity.ERROR]


class TestClassification:
    def test_golden_schema_kinds(self, company_schema):
        kinds, owners, diagnostics = classify_relations(company_schema)
        assert not diagnostics
        assert owners == {"EmpNo": "Employee", "ProNo": "Project", "DepNo": "Department"}
        assert kinds == {
            "Employee": RelationKind.REGULAR_ENTITY,
            "Project": RelationKind.REGULAR_ENTITY,
            "Department": RelationKind.REGULAR_ENTITY,
            "Engineer": RelationKind.SUBTYPE,
            "Location": RelationKind.MULTIVALUED,
            "Dependent": RelationKind.WEAK,
        }

    def test_a_lone_key_only_relation_is_a_regular_entity(self):
        kinds, _, _ = classify_relations(schema_of("Employee[_EmpNo_]"))
        assert kinds == {"Employee": RelationKind.REGULAR_ENTITY}

    def test_no_underlined_attribute_is_unclassifiable(self):
        schema = schema_of("Employee[EmpNo, Name]")
        kinds, _, diagnostics = classify_relations(schema)
        assert kinds == {}
        assert [d.rule_id for d in diagnostics] == ["CLASSIFY"]

    def test_underline_after_a_gap_is_unclassifiable(self):
        schema = schema_of("Employee[_EmpNo_, Name, _Salary_]")
        _, _, diagnostics = classify_relations(schema)
        assert [d.rule_id for d in diagnostics] == ["CLASSIFY"]

    def test_two_underlines_with_a_mismatched_second_name_are_not_guessed(self):
        # shaped like a multivalued relation except for the second name
        schema = schema_of("Department[_DepNo_, Field]\nLocation[_DepNo_, _Site_]")
        kinds, _, diagnostics = classify_relations(schema)
        assert "Location" not in kinds
        assert [d.rule_id for d in diagnostics] == ["CLASSIFY"]

    def test_orphan_dependent_relation_is_an_error(self):
        # no relation owns EmpNo, so the weak shape cannot anchor
        assert error_rules("Dependent[_EmpNo_, _Name_, Sex]") == ["CLASSIFY"]

    def test_three_underlines_fit_no_shape(self):
        schema = schema_of("Abc[_AbcNo_]\nXyz[_AbcNo_, _Big_, _Cat_]")
        kinds, _, diagnostics = classify_relations(schema)
        assert kinds == {"Abc": RelationKind.REGULAR_ENTITY}
        assert [format_diagnostic(d, "test.rds") for d in diagnostics] == [
            "test.rds: error[CLASSIFY]: relation 'Xyz' is unclassifiable: 3 "
            "underlined attributes fit no known shape (Xyz)"]

    def test_duplicate_primary_keys_resolve_to_the_first_owner(self):
        schema = schema_of("Employee[_EmpNo_]\nEmp[_EmpNo_, Grade, Extra]")
        kinds, owners, diagnostics = classify_relations(schema)
        assert kinds["Emp"] is RelationKind.REGULAR_ENTITY
        assert owners == {"EmpNo": "Employee"}
        warnings = [d for d in diagnostics if d.severity is Severity.WARNING]
        assert len(warnings) == 2  # shared key, and Emp also fits a dependent shape
        assert all(d.rule_id == "CLASSIFY" for d in warnings)

    def test_the_regular_reading_wins_over_a_dependent_shape(self):
        schema = schema_of("Employee[_EmpNo_]\nEmpire[_EmpNo_, Grade]")
        kinds, _, diagnostics = classify_relations(schema)
        assert kinds["Empire"] is RelationKind.REGULAR_ENTITY
        assert any(d.severity is Severity.WARNING and "subtype" in d.message
                   for d in diagnostics)


# A shape error comes after a key owned twice in schema order, and a
# dependent reading after both.
FINDING_ORDER_TEXT = ("Ivory[_IvoNo_, Name]\nIvo[_IvoNo_, Size]\nBad[Name]\n"
                      "DelNo[_IvoNo_, _Del_]\n")


class TestFindingOrder:
    @pytest.mark.parametrize("stage", [reverse_transform, render_ddl])
    def test_shape_errors_then_keys_owned_twice_then_dependent_readings(self, stage):
        _, diagnostics = stage(schema_of(FINDING_ORDER_TEXT))
        assert [format_diagnostic(d, "test.rds") for d in diagnostics] == [
            "test.rds: error[CLASSIFY]: relation 'Bad' is unclassifiable: no "
            "leading underlined attribute (Bad)",
            "test.rds: warning[CLASSIFY]: relations 'Ivory' and 'Ivo' both own "
            "primary key 'IvoNo'; references resolve to 'Ivory' (Ivo)",
            "test.rds: warning[CLASSIFY]: relation 'Ivo' also matches the subtype "
            "shape; treating it as a regular entity relation (Ivo)",
            "test.rds: error[CLASSIFY]: relation 'DelNo' is unclassifiable: two "
            "underlined attributes but the second is not named after the "
            "relation (DelNo)",
        ]


class TestReverseGolden:
    def test_reversal_equals_the_normalized_source(self, company_model,
                                                   company_schema):
        model, _ = reverse_transform(company_schema)
        assert model is not None
        assert model_diff(normalize_model(company_model), model) == []

    def test_the_prefix_resurrects_a_subtype_without_a_relation(self, company_schema):
        model, _ = reverse_transform(company_schema)
        manager = named(model.subtypes, "Manager")
        assert manager is not None
        assert manager.supertype == "Employee"
        assert manager.attributes == ()

    def test_discovery_order(self, company_schema):
        model, _ = reverse_transform(company_schema)
        assert [e.name for e in model.entities] == \
            ["Employee", "Project", "Department"]
        assert [s.name for s in model.subtypes] == ["Engineer", "Manager"]
        assert [r.name for r in model.relationships] == \
            ["Controls", "Consult", "Manages"]

    def test_multivalued_attributes_return_to_their_owner(self, company_schema):
        model, _ = reverse_transform(company_schema)
        department = named(model.entities, "Department")
        assert [a.name for a in department.multivalued_attributes()] == ["Location"]

    def test_weak_entities_are_rebuilt_with_a_generated_identifying_name(
            self, company_schema):
        model, diagnostics = reverse_transform(company_schema)
        (dependent,) = [weak for weak in model.weak_entities if weak.name == "Dependent"]
        assert dependent.owner == "Employee"
        assert dependent.identifying_relationship == "DependentOf"
        assert dependent.partial_key.name == "Name"
        assert any(d.rule_id == "NORM" and "DependentOf" in d.message
                   for d in diagnostics)

    def test_relationships_carry_their_pairs_and_attributes(self, company_schema):
        model, _ = reverse_transform(company_schema)
        (consult,) = [rel for rel in model.relationships if rel.name == "Consult"]
        assert [(ep.participant, ep.pair.min, ep.pair.max)
                for ep in consult.endpoints] == \
            [("Engineer", "1", "1"), ("Project", "1", "1")]
        assert [a.name for a in consult.attributes] == ["Hours"]
        (controls,) = [rel for rel in model.relationships if rel.name == "Controls"]
        assert [(ep.participant, ep.pair.min, ep.pair.max)
                for ep in controls.endpoints] == \
            [("Project", "1", "1"), ("Department", "1", "n")]


class TestClassifiesOnce:
    def test_reversal_classifies_the_schema_once(self, company_schema, monkeypatch):
        calls = []
        original = reverse.classify_relations

        def counting(schema):
            calls.append(schema)
            return original(schema)

        monkeypatch.setattr(reverse, "classify_relations", counting)
        model, _ = reverse_transform(company_schema)
        assert model is not None and len(model.relationships) == 3
        assert len(calls) == 1


class TestOneKeyOwnerMap:
    # Classification builds the key-owner map; reversal classifies once
    # (TestClassifiesOnce), and so does the DDL projection.
    def test_the_ddl_projection_builds_one_key_owner_map(self, company_schema,
                                                         monkeypatch):
        calls = []
        original = reverse.classify_relations

        def counting(schema):
            calls.append(schema)
            return original(schema)

        monkeypatch.setattr(ddl, "classify_relations", counting)
        sql = golden_path("company.sql").read_text(encoding="utf-8")
        assert render_ddl(company_schema) == (sql, [])
        assert calls == [company_schema]


class _CountingList(list):
    """A relation list that counts its walks: iterations, and the scans
    that ``in`` and ``index`` make."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def __contains__(self, item):
        self.walks += 1
        return super().__contains__(item)

    def index(self, *args):
        self.walks += 1
        return super().index(*args)


def _relation_list_walks(stage, n):
    schema, _ = transform_model(scaled_model(n))
    schema.relations = _CountingList(schema.relations)
    stage(schema)
    return schema.relations.walks


class TestLinearWalks:
    @pytest.mark.parametrize("stage", [reverse_transform, render_ddl])
    def test_the_relation_list_is_walked_as_often_at_every_size(self, stage):
        assert _relation_list_walks(stage, 20) == _relation_list_walks(stage, 80)

    def test_reversal_walks_the_relation_list_twice(self):
        # One walk classifies, one rebuilds the model.
        assert _relation_list_walks(reverse_transform, 20) == 2


class TestOrderNotes:
    def test_each_reversal_returns_its_own_list_with_equal_notes(self, company_schema):
        first_model, first = reverse_transform(company_schema)
        second_model, second = reverse_transform(company_schema)
        assert first_model is not None and second_model is not None
        assert first is not second
        assert first == second
        notes = [d for d in first if d.rule_id == "NORM" and d.element is None]
        assert [d.message for d in notes] == [
            "element declaration order reconstructed from schema order",
            "entity attribute order reconstructed from relation order: "
            "designated key first, multivalued attributes last",
        ]

    def test_extending_one_list_leaves_the_next_alone(self, company_schema):
        _, first = reverse_transform(company_schema)
        expected = list(first)
        first.append(Diagnostic("NORM", Severity.WARNING, "added by the caller"))
        first.extend(first[:2])
        _, second = reverse_transform(company_schema)
        assert second == expected


class TestReverseErrors:
    def test_a_dangling_foreign_key(self):
        assert errors_of(schema_of("Alpha[_AlpNo_, BetNo(Grove, 1, 1, n)]")) == [
            "test.rds: error[FK]: foreign key 'BetNo' in relation 'Alpha' matches "
            "no regular relation's primary key (Alpha)"]

    def test_two_foreign_keys_encoding_the_same_relationship(self):
        text = ("Alpha[_AlpNo_]\n"
                "Bravo[_BraNo_, AlpNo(Grove, 1, 1, n)]\n"
                "Cedar[_CedNo_, AlpNo(Grove, 1, 1, n)]\n")
        assert errors_of(schema_of(text)) == [
            "test.rds: error[FK]: relationship 'Grove' is encoded by more than "
            "one foreign key (Cedar)"]

    def test_a_prefix_naming_a_regular_relation(self):
        text = ("Alpha[_AlpNo_]\n"
                "Bravo[_BraNo_]\n"
                "Cedar[_CedNo_, Bravo-AlpNo(Grove, 1, 1, 1)]\n")
        assert errors_of(schema_of(text)) == [
            "test.rds: error[FK]: prefix 'Bravo' names a regular-entity relation "
            "(Cedar)"]

    def test_a_prefix_reused_with_a_different_supertype(self):
        text = ("Alpha[_AlpNo_]\n"
                "Bravo[_BraNo_]\n"
                "Cedar[_CedNo_, Sub-AlpNo(Grove, 1, 1, 1)]\n"
                "Delta[_DelNo_, Sub-BraNo(Hazel, 1, 1, 1)]\n")
        assert errors_of(schema_of(text)) == [
            "test.rds: error[FK]: subtype 'Sub' appears with supertypes 'Alpha' "
            "and 'Bravo' (Delta)"]

    def test_a_foreign_key_inside_a_weak_relation(self):
        text = ("Alpha[_AlpNo_]\n"
                "Bravo[_BraNo_]\n"
                "Cedar[_AlpNo_, _PartAa_, BraNo(Grove, 1, 1, n)]\n")
        assert errors_of(schema_of(text)) == [
            "test.rds: error[FK]: weak entity relation 'Cedar' carries an "
            "unexpected foreign key (Cedar)"]

    def test_a_foreign_key_inside_a_multivalued_relation(self):
        # Both attributes of a multivalued relation are underlined, and the
        # reader refuses a suffix on an underlined attribute, so only a schema
        # built in code can hold one.
        schema = RelationalSchema([
            Relation("Alpha", [RdsAttribute("AlpNo", underlined=True)]),
            Relation("Color", [
                RdsAttribute("AlpNo", underlined=True),
                RdsAttribute("Color", underlined=True,
                             suffix=FkSuffix("Grove", "1", "1", "n")),
            ]),
        ])
        assert classify_relations(schema)[0]["Color"] is RelationKind.MULTIVALUED
        assert errors_of(schema) == [
            "test.rds: error[FK]: multivalued relation 'Color' carries an "
            "unexpected foreign key (Color)"]

    def test_a_suffix_outside_the_notation_is_left_to_the_gate(self):
        # The reader refuses such values, so only a schema built in code can
        # hold them; cardinality_pair builds the pairs, which the gate refuses.
        schema = RelationalSchema([
            Relation("Alpha", [RdsAttribute("AlpNo", underlined=True)]),
            Relation("Bravo", [
                RdsAttribute("BraNo", underlined=True),
                RdsAttribute("AlpNo", suffix=FkSuffix("Works", "2", "0", "5")),
            ]),
        ])
        model, _ = reverse_transform(schema)
        assert named(model.relationships, "Works").endpoints == (
            RelationshipEndpoint("Bravo", CardinalityPair("2", "1")),
            RelationshipEndpoint("Alpha", CardinalityPair("0", "5")))
        assert [format_diagnostic(d, "test.rds") for d in validate_notation(model)] == [
            "test.rds: error[SUBSET]: minimum participation must be 0 or 1, found "
            "'2' (relationship Works)",
            "test.rds: error[SUBSET]: maximum participation must be 1 or n, found "
            "'5' (relationship Works)"]


# The reader refuses a repeated relation name, so only a schema built in code
# can hold one.
REPEATED_NAME = RelationalSchema([
    Relation("Alpha", [RdsAttribute("AlpNo", True)]),
    Relation("Alpha", [RdsAttribute("BraNo", True), RdsAttribute("Size")]),
])
REPEATED_NAME_ERROR = ("test.rds: error[CLASSIFY]: relation 'Alpha' is declared "
                       "more than once (Alpha)")


class TestRepeatedRelationName:
    def test_reversal_fails_on_it(self):
        assert errors_of(REPEATED_NAME) == [REPEATED_NAME_ERROR]

    def test_classification_keeps_the_first_relation(self):
        kinds, _, diagnostics = classify_relations(REPEATED_NAME)
        assert kinds == {"Alpha": RelationKind.REGULAR_ENTITY}
        assert [format_diagnostic(d, "test.rds") for d in diagnostics] == [
            REPEATED_NAME_ERROR]

    def test_the_ddl_projection_reports_it(self):
        sql, diagnostics = render_ddl(REPEATED_NAME)
        assert [format_diagnostic(d, "test.rds") for d in diagnostics] == [
            REPEATED_NAME_ERROR]
        assert sql.count("CREATE TABLE Alpha (") == 2


# --------------------------------------------------------------------------
# Schema-side golden diagnostics


def schema_texts():
    rng = random.Random(28)
    return [schema_text(rng) for _ in range(1000)]


def edited_schema_texts():
    rng = random.Random(29)
    return [edited_schema_text(rng) for _ in range(1000)]


def _indented(text: str) -> list[str]:
    return [f"  {line}".rstrip() for line in text.splitlines()]


def schema_record(text):
    """The text, then the verdict of parse_rds with its diagnostics; for a
    schema, the .er text reverse_transform emits (or none) with its
    diagnostics, then render_ddl's SQL with its diagnostics."""
    schema, diagnostics = parse_rds(text, "in.rds")
    lines = [repr(text)]
    if schema is None:
        lines.append("none")
        lines += [format_diagnostic(d, "in.rds") for d in diagnostics]
        return "\n".join(lines)
    model, diagnostics = reverse_transform(schema)
    lines.append("reverse" if model is not None else "reverse none")
    if model is not None:
        lines += _indented(emit_er(model))
    lines += [format_diagnostic(d, "in.rds") for d in diagnostics]
    sql, diagnostics = render_ddl(schema)
    lines += ["ddl", *_indented(sql)]
    lines += [format_diagnostic(d, "in.rds") for d in diagnostics]
    return "\n".join(lines)


# Texts that reach findings the generated blocks miss, and the four findings
# whose order a merged first walk would change.
_SCHEMA_EDGE_TEXTS = [FINDING_ORDER_TEXT]


def golden_schema_diagnostics():
    """The contents of golden/rds_diagnostics.txt: every edge text in full,
    and the generated texts as one sha256 per block of 100 records."""
    records = [schema_record(text) for text in _SCHEMA_EDGE_TEXTS]
    for label, texts in (("schemas", schema_texts()),
                         ("edited", edited_schema_texts())):
        for start in range(0, len(texts), 100):
            block = "\n\n".join(schema_record(text) for text in texts[start:start + 100])
            digest = hashlib.sha256(block.encode("utf-8")).hexdigest()
            records.append(f"{label} {start}-{start + 99} sha256 {digest}")
    return "\n\n".join(records) + "\n"


class TestGoldenSchemaDiagnostics:
    def test_verdicts_and_diagnostics_match_the_golden_file(self):
        expected = golden_path("rds_diagnostics.txt").read_text(encoding="utf-8")
        assert golden_schema_diagnostics() == expected


class TestModelComparison:
    def test_normalization_reorders_entity_attributes(self):
        model, _ = parse_er(
            "entity Employee { attr Name; key SSN; key EmpNo; multi Skill; attr Age; }"
        )
        normalized = normalize_model(model)
        assert [a.name for a in named(normalized.entities, "Employee").attributes] == \
            ["EmpNo", "SSN", "Name", "Age", "Skill"]

    def test_normalization_renames_identifying_relationships(self):
        model, _ = parse_er(
            "entity Employee { key EmpNo; }\n"
            "weak Dependent of Employee via Supports { partial Name; attr Sex; }"
        )
        (weak,) = [weak for weak in normalize_model(model).weak_entities
                   if weak.name == "Dependent"]
        assert weak.identifying_relationship == "DependentOf"

    def test_canonical_form_ignores_declaration_order(self):
        first, _ = parse_er(
            "entity Alpha { key AlpNo; }\n"
            "entity Bravo { key BraNo; }\n"
            "rel Grove (Alpha 1..n, Bravo 1..1) { }"
        )
        second, _ = parse_er(
            "entity Bravo { key BraNo; }\n"
            "entity Alpha { key AlpNo; }\n"
            "rel Grove (Bravo 1..1, Alpha 1..n) { }"
        )
        assert canonical_model(first) == canonical_model(second)
        assert model_diff(first, second) == []

    def test_differences_are_reported_with_paths(self):
        base, _ = parse_er("entity Alpha { key AlpNo; attr Size; }")
        other, _ = parse_er("entity Alpha { key AlpNo; attr Mass; }")
        differences = model_diff(base, other)
        assert len(differences) == 1
        assert "Size" in differences[0] and "Mass" in differences[0]

    def test_element_count_differences_are_reported(self):
        base, _ = parse_er("entity Alpha { key AlpNo; }")
        other, _ = parse_er("entity Alpha { key AlpNo; }\nentity Bravo { key BraNo; }")
        differences = model_diff(base, other)
        assert any("entities" in line for line in differences)

    def test_the_fields_of_a_record_are_compared_in_sorted_order(self):
        key = Attribute("AlpNo", AttributeKind.KEY)
        base = ERModel((RegularEntityType("Alpha", (key,)),))
        other = ERModel((RegularEntityType("Bravo", (Attribute("BraNo"),)),))
        assert model_diff(base, other) == [
            "model.entities[0].attributes[0].kind: "
            "expected <AttributeKind.KEY: 'key'>, found <AttributeKind.SIMPLE: 'simple'>",
            "model.entities[0].attributes[0].name: expected 'AlpNo', found 'BraNo'",
            "model.entities[0].name: expected 'Alpha', found 'Bravo'"]

    def test_a_sequence_against_a_non_sequence_is_one_difference(self):
        # Only a model built in code can hold something else than a tuple.
        base = ERModel((RegularEntityType("Alpha", ()),))
        other = ERModel((RegularEntityType("Alpha", None),))
        assert model_diff(base, other) == [
            "model.entities[0].attributes: expected (), found None"]
        assert model_diff(other, base) == [
            "model.entities[0].attributes: expected None, found ()"]


class TestChoiceRecovery:
    def test_hosts_of_one_to_one_keys_are_recovered(self, company_schema):
        assert reconstruct_sog_choices(company_schema) == {
            "Manages": "Department",
            "Consult": "Engineer",
        }

    def test_one_to_many_keys_are_not_choices(self):
        schema = schema_of("Alpha[_AlpNo_]\nBravo[_BraNo_, AlpNo(Grove, 1, 1, n)]")
        assert reconstruct_sog_choices(schema) == {}
