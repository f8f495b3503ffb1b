import pathlib
import re

import pytest

from er2rds import (
    Attribute,
    AttributeKind,
    CardinalityPair,
    Diagnostic,
    ERModel,
    PrerequisiteFailed,
    RegularEntityType,
    RelationshipEndpoint,
    RelationshipType,
    Severity,
    Subtype,
    WeakEntityType,
    emit_er,
    parse_er,
    transform_model,
    validate_notation,
)
from er2rds.validator import RULES

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def model_of(text):
    model, diagnostics = parse_er(text, "fixture.er")
    assert model is not None, diagnostics
    return model


def findings(model, allow_extensions=False):
    return [(d.rule_id, d.severity) for d in
            validate_notation(model, allow_extensions=allow_extensions)]


def test_the_company_model_is_clean(company_model):
    assert validate_notation(company_model) == []


def test_the_readme_table_lists_exactly_the_catalog():
    section = README.read_text(encoding="utf-8").split("## Validation rules\n")[1]
    table = section.split("\n## ")[0]
    assert re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE) == list(RULES)


class TestKeyDesignation:
    def test_key_not_matching_the_entity_name_is_an_error(self):
        model = model_of("entity Employee { key SSN; }")
        assert findings(model) == [("R2.4.2", Severity.ERROR)]

    def test_two_matching_keys_are_a_warning_naming_the_designated_one(self):
        model = model_of("entity Employee { key EmpNo; key EmpId; }")
        diagnostics = validate_notation(model)
        assert [(d.rule_id, d.severity) for d in diagnostics] == \
            [("R2.4.2", Severity.WARNING)]
        assert "'EmpNo'" in diagnostics[0].message

    def test_one_matching_key_among_others_is_fine(self):
        model = model_of("entity Employee { key SSN; key EmpNo; }")
        assert findings(model) == []


class TestNameRules:
    def test_lowercase_entity_name_is_exactly_one_capitalization_error(self):
        model = model_of("entity employee { key EmpNo; }")
        assert findings(model) == [("R2.5.1", Severity.ERROR)]

    def test_lowercase_attribute_name_is_flagged_too(self):
        model = model_of("entity Employee { key EmpNo; attr salary; }")
        assert findings(model) == [("R2.5.1", Severity.ERROR)]

    def test_non_alphabetic_attribute_name_is_a_character_class_error(self):
        # the .er lexer already rejects such names, so build the model directly
        model = ERModel(entities=(
            RegularEntityType("Employee", (
                Attribute("EmpNo", AttributeKind.KEY),
                Attribute("Start_Date"),
            )),
        ))
        assert findings(model) == [("R2.5.2", Severity.ERROR)]

    def test_plural_entity_name_is_advisory_only(self):
        model = model_of("entity Employees { key EmpNo; }")
        assert findings(model) == [("R2.5.1", Severity.WARNING)]

    def test_double_s_endings_do_not_look_plural(self):
        model = model_of("entity Address { key AddNo; }")
        assert findings(model) == []

    def test_relationship_and_attribute_names_skip_the_plural_heuristic(self):
        # Controls, Manages, Hours stay silent in the company model
        model = model_of(
            "entity Alpha { key AlpNo; attr Hours; }\n"
            "entity Bravo { key BraNo; }\n"
            "rel Controls (Alpha 1..n, Bravo 1..1) { }"
        )
        assert findings(model) == []


def _attributes_named(*names):
    return tuple(Attribute(name) for name in names)


class TestNameRuleMessages:
    """The full text and element of every attribute name diagnostic."""

    def model(self):
        # non-alphabetic names cannot come through the parser
        return ERModel(
            entities=(
                RegularEntityType("Employee", (
                    Attribute("EmpNo", AttributeKind.KEY),
                    *_attributes_named("salary", "Start_Date"),
                )),
                RegularEntityType("Project", (Attribute("ProNo", AttributeKind.KEY),)),
            ),
            subtypes=(Subtype("Engineer", "Employee",
                              _attributes_named("grade", "Grade2")),),
            weak_entities=(WeakEntityType(
                "Dependent", "Employee", "depends", Attribute("name"),
                _attributes_named("Birth_Day")),),
            relationships=(RelationshipType(
                "WorksOn",
                (RelationshipEndpoint("Employee", CardinalityPair("1", "n")),
                 RelationshipEndpoint("Project", CardinalityPair("1", "1"))),
                _attributes_named("hours", "Hours2")),),
        )

    def test_each_attribute_name_diagnostic_in_full(self):
        error = Severity.ERROR
        assert validate_notation(self.model()) == [
            Diagnostic("R2.5.1", error,
                       "name 'salary' must start with an uppercase letter",
                       element="entity Employee, attribute salary"),
            Diagnostic("R2.5.2", error,
                       "name 'Start_Date' contains non-alphabetic characters",
                       element="entity Employee, attribute Start_Date"),
            Diagnostic("R2.5.1", error,
                       "name 'grade' must start with an uppercase letter",
                       element="subtype Engineer, attribute grade"),
            Diagnostic("R2.5.2", error,
                       "name 'Grade2' contains non-alphabetic characters",
                       element="subtype Engineer, attribute Grade2"),
            Diagnostic("R2.5.1", error,
                       "name 'depends' must start with an uppercase letter",
                       element="weak entity Dependent, identifying relationship"),
            Diagnostic("R2.5.1", error,
                       "name 'name' must start with an uppercase letter",
                       element="weak entity Dependent, attribute name"),
            Diagnostic("R2.5.2", error,
                       "name 'Birth_Day' contains non-alphabetic characters",
                       element="weak entity Dependent, attribute Birth_Day"),
            Diagnostic("R2.5.1", error,
                       "name 'hours' must start with an uppercase letter",
                       element="relationship WorksOn, attribute hours"),
            Diagnostic("R2.5.2", error,
                       "name 'Hours2' contains non-alphabetic characters",
                       element="relationship WorksOn, attribute Hours2"),
        ]


class TestSubtypeIndependence:
    def test_subtype_without_attributes_or_relationships_is_rejected(self, company_text):
        # strip the one relationship that involves Manager
        pruned = "\n\n".join(
            block for block in company_text.strip().split("\n\n")
            if not block.startswith("rel Manages")
        ) + "\n"
        model = model_of(pruned)
        assert findings(model) == [("R2.2.1-I", Severity.ERROR)]

    def test_an_intrinsic_attribute_satisfies_the_rule(self):
        model = model_of(
            "entity Employee { key EmpNo; }\n"
            "subtype Engineer of Employee { attr Grade; }"
        )
        assert findings(model) == []

    def test_a_relationship_satisfies_the_rule(self):
        model = model_of(
            "entity Employee { key EmpNo; }\n"
            "entity Department { key DepNo; }\n"
            "subtype Manager of Employee { }\n"
            "rel Manages (Manager 1..1, Department 1..1) { }"
        )
        assert findings(model) == []


class TestRelationshipSubset:
    def two_entities(self, rel_line):
        return model_of(
            "entity Alpha { key AlpNo; }\n"
            "entity Bravo { key BraNo; }\n"
            "subtype Gamma of Alpha { attr AttrAa; }\n"
            "subtype Delta of Alpha { attr AttrAb; }\n"
            + rel_line
        )

    def test_many_to_many_is_outside_the_subset(self):
        model = self.two_entities("rel Grove (Alpha 1..n, Bravo 0..n) { }")
        assert findings(model) == [("SUBSET", Severity.ERROR)]

    def test_one_to_one_needs_a_subtype_and_an_entity(self):
        model = self.two_entities("rel Grove (Alpha 1..1, Bravo 1..1) { }")
        assert findings(model) == [("SUBSET", Severity.ERROR)]

    def test_one_to_one_between_two_subtypes_is_rejected(self):
        model = self.two_entities("rel Grove (Gamma 1..1, Delta 1..1) { }")
        assert findings(model) == [("SUBSET", Severity.ERROR)]

    def test_one_to_one_subtype_entity_is_fine(self):
        model = self.two_entities("rel Grove (Gamma 1..1, Bravo 1..1) { }")
        assert findings(model) == []

    def test_self_relationship_is_rejected(self):
        model = self.two_entities("rel Grove (Alpha 1..1, Alpha 1..n) { }")
        assert findings(model) == [("SUBSET", Severity.ERROR)]

    def test_subtype_in_one_to_many_needs_extensions(self):
        text = "rel Grove (Gamma 1..n, Bravo 1..1) { }"
        model = self.two_entities(text)
        assert findings(model) == [("SUBSET", Severity.ERROR)]
        assert findings(model, allow_extensions=True) == []

    def test_many_to_many_stays_rejected_under_extensions(self):
        model = self.two_entities("rel Grove (Alpha 1..n, Bravo 0..n) { }")
        assert findings(model, allow_extensions=True) == \
            [("SUBSET", Severity.ERROR)]


def works(near, far):
    """Alpha and Bravo in a relationship Works with the given pairs, built in
    code, since the parser refuses a value outside the notation."""
    return ERModel(
        entities=(RegularEntityType("Alpha", (Attribute("AlpNo", AttributeKind.KEY),)),
                  RegularEntityType("Bravo", (Attribute("BraNo", AttributeKind.KEY),))),
        relationships=(RelationshipType("Works", (
            RelationshipEndpoint("Alpha", CardinalityPair(*near)),
            RelationshipEndpoint("Bravo", CardinalityPair(*far)))),))


class TestParticipationValues:
    @pytest.mark.parametrize("far, message", [
        (("2", "n"), "minimum participation must be 0 or 1, found '2'"),
        (("1", "5"), "maximum participation must be 1 or n, found '5'"),
        (("0", "N"), "maximum participation must be 1 or n, found 'N'"),
    ])
    def test_a_value_outside_the_notation_is_a_subset_error(self, far, message):
        model = works(("1", "1"), far)
        expected = [("SUBSET", message, "relationship Works")]
        assert [(d.rule_id, d.message, d.element)
                for d in validate_notation(model)] == expected
        with pytest.raises(PrerequisiteFailed) as raised:
            transform_model(model)
        assert [(d.rule_id, d.message, d.element)
                for d in raised.value.diagnostics] == expected

    def test_the_messages_are_the_parsers(self):
        for far in (("2", "n"), ("1", "5")):
            _, parsed = parse_er(emit_er(works(("1", "1"), far)))
            assert [d.message for d in parsed] == \
                [d.message for d in validate_notation(works(("1", "1"), far))]

    def test_every_bad_value_is_reported(self):
        model = works(("2", "5"), ("1", "m"))
        assert [(d.rule_id, d.message) for d in validate_notation(model)] == [
            ("SUBSET", "minimum participation must be 0 or 1, found '2'"),
            ("SUBSET", "maximum participation must be 1 or n, found '5'"),
            ("SUBSET", "maximum participation must be 1 or n, found 'm'"),
        ]

    def test_a_bad_value_replaces_the_shape_finding(self):
        # Both maxima are n, so the shape alone would be many-to-many.
        model = works(("3", "n"), ("1", "n"))
        assert [(d.rule_id, d.message) for d in validate_notation(model)] == [
            ("SUBSET", "minimum participation must be 0 or 1, found '3'")]


class TestOrdering:
    def test_diagnostics_follow_declaration_order(self):
        model = model_of(
            "entity zeta { key ZetNo; }\n"
            "entity Employee { key SSN; }\n"
            "subtype engineer of Employee { attr Grade; }"
        )
        assert [d.rule_id for d in validate_notation(model)] == \
            ["R2.5.1", "R2.4.2", "R2.5.1"]

    def test_each_element_reports_its_own_findings_by_rule_then_its_attributes(self):
        # Built in code: the parser refuses the dangling references and the
        # non-alphabetic name.
        error, warning = Severity.ERROR, Severity.WARNING
        model = ERModel(
            entities=(RegularEntityType("clerks", (
                Attribute("SSN", AttributeKind.KEY), Attribute("salary"))),),
            subtypes=(Subtype("engineer", "Ghost"),),
            weak_entities=(WeakEntityType(
                "Dep_endent", "clerks", "dependentOf",
                Attribute("Name", AttributeKind.PARTIAL_KEY)),),
            relationships=(RelationshipType(
                "works",
                (RelationshipEndpoint("Ghost", CardinalityPair("1", "n")),
                 RelationshipEndpoint("clerks", CardinalityPair("0", "1"))),
                (Attribute("hours"),)),),
        )
        assert [(d.rule_id, d.severity, d.element)
                for d in validate_notation(model)] == [
            ("R2.4.2", error, "entity clerks"),
            ("R2.5.1", error, "entity clerks"),
            ("R2.5.1", warning, "entity clerks"),
            ("R2.5.1", error, "entity clerks, attribute salary"),
            ("R2.2.1-I", error, "subtype engineer"),
            ("R2.5.1", error, "subtype engineer"),
            ("REF", error, "subtype engineer"),
            ("R2.5.1", error, "weak entity Dep_endent, identifying relationship"),
            ("R2.5.2", error, "weak entity Dep_endent"),
            ("R2.5.1", error, "relationship works"),
            ("REF", error, "rel works"),
            ("SUBSET", error, "relationship works"),
            ("R2.5.1", error, "relationship works, attribute hours"),
        ]


def test_an_unknown_participant_is_a_ref_and_a_subset_error():
    rel = RelationshipType("Grove", (
        RelationshipEndpoint("Ghost", CardinalityPair("1", "n")),
        RelationshipEndpoint("Alpha", CardinalityPair("1", "1")),
    ))
    model = ERModel(
        entities=(RegularEntityType("Alpha", (Attribute("AlpNo", AttributeKind.KEY),)),),
        relationships=(rel,),
    )
    assert validate_notation(model) == [
        Diagnostic("REF", Severity.ERROR,
                   "participant 'Ghost' is not an entity type or subtype",
                   element="rel Grove"),
        Diagnostic("SUBSET", Severity.ERROR,
                   "one-to-many relationship 'Grove' must relate two regular "
                   "entity types (subtype endpoints need extensions)",
                   element="relationship Grove"),
    ]
    assert validate_notation(model, allow_extensions=True) == \
        validate_notation(model)[:1]


class TestDeclaredNames:
    # In model order, so that the parser reads the elements in the order the
    # validator walks them.
    TEXT = (
        "entity Alpha { key AlpNo; }\n"
        "entity Bravo { key BraNo; }\n"
        "weak Gamma of Alpha via Bravo { partial Code; attr Note; }\n"
        "weak Delta of Alpha via Delta { partial Code; attr Note; }\n"
        "rel Alpha (Alpha 1..1, Bravo 0..n) { }\n"
        "rel Works (Alpha 1..1, Bravo 0..n) { }\n"
        "rel Works (Alpha 1..1, Bravo 0..n) { }\n"
    )

    @staticmethod
    def entity(name):
        return RegularEntityType(name, (Attribute(name[:3] + "No", AttributeKind.KEY),))

    def test_a_taken_relationship_name_is_a_ref_error_as_in_the_parser(self):
        def weak(name, via):
            return WeakEntityType(name, "Alpha", via,
                                  Attribute("Code", AttributeKind.PARTIAL_KEY),
                                  (Attribute("Note"),))

        def rel(name):
            return RelationshipType(name, (
                RelationshipEndpoint("Alpha", CardinalityPair("1", "1")),
                RelationshipEndpoint("Bravo", CardinalityPair("0", "n"))))

        model = ERModel(
            entities=(self.entity("Alpha"), self.entity("Bravo")),
            weak_entities=(weak("Gamma", "Bravo"), weak("Delta", "Delta")),
            relationships=(rel("Alpha"), rel("Works"), rel("Works")),
        )
        parsed_model, parsed = parse_er(self.TEXT)
        assert parsed_model is None
        assert validate_notation(model) == [
            Diagnostic(d.rule_id, d.severity, d.message, element=d.element)
            for d in parsed
        ]
        assert [d.element for d in parsed] == [
            "weak Gamma", "weak Delta", "rel Alpha", "rel Works"]

    @pytest.mark.parametrize("weaks,taken", [
        ((("Gamma", "Delta"), ("Delta", "DeltaOf")), "Delta"),
        ((("Bravo", "BravoOf"),), "Bravo"),
        ((("Gamma", "GammaOf"), ("Gamma", "Owns")), "Gamma"),
    ], ids=["named-like-an-identifying-relationship", "named-like-an-entity",
            "named-like-a-weak-entity"])
    def test_a_taken_weak_entity_name_is_a_ref_error_as_in_the_parser(
            self, weaks, taken):
        model = ERModel(
            entities=(self.entity("Alpha"), self.entity("Bravo")),
            weak_entities=tuple(
                WeakEntityType(name, "Alpha", via,
                               Attribute("Code", AttributeKind.PARTIAL_KEY),
                               (Attribute("Note"),))
                for name, via in weaks))
        expected = [("REF", f"name {taken!r} is already declared", f"weak {taken}")]
        parsed_model, parsed = parse_er(emit_er(model))
        assert parsed_model is None
        assert [(d.rule_id, d.message, d.element) for d in parsed] == expected
        assert [(d.rule_id, d.message, d.element)
                for d in validate_notation(model)] == expected
        with pytest.raises(PrerequisiteFailed) as raised:
            transform_model(model)
        assert [(d.rule_id, d.message, d.element)
                for d in raised.value.diagnostics] == expected

    def test_a_taken_entity_or_subtype_name_is_a_ref_error_as_in_the_parser(self):
        model = ERModel(entities=(self.entity("Alpha"), self.entity("Alpha")),
                        subtypes=(Subtype("Alpha", "Alpha", (Attribute("Grade"),)),))
        expected = [("REF", "name 'Alpha' is already declared", "entity Alpha"),
                    ("REF", "name 'Alpha' is already declared", "subtype Alpha")]
        parsed_model, parsed = parse_er(emit_er(model))
        assert parsed_model is None
        assert [(d.rule_id, d.message, d.element) for d in parsed] == expected
        assert [(d.rule_id, d.message, d.element)
                for d in validate_notation(model)] == expected
