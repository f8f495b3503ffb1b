import hashlib
import random
import sys

import pytest

from er2rds import (
    Attribute,
    AttributeKind,
    BadSideChoice,
    CardinalityPair,
    ERModel,
    FkSuffix,
    PrerequisiteFailed,
    RdsAttribute,
    RegularEntityType,
    Relation,
    RelationalSchema,
    RelationshipEndpoint,
    RelationshipType,
    Subtype,
    TransformConfig,
    WeakEntityType,
    emit_er,
    normalize_model,
    emit_rds,
    has_errors,
    parse_er,
    parse_rds,
    run_roundtrip,
    transform_model,
    validate_notation,
)
import er2rds
from er2rds import forward
from er2rds import model as model_module
from conftest import assert_well_formed
from genmodels import generate_model, scaled_model, sog_configs
from geninputs import build_model, colliding_text, step_spec


def transform_text(text, cfg=None):
    model, diagnostics = parse_er(text, "test.er")
    assert model is not None, diagnostics
    return transform_model(model, cfg)


def clashes(model, cfg=None):
    """The (relation, message) of each CLASH that stops transform_model."""
    with pytest.raises(PrerequisiteFailed) as info:
        transform_model(model, cfg)
    return [(d.element, d.message) for d in info.value.diagnostics
            if d.rule_id == "CLASH"]


def states(trace, step):
    return [entry.schema_after for entry in trace if entry.step == step]


REG_DONE = (
    "Employee[_EmpNo_, Name, Address, Salary]",
    "Department[_DepNo_, _Name_, Field]",
    "Project[_ProNo_, Name, Description]",
)


@pytest.fixture(scope="module")
def trace(company_model):
    _, trace = transform_model(company_model)
    return trace


class TestStepByStep:
    def test_step_sequence(self, trace):
        assert [(e.step, e.subject) for e in trace] == [
            ("REG", "Employee"), ("REG", "Department"), ("REG", "Project"),
            ("SUB", "Engineer"),
            ("GNG", "Controls"),
            ("SOG", "Manages"), ("SOG", "Consult"),
            ("MVA", "Department.Location"),
            ("WAK", "Dependent"),
        ]

    def test_regular_entities_only(self, trace):
        assert states(trace, "REG")[-1] == REG_DONE

    def test_subtype_with_intrinsic_attribute_added(self, trace):
        assert states(trace, "SUB")[-1] == (*REG_DONE, "Engineer[_EmpNo_, Grade]")

    def test_one_to_many_appends_the_foreign_key(self, trace):
        assert states(trace, "GNG")[-1] == (
            "Employee[_EmpNo_, Name, Address, Salary]",
            "Department[_DepNo_, _Name_, Field]",
            "Project[_ProNo_, Name, Description, DepNo(Controls, 1, 1, n)]",
            "Engineer[_EmpNo_, Grade]",
        )

    def test_absorbing_a_prefixed_key_moves_the_relation_last(self, trace):
        assert states(trace, "SOG")[0] == (
            "Employee[_EmpNo_, Name, Address, Salary]",
            "Project[_ProNo_, Name, Description, DepNo(Controls, 1, 1, n)]",
            "Engineer[_EmpNo_, Grade]",
            "Department[_DepNo_, _Name_, Field, Manager-EmpNo(Manages, 1, 1, 1), StartDate]",
        )

    def test_absorbing_a_plain_key_keeps_the_position(self, trace):
        assert states(trace, "SOG")[1] == (
            "Employee[_EmpNo_, Name, Address, Salary]",
            "Project[_ProNo_, Name, Description, DepNo(Controls, 1, 1, n)]",
            "Engineer[_EmpNo_, Grade, ProNo(Consult, 1, 1, 1), Hours]",
            "Department[_DepNo_, _Name_, Field, Manager-EmpNo(Manages, 1, 1, 1), StartDate]",
        )

    def test_multivalued_attribute_gets_its_own_relation(self, trace):
        assert states(trace, "MVA")[-1][-1] == "Location[_DepNo_, _Location_]"

    def test_weak_entity_borrows_the_owner_key(self, trace):
        assert states(trace, "WAK")[-1][-1] == "Dependent[_EmpNo_, _Name_, Sex, Relation]"


class TestTraceEvents:
    @pytest.mark.parametrize("cfg, sog_events", [
        (TransformConfig(), [("Department", 5, True), ("Engineer", 4, False)]),
        # Both relations take a prefixed key and move, Project last.
        (TransformConfig(prefer_regular=True),
         [("Department", 5, True), ("Project", 6, True)]),
    ], ids=["default", "prefer-regular"])
    def test_each_event_records_width_and_whether_it_ends_the_schema(
            self, company_model, cfg, sog_events):
        _, trace = transform_model(company_model, cfg)
        assert [(e.relation, e.width, e.at_end) for e in trace] == [
            ("Employee", 4, True), ("Department", 3, True), ("Project", 3, True),
            ("Engineer", 2, True),
            ("Project", 4, False),
            *sog_events,
            ("Location", 2, True),
            ("Dependent", 4, True),
        ]

    def test_nothing_is_rendered_until_a_state_is_read(self, company_model,
                                                       company_rds_text,
                                                       monkeypatch):
        rendered = []
        original = forward.render_relation

        def counting(relation):
            rendered.append(relation.name)
            return original(relation)

        monkeypatch.setattr(forward, "render_relation", counting)
        _, trace = transform_model(company_model)
        assert rendered == []
        assert trace[-1].schema_after == tuple(company_rds_text.splitlines())
        assert len(rendered) == 6

    def test_entries_compare_hash_and_print_by_their_five_fields(self):
        # The same event in two runs: the schemas the entries render differ,
        # but equality, hashing and repr read only the event's five fields.
        _, alone = transform_text("entity Ivory { key IvoNo; }")
        _, after = transform_text("entity Alpha { key AlpNo; }\n"
                                  "entity Ivory { key IvoNo; }")
        entry, other = alone[0], after[1]
        assert entry.schema_after == ("Ivory[_IvoNo_]",)
        assert other.schema_after == ("Alpha[_AlpNo_]", "Ivory[_IvoNo_]")
        assert entry == other
        assert hash(entry) == hash(other)
        assert repr(entry) == repr(other) == (
            "TraceEntry(step='REG', subject='Ivory', relation='Ivory', width=1, "
            "at_end=True)")

    def test_later_changes_to_the_schema_leave_the_trace_alone(self, company_model):
        schema, trace = transform_model(company_model)
        before = [entry.schema_after for entry in trace]
        schema.relations[0].attributes.append(RdsAttribute("Extra"))
        schema.relations[1].attributes.clear()
        schema.relations.reverse()
        assert [entry.schema_after for entry in trace] == before


class TestWholeSchema:
    def test_default_configuration_matches_the_golden_file(
            self, company_model, company_rds_text):
        schema, _ = transform_model(company_model)
        assert emit_rds(schema) == company_rds_text
        assert_well_formed(schema)

    def test_every_corpus_schema_is_well_formed(self):
        # the explicit side choices cover what the default policy picks
        for seed in range(500):
            model = generate_model(seed)
            configs = [TransformConfig(sog_choice=choice)
                       for choice in sog_configs(model)]
            for cfg in [*configs, TransformConfig(prefer_regular=True)]:
                assert_well_formed(transform_model(model, cfg)[0])

    def test_transformation_is_deterministic(self, company_model):
        first, _ = transform_model(company_model)
        second, _ = transform_model(company_model)
        assert emit_rds(first) == emit_rds(second)

    def test_explicit_choice_of_the_default_side_changes_nothing(
            self, company_model, company_rds_text):
        cfg = TransformConfig(sog_choice={"Consult": "Engineer",
                                          "Manages": "Department"})
        schema, _ = transform_model(company_model, cfg)
        assert emit_rds(schema) == company_rds_text

    def test_choosing_the_entity_side_relocates_the_foreign_key(
            self, company_model, variant_rds_text):
        cfg = TransformConfig(sog_choice={"Consult": "Project"})
        schema, _ = transform_model(company_model, cfg)
        assert emit_rds(schema) == variant_rds_text

    def test_prefer_regular_routes_every_one_to_one_key_the_same_way(
            self, company_model, variant_rds_text):
        schema, _ = transform_model(company_model, TransformConfig(prefer_regular=True))
        assert emit_rds(schema) == variant_rds_text

    def test_choosing_a_subtype_side_creates_its_relation(self, company_model):
        cfg = TransformConfig(sog_choice={"Manages": "Manager"})
        schema, _ = transform_model(company_model, cfg)
        assert emit_rds(schema) == (
            "Employee[_EmpNo_, Name, Address, Salary]\n"
            "Department[_DepNo_, _Name_, Field]\n"
            "Project[_ProNo_, Name, Description, DepNo(Controls, 1, 1, n)]\n"
            "Engineer[_EmpNo_, Grade, ProNo(Consult, 1, 1, 1), Hours]\n"
            "Manager[_EmpNo_, DepNo(Manages, 1, 1, 1), StartDate]\n"
            "Location[_DepNo_, _Location_]\n"
            "Dependent[_EmpNo_, _Name_, Sex, Relation]\n"
        )

    @pytest.mark.parametrize("choice", [
        {}, None, {"Consult": "Project"}, {"Manages": "Manager"},
        {"Consult": "Engineer", "Manages": "Department"},
    ], ids=["default", "prefer-regular", "consult-project", "manages-manager",
            "default-sides-chosen"])
    def test_the_order_of_one_to_one_endpoints_changes_nothing(
            self, company_text, choice):
        # The one-to-one step finds the subtype's side wherever it is listed.
        swapped = (company_text
                   .replace("(Manager 1..1, Department 1..1)",
                            "(Department 1..1, Manager 1..1)")
                   .replace("(Engineer 1..1, Project 1..1)",
                            "(Project 1..1, Engineer 1..1)"))
        assert swapped.count("(Department 1..1, Manager 1..1)") == 1
        assert swapped.count("(Project 1..1, Engineer 1..1)") == 1
        cfg = (TransformConfig(prefer_regular=True) if choice is None
               else TransformConfig(sog_choice=choice))
        schema, trace = transform_text(company_text, cfg)
        swapped_schema, swapped_trace = transform_text(swapped, cfg)
        assert emit_rds(swapped_schema) == emit_rds(schema)
        assert ([entry.schema_after for entry in swapped_trace]
                == [entry.schema_after for entry in trace])


class TestSuffixVariables:
    @pytest.mark.parametrize("department_pair,project_pair,expected", [
        ("1..n", "1..1", "DepNo(Controls, 1, 1, n)"),
        ("0..n", "1..1", "DepNo(Controls, 1, 0, n)"),
        ("1..n", "0..1", "DepNo(Controls, 0, 1, n)"),
        ("0..n", "0..1", "DepNo(Controls, 0, 0, n)"),
    ])
    def test_minimums_travel_into_the_suffix(self, department_pair, project_pair,
                                             expected):
        schema, _ = transform_text(
            "entity Department { key DepNo; }\n"
            "entity Project { key ProNo; }\n"
            f"rel Controls (Department {department_pair}, Project {project_pair}) {{ }}"
        )
        assert emit_rds(schema) == (
            "Department[_DepNo_]\n"
            f"Project[_ProNo_, {expected}]\n"
        )

    def test_one_to_one_minimum_comes_from_the_chosen_side(self):
        schema, _ = transform_text(
            "entity Employee { key EmpNo; }\n"
            "entity Department { key DepNo; }\n"
            "subtype Manager of Employee { }\n"
            "rel Manages (Manager 0..1, Department 1..1) { }"
        )
        # Department hosts, so its minimum leads and Manager's pair follows
        assert "Manager-EmpNo(Manages, 1, 0, 1)" in emit_rds(schema)


class TestExtensions:
    def test_subtype_on_the_referenced_side_gets_a_prefixed_key_without_moving(self):
        schema, _ = transform_text(
            "entity Employee { key EmpNo; }\n"
            "entity Project { key ProNo; }\n"
            "subtype Engineer of Employee { attr Grade; }\n"
            "rel Works (Engineer 1..n, Project 1..1) { }",
            TransformConfig(extensions=True),
        )
        assert emit_rds(schema) == (
            "Employee[_EmpNo_]\n"
            "Project[_ProNo_, Engineer-EmpNo(Works, 1, 1, n)]\n"
            "Engineer[_EmpNo_, Grade]\n"
        )

    def test_attribute_free_subtype_hosting_the_key_gets_a_relation(self):
        schema, _ = transform_text(
            "entity Employee { key EmpNo; }\n"
            "entity Project { key ProNo; }\n"
            "subtype Engineer of Employee { }\n"
            "rel Works (Project 1..n, Engineer 1..1) { }",
            TransformConfig(extensions=True),
        )
        assert emit_rds(schema) == (
            "Employee[_EmpNo_]\n"
            "Project[_ProNo_]\n"
            "Engineer[_EmpNo_, ProNo(Works, 1, 1, n)]\n"
        )


class TestConfigErrors:
    def test_notation_errors_abort_with_their_diagnostics(self):
        with pytest.raises(PrerequisiteFailed) as info:
            transform_text(
                "entity Alpha { key AlpNo; }\n"
                "entity Bravo { key BraNo; }\n"
                "rel Grove (Alpha 1..n, Bravo 0..n) { }"
            )
        assert any(d.rule_id == "SUBSET" for d in info.value.diagnostics)

    def test_unknown_relationship_in_a_side_choice(self, company_model):
        with pytest.raises(BadSideChoice, match="Ghost"):
            transform_model(company_model, TransformConfig(sog_choice={"Ghost": "Project"}))

    def test_side_choice_must_name_a_participant(self, company_model):
        with pytest.raises(BadSideChoice, match="Department"):
            transform_model(company_model,
                            TransformConfig(sog_choice={"Consult": "Department"}))

    def test_side_choice_only_applies_to_one_to_one_relationships(self, company_model):
        with pytest.raises(BadSideChoice, match="Controls"):
            transform_model(company_model,
                            TransformConfig(sog_choice={"Controls": "Project"}))


def gate_errors(model, cfg=None):
    """(rule, message, element) of each error that stops ``transform_model``."""
    with pytest.raises(PrerequisiteFailed) as info:
        transform_model(model, cfg)
    return [(d.rule_id, d.message, d.element) for d in info.value.diagnostics]


def parser_refs(text):
    """(rule, message, element) of each REF diagnostic the parser gives
    ``text``."""
    return [(d.rule_id, d.message, d.element) for d in parse_er(text)[1]
            if d.rule_id == "REF"]


def repointed(model, site, target):
    """``model`` with the reference at ``site`` naming ``target``: site
    ("subtype", i) is the supertype of subtype i, ("weak", i) the owner of
    weak entity i, and ("rel", i, j) endpoint j of relationship i."""
    kind, index, *side = site
    if kind == "subtype":
        sub = model.subtypes[index]
        field, element = "subtypes", Subtype(sub.name, target, sub.attributes)
    elif kind == "weak":
        weak = model.weak_entities[index]
        field, element = "weak_entities", WeakEntityType(
            weak.name, target, weak.identifying_relationship, weak.partial_key,
            weak.attributes)
    else:
        rel = model.relationships[index]
        endpoints = list(rel.endpoints)
        endpoints[side[0]] = RelationshipEndpoint(target, endpoints[side[0]].pair)
        field, element = "relationships", RelationshipType(
            rel.name, tuple(endpoints), rel.attributes)
    parts = {name: getattr(model, name) for name in ERModel.__match_args__}
    elements = list(parts[field])
    elements[index] = element
    parts[field] = tuple(elements)
    return ERModel(**parts)


class TestStepErrors:
    def test_multivalued_attribute_name_clashing_with_a_relation(self):
        model = ERModel(entities=(
            RegularEntityType("Alpha", (
                Attribute("AlpNo", AttributeKind.KEY),
                Attribute("Bravo", AttributeKind.MULTIVALUED),
            )),
            RegularEntityType("Bravo", (Attribute("BraNo", AttributeKind.KEY),)),
        ))
        assert clashes(model) == [("Bravo", "two relations are named 'Bravo'")]

    # The parser refuses these dangling references; a model built in code
    # meets the same check at the gate, so the steps never see one.
    def test_dangling_supertype(self):
        model = ERModel(subtypes=(Subtype("Engineer", "Employee", (Attribute("Grade"),)),))
        assert gate_errors(model) == [
            ("REF", "supertype 'Employee' is not a regular entity type",
             "subtype Engineer")]

    def test_dangling_weak_owner(self):
        model = ERModel(weak_entities=(WeakEntityType(
            "Dependent", "Employee", "DependentOf",
            Attribute("Name", AttributeKind.PARTIAL_KEY), (Attribute("Sex"),),
        ),))
        assert gate_errors(model) == [
            ("REF", "owner 'Employee' is not a regular entity type",
             "weak Dependent")]

    @pytest.mark.parametrize("ghost_side", [0, 1], ids=["n-side", "one-side"])
    def test_dangling_one_to_many_participant(self, ghost_side):
        endpoints = [
            RelationshipEndpoint("Ghost", CardinalityPair("1", "n")),
            RelationshipEndpoint("Project", CardinalityPair("0", "1")),
        ]
        if ghost_side:
            endpoints.reverse()
        model = ERModel(
            entities=(RegularEntityType("Project", (Attribute("ProNo", AttributeKind.KEY),)),),
            relationships=(RelationshipType("Works", tuple(endpoints)),),
        )
        ref = ("REF", "participant 'Ghost' is not an entity type or subtype",
               "rel Works")
        subset = ("SUBSET", "one-to-many relationship 'Works' must relate two "
                  "regular entity types (subtype endpoints need extensions)",
                  "relationship Works")
        assert gate_errors(model) == [ref, subset]
        assert gate_errors(model, TransformConfig(extensions=True)) == [ref]

    # Each names an element of the wrong kind; the parser refuses the text.
    @pytest.mark.parametrize("text, site, target, error", [
        ("entity Employee { key EmpNo; }\n"
         "entity Project { key ProNo; }\n"
         "weak Dependent of Employee via DependentOf { partial Name; attr Sex; }\n"
         "rel Works (Employee 1..n, Project 1..1) { }",
         ("rel", 0, 0), "Dependent",
         ("REF", "participant 'Dependent' is not an entity type or subtype",
          "rel Works")),
        ("entity Employee { key EmpNo; }\n"
         "subtype Engineer of Employee { attr Grade; }\n"
         "subtype Chief of Employee { attr Rank; }",
         ("subtype", 1), "Engineer",
         ("REF", "supertype 'Engineer' is not a regular entity type",
          "subtype Chief")),
        ("entity Employee { key EmpNo; }\n"
         "subtype Engineer of Employee { attr Grade; }\n"
         "weak Badge of Employee via BadgeOf { partial Serial; attr Color; }",
         ("weak", 0), "Engineer",
         ("REF", "owner 'Engineer' is not a regular entity type",
          "weak Badge")),
    ], ids=["weak-participant", "subtype-of-subtype", "weak-owned-by-subtype"])
    def test_reference_to_an_element_of_the_wrong_kind(self, text, site, target, error):
        model = repointed(parse_er(text)[0], site, target)
        assert gate_errors(model, TransformConfig(extensions=True)) == [error]
        assert gate_errors(model)[0] == error
        with pytest.raises(PrerequisiteFailed):
            run_roundtrip(model, TransformConfig(extensions=True))
        assert parser_refs(emit_er(model)) == [error]

    def test_subtype_in_one_to_many_needs_extensions(self):
        works = parse_er(
            "entity Employee { key EmpNo; }\n"
            "entity Project { key ProNo; }\n"
            "subtype Engineer of Employee { attr Grade; }\n"
            "rel Works (Engineer 1..n, Project 1..1) { }"
        )[0]
        with pytest.raises(PrerequisiteFailed) as info:
            transform_model(works)
        assert [(d.rule_id, d.element) for d in info.value.diagnostics] == [
            ("SUBSET", "relationship Works")]


# Models that pass the gate yet fail the round trip; both are clean models
# that fail the round trip in test_cli.py.
_CLEAN_BUT_FAILING = [
    "entity Brave { key BraNo; multi Bravo; }",
    "entity Ivory { key IvoNo; attr Name; }\n"
    "weak Cedar of Ivory via CedarOf { partial CedNo; }",
]

# Models that validate their notation clean but whose steps build two
# relations or two attributes of one name: the relation and the attribute
# of the CLASH (None: two relations clash).
_CLASHING = [
    ("entity Delta { key DelNo; }\nentity Deltoid { key DelNo; }\n"
     "rel Has (Delta 1..1, Deltoid 0..n) { }", "Delta", "DelNo"),
    ("entity Delta { key DelNo; }\nentity Bravo { key BraNo; multi Delta; }",
     "Delta", None),
    ("entity Alpha { key AlpNo; multi Cedar; }\n"
     "weak Cedar of Alpha via CedarOf { partial CedNo; attr Size; }", "Cedar", None),
    ("entity Alpha { key AlpNo; }\n"
     "weak Cedar of Alpha via CedarOf { partial AlpNo; attr Size; }",
     "Cedar", "AlpNo"),
]


class TestCleanModelErrors:
    """A model the gate passes transforms and round-trips without raising;
    one it stops raises PrerequisiteFailed with the gate's diagnostics."""

    @pytest.mark.parametrize("extensions", [False, True])
    @pytest.mark.parametrize("text", _CLEAN_BUT_FAILING)
    def test_clean_models_transform(self, text, extensions):
        model, diagnostics = parse_er(text)
        assert model is not None and not has_errors(diagnostics)
        cfg = TransformConfig(extensions=extensions)
        assert forward.gated_transform(model, cfg)[2] == []
        assert_well_formed(transform_model(model, cfg)[0])
        assert not run_roundtrip(model, cfg).ok

    @pytest.mark.parametrize("extensions", [False, True])
    @pytest.mark.parametrize("text, relation, attribute", _CLASHING)
    def test_clashing_models_report_the_clash(self, text, relation, attribute,
                                              extensions):
        model, diagnostics = parse_er(text)
        assert model is not None and not has_errors(diagnostics)
        cfg = TransformConfig(extensions=extensions)
        assert validate_notation(model, allow_extensions=extensions) == []
        message = (f"two relations are named {relation!r}" if attribute is None
                   else f"relation {relation!r} has two attributes named {attribute!r}")
        assert clashes(model, cfg) == [(relation, message)]
        with pytest.raises(PrerequisiteFailed):
            run_roundtrip(model, cfg)

    def test_colliding_names(self):
        rng = random.Random(2)
        clean = clashing = 0
        for _ in range(1000):
            text = colliding_text(rng)
            model, _ = parse_er(text)
            if model is None:
                continue
            for extensions in (False, True):
                cfg = TransformConfig(extensions=extensions)
                schema = forward.gated_transform(model, cfg)[0]
                if schema is None:
                    if not has_errors(validate_notation(model, extensions)):
                        clashing += 1
                        assert clashes(model, cfg), text
                    continue
                clean += 1
                assert_well_formed(transform_model(model, cfg)[0])
                run_roundtrip(model, cfg)
        assert clean >= 20 and clashing >= 5


class TestReferenceMutations:
    """Corpus models with one reference re-pointed at a missing name, a
    subtype or a weak entity.  The validator reports the REF errors that the
    parser gives the mutant's text, and a mutant the gate passes transforms
    and round-trips without raising."""

    def test_repointed_references(self):
        rng = random.Random(14)
        dangling = passed = 0
        for seed in range(600):
            model = generate_model(seed)
            sites = [("subtype", i) for i in range(len(model.subtypes))]
            sites += [("weak", i) for i in range(len(model.weak_entities))]
            sites += [("rel", i, side) for i in range(len(model.relationships))
                      for side in (0, 1)]
            if not sites:
                continue
            targets = ["Nowhere", *(s.name for s in model.subtypes),
                       *(w.name for w in model.weak_entities)]
            mutant = repointed(model, rng.choice(sites), rng.choice(targets))
            text = emit_er(mutant)
            expected = parser_refs(text)
            dangling += bool(expected)
            for cfg in (TransformConfig(), TransformConfig(prefer_regular=True),
                        TransformConfig(extensions=True)):
                assert [(d.rule_id, d.message, d.element)
                        for d in validate_notation(mutant, cfg.extensions)
                        if d.rule_id == "REF"] == expected, text
                if forward.gated_transform(mutant, cfg)[0] is None:
                    continue
                passed += 1
                assert_well_formed(transform_model(mutant, cfg)[0])
                run_roundtrip(mutant, cfg)
        assert dangling >= 400 and passed >= 80, (dangling, passed)


class TestGatePromise:
    """A model built in code that the gate passes has an ``.er`` text and a
    schema text that the readers accept, as a parsed model does."""

    def test_the_readers_accept_what_the_gate_passes(self):
        rng = random.Random(23)
        passed = 0
        for _ in range(2000):
            spec = step_spec(rng)
            model = build_model(er2rds, spec)
            for extensions in (False, True):
                schema = forward.gated_transform(
                    model, TransformConfig(extensions=extensions))[0]
                if schema is None:
                    continue
                passed += 1
                assert parse_er(emit_er(model))[1] == [], spec
                assert parse_rds(emit_rds(schema))[1] == [], spec
        assert passed >= 250, passed


class TestClashes:
    """The clash pass over a built schema: one CLASH error per repeated
    relation name, and per repeated attribute name inside a relation."""

    KEY = RdsAttribute("A", underlined=True)

    def found(self, *relations):
        return [(d.rule_id, d.severity.value, d.element, d.message)
                for d in forward._clashes(RelationalSchema(list(relations)))]

    def test_a_schema_without_repeats_has_no_clash(self):
        assert self.found(Relation("E", [self.KEY, RdsAttribute("B")]),
                          Relation("F", [self.KEY, RdsAttribute("B")])) == []

    def test_a_repeated_relation_name(self):
        assert self.found(Relation("E", [self.KEY]), Relation("E", [self.KEY])) == [
            ("CLASH", "error", "E", "two relations are named 'E'")]

    def test_a_repeated_attribute_name(self):
        assert self.found(Relation("E", [self.KEY, RdsAttribute("B"),
                                         RdsAttribute("B")])) == [
            ("CLASH", "error", "E", "relation 'E' has two attributes named 'B'")]

    def test_attributes_are_named_by_their_display_name(self):
        fk = RdsAttribute("EmpNo", prefix="Manager",
                          suffix=FkSuffix("Manages", "1", "1", "1"))
        assert self.found(Relation("E", [self.KEY, RdsAttribute("EmpNo"), fk])) == []
        found = self.found(Relation("E", [self.KEY, fk, fk]))
        assert [clash[3] for clash in found] == [
            "relation 'E' has two attributes named 'Manager-EmpNo'"]

    def test_each_repeated_name_is_reported_once_in_first_order(self):
        b, c = RdsAttribute("B"), RdsAttribute("C")
        found = self.found(Relation("F", [self.KEY]),
                           Relation("E", [self.KEY, c, b, b, c, b]),
                           Relation("F", [self.KEY]), Relation("F", [self.KEY]))
        assert [clash[3] for clash in found] == [
            "two relations are named 'F'",
            "relation 'E' has two attributes named 'C'",
            "relation 'E' has two attributes named 'B'"]


class _CountingTuple(tuple):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _element_list_walks(n):
    base = scaled_model(n)
    counted = {name: _CountingTuple(getattr(base, name))
               for name in ("entities", "subtypes", "relationships")}
    model = ERModel(counted["entities"], counted["subtypes"], base.weak_entities,
                    counted["relationships"])
    validate_notation(model)
    transform_model(model)
    return {name: elements.iterations for name, elements in counted.items()}


def _validator_relationship_walks(n):
    # Attribute-free subtypes, each in a one-to-one relationship, so that
    # R2.2.1-I needs the participants of the relationships.
    base = scaled_model(n)
    relationships = _CountingTuple(base.relationships)
    subtypes = tuple(Subtype(s.name, s.supertype) for s in base.subtypes)
    validate_notation(ERModel(base.entities, subtypes, base.weak_entities,
                              relationships))
    return relationships.iterations


def _relation_comparisons(n, monkeypatch):
    compared = []
    original = Relation.__eq__

    def counting(self, other):
        compared.append(self.name)
        return original(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Relation, "__eq__", counting)
        transform_model(scaled_model(n), TransformConfig(prefer_regular=True))
    return len(compared)


class TestLinearLookups:
    def test_element_lists_are_walked_as_often_at_every_size(self):
        # validate_notation twice (alone, then in transform_model's gate) and
        # the steps once, which resolve names from these walks; the ratios
        # take one more walk of the relationships.  Every subtype of
        # scaled_model has an attribute, so the validator never collects the
        # participants.
        assert _element_list_walks(20) == _element_list_walks(80) == {
            "entities": 3, "subtypes": 3, "relationships": 4}

    def test_the_validator_collects_the_participants_once(self):
        # the ratios, the participants and the relationship loop
        assert _validator_relationship_walks(20) == 3
        assert _validator_relationship_walks(80) == 3

    def test_moving_relations_to_the_end_compares_as_often_at_every_size(
            self, monkeypatch):
        # Under --prefer-regular every one-to-one relationship moves the
        # entity relation that takes the prefixed key to the end.
        assert (_relation_comparisons(20, monkeypatch)
                == _relation_comparisons(80, monkeypatch))


def refusals(model):
    """The (rule, message, element) of each finding that stops
    transform_model; the parser must refuse the model's text with the same."""
    with pytest.raises(PrerequisiteFailed) as info:
        transform_model(model)
    found = [(d.rule_id, d.message, d.element) for d in info.value.diagnostics]
    parsed_model, parsed = parse_er(emit_er(model))
    assert parsed_model is None
    assert [(d.rule_id, d.message, d.element) for d in parsed] == found
    return found


class TestRepeatedElementName:
    """Only a model built in code repeats an entity or subtype name; the gate
    refuses it with the parser's REF finding, so the steps never meet one."""

    def test_two_entities_named_alike(self):
        model = ERModel(entities=(
            RegularEntityType("Alpha", (Attribute("AlpNo", AttributeKind.KEY),)),
            RegularEntityType("Alpha", (Attribute("AlpCode", AttributeKind.KEY),)),
        ))
        assert refusals(model) == [
            ("REF", "name 'Alpha' is already declared", "entity Alpha")]

    def test_an_entity_and_a_subtype_named_alike(self):
        model = ERModel(
            entities=(
                RegularEntityType("Alpha", (Attribute("AlpNo", AttributeKind.KEY),)),
                RegularEntityType("Bravo", (Attribute("BraNo", AttributeKind.KEY),)),
            ),
            subtypes=(Subtype("Bravo", "Alpha", (Attribute("Grade"),)),),
        )
        assert refusals(model) == [
            ("REF", "name 'Bravo' is already declared", "subtype Bravo")]

    def test_two_entities_with_multivalued_attributes(self):
        model = ERModel(entities=tuple(
            RegularEntityType("Alpha", (Attribute("AlpNo", AttributeKind.KEY),
                                        Attribute(multi, AttributeKind.MULTIVALUED)))
            for multi in ("Mx", "My")))
        assert refusals(model) == [
            ("REF", "name 'Alpha' is already declared", "entity Alpha")]

    def test_two_subtypes_of_different_supertypes(self):
        one = CardinalityPair("1", "1")
        model = ERModel(
            entities=tuple(RegularEntityType(name, (Attribute(key, AttributeKind.KEY),))
                           for name, key in (("Alpha", "AlpNo"), ("Bravo", "BraNo"),
                                             ("Gamma", "GamNo"))),
            subtypes=(Subtype("Xray", "Alpha"), Subtype("Xray", "Bravo")),
            relationships=(RelationshipType("Rel", (
                RelationshipEndpoint("Xray", one), RelationshipEndpoint("Gamma", one))),),
        )
        assert refusals(model) == [
            ("REF", "name 'Xray' is already declared", "subtype Xray")]


def _fields(value):
    """``value`` with each record in it, at any depth, as a dict of its fields
    read through ``__match_args__``."""
    if hasattr(value, "__match_args__"):
        return {name: _fields(getattr(value, name)) for name in value.__match_args__}
    if isinstance(value, tuple):
        return tuple(map(_fields, value))
    return value


class TestRatiosOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = model_module.ratio_class

        def counting(rel):
            calls.append(rel)
            return original(rel)

        # wherever a module of the package has imported it
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("er2rds")
                    and getattr(module, "ratio_class", None) is original):
                monkeypatch.setattr(module, "ratio_class", counting)
        return calls

    @pytest.mark.parametrize("cfg", [
        TransformConfig(),
        TransformConfig(sog_choice={"Consult": "Project"}),
        TransformConfig(prefer_regular=True),
    ], ids=["default", "side-choice", "prefer-regular"])
    def test_a_transform_classifies_each_relationship_once(self, company_text,
                                                           calls, cfg):
        # a fresh parse: the session-scoped company_model fixture keeps its ratios
        model, _ = parse_er(company_text)
        transform_model(model, cfg)
        assert calls == list(model.relationships)

    def test_a_model_keeps_its_ratios_across_transforms(self, company_text, calls):
        model, _ = parse_er(company_text)
        transform_model(model)
        transform_model(model, TransformConfig(prefer_regular=True))
        assert calls == list(model.relationships)

    def test_reading_the_ratios_leaves_equality_hash_and_fields_alone(self,
                                                                      company_text):
        (read, _), (unread, _) = parse_er(company_text), parse_er(company_text)
        assert [ratio.kind.value for ratio in read.ratios] == ["1:N", "1:1", "1:1"]
        assert read == unread and hash(read) == hash(unread)
        assert _fields(read) == _fields(unread)
        assert "ratios" not in ERModel.__match_args__


class TestEntityPartitions:
    def test_each_entity_is_partitioned_once_per_pipeline(self, company_model):
        counted = tuple(
            RegularEntityType(entity.name, _CountingTuple(entity.attributes))
            for entity in company_model.entities)
        model = ERModel(counted, company_model.subtypes, company_model.weak_entities,
                        company_model.relationships)
        validate_notation(model)
        transform_model(model)
        normalize_model(model)
        # transform_model validates again, so the name checks walk twice;
        # the partitions take one more walk, shared by every stage
        assert [entity.attributes.iterations for entity in counted] == \
            [3] * len(counted)

    def test_reading_the_partitions_leaves_equality_hash_and_fields_alone(self):
        def department():
            return RegularEntityType("Department", (
                Attribute("DepNo", AttributeKind.KEY),
                Attribute("Name", AttributeKind.KEY),
                Attribute("Field"),
                Attribute("Location", AttributeKind.MULTIVALUED),
            ))

        read, unread = department(), department()
        assert [a.name for a in read.keys()] == ["DepNo", "Name"]
        assert model_module.matching_keys(read)[0].name == "DepNo"
        assert read == unread and unread == read
        assert hash(read) == hash(unread)
        assert _fields(read) == _fields(unread)
        assert _fields(read) == {
            "name": "Department",
            "attributes": (
                {"name": "DepNo", "kind": AttributeKind.KEY},
                {"name": "Name", "kind": AttributeKind.KEY},
                {"name": "Field", "kind": AttributeKind.SIMPLE},
                {"name": "Location", "kind": AttributeKind.MULTIVALUED},
            ),
        }


class TestScaledModel:
    def test_the_first_676_tags_are_unchanged(self):
        text = emit_er(scaled_model(676))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "b192371af4edd68c4f83e8000f7fc29440b5a8ca90adf692f993812a6cd6208d"

    def test_three_letter_tags_validate_and_round_trip(self):
        model = scaled_model(700)
        assert validate_notation(model) == []
        assert run_roundtrip(model).ok

    def test_4000_relations_parse_clean(self):
        model = scaled_model(1600)
        assert parse_er(emit_er(model)) == (model, [])
