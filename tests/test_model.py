import copy
import dataclasses
import inspect
import json
import pickle

import pytest

from er2rds import (
    Attribute,
    AttributeKind,
    CardinalityPair,
    Diagnostic,
    ERModel,
    FkSuffix,
    PrerequisiteFailed,
    RatioKind,
    RdsAttribute,
    RegularEntityType,
    Relation,
    RelationalSchema,
    RelationshipEndpoint,
    RelationshipType,
    Severity,
    Subtype,
    TransformConfig,
    WeakEntityType,
    format_diagnostic,
    ratio_class,
    transform_model,
)
from er2rds.er_text import _RawConstruct
from er2rds.forward import TraceEntry
from er2rds.model import (Factory, Ratio, leading_underline_count, matching_keys,
                          name_prefix)
from er2rds.reverse import RoundtripReport
from conftest import assert_well_formed


def rel(name, max_a, max_b, min_a="1", min_b="1"):
    return RelationshipType(name, (
        RelationshipEndpoint("A", CardinalityPair(min_a, max_a)),
        RelationshipEndpoint("B", CardinalityPair(min_b, max_b)),
    ))


class TestRatioClass:
    def test_one_to_one(self):
        assert ratio_class(rel("R", "1", "1")).kind is RatioKind.ONE_TO_ONE

    def test_many_to_many(self):
        assert ratio_class(rel("R", "n", "n")).kind is RatioKind.MANY_TO_MANY

    @pytest.mark.parametrize("max_a,max_b,n_side", [("1", "n", 0), ("n", "1", 1)])
    def test_one_to_many_sides(self, max_a, max_b, n_side):
        ratio = ratio_class(rel("R", max_a, max_b))
        assert ratio.kind is RatioKind.ONE_TO_MANY
        assert ratio.n_side == n_side

    def test_minimums_do_not_affect_the_ratio(self):
        ratio = ratio_class(rel("R", "1", "n", min_a="0", min_b="0"))
        assert ratio.kind is RatioKind.ONE_TO_MANY

    @pytest.mark.parametrize("max_a,max_b", [("1", "1"), ("n", "n"), ("1", "n"), ("n", "1")])
    def test_repeated_calls_share_one_ratio(self, max_a, max_b):
        relationship = rel("R", max_a, max_b)
        assert ratio_class(relationship) is ratio_class(relationship)


class TestDesignatedKey:
    # The first matching key is designated; the gate's R2.4.2 error stops an
    # entity with none before any step reads it.
    def test_picks_the_key_sharing_the_name_prefix(self):
        entity = RegularEntityType("Employee", (
            Attribute("SSN", AttributeKind.KEY),
            Attribute("EmpNo", AttributeKind.KEY),
        ))
        assert matching_keys(entity)[0].name == "EmpNo"

    def test_prefix_comparison_ignores_case(self):
        entity = RegularEntityType("Employee", (Attribute("EMPNO", AttributeKind.KEY),))
        assert matching_keys(entity)[0].name == "EMPNO"

    def test_tie_resolves_to_declaration_order(self):
        entity = RegularEntityType("Employee", (
            Attribute("EmpNo", AttributeKind.KEY),
            Attribute("EmpId", AttributeKind.KEY),
        ))
        assert matching_keys(entity)[0].name == "EmpNo"
        assert len(matching_keys(entity)) == 2

    @staticmethod
    def assert_the_gate_refuses(entity):
        with pytest.raises(PrerequisiteFailed) as raised:
            transform_model(ERModel((entity,)))
        assert [(d.rule_id, d.severity, d.message, d.element)
                for d in raised.value.diagnostics] == [(
            "R2.4.2", Severity.ERROR, "entity 'Employee' has no key attribute "
            "whose first three letters match the entity name", "entity Employee")]

    def test_no_matching_key_is_refused_by_the_gate(self):
        entity = RegularEntityType("Employee", (Attribute("SSN", AttributeKind.KEY),))
        assert matching_keys(entity) == ()
        self.assert_the_gate_refuses(entity)

    def test_simple_attributes_never_qualify(self):
        entity = RegularEntityType("Employee", (
            Attribute("EmpNo"),
            Attribute("SSN", AttributeKind.KEY),
        ))
        assert matching_keys(entity) == ()
        self.assert_the_gate_refuses(entity)


def test_name_prefix_is_three_casefolded_letters():
    assert name_prefix("Employee") == "emp"
    assert name_prefix("EMPNO") == "emp"
    assert name_prefix("Em") == "em"


class TestEntityAccessors:
    entity = RegularEntityType("Department", (
        Attribute("DepNo", AttributeKind.KEY),
        Attribute("Field"),
        Attribute("Location", AttributeKind.MULTIVALUED),
    ))

    def test_keys(self):
        assert [a.name for a in self.entity.keys()] == ["DepNo"]

    def test_simple_attributes(self):
        assert [a.name for a in self.entity.simple_attributes()] == ["Field"]

    def test_multivalued_attributes(self):
        assert [a.name for a in self.entity.multivalued_attributes()] == ["Location"]


class TestRdsAttributeDisplay:
    def test_plain(self):
        assert RdsAttribute("EmpNo").display_name() == "EmpNo"

    def test_prefixed(self):
        attr = RdsAttribute("EmpNo", prefix="Manager",
                            suffix=FkSuffix("Manages", "1", "1", "1"))
        assert attr.display_name() == "Manager-EmpNo"


def test_leading_underline_count():
    relation = Relation("Dependent", [
        RdsAttribute("EmpNo", underlined=True),
        RdsAttribute("Name", underlined=True),
        RdsAttribute("Sex"),
    ])
    assert leading_underline_count(relation) == 2
    assert relation.pk_name() == "EmpNo"


class TestWellFormedOracle:
    """assert_well_formed, the test oracle for built schemas, rejects each
    malformation a relational schema can have."""

    def one(self, *attributes):
        return RelationalSchema([Relation("E", list(attributes))])

    def test_accepts_a_well_formed_schema(self):
        assert_well_formed(RelationalSchema([
            Relation("Employee", [RdsAttribute("EmpNo", underlined=True),
                                  RdsAttribute("Name")]),
        ]))

    @pytest.mark.parametrize("case", [
        "duplicate relation", "empty relation", "no underline",
        "underline after gap", "suffix on underlined", "prefix without suffix",
        "duplicate attribute",
    ])
    def test_rejects(self, case):
        key = RdsAttribute("A", underlined=True)
        suffix = FkSuffix("R", "1", "1", "1")
        schema = {
            "duplicate relation": RelationalSchema([
                Relation("E", [key]), Relation("E", [key])]),
            "empty relation": self.one(),
            "no underline": self.one(RdsAttribute("A")),
            "underline after gap": self.one(
                key, RdsAttribute("B"), RdsAttribute("C", underlined=True)),
            "suffix on underlined": self.one(
                RdsAttribute("A", underlined=True, suffix=suffix)),
            "prefix without suffix": self.one(key, RdsAttribute("B", prefix="Sub")),
            "duplicate attribute": self.one(key, RdsAttribute("B"), RdsAttribute("B")),
        }[case]
        with pytest.raises(AssertionError):
            assert_well_formed(schema)


class TestFormatDiagnostic:
    def test_full_location(self):
        diag = Diagnostic("R2.5.2", Severity.ERROR, "bad name", 3, 7, "entity X")
        assert format_diagnostic(diag, "m.er") == \
            "m.er:3:7: error[R2.5.2]: bad name (entity X)"

    def test_without_position_or_element(self):
        diag = Diagnostic("NORM", Severity.WARNING, "reordered")
        assert format_diagnostic(diag, "s.rds") == "s.rds: warning[NORM]: reordered"


# One value of each frozen class, listed by hand so that a class that loses
# frozen=True fails here: the cached ERModel.ratios and entity partitions,
# the shared pairs and ratios, and the key attribute that dependent
# relations reuse all rely on values that never change.
_KEY = Attribute("AlpNo", AttributeKind.KEY)
_PAIR = CardinalityPair("1", "n")
_ENDPOINTS = (RelationshipEndpoint("Alpha", _PAIR), RelationshipEndpoint("Bravo", _PAIR))
_ENTITY = RegularEntityType("Alpha", (_KEY,))
_MODEL = ERModel((_ENTITY,))
_MODEL_VALUES = [
    _KEY,
    _ENTITY,
    Subtype("Sub", "Alpha", (Attribute("Grade"),)),
    WeakEntityType("Weak", "Alpha", "WeakOf", Attribute("Part", AttributeKind.PARTIAL_KEY)),
    _PAIR,
    _ENDPOINTS[0],
    RelationshipType("Grove", _ENDPOINTS),
    _MODEL,
    Ratio(RatioKind.ONE_TO_MANY, n_side=0),
    FkSuffix("Grove", "1", "1", "n"),
    RdsAttribute("AlpNo", underlined=True),
    Diagnostic("FK", Severity.ERROR, "message"),
]

_FROZEN_VALUES = [*_MODEL_VALUES, TransformConfig(), transform_model(_MODEL)[1][0]]


class TestImmutableValues:
    @pytest.mark.parametrize("value", _FROZEN_VALUES, ids=lambda v: type(v).__name__)
    def test_fields_can_be_neither_assigned_nor_deleted(self, value):
        for name in value.__match_args__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_model_values_hash_as_their_equals(self, value):
        assert hash(value) == hash(_rebuilt(value))

    def test_a_config_keeps_its_own_copy_of_the_side_choices(self):
        choices = {"Consult": "Project"}
        cfg = TransformConfig(sog_choice=choices)
        choices["Manages"] = "Manager"
        assert cfg.sog_choice == {"Consult": "Project"}

    def test_the_side_choices_of_a_config_are_read_only(self):
        with pytest.raises(TypeError):
            TransformConfig().sog_choice["Consult"] = "Project"

    def test_equal_configs_compare_equal(self):
        assert (TransformConfig(sog_choice={"Consult": "Project"}, extensions=True)
                == TransformConfig(sog_choice={"Consult": "Project"}, extensions=True))
        assert TransformConfig() != TransformConfig(sog_choice={"Consult": "Project"})

    def test_a_config_does_not_hash(self):
        with pytest.raises(TypeError):
            hash(TransformConfig())


def _items(value) -> tuple:
    """The plain tuple of a value's fields, in declaration order."""
    return tuple(getattr(value, name) for name in value.__match_args__)


def _rebuilt(value):
    """A new value of ``value``'s class, built from its fields."""
    return type(value)(*_items(value))


# Each class's fields with their defaults; _REQUIRED marks a required field.
_REQUIRED = inspect.Parameter.empty
_DEFAULTS = {
    Attribute: [("name", _REQUIRED), ("kind", AttributeKind.SIMPLE)],
    RegularEntityType: [("name", _REQUIRED), ("attributes", ())],
    Subtype: [("name", _REQUIRED), ("supertype", _REQUIRED), ("attributes", ())],
    WeakEntityType: [("name", _REQUIRED), ("owner", _REQUIRED),
                     ("identifying_relationship", _REQUIRED),
                     ("partial_key", _REQUIRED), ("attributes", ())],
    CardinalityPair: [("min", _REQUIRED), ("max", _REQUIRED)],
    RelationshipEndpoint: [("participant", _REQUIRED), ("pair", _REQUIRED)],
    RelationshipType: [("name", _REQUIRED), ("endpoints", _REQUIRED),
                       ("attributes", ())],
    ERModel: [("entities", ()), ("subtypes", ()), ("weak_entities", ()),
              ("relationships", ())],
    Ratio: [("kind", _REQUIRED), ("n_side", None)],
    FkSuffix: [("relationship", _REQUIRED), ("v2", _REQUIRED), ("v3", _REQUIRED),
               ("v4", _REQUIRED)],
    RdsAttribute: [("name", _REQUIRED), ("underlined", False), ("prefix", None),
                   ("suffix", None)],
    Diagnostic: [("rule_id", _REQUIRED), ("severity", _REQUIRED),
                 ("message", _REQUIRED), ("line", None), ("column", None),
                 ("element", None)],
}

# The six record classes besides the twelve model values, with each field's
# default described.
_OTHER_DEFAULTS = {
    Relation: [("name", "required"), ("attributes", "factory list")],
    RelationalSchema: [("relations", "factory list")],
    TransformConfig: [("sog_choice", "factory dict"), ("prefer_regular", "False"),
                      ("extensions", "False")],
    TraceEntry: [("step", "required"), ("subject", "required"),
                 ("relation", "required"), ("width", "required"),
                 ("at_end", "required"), ("_events", "required"),
                 ("_final", "required"), ("_position", "required")],
    RoundtripReport: [("ok", "required"), ("schema_text", "''"),
                      ("second_schema_text", "''"), ("differences", "factory list")],
    _RawConstruct: [("keyword", "required"), ("name", "required"), ("at", "required"),
                    ("supertype", "''"), ("owner", "''"), ("via", "''"),
                    ("endpoints", "factory list"), ("members", "factory list")],
}


def _described(default) -> str:
    if default is _REQUIRED:
        return "required"
    if isinstance(default, Factory):
        return "factory " + default.make.__name__
    return repr(default)


class TestValueContract:
    """What a caller may rely on in the twelve model values, however they
    are stored: equality and hashing by class and fields, no order, no
    sequence behaviour, and copies that compare equal."""

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_equality_holds_only_within_one_class(self, value):
        same = _rebuilt(value)
        assert value == same and not value != same
        items = _items(value)
        assert value != items and items != value
        assert not value == items and not items == value
        for other in _MODEL_VALUES:
            if type(other) is not type(value):
                assert value != other and not value == other

    def test_values_of_two_classes_with_the_same_fields_differ(self):
        assert Subtype("Alpha", "Bravo") != RelationshipType("Alpha", "Bravo")
        assert not CardinalityPair("1", "n") == RelationshipEndpoint("1", "n")

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_values_are_not_ordered(self, value):
        with pytest.raises(TypeError):
            value < _rebuilt(value)

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_a_value_hashes_as_the_tuple_of_its_fields(self, value):
        assert hash(value) == hash(_items(value))

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_a_value_is_no_sequence_and_is_true(self, value):
        with pytest.raises(TypeError):
            iter(value)
        with pytest.raises(TypeError):
            len(value)
        assert bool(value) is True

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_copies_and_pickles_are_equal(self, value):
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value
            assert hash(copied) == hash(value)

    def test_copies_keep_what_was_read_lazily(self):
        entity = RegularEntityType("Alpha", (Attribute("AlpNo", AttributeKind.KEY),
                                             Attribute("Size")))
        model = ERModel((entity,), relationships=(RelationshipType("Grove", _ENDPOINTS),))
        partitions, ratios = entity._partitions, model.ratios
        for copier in (copy.copy, copy.deepcopy,
                       lambda value: pickle.loads(pickle.dumps(value))):
            entity_copy, model_copy = copier(entity), copier(model)
            assert entity_copy == entity and model_copy == model
            assert entity_copy._partitions == partitions
            assert entity_copy.keys() == (entity.attributes[0],)
            assert model_copy.ratios == ratios

    @pytest.mark.parametrize("cls", _DEFAULTS, ids=lambda cls: cls.__name__)
    def test_match_args_list_the_fields_in_order(self, cls):
        assert cls.__match_args__ == tuple(name for name, _ in _DEFAULTS[cls])

    def test_every_model_value_class_is_pinned(self):
        assert [type(value) for value in _MODEL_VALUES] == list(_DEFAULTS)

    def test_repr_names_the_fields(self):
        attr = RdsAttribute("AlpNo", underlined=True)
        assert repr(attr) == ("RdsAttribute(name='AlpNo', underlined=True, "
                              "prefix=None, suffix=None)")

    def test_attributes_keep_no_instance_dict(self):
        # The two most numerous values hold their fields and nothing else.
        assert not hasattr(Attribute("AlpNo"), "__dict__")
        assert not hasattr(RdsAttribute("AlpNo"), "__dict__")

    def test_only_the_lazy_classes_keep_an_instance_dict(self):
        # _lazy caches in the instance __dict__; the other ten hold slots.
        for value in _MODEL_VALUES:
            lazy = type(value) in (RegularEntityType, ERModel)
            assert hasattr(value, "__dict__") is lazy, type(value).__name__

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_a_plain_tuple_neither_orders_against_nor_joins_a_value(self, value):
        with pytest.raises(TypeError):
            ("y",) > value
        with pytest.raises(TypeError):
            (1,) + value

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_percent_formatting_gives_the_repr(self, value):
        assert "%s" % value == repr(value)

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_a_value_is_not_a_tuple(self, value):
        assert not isinstance(value, tuple)

    @pytest.mark.parametrize("value", _MODEL_VALUES, ids=lambda v: type(v).__name__)
    def test_json_hands_a_value_to_the_default_hook(self, value):
        seen = []

        def hook(obj):
            seen.append(obj)
            return "hooked"

        assert json.dumps(value, default=hook) == '"hooked"'
        assert len(seen) == 1 and seen[0] is value


class TestConstructor:
    """Each record's constructor takes its fields in declaration order, with
    the defaults of ``_DEFAULTS`` and ``_OTHER_DEFAULTS``, and stores each
    argument in its own field."""

    @pytest.mark.parametrize("cls", _DEFAULTS, ids=lambda cls: cls.__name__)
    def test_the_signature_lists_the_fields_with_their_defaults(self, cls):
        parameters = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in parameters] == _DEFAULTS[cls]

    @pytest.mark.parametrize("cls", _OTHER_DEFAULTS, ids=lambda cls: cls.__name__)
    def test_the_other_records_list_their_fields_with_their_defaults(self, cls):
        assert cls.__match_args__ == tuple(name for name, _ in _OTHER_DEFAULTS[cls])
        assert [(p.name, _described(p.default))
                for p in inspect.signature(cls).parameters.values()] == \
            _OTHER_DEFAULTS[cls]

    @pytest.mark.parametrize("cls", _DEFAULTS, ids=lambda cls: cls.__name__)
    def test_keywords_and_positions_fill_the_same_fields(self, cls):
        names = [name for name, _ in _DEFAULTS[cls]]
        # One distinct object per field, so two swapped fields cannot agree.
        arguments = [object() for _ in names]
        by_position = cls(*arguments)
        assert cls(**dict(zip(names, arguments))) == by_position
        assert [getattr(by_position, name) for name in names] == arguments
