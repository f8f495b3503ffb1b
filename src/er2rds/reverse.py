"""Reverse transformation: annotated relational schema back to an ER model.

Relations are classified purely from their shape: a leading underlined
attribute whose first three letters match the relation name marks a regular
entity relation; a single underlined attribute equal to some regular
relation's primary key marks a subtype relation; exactly two attributes,
both underlined, the second named like the relation, mark a multivalued
attribute relation; more than two attributes with exactly the first two
underlined mark a weak entity relation.  Foreign keys are recognized by
their suffix alone; a prefixed foreign key resurrects a subtype even when
the subtype never got a relation of its own.

Reversal is lossless up to documented normalizations, each reported as a
NORM diagnostic: element declaration order is rebuilt from schema order,
entity attributes come back as designated key, remaining keys, simple
attributes, multivalued attributes, and a weak entity's identifying
relationship is renamed ``<Name>Of``.  A model whose names collide with a
regenerated ``<Name>Of`` name cannot round-trip: the reversed model repeats
the name, and its transformation stops on REF.  run_roundtrip checks the
promise on one model: transform, reverse, and transform again.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .errors import PrerequisiteFailed
from .forward import TransformConfig, gated_transform
from .model import (
    Attribute,
    AttributeKind,
    Diagnostic,
    ERModel,
    Factory,
    Ratio,
    RatioKind,
    RegularEntityType,
    Relation,
    RelationalSchema,
    RelationshipEndpoint,
    RelationshipType,
    Severity,
    Subtype,
    WeakEntityType,
    cardinality_pair,
    format_diagnostic,
    has_errors,
    leading_underline_count,
    matching_keys,
    name_prefix,
    record,
)
from .rds_text import emit_rds


class RelationKind(Enum):
    REGULAR_ENTITY = "regular-entity"
    SUBTYPE = "subtype"
    MULTIVALUED = "multivalued"
    WEAK = "weak"


def classify_relations(schema: RelationalSchema
                       ) -> tuple[dict[str, RelationKind], dict[str, str],
                                  list[Diagnostic]]:
    """Classify every relation; returns the kinds, the map from each
    primary-key name to the first regular relation owning it, and the
    diagnostics.  An unclassifiable relation, or one whose name an earlier
    relation took, yields an error diagnostic and stays out of the kinds.

    The first walk, over the schema, reports repeated names and shape
    errors, marks the regular relations and fills the key-owner map; the
    second, over the shaped relations, decides each dependent kind.  The
    findings come in schema order within three groups: repeated names and
    shape errors, then keys owned twice, then dependent readings."""
    regular, subtype = RelationKind.REGULAR_ENTITY, RelationKind.SUBTYPE
    kinds: dict[str, RelationKind] = {}
    owners: dict[str, str] = {}
    diagnostics: list[Diagnostic] = []
    owned_twice: list[Diagnostic] = []
    names: set[str] = set()
    shaped: list[tuple[Relation, int]] = []
    for relation in schema.relations:
        name, lead = relation.name, leading_underline_count(relation)
        # A schema built in code may repeat a name, which parse_rds refuses;
        # only the first relation of a name is classified.
        if name in names:
            problem = "is declared more than once"
        elif lead == 0:
            problem = "is unclassifiable: no leading underlined attribute"
        elif any(a.underlined for a in relation.attributes[lead:]):
            problem = ("is unclassifiable: underlined attribute after a "
                       "non-underlined one")
        else:
            problem = None
        names.add(name)
        if problem is not None:
            diagnostics.append(Diagnostic("CLASSIFY", Severity.ERROR,
                                          f"relation {name!r} {problem}", element=name))
            continue
        shaped.append((relation, lead))
        pk = relation.pk_name()
        if name_prefix(pk) == name_prefix(name):
            kinds[name] = regular
            owner = owners.setdefault(pk, name)
            if owner != name:
                owned_twice.append(Diagnostic(
                    "CLASSIFY", Severity.WARNING,
                    f"relations {owner!r} and {name!r} both own primary key "
                    f"{pk!r}; references resolve to {owner!r}", element=name))
    diagnostics += owned_twice

    # kinds holds only the regular relations until this walk adds the
    # dependent ones; a shaped relation's underlined attributes all lead it.
    for relation, lead in shaped:
        name, attributes = relation.name, relation.attributes
        owner = owners.get(attributes[0].name)
        if owner == name:  # a regular relation that owns its key
            continue
        kind = why = None
        if owner is None:
            why = (f"leading attribute {attributes[0].name!r} is not the "
                   f"primary key of another regular relation")
        elif lead == 1:
            kind = subtype
        elif lead == 2 and len(attributes) == 2:
            if attributes[1].name == name:
                kind = RelationKind.MULTIVALUED
            else:
                why = ("two underlined attributes but the second is not named "
                       "after the relation")
        elif lead == 2:
            kind = RelationKind.WEAK
        if name in kinds:
            # A relation can match the regular-entity shape and a dependent
            # shape at once, when another regular relation owns its key; the
            # regular reading wins, with a warning.
            if kind is not None:
                diagnostics.append(Diagnostic(
                    "CLASSIFY", Severity.WARNING,
                    f"relation {name!r} also matches the {kind.value} shape; "
                    f"treating it as a regular entity relation", element=name))
        elif kind is not None:
            kinds[name] = kind
        else:
            why = why or f"{lead} underlined attributes fit no known shape"
            diagnostics.append(Diagnostic(
                "CLASSIFY", Severity.ERROR,
                f"relation {name!r} is unclassifiable: {why}", element=name))
    return kinds, owners, diagnostics


def _payload_after(relation: Relation, index: int) -> tuple[Attribute, ...]:
    run: list[Attribute] = []
    for attr in relation.attributes[index + 1:]:
        if attr.suffix is not None or attr.underlined:
            break
        run.append(Attribute(attr.name))
    return tuple(run)


# Every reversal makes these two notes.
_ORDER_NOTES = (
    Diagnostic("NORM", Severity.WARNING,
               "element declaration order reconstructed from schema order"),
    Diagnostic("NORM", Severity.WARNING,
               "entity attribute order reconstructed from relation order: "
               "designated key first, multivalued attributes last"),
)


def reverse_transform(schema: RelationalSchema
                      ) -> tuple[ERModel | None, list[Diagnostic]]:
    """Rebuild the source model; returns (model, diagnostics), model None when
    classification or interpretation fails.

    After classification one walk over the schema rebuilds the elements in
    schema discovery order; an entity's multivalued attributes follow its
    keys and simple attributes.  A relation's ``FK`` findings follow its
    attributes: a subtype relation's own subtype is merged before its
    foreign keys are decoded, and a prefixed key's subtype at that key."""
    kinds, owners, diagnostics = classify_relations(schema)
    if has_errors(diagnostics):
        return None, diagnostics
    regular, subtype = RelationKind.REGULAR_ENTITY, RelationKind.SUBTYPE
    multivalued, key = RelationKind.MULTIVALUED, AttributeKind.KEY
    entity_attrs: dict[str, tuple[Attribute, ...]] = {}
    multivalued_attrs: dict[str, list[Attribute]] = {}
    subtypes: dict[str, Subtype] = {}
    weaks: list[WeakEntityType] = []
    relationships: dict[str, RelationshipType] = {}
    for relation in schema.relations:
        name, attributes = relation.name, relation.attributes
        kind, owner = kinds[name], owners.get(attributes[0].name)
        if kind is regular or kind is subtype:
            if kind is regular:
                lead = leading_underline_count(relation)
                entity_attrs[name] = (
                    *[Attribute(a.name, key) for a in attributes[:lead]],
                    *_payload_after(relation, lead - 1))
            # Index -1 stands for a subtype relation's own subtype, merged
            # before the relation's foreign keys are decoded.
            for index in range(-1 if kind is subtype else 0, len(attributes)):
                found = problem = None
                if index < 0:
                    found = Subtype(name, owner, _payload_after(relation, 0))
                else:
                    attr = attributes[index]
                    suffix = attr.suffix
                    if suffix is None:
                        continue
                    if (far := owners.get(attr.name)) is None:
                        problem = (f"foreign key {attr.display_name()!r} in "
                                   f"relation {name!r} matches no regular "
                                   f"relation's primary key")
                    elif suffix.relationship in relationships:
                        problem = (f"relationship {suffix.relationship!r} is "
                                   f"encoded by more than one foreign key")
                    # No prefix, or one naming no relation, reads as a subtype.
                    elif kinds.get(attr.prefix, subtype) is not subtype:
                        problem = (f"prefix {attr.prefix!r} names a "
                                   f"{kinds[attr.prefix].value} relation")
                    else:
                        if attr.prefix is not None:
                            found = Subtype(attr.prefix, far)
                            far = attr.prefix
                        # Near: the holding relation, pair (v2, 1); far: the
                        # key's owner or prefix subtype, (v3, v4).  The plain
                        # attributes after the key are the relationship's.
                        relationships[suffix.relationship] = RelationshipType(
                            suffix.relationship,
                            (RelationshipEndpoint(
                                name, cardinality_pair(suffix.v2, "1")),
                             RelationshipEndpoint(
                                 far, cardinality_pair(suffix.v3, suffix.v4))),
                            _payload_after(relation, index))
                if found is not None:
                    known = subtypes.setdefault(found.name, found)
                    if known.supertype != found.supertype:
                        problem = (f"subtype {found.name!r} appears with "
                                   f"supertypes {known.supertype!r} and "
                                   f"{found.supertype!r}")
                    elif index < 0:  # the subtype's relation gives its attributes
                        subtypes[name] = found
                if problem is not None:
                    diagnostics.append(Diagnostic("FK", Severity.ERROR, problem,
                                                  element=name))
        elif any(a.suffix is not None for a in attributes):
            holder = "multivalued" if kind is multivalued else "weak entity"
            diagnostics.append(Diagnostic(
                "FK", Severity.ERROR, f"{holder} relation {name!r} carries an "
                f"unexpected foreign key", element=name))
        elif kind is multivalued:
            multivalued_attrs.setdefault(owner, []).append(
                Attribute(name, AttributeKind.MULTIVALUED))
        else:  # weak
            identifying = name + "Of"
            diagnostics.append(Diagnostic(
                "NORM", Severity.WARNING, f"identifying relationship of weak "
                f"entity {name!r} regenerated as {identifying!r}", element=name))
            weaks.append(WeakEntityType(
                name, owner, identifying,
                Attribute(attributes[1].name, AttributeKind.PARTIAL_KEY),
                tuple(Attribute(a.name) for a in attributes[2:])))

    diagnostics += _ORDER_NOTES
    if has_errors(diagnostics):
        return None, diagnostics
    entities = tuple(
        RegularEntityType(name, (*attrs, *multivalued_attrs.get(name, ())))
        for name, attrs in entity_attrs.items())
    return ERModel(entities, tuple(subtypes.values()), tuple(weaks),
                   tuple(relationships.values())), diagnostics


def reconstruct_sog_choices(schema: RelationalSchema) -> dict[str, str]:
    """Recover which side each one-to-one foreign key landed on: the holding
    relation's name is the chosen participant."""
    choices: dict[str, str] = {}
    for relation in schema.relations:
        for attr in relation.attributes:
            if attr.suffix is not None and attr.suffix.v4 == "1":
                choices[attr.suffix.relationship] = relation.name
    return choices


# --------------------------------------------------------------------------
# Normalization and comparison


def normalize_model(model: ERModel) -> ERModel:
    """Apply the rewrites reversal cannot avoid, so that a source model can
    be compared against its round-tripped self: entity attributes reordered
    (designated key, remaining keys, simples, multis) and weak identifying
    relationships renamed ``<Name>Of``."""
    entities = []
    for entity in model.entities:
        # The designated key goes first; an entity without one keeps its order.
        keys = list(entity.keys())
        for designated in matching_keys(entity)[:1]:
            keys.remove(designated)
            keys.insert(0, designated)
        attrs = (*keys, *entity.simple_attributes(),
                 *entity.multivalued_attributes())
        entities.append(entity if attrs == entity.attributes
                        else RegularEntityType(entity.name, attrs))
    weaks = tuple(
        w if w.identifying_relationship == w.name + "Of"
        else WeakEntityType(w.name, w.owner, w.name + "Of", w.partial_key, w.attributes)
        for w in model.weak_entities
    )
    # Elements already in normal form are kept, and so is a model made only
    # of them, with the ratios it has computed.
    entities = tuple(entities)
    if entities == model.entities and weaks == model.weak_entities:
        return model
    return ERModel(entities, model.subtypes, weaks, model.relationships)


def _canonical_relationship(rel: RelationshipType, ratio: Ratio) -> RelationshipType:
    """The relationship itself when its endpoints are in canonical order."""
    if ratio.kind is RatioKind.ONE_TO_MANY:
        swap = ratio.n_side == 1
    else:
        swap = rel.endpoints[1].participant < rel.endpoints[0].participant
    if not swap:
        return rel
    return RelationshipType(rel.name, rel.endpoints[::-1], rel.attributes)


def canonical_model(model: ERModel) -> ERModel:
    """Order-insensitive form: element lists sorted by name, relationship
    endpoints in canonical order (N-side first, else lexicographic).  Used
    for comparisons only; emission never canonicalizes."""
    by_name = attrgetter("name")
    return ERModel(
        tuple(sorted(model.entities, key=by_name)),
        tuple(sorted(model.subtypes, key=by_name)),
        tuple(sorted(model.weak_entities, key=by_name)),
        tuple(sorted(map(_canonical_relationship, model.relationships, model.ratios),
                     key=by_name)),
    )


def _walk(path: str, left, right, differences: list[str]) -> None:
    """Append to ``differences`` each place where ``left`` and ``right``
    differ: two records of one class field by field, in sorted field order,
    and two sequences item by item."""
    if left.__class__ is right.__class__ and hasattr(left, "__match_args__"):
        for name in sorted(left.__match_args__):
            _walk(f"{path}.{name}", getattr(left, name), getattr(right, name),
                  differences)
    elif isinstance(left, (tuple, list)) and isinstance(right, (tuple, list)):
        if len(left) != len(right):
            differences.append(
                f"{path}: {len(left)} elements expected, {len(right)} found"
            )
            return
        for index, (l, r) in enumerate(zip(left, right)):
            _walk(f"{path}[{index}]", l, r, differences)
    elif left != right:
        differences.append(f"{path}: expected {left!r}, found {right!r}")


def model_diff(expected: ERModel, actual: ERModel) -> list[str]:
    """Field-by-field differences between two canonicalized models."""
    expected, actual = canonical_model(expected), canonical_model(actual)
    if expected == actual:
        return []
    differences: list[str] = []
    _walk("model", expected, actual, differences)
    return differences


class RoundtripReport(metaclass=record, frozen=False):
    """Outcome of forward, reverse, forward-again on one configuration."""

    ok: bool
    schema_text: str = ""
    second_schema_text: str = ""
    differences: list[str] = Factory(list)


def _failed(stage: str, diagnostics: list[Diagnostic]) -> list[str]:
    return [f"{stage} transformation failed:",
            *(format_diagnostic(d, "<schema>") for d in diagnostics
              if d.severity is Severity.ERROR)]


def run_roundtrip(model: ERModel, cfg: TransformConfig | None = None
                  ) -> RoundtripReport:
    """Transform, reverse, and re-transform; the report is ok when the
    reversed model equals the normalized source and the second transformation
    reproduces the first schema byte for byte.

    The second run replays the side choices recorded in the first schema's
    one-to-one foreign keys, so it needs no external configuration.  Raises
    as ``transform_model`` does when the first transformation fails."""
    cfg = cfg or TransformConfig()
    schema, _, diagnostics = gated_transform(model, cfg)
    if schema is None:
        raise PrerequisiteFailed(diagnostics)
    first = emit_rds(schema)
    report = RoundtripReport(ok=False, schema_text=first)

    reversed_model, diagnostics = reverse_transform(schema)
    if reversed_model is None:
        report.differences = _failed("reverse", diagnostics)
        return report
    report.differences.extend(model_diff(normalize_model(model), reversed_model))

    replay = TransformConfig(sog_choice=reconstruct_sog_choices(schema),
                             extensions=cfg.extensions)
    second_schema, _, diagnostics = gated_transform(reversed_model, replay)
    if second_schema is None:
        report.differences += _failed("second", diagnostics)
        return report
    second = emit_rds(second_schema)
    report.second_schema_text = second
    if second != first:
        import difflib  # only a failed round trip needs it; start-up stays lean

        report.differences.append("schema texts differ:")
        report.differences.extend(
            line.rstrip("\n")
            for line in difflib.unified_diff(
                first.splitlines(keepends=True), second.splitlines(keepends=True),
                fromfile="first", tofile="second")
        )
    report.ok = not report.differences
    return report
