"""Forward transformation: ER model to annotated relational schema.

Six steps run in a fixed order, as six loops of ``_transform_steps``:
REG makes a relation of each regular entity type, SUB of each qualifying
subtype; GNG (one-to-many relationships) and SOG (one-to-one relationships
involving a subtype) append foreign keys; MVA (multivalued attributes) and
WAK (weak entity types) make new relations.  Foreign keys carry a bracketed
suffix naming the relationship and three cardinality variables, so the
whole transformation stays reversible.  ``gated_transform`` is the one gate
every caller goes through: notation validation before the steps, a check
for clashing names after.  The steps record one event per relation created
or extended; ``trace_entries`` turns a run's events into its trace, whose
entries share the events and replay them only when their ``schema_after``
is read.

Ordering rules that the reverse direction depends on:

* relations are created in declaration order (entities before subtypes);
* a relation that absorbs a prefixed foreign key during the one-to-one step
  moves to the end of the schema; this is what lets a re-derived schema
  reproduce its source byte-for-byte even though entity relations are
  always created before subtype relations;
* the multivalued step walks owner relations in current schema order, the
  other steps walk model elements in declaration order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

from .errors import BadSideChoice, PrerequisiteFailed
from .model import (
    Diagnostic,
    ERModel,
    Factory,
    FkSuffix,
    Ratio,
    RatioKind,
    RdsAttribute,
    RegularEntityType,
    Relation,
    RelationalSchema,
    RelationshipEndpoint,
    RelationshipType,
    Severity,
    has_errors,
    matching_keys,
    record,
)
from .rds_text import render_relation
from .validator import validate_notation

STEP_REGULAR = "REG"
STEP_SUBTYPE = "SUB"
STEP_ONE_TO_MANY = "GNG"
STEP_ONE_TO_ONE = "SOG"
STEP_MULTIVALUED = "MVA"
STEP_WEAK = "WAK"


class TransformConfig(metaclass=record):
    """Knobs for the transformation.

    ``sog_choice`` maps a one-to-one relationship name to the participant
    whose relation takes the foreign key; the config keeps a read-only copy.
    Other relationships get the default policy: the subtype's relation when
    it exists, else the regular entity's; ``prefer_regular`` flips that
    default.  ``extensions`` lets the gate admit subtype endpoints in
    one-to-many relationships, which the steps treat as any other endpoint.
    """

    sog_choice: Mapping[str, str] = Factory(dict)
    prefer_regular: bool = False
    extensions: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sog_choice", MappingProxyType(dict(self.sog_choice)))


# (step, subject, relation, width, at_end), as in TraceEntry
_Event = tuple[str, str, str, int, bool]


class TraceEntry(metaclass=record):
    """One step event: the step created or extended ``relation`` to
    ``width`` attributes, and the relation ends the schema when ``at_end``.
    ``schema_after`` renders the schema as it stood after the event, by
    replaying the run's events up to this one over the final attributes."""

    step: str
    subject: str
    relation: str
    width: int
    at_end: bool
    # The replay's data; record keeps _ fields out of repr, == and hash.
    _events: tuple[_Event, ...]
    _final: dict[str, tuple[RdsAttribute, ...]]
    _position: int

    @property
    def schema_after(self) -> tuple[str, ...]:
        # Steps only ever append attributes and move a relation to the end,
        # so each intermediate relation is a prefix of its final form.
        widths: dict[str, int] = {}
        for _, _, relation, width, at_end in self._events[:self._position + 1]:
            if at_end:
                widths.pop(relation, None)
            widths[relation] = width
        return tuple(render_relation(Relation(name, list(self._final[name][:width])))
                     for name, width in widths.items())


def trace_entries(events: list[_Event], schema: RelationalSchema) -> list[TraceEntry]:
    """One entry per event of a run that built ``schema``.  The final
    attributes are copied once, so later changes to the schema leave the
    trace as it was."""
    shared = tuple(events)
    final = {r.name: tuple(r.attributes) for r in schema.relations}
    return [TraceEntry(*event, shared, final, position)
            for position, event in enumerate(shared)]


def _add_foreign_key(rel: RelationshipType, near: RelationshipEndpoint,
                     far: RelationshipEndpoint, relations: dict[str, Relation],
                     supertypes: dict[str, str]) -> tuple[Relation, bool]:
    """Append the far side's key to the near side's relation, then the
    relationship's own attributes; returns the relation and whether the key
    is prefixed.  A subtype's key is its supertype's (from ``supertypes``),
    prefixed with its name.  The suffix records the near side's minimum (its
    maximum is 1 by classification) and the far side's full pair."""
    relation = relations[near.participant]
    supertype = supertypes.get(far.participant)
    if supertype is None:
        name, prefix = relations[far.participant].pk_name(), None
    else:
        name, prefix = relations[supertype].pk_name(), far.participant
    suffix = FkSuffix(rel.name, near.pair.min, far.pair.min, far.pair.max)
    relation.attributes.append(RdsAttribute(name, prefix=prefix, suffix=suffix))
    relation.attributes += [RdsAttribute(a.name) for a in rel.attributes]
    return relation, prefix is not None


def _check_side_choices(model: ERModel, cfg: TransformConfig) -> None:
    if not cfg.sog_choice:
        return
    by_name = {rel.name: (rel, ratio)
               for rel, ratio in zip(model.relationships, model.ratios)}
    for rel_name, participant in cfg.sog_choice.items():
        if rel_name not in by_name:
            raise BadSideChoice(f"unknown relationship {rel_name!r} in side choice")
        rel, ratio = by_name[rel_name]
        if ratio.kind is not RatioKind.ONE_TO_ONE:
            raise BadSideChoice(
                f"relationship {rel_name!r} is not one-to-one; only one-to-one "
                f"relationships take a side choice"
            )
        if participant not in rel.participants():
            raise BadSideChoice(
                f"{participant!r} is not a participant of relationship {rel_name!r}"
            )


def transform_model(model: ERModel,
                    cfg: TransformConfig | None = None
                    ) -> tuple[RelationalSchema, list[TraceEntry]]:
    """Run all six steps; returns the schema and a step-by-step trace.

    ``gated_transform`` is the one gate.  Raises PrerequisiteFailed with its
    diagnostics when it finds an error: a notation error (a dangling
    reference is a REF error), or a CLASH where the steps built two
    relations or two attributes of one name.  Raises BadSideChoice for a
    side choice that names no one-to-one relationship or no participant of
    it.  The trace is ``trace_entries`` of the run's events: each entry
    records one event, and nothing is rendered until some entry's
    ``schema_after`` is read."""
    schema, events, diagnostics = gated_transform(model, cfg or TransformConfig())
    if schema is None:
        raise PrerequisiteFailed(diagnostics)
    return schema, trace_entries(events, schema)


def gated_transform(model: ERModel, cfg: TransformConfig
                    ) -> tuple[RelationalSchema | None, list[_Event], list[Diagnostic]]:
    """Validate the notation, run the six steps, and check the built schema
    for clashes.  Returns the schema (None when any diagnostic is an error),
    one event per step, and every diagnostic found.  A model the gate passes
    always transforms: the only exception is BadSideChoice, for a bad
    ``cfg``."""
    diagnostics = validate_notation(model, allow_extensions=cfg.extensions)
    if has_errors(diagnostics):
        return None, [], diagnostics
    schema, events = _transform_steps(model, cfg)
    diagnostics += _clashes(schema)
    if has_errors(diagnostics):
        return None, [], diagnostics
    return schema, events, diagnostics


def _repeated(names: list[str]) -> list[str]:
    """Each name that occurs more than once, in order of first occurrence."""
    if len(set(names)) == len(names):
        return []
    return [name for name, count in Counter(names).items() if count > 1]


def _clashes(schema: RelationalSchema) -> list[Diagnostic]:
    """One CLASH error for each repeated relation name, and for each repeated
    attribute name inside a relation."""
    found = [(f"two relations are named {name!r}", name)
             for name in _repeated([r.name for r in schema.relations])]
    for relation in schema.relations:
        for name in _repeated([a.display_name() for a in relation.attributes]):
            found.append((f"relation {relation.name!r} has two attributes named "
                          f"{name!r}", relation.name))
    return [Diagnostic("CLASH", Severity.ERROR, message, element=element)
            for message, element in found]


def _transform_steps(model: ERModel, cfg: TransformConfig
                     ) -> tuple[RelationalSchema, list[_Event]]:
    """The six steps, as six loops in step order (REG, SUB, GNG, SOG, MVA,
    WAK), on a model that passed notation validation; returns the schema and
    one event per relation created or extended.  A loop that creates a
    relation appends it to the schema; REG and SUB also register it in the
    relation map, the only relations a later step looks up.
    The steps check nothing themselves: the notation gate has made sure that
    every name they look up is there and that no two elements share a name.
    Only the relation map can still meet a repeated name, which it resolves
    to the first relation and which the gate then reports as a ``CLASH``."""
    _check_side_choices(model, cfg)

    schema = RelationalSchema()
    relations: dict[str, Relation] = {}
    events: list[_Event] = []

    # REG: the designated key first (the first key matching the entity's
    # name, which R2.4.2 ensures), the other keys, then simple attributes;
    # multivalued attributes are left for their own step.
    entities: dict[str, RegularEntityType] = {}
    for entity in model.entities:
        entities[entity.name] = entity
        designated = matching_keys(entity)[0]
        attributes = [RdsAttribute(designated.name, underlined=True)]
        attributes += [RdsAttribute(key.name, underlined=True)
                       for key in entity.keys() if key is not designated]
        attributes += [RdsAttribute(a.name) for a in entity.simple_attributes()]
        relation = Relation(entity.name, attributes)
        schema.relations.append(relation)
        relations.setdefault(entity.name, relation)
        events.append((STEP_REGULAR, entity.name, entity.name, len(attributes), True))

    # The relationships of each step, in declaration order, from the ratios
    # the model classified once.
    one_to_many: list[tuple[RelationshipType, Ratio]] = []
    one_to_one: list[RelationshipType] = []
    many, one = RatioKind.ONE_TO_MANY, RatioKind.ONE_TO_ONE
    for rel, ratio in zip(model.relationships, model.ratios):
        if ratio.kind is many:
            one_to_many.append((rel, ratio))
        elif ratio.kind is one:
            one_to_one.append(rel)

    # SUB: a subtype gets a relation keyed by its supertype's key iff it has
    # an intrinsic attribute, sits at the N-side of a one-to-many
    # relationship, or a side choice routes a one-to-one foreign key into it
    # (each choice names a participant of a one-to-one relationship), decided
    # before the step so the one-to-one step never needs a relation that was
    # not created.  Relations lead with their underlined designated key, which
    # dependent relations share rather than rebuild.
    hosts = {rel.endpoints[ratio.n_side].participant for rel, ratio in one_to_many}
    hosts.update(cfg.sog_choice.values())
    supertypes: dict[str, str] = {}
    for subtype in model.subtypes:
        supertypes[subtype.name] = subtype.supertype
        if not subtype.attributes and subtype.name not in hosts:
            continue
        attributes = [relations[subtype.supertype].attributes[0]]
        attributes += [RdsAttribute(a.name) for a in subtype.attributes]
        relation = Relation(subtype.name, attributes)
        schema.relations.append(relation)
        relations.setdefault(subtype.name, relation)
        events.append((STEP_SUBTYPE, subtype.name, subtype.name, len(attributes), True))

    # GNG: the one side's key goes into the N-side's relation.
    for rel, ratio in one_to_many:
        near, far = rel.endpoints[ratio.n_side], rel.endpoints[1 - ratio.n_side]
        relation, _ = _add_foreign_key(rel, near, far, relations, supertypes)
        events.append((STEP_ONE_TO_MANY, rel.name, relation.name,
                       len(relation.attributes), schema.relations[-1] is relation))

    # SOG: when the regular side takes the key, the key is the subtype's,
    # prefixed, and the relation that absorbs it moves to the end of the
    # schema.  The move keeps re-derived schemas byte-identical to their
    # source: the subtype relations a reversal discovers first are always
    # created before the relationship steps run, so only the move reconciles
    # listing order.  The relations to move, by identity and in order of last
    # move, move after the step, since a removal scans the list; ``end`` will
    # end the schema.
    moved: dict[int, Relation] = {}
    end = schema.relations[-1] if schema.relations else None
    for rel in one_to_one:
        # The gate lets a one-to-one relationship through only if it joins a
        # subtype to a regular entity type; ``sub`` is the subtype's side.
        sub, regular = rel.endpoints
        if sub.participant in entities:
            sub, regular = regular, sub
        choice = cfg.sog_choice.get(rel.name)
        if choice is not None:
            into_sub = choice == sub.participant
        else:
            into_sub = not cfg.prefer_regular and sub.participant in relations
        near, far = (sub, regular) if into_sub else (regular, sub)
        relation, moves = _add_foreign_key(rel, near, far, relations, supertypes)
        if moves:
            moved.pop(id(relation), None)
            moved[id(relation)] = end = relation
        events.append((STEP_ONE_TO_ONE, rel.name, relation.name,
                       len(relation.attributes), relation is end))
    if moved:
        schema.relations[:] = [r for r in schema.relations if id(r) not in moved]
        schema.relations += moved.values()

    # MVA: one relation per multivalued attribute, named after it and keyed
    # by the owner's key plus the value.  Walk owner relations in schema
    # order, not declaration order: the one-to-one step may have reordered
    # the schema, and reversal derives declaration order from schema order.
    for owner in list(schema.relations):
        entity = entities.get(owner.name)
        if entity is None:
            continue
        for attr in entity.multivalued_attributes():
            relation = Relation(attr.name, [owner.attributes[0],
                                            RdsAttribute(attr.name, underlined=True)])
            schema.relations.append(relation)
            events.append((STEP_MULTIVALUED, f"{entity.name}.{attr.name}", attr.name,
                           2, True))

    # WAK: a weak entity's relation is keyed by owner key plus partial key.
    for weak in model.weak_entities:
        attributes = [relations[weak.owner].attributes[0],
                      RdsAttribute(weak.partial_key.name, underlined=True)]
        attributes += [RdsAttribute(a.name) for a in weak.attributes]
        relation = Relation(weak.name, attributes)
        schema.relations.append(relation)
        events.append((STEP_WEAK, weak.name, weak.name, len(attributes), True))

    return schema, events
