"""Notation rules checked before a model may be transformed.

The catalog below is the stable diagnostic contract: rule ids appear in CLI
output and tests match on them.  ``REF`` repeats the parser's reference
checks and its check that a weak entity, its identifying relationship and a
relationship take no name declared before them, with its messages and
element names (``weak Badge``, ``rel Works``), so a model built in code
meets the bar that parsed text does; the other rules answer whether the
model sticks to the notation conventions the transformation relies on, and
whether every relationship falls inside the supported transformation
subset.  ``CLASH`` alone is checked on the schema the steps build, by
``forward.gated_transform``.

``validate_notation`` walks the model once and reports in a fixed order:
elements in model order (entities, subtypes, weak entities, relationships);
within an element, its own findings by rule id, then its attributes'
findings in attribute order.
"""

from __future__ import annotations

from operator import attrgetter

from .model import Diagnostic, ERModel, RatioKind, Severity, matching_keys

RULES: dict[str, str] = {
    "REF": "a subtype's supertype and a weak entity's owner are regular entity "
           "types; a relationship's participants are entity types or subtypes; "
           "a weak entity or relationship takes no name declared before it",
    "R2.4.2": "a regular entity type declares a key whose first three letters "
              "match the entity name's",
    "R2.5.1": "names are capitalized (singular form is advisory)",
    "R2.5.2": "names contain only alphabetic characters",
    "R2.2.1-I": "a subtype has an intrinsic attribute or participates in a "
                "relationship",
    "SUBSET": "a relationship is 1:N between two regular entity types or 1:1 "
              "between a subtype and a regular entity type",
    "CLASH": "the transformation builds no two relations, and no two attributes "
             "of one relation, with the same name",
}

_ERROR, _WARNING = Severity.ERROR, Severity.WARNING


def _check_name(found: list[Diagnostic], name: str, kind: str, owner: str,
                detail: str = "", plural_check: bool = False) -> None:
    """Append the name rules' findings for ``name``; the element, ``kind
    owner`` followed by ``detail``, is built only if one fails."""
    plural = plural_check and name.endswith("s") and not name.endswith("ss")
    if name.isalpha() and name[:1].isupper() and not plural:
        return
    element = f"{kind} {owner}{detail}"
    if not name.isalpha():
        found.append(Diagnostic("R2.5.2", _ERROR, f"name {name!r} contains "
                                f"non-alphabetic characters", element=element))
        return
    if not name[:1].isupper():
        found.append(Diagnostic("R2.5.1", _ERROR, f"name {name!r} must start "
                                f"with an uppercase letter", element=element))
    if plural:
        found.append(Diagnostic("R2.5.1", _WARNING, f"name {name!r} looks plural; "
                                f"names should be singular", element=element))


def _check_attributes(found: list[Diagnostic], kind: str, owner: str,
                      attributes) -> None:
    """``_check_name`` per attribute, whose element names its owner."""
    for attr in attributes:
        name = attr.name
        if not (name.isalpha() and name[:1].isupper()):
            _check_name(found, name, kind, owner, f", attribute {name}")


def validate_notation(model: ERModel, allow_extensions: bool = False) -> list[Diagnostic]:
    """Check the rule catalog in one walk, in the order the module states.
    Checks run in rule-id order; only a weak entity's two names need a sort."""
    found: list[Diagnostic] = []
    # Names declared so far, which a weak entity or a relationship may not
    # take; two entities or subtypes that share a name are left to CLASH.
    # References resolve against the names of the entities and subtypes.
    declared: set[str] = set()
    entities: set[str] = set()
    subtypes: set[str] = set()
    participants = None  # of all relationships, once an attribute-free subtype asks
    for entity in model.entities:
        name = entity.name
        declared.add(name)
        entities.add(name)
        matches = matching_keys(entity)
        if not matches:
            found.append(Diagnostic(
                "R2.4.2", _ERROR, f"entity {name!r} has no key attribute whose "
                f"first three letters match the entity name", element=f"entity {name}"))
        elif len(matches) > 1:
            found.append(Diagnostic(
                "R2.4.2", _WARNING, f"entity {name!r} has {len(matches)} key "
                f"attributes matching its name; {matches[0].name!r} is designated "
                f"by declaration order", element=f"entity {name}"))
        _check_name(found, name, "entity", name, plural_check=True)
        _check_attributes(found, "entity", name, entity.attributes)
    for subtype in model.subtypes:
        name = subtype.name
        declared.add(name)
        subtypes.add(name)
        if not subtype.attributes and participants is None:
            participants = {p for rel in model.relationships for p in rel.participants()}
        if not subtype.attributes and name not in participants:
            found.append(Diagnostic(
                "R2.2.1-I", _ERROR, f"subtype {name!r} has no intrinsic attribute "
                f"and participates in no relationship", element=f"subtype {name}"))
        _check_name(found, name, "subtype", name, plural_check=True)
        if subtype.supertype not in entities:
            found.append(Diagnostic(
                "REF", _ERROR, f"supertype {subtype.supertype!r} is not a regular "
                f"entity type", element=f"subtype {name}"))
        _check_attributes(found, "subtype", name, subtype.attributes)
    for weak in model.weak_entities:
        name = weak.name
        names: list[Diagnostic] = []
        _check_name(names, name, "weak entity", name, plural_check=True)
        via = weak.identifying_relationship
        _check_name(names, via, "weak entity", name, ", identifying relationship")
        found += sorted(names, key=attrgetter("rule_id"))
        for taken in (name, via):
            if taken in declared:
                found.append(Diagnostic("REF", _ERROR, f"name {taken!r} is already "
                                        f"declared", element=f"weak {name}"))
            declared.add(taken)
        if weak.owner not in entities:
            found.append(Diagnostic(
                "REF", _ERROR, f"owner {weak.owner!r} is not a regular entity type",
                element=f"weak {name}"))
        _check_attributes(found, "weak entity", name,
                          (weak.partial_key, *weak.attributes))
    for rel, ratio in zip(model.relationships, model.ratios):
        name = rel.name
        _check_name(found, name, "relationship", name)
        if name in declared:
            found.append(Diagnostic("REF", _ERROR, f"name {name!r} is already declared",
                                    element=f"rel {name}"))
        declared.add(name)
        # One walk gives the REF findings and the kinds of the participants
        # that resolve, which SUBSET reads.
        kinds = []
        for endpoint in rel.endpoints:
            participant = endpoint.participant
            if participant in entities:
                kinds.append("entity")
            elif participant in subtypes:
                kinds.append("subtype")
            else:
                found.append(Diagnostic(
                    "REF", _ERROR, f"participant {participant!r} is not an entity "
                    f"type or subtype", element=f"rel {name}"))
        first, second = rel.participants()
        if first == second:
            message = (f"relationship {name!r} relates {first!r} to itself; only binary"
                       f" relationships between distinct participants are supported")
        elif ratio.kind is RatioKind.MANY_TO_MANY:
            message = (f"relationship {name!r} is many-to-many, which is not in the "
                       f"supported transformation subset")
        elif ratio.kind is RatioKind.ONE_TO_ONE:
            message = None if sorted(kinds) == ["entity", "subtype"] else (
                f"one-to-one relationship {name!r} must relate a subtype to a "
                f"regular entity type")
        elif allow_extensions or kinds == ["entity", "entity"]:
            message = None
        else:
            message = (f"one-to-many relationship {name!r} must relate two regular "
                       f"entity types (subtype endpoints need extensions)")
        if message is not None:
            found.append(Diagnostic("SUBSET", _ERROR, message,
                                    element=f"relationship {name}"))
        _check_attributes(found, "relationship", name, rel.attributes)
    return found
