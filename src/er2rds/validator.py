"""Notation rules checked before a model may be transformed.

The catalog below is the stable diagnostic contract: rule ids appear in CLI
output and tests match on them.  ``REF`` repeats the parser's reference
checks and its check that no element, identifying relationship or
relationship takes a name declared before it, with its messages and element
names (``entity Alpha``, ``weak Badge``, ``rel Works``), and ``SUBSET`` its
check of the participation values, so a model built in code meets the bar
that parsed text does; the other rules answer whether the model sticks to
the notation conventions the transformation relies on, and whether every
relationship falls inside the supported transformation subset.  ``CLASH``
alone is checked on the schema the steps build, by
``forward.gated_transform``.

``validate_notation`` walks the model once and reports in a fixed order:
elements in model order (entities, subtypes, weak entities, relationships);
within an element, its own findings by rule id, then its attributes'
findings in attribute order.
"""

from __future__ import annotations

from operator import attrgetter

from .model import (MAXIMA, MINIMA, Diagnostic, ERModel, RatioKind, Severity,
                    matching_keys)

RULES: dict[str, str] = {
    "REF": "a subtype's supertype and a weak entity's owner are regular entity "
           "types; a relationship's participants are entity types or subtypes; "
           "an element or relationship takes no name declared before it",
    "R2.4.2": "a regular entity type declares a key whose first three letters "
              "match the entity name's",
    "R2.5.1": "names are capitalized (singular form is advisory)",
    "R2.5.2": "names contain only alphabetic characters",
    "R2.2.1-I": "a subtype has an intrinsic attribute or participates in a "
                "relationship",
    "SUBSET": "a relationship's minima are 0 or 1 and its maxima 1 or n, and it "
              "is 1:N between two regular entity types or 1:1 between a subtype "
              "and a regular entity type",
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
    # The kind of each name declared so far, which no later element or
    # relationship may take; references resolve against it.  Entities come
    # first in model order, so every entity name maps to "entity".
    declared: dict[str, str] = {}
    participants = None  # of all relationships, once an attribute-free subtype asks
    for entity in model.entities:
        name = entity.name
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
        if name in declared:
            found.append(Diagnostic("REF", _ERROR, f"name {name!r} is already declared",
                                    element=f"entity {name}"))
        else:
            declared[name] = "entity"
        _check_attributes(found, "entity", name, entity.attributes)
    for subtype in model.subtypes:
        name = subtype.name
        if not subtype.attributes and participants is None:
            participants = {p for rel in model.relationships for p in rel.participants()}
        if not subtype.attributes and name not in participants:
            found.append(Diagnostic(
                "R2.2.1-I", _ERROR, f"subtype {name!r} has no intrinsic attribute "
                f"and participates in no relationship", element=f"subtype {name}"))
        _check_name(found, name, "subtype", name, plural_check=True)
        if name in declared:
            found.append(Diagnostic("REF", _ERROR, f"name {name!r} is already declared",
                                    element=f"subtype {name}"))
        else:
            declared[name] = "subtype"
        if declared.get(subtype.supertype) != "entity":
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
            else:
                declared[taken] = "weak"
        if declared.get(weak.owner) != "entity":
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
        else:
            declared[name] = "rel"
        # One walk gives the REF findings and the kinds of the participants
        # that resolve, which SUBSET reads.
        kinds = []
        for endpoint in rel.endpoints:
            participant = endpoint.participant
            kind = declared.get(participant)
            if kind == "entity" or kind == "subtype":
                kinds.append(kind)
            else:
                found.append(Diagnostic(
                    "REF", _ERROR, f"participant {participant!r} is not an entity "
                    f"type or subtype", element=f"rel {name}"))
        first, second = rel.participants()
        near, far = rel.endpoints[0].pair, rel.endpoints[1].pair
        if (near.min not in MINIMA or near.max not in MAXIMA
                or far.min not in MINIMA or far.max not in MAXIMA):
            # Values outside the notation replace the shape finding.
            message = None
            for pair in (near, far):
                if pair.min not in MINIMA:
                    found.append(Diagnostic(
                        "SUBSET", _ERROR, f"minimum participation must be 0 or 1, "
                        f"found {pair.min!r}", element=f"relationship {name}"))
                if pair.max not in MAXIMA:
                    found.append(Diagnostic(
                        "SUBSET", _ERROR, f"maximum participation must be 1 or n, "
                        f"found {pair.max!r}", element=f"relationship {name}"))
        elif first == second:
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
