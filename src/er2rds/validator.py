"""Notation rules checked before a model may be transformed.

The catalog below is the stable diagnostic contract: rule ids appear in CLI
output and tests match on them.  ``REF`` repeats the parser's reference
checks, with its messages and element names (``weak Badge``, ``rel
Works``), so a model built in code meets the bar that parsed text does; the
other rules answer whether the model sticks to the notation conventions the
transformation relies on, and whether every relationship falls inside the
supported transformation subset.  ``CLASH`` alone is checked on the schema
the steps build, by ``forward.gated_transform``.
"""

from __future__ import annotations

from .model import (
    Diagnostic,
    ERModel,
    Ratio,
    RatioKind,
    RegularEntityType,
    RelationshipType,
    Severity,
    matching_keys,
)

RULES: dict[str, str] = {
    "REF": "a subtype's supertype and a weak entity's owner are regular entity "
           "types; a relationship's participants are entity types or subtypes",
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


def _looks_plural(name: str) -> bool:
    return name.endswith("s") and not name.endswith("ss")


class _Collector:
    def __init__(self) -> None:
        self.found: list[tuple[tuple[int, ...], str, Diagnostic]] = []

    def add(self, position: tuple[int, ...], rule: str, severity: Severity,
            message: str, element: str) -> None:
        self.found.append(
            (position, rule,
             Diagnostic(rule, severity, message, element=element))
        )

    def name_checks(self, position: tuple[int, ...], name: str, kind: str,
                    owner: str, detail: str = "", plural_check: bool = False) -> None:
        """The name rules for ``name``; the element, ``kind owner`` followed
        by ``detail``, is built only if one fails."""
        if name.isalpha() and name[:1].isupper() and not (
                plural_check and _looks_plural(name)):
            return
        element = f"{kind} {owner}{detail}"
        if not name.isalpha():
            self.add(position, "R2.5.2", Severity.ERROR,
                     f"name {name!r} contains non-alphabetic characters", element)
            return
        if not name[:1].isupper():
            self.add(position, "R2.5.1", Severity.ERROR,
                     f"name {name!r} must start with an uppercase letter", element)
        if plural_check and _looks_plural(name):
            self.add(position, "R2.5.1", Severity.WARNING,
                     f"name {name!r} looks plural; names should be singular", element)

    def attribute_checks(self, position: tuple[int, ...], kind: str, owner: str,
                         attributes) -> None:
        """``name_checks`` per attribute, whose element names its owner."""
        for index, attr in enumerate(attributes):
            name = attr.name
            if not (name.isalpha() and name[:1].isupper()):
                self.name_checks((*position, index), name, kind, owner,
                                 f", attribute {name}")

    def sorted_diagnostics(self) -> list[Diagnostic]:
        return [d for _, _, d in sorted(self.found, key=lambda item: item[:2])]


def _check_entity(out: _Collector, index: int, entity: RegularEntityType) -> None:
    position = (0, index)
    name = entity.name
    out.name_checks(position, name, "entity", name, plural_check=True)
    out.attribute_checks(position, "entity", name, entity.attributes)
    matches = matching_keys(entity)
    if len(matches) == 1:
        return
    if not matches:
        out.add(position, "R2.4.2", Severity.ERROR,
                f"entity {name!r} has no key attribute whose first three "
                f"letters match the entity name", f"entity {name}")
    else:
        out.add(position, "R2.4.2", Severity.WARNING,
                f"entity {name!r} has {len(matches)} key attributes matching "
                f"its name; {matches[0].name!r} is designated by declaration order",
                f"entity {name}")


def _supported_kinds(model: ERModel, rel: RelationshipType) -> list[str]:
    kinds = []
    for endpoint in rel.endpoints:
        if model.entity(endpoint.participant) is not None:
            kinds.append("entity")
        elif model.subtype(endpoint.participant) is not None:
            kinds.append("subtype")
        else:
            kinds.append("other")
    return kinds


_ONE_TO_ONE = RatioKind.ONE_TO_ONE
_MANY_TO_MANY = RatioKind.MANY_TO_MANY


def _check_relationship(out: _Collector, model: ERModel, index: int,
                        rel: RelationshipType, ratio: Ratio,
                        allow_extensions: bool) -> None:
    position = (3, index)
    name = rel.name
    out.name_checks(position, name, "relationship", name)
    out.attribute_checks(position, "relationship", name, rel.attributes)

    kinds = _supported_kinds(model, rel)
    for endpoint, kind in zip(rel.endpoints, kinds):
        if kind == "other":
            out.add(position, "REF", Severity.ERROR,
                    f"participant {endpoint.participant!r} is not an entity type "
                    f"or subtype", f"rel {name}")
    first, second = rel.participants()
    if first == second:
        message = (f"relationship {name!r} relates {first!r} to itself; only "
                   f"binary relationships between distinct participants are "
                   f"supported")
    elif ratio.kind is _MANY_TO_MANY:
        message = (f"relationship {name!r} is many-to-many, which is not in the "
                   f"supported transformation subset")
    elif ratio.kind is _ONE_TO_ONE:
        if sorted(kinds) == ["entity", "subtype"]:
            return
        message = (f"one-to-one relationship {name!r} must relate a subtype "
                   f"to a regular entity type")
    elif allow_extensions or kinds == ["entity", "entity"]:
        return
    else:
        message = (f"one-to-many relationship {name!r} must relate two "
                   f"regular entity types (subtype endpoints need extensions)")
    out.add(position, "SUBSET", Severity.ERROR, message, f"relationship {name}")


def validate_notation(model: ERModel, allow_extensions: bool = False) -> list[Diagnostic]:
    """Check the rule catalog; diagnostics sorted by model position then rule id."""
    out = _Collector()
    for index, entity in enumerate(model.entities):
        _check_entity(out, index, entity)
    for index, subtype in enumerate(model.subtypes):
        position = (1, index)
        name = subtype.name
        out.name_checks(position, name, "subtype", name, plural_check=True)
        out.attribute_checks(position, "subtype", name, subtype.attributes)
        if model.entity(subtype.supertype) is None:
            out.add(position, "REF", Severity.ERROR,
                    f"supertype {subtype.supertype!r} is not a regular entity type",
                    f"subtype {name}")
        if not subtype.attributes and not model.relationships_involving(name):
            out.add(position, "R2.2.1-I", Severity.ERROR,
                    f"subtype {name!r} has no intrinsic attribute and "
                    f"participates in no relationship", f"subtype {name}")
    for index, weak in enumerate(model.weak_entities):
        position = (2, index)
        name = weak.name
        out.name_checks(position, name, "weak entity", name, plural_check=True)
        out.name_checks(position, weak.identifying_relationship, "weak entity", name,
                        ", identifying relationship")
        out.attribute_checks(position, "weak entity", name,
                             (weak.partial_key, *weak.attributes))
        if model.entity(weak.owner) is None:
            out.add(position, "REF", Severity.ERROR,
                    f"owner {weak.owner!r} is not a regular entity type",
                    f"weak {name}")
    for index, (rel, ratio) in enumerate(zip(model.relationships, model.ratios)):
        _check_relationship(out, model, index, rel, ratio, allow_extensions)
    return out.sorted_diagnostics()
