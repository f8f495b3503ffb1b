"""Notation rules checked before a model may be transformed.

The catalog below is the stable diagnostic contract: rule ids appear in CLI
output and tests match on them.  The checks operate on structurally valid
models (the parser owns reference resolution and shape); they answer whether
the model sticks to the notation conventions the transformation relies on,
and whether every relationship falls inside the supported transformation
subset.  ``CLASH`` alone is checked on the schema the steps build, by
``forward.gated_transform``.
"""

from __future__ import annotations

from .model import (
    Diagnostic,
    ERModel,
    RatioKind,
    RegularEntityType,
    RelationshipType,
    Severity,
    matching_keys,
    ratio_class,
)

RULES: dict[str, str] = {
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

    def name_checks(self, position: tuple[int, ...], name: str, element: str,
                    plural_check: bool = False) -> None:
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

    def attribute_checks(self, position: tuple[int, ...], owner: str,
                         attributes) -> None:
        """``name_checks`` per attribute; the element is built only if one fails."""
        for index, attr in enumerate(attributes):
            name = attr.name
            if not (name.isalpha() and name[:1].isupper()):
                self.name_checks((*position, index), name,
                                 f"{owner}, attribute {name}")

    def sorted_diagnostics(self) -> list[Diagnostic]:
        return [d for _, _, d in sorted(self.found, key=lambda item: item[:2])]


def _check_entity(out: _Collector, index: int, entity: RegularEntityType) -> None:
    position = (0, index)
    element = f"entity {entity.name}"
    out.name_checks(position, entity.name, element, plural_check=True)
    out.attribute_checks(position, element, entity.attributes)
    matches = matching_keys(entity)
    if not matches:
        out.add(position, "R2.4.2", Severity.ERROR,
                f"entity {entity.name!r} has no key attribute whose first three "
                f"letters match the entity name", element)
    elif len(matches) > 1:
        out.add(position, "R2.4.2", Severity.WARNING,
                f"entity {entity.name!r} has {len(matches)} key attributes matching "
                f"its name; {matches[0].name!r} is designated by declaration order",
                element)


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


def _check_relationship(out: _Collector, model: ERModel, index: int,
                        rel: RelationshipType, allow_extensions: bool) -> None:
    position = (3, index)
    element = f"relationship {rel.name}"
    out.name_checks(position, rel.name, element)
    out.attribute_checks(position, element, rel.attributes)

    first, second = rel.participants()
    if first == second:
        out.add(position, "SUBSET", Severity.ERROR,
                f"relationship {rel.name!r} relates {first!r} to itself; only "
                f"binary relationships between distinct participants are supported",
                element)
        return
    kinds = _supported_kinds(model, rel)
    ratio = ratio_class(rel)
    if ratio.kind is RatioKind.MANY_TO_MANY:
        out.add(position, "SUBSET", Severity.ERROR,
                f"relationship {rel.name!r} is many-to-many, which is not in the "
                f"supported transformation subset", element)
    elif ratio.kind is RatioKind.ONE_TO_ONE:
        if sorted(kinds) != ["entity", "subtype"]:
            out.add(position, "SUBSET", Severity.ERROR,
                    f"one-to-one relationship {rel.name!r} must relate a subtype "
                    f"to a regular entity type", element)
    else:  # ONE_TO_MANY
        if kinds != ["entity", "entity"] and not allow_extensions:
            out.add(position, "SUBSET", Severity.ERROR,
                    f"one-to-many relationship {rel.name!r} must relate two "
                    f"regular entity types (subtype endpoints need extensions)",
                    element)


def validate_notation(model: ERModel, allow_extensions: bool = False) -> list[Diagnostic]:
    """Check the rule catalog; diagnostics sorted by model position then rule id."""
    out = _Collector()
    for index, entity in enumerate(model.entities):
        _check_entity(out, index, entity)
    for index, subtype in enumerate(model.subtypes):
        position = (1, index)
        element = f"subtype {subtype.name}"
        out.name_checks(position, subtype.name, element, plural_check=True)
        out.attribute_checks(position, element, subtype.attributes)
        if not subtype.attributes and not model.relationships_involving(subtype.name):
            out.add(position, "R2.2.1-I", Severity.ERROR,
                    f"subtype {subtype.name!r} has no intrinsic attribute and "
                    f"participates in no relationship", element)
    for index, weak in enumerate(model.weak_entities):
        position = (2, index)
        element = f"weak entity {weak.name}"
        out.name_checks(position, weak.name, element, plural_check=True)
        out.name_checks(position, weak.identifying_relationship,
                        f"weak entity {weak.name}, identifying relationship")
        out.attribute_checks(position, element, (weak.partial_key, *weak.attributes))
    for index, rel in enumerate(model.relationships):
        _check_relationship(out, model, index, rel, allow_extensions)
    return out.sorted_diagnostics()
