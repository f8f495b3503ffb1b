"""Exception types raised by the transformation pipeline."""

from __future__ import annotations


class TransformError(Exception):
    """Base class for transformation failures."""


class NoDesignatedKey(TransformError):
    """No key attribute shares its first three letters with the entity name."""


class MissingRelation(TransformError):
    """A step needs the relation of an element the model does not contain."""


class NameCollision(TransformError):
    """A new relation would reuse a name already present in the schema."""


class BadSideChoice(TransformError):
    """A side choice names an unknown relationship or a non-participant."""


class PrerequisiteFailed(TransformError):
    """The model failed notation validation; carries the offending diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("model failed notation validation")
        self.diagnostics = list(diagnostics)


class SchemaInvariantError(TransformError):
    """A relation violates a structural invariant of produced schemas."""
