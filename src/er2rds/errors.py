"""Exception types raised by the transformation pipeline."""

from __future__ import annotations


class TransformError(Exception):
    """Base class for transformation failures."""


class NoDesignatedKey(TransformError):
    """No key attribute shares its first three letters with the entity name."""


class MissingSupertypeRelation(TransformError):
    """A subtype was transformed before its supertype's relation existed."""


class MissingOwnerRelation(TransformError):
    """A weak entity or multivalued attribute was reached before its owner's relation."""


class NameCollision(TransformError):
    """A new relation would reuse a name already present in the schema."""


class UnsupportedParticipant(TransformError):
    """A relationship endpoint kind falls outside the supported transformation set."""


class BadSideChoice(TransformError):
    """A side choice names an unknown relationship or a non-participant."""


class PrerequisiteFailed(TransformError):
    """The model failed notation validation; carries the offending diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("model failed notation validation")
        self.diagnostics = list(diagnostics)


class SchemaInvariantError(TransformError):
    """A relation violates a structural invariant of produced schemas."""
