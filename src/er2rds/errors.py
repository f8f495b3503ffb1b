"""Exception types raised by the transformation pipeline."""

from __future__ import annotations


class TransformError(Exception):
    """Base class for transformation failures."""


class BadSideChoice(TransformError):
    """A side choice is not written RELATIONSHIP=PARTICIPANT, or names an
    unknown relationship or a non-participant."""


class PrerequisiteFailed(TransformError):
    """The model failed validation: a notation error, or a CLASH in the
    schema its steps built.  Carries every diagnostic the gate found."""

    def __init__(self, diagnostics):
        super().__init__("model failed validation")
        self.diagnostics = list(diagnostics)
