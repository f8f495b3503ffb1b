"""Exception types raised by the transformation pipeline, and the refusal of
an assignment to a frozen value."""

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


# The __setattr__ and __delattr__ of a frozen record class (model.record).
# Only a refused assignment or deletion imports dataclasses, for its error.


def refuse_assignment(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def refuse_deletion(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")
