"""Text format for relational schemas.

One relation per line: ``Name[a1, a2, ...]``.  An attribute is rendered as
``_Attr_`` when underlined (primary key part), ``Prefix-Attr`` when it
carries a subtype prefix, and gains a bracketed foreign-key suffix
``(RelName, v2, v3, v4)`` appended with no space before the parenthesis.
``//`` starts a comment; blank lines are ignored.  Every name starts with an
upper-case letter, as in the ``.er`` notation.  Emission is deterministic,
so equal schemas produce byte-identical text.
"""

from __future__ import annotations

import re

from .model import (
    Diagnostic,
    FkSuffix,
    RdsAttribute,
    Relation,
    RelationalSchema,
    Severity,
    has_errors,
)


def render_suffix(suffix: FkSuffix) -> str:
    return f"({suffix.relationship}, {suffix.v2}, {suffix.v3}, {suffix.v4})"


def render_attribute(attr: RdsAttribute) -> str:
    if attr.underlined:
        return f"_{attr.name}_"
    if attr.suffix is not None:
        return attr.display_name() + render_suffix(attr.suffix)
    return attr.display_name()


def render_relation(relation: Relation) -> str:
    body = ", ".join([render_attribute(a) for a in relation.attributes])
    return f"{relation.name}[{body}]"


def emit_rds(schema: RelationalSchema) -> str:
    return "".join([render_relation(r) + "\n" for r in schema.relations])


_LINE_RE = re.compile(r"^([A-Za-z]+)\[(.*)\]$")
_UNDERLINED_RE = re.compile(r"^_([A-Za-z]+)_(\(.*\))?$")
_PLAIN_RE = re.compile(
    r"^(?:([A-Za-z]+)-)?([A-Za-z]+)"
    r"(?:\(\s*([A-Za-z]+)\s*,\s*([01])\s*,\s*([01])\s*,\s*([1n])\s*\))?$"
)


def _split_attributes(body: str) -> list[str]:
    """Split at the commas outside parentheses: a piece joins the previous
    part while the parentheses before it do not balance."""
    parts: list[str] = []
    depth = 0
    for piece in body.split(","):
        if depth:
            parts[-1] += "," + piece
        else:
            parts.append(piece)
        depth += piece.count("(") - piece.count(")")
    return [part.strip() for part in parts]


def _not_capitalized(name: str, line_no: int) -> Diagnostic:
    """The validator's ``R2.5.1`` error: ``.er`` text refuses the name, so
    a reversal must not write it."""
    return Diagnostic("R2.5.1", Severity.ERROR,
                      f"name {name!r} must start with an uppercase letter", line_no)


def _parse_attribute(text: str, line_no: int,
                     diagnostics: list[Diagnostic]) -> RdsAttribute | None:
    match = _UNDERLINED_RE.match(text)
    if match is not None:
        if not match.group(1)[0].isupper():
            diagnostics.append(_not_capitalized(match.group(1), line_no))
        if match.group(2) is not None:
            diagnostics.append(
                Diagnostic("INVARIANT", Severity.ERROR,
                           f"underlined attribute {match.group(1)!r} cannot carry "
                           f"a foreign-key suffix", line_no)
            )
            return None
        return RdsAttribute(match.group(1), underlined=True)
    match = _PLAIN_RE.match(text)
    if match is None:
        diagnostics.append(
            Diagnostic("SYNTAX", Severity.ERROR,
                       f"malformed attribute {text!r}", line_no)
        )
        return None
    prefix, name, rel, v2, v3, v4 = match.groups()
    for part in (prefix, name, rel):
        if part is not None and not part[0].isupper():
            diagnostics.append(_not_capitalized(part, line_no))
    suffix = FkSuffix(rel, v2, v3, v4) if rel is not None else None
    if prefix is not None and suffix is None:
        diagnostics.append(
            Diagnostic("INVARIANT", Severity.ERROR,
                       f"prefixed attribute {prefix}-{name} must carry a "
                       f"foreign-key suffix", line_no)
        )
        return None
    return RdsAttribute(name, prefix=prefix, suffix=suffix)


def parse_rds(text: str, path: str = "<rds>") -> tuple[RelationalSchema | None,
                                                       list[Diagnostic]]:
    """Parse schema text; returns ``(schema, [])`` or ``(None, errors)``: a
    schema never comes with a diagnostic, and every diagnostic is an error.

    Enforces the attribute laws (prefix implies suffix, underlined excludes
    suffix), relation-name uniqueness, and names that start with an
    upper-case letter (``R2.5.1``, in the validator's words).  Whether
    underlined attributes lead the relation is left to classification: only
    transformer output promises that, and hand-written files are still
    parseable.  ``path`` is unused, as in ``parse_er``.
    """
    schema = RelationalSchema()
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        # an en dash between prefix and key is read as the plain hyphen
        line = line.replace("–", "-")
        if not line:
            continue
        match = _LINE_RE.match(line)
        if match is None:
            diagnostics.append(
                Diagnostic("SYNTAX", Severity.ERROR,
                           f"malformed relation line {line!r}", line_no)
            )
            continue
        name, body = match.groups()
        if not name[0].isupper():
            diagnostics.append(_not_capitalized(name, line_no))
        if name in seen:
            diagnostics.append(
                Diagnostic("REF", Severity.ERROR,
                           f"relation {name!r} is declared more than once", line_no)
            )
            continue
        seen.add(name)
        if body.strip() == "":
            diagnostics.append(
                Diagnostic("SYNTAX", Severity.ERROR,
                           f"relation {name!r} has no attributes", line_no)
            )
            continue
        attributes: list[RdsAttribute] = []
        attr_names: set[str] = set()
        for part in _split_attributes(body):
            attr = _parse_attribute(part, line_no, diagnostics)
            if attr is None:
                continue
            display = attr.display_name()
            if display in attr_names:
                diagnostics.append(
                    Diagnostic("REF", Severity.ERROR,
                               f"attribute {display!r} appears more than once in "
                               f"relation {name!r}", line_no)
                )
                continue
            attr_names.add(display)
            attributes.append(attr)
        schema.relations.append(Relation(name, attributes))
    if has_errors(diagnostics):
        return None, diagnostics
    return schema, diagnostics
