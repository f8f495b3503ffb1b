"""Text format for ER models.

Grammar (newline-insensitive, ``//`` line comments, UTF-8)::

    entity  <Name> { key <Attr>; [key <Attr>;]* [attr <Attr>; | multi <Attr>;]* }
    subtype <Name> of <Super> { [attr <Attr>;]* }
    weak    <Name> of <Owner> via <RelName> { partial <Attr>; [attr <Attr>;]* }
    rel     <Name> ( <P> <min>..<max> , <P> <min>..<max> ) { [attr <Attr>;]* }

Identifiers are purely alphabetic; the lexer rejects anything else at the
character-class rule (R2.5.2).  Minima are ``0`` or ``1``; maxima are ``1``
or ``n``, and ``N`` is read as ``n`` and emitted as ``n``.  Declarations
inside a block may appear in any order and keep that order through a parse
and re-emit; canonical form fixes only layout.
The parser also refuses, at its construct, a name or an attribute declared
twice, a reference that does not resolve (``REF``), an entity with no key,
and a weak entity with no or several partial keys (``MODEL``).  For models
built in code, ``validate_notation`` repeats the name and reference checks.

One parser reads the tokens of either of two tokenizers.  It first reads
bare token strings, which are cheap to make but carry no position.  Text
that yields any diagnostic is read again by the positioned reader, one token
pattern matched from offset to offset, which keeps each token's offset.  The
line and column of an offset are computed only for a diagnostic.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .model import (
    MAX_MANY,
    MINIMA,
    Attribute,
    AttributeKind,
    Diagnostic,
    ERModel,
    Factory,
    RegularEntityType,
    RelationshipEndpoint,
    RelationshipType,
    Severity,
    Subtype,
    WeakEntityType,
    cardinality_pair,
    record,
)


# The positioned reader: after any blanks and comments, one match takes a
# word (group 1), a token of the grammar or the end of input (group 2), or
# any other character (group 3).  A word is a run of characters that
# str.isalnum takes, or '_', '-' and '/', as re's \w is str.isalnum or '_'.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*(?:([\w/-]+)|(\.\.|[{}(),;]|\Z)|(.))",
                    re.DOTALL)


def _lex(text: str) -> tuple[list[str], list[int], list[tuple]]:
    """The tokens of ``text`` up to a "" at its end, the offset of each, and
    the errors of its characters as (offset, rule, message)."""
    tokens: list[str] = []
    offsets: list[int] = []
    errors: list[tuple] = []
    scan = _TOKEN.match
    end = 0
    while True:
        found = scan(text, end)
        group = found.lastindex
        token = found[group]
        start, end = found.span(group)
        if group == 1:
            if token[0].isalpha():
                # One bad name is one token and one error, not a cascade.
                if not token.isalpha():
                    errors.append((start, "R2.5.2", f"name {token!r} contains "
                                                    "non-alphabetic characters"))
            elif token[0].isdigit():
                # A number is the run of str.isdigit characters a word starts with.
                digits = next((n for n, ch in enumerate(token) if not ch.isdigit()),
                              len(token))
                token = token[:digits]
                end = start + digits
            else:
                group = 3
        if group == 3:
            errors.append((start, "SYNTAX", f"unexpected character {token[0]!r}"))
            end = start + 1
            continue
        tokens.append(token)
        offsets.append(start)
        if not token:
            return tokens, offsets, errors


def _located(text: str, errors: list[tuple]) -> list[Diagnostic]:
    """Each (offset, rule, message[, element]) as an error at the line and
    column of its offset.  The line starts are found once, for all."""
    if not errors:
        return []
    starts = [0, *(newline.end() for newline in re.finditer("\n", text))]
    diagnostics = []
    for offset, rule, message, *element in errors:
        line = bisect_right(starts, offset)
        diagnostics.append(Diagnostic(rule, Severity.ERROR, message, line,
                                      offset - starts[line - 1] + 1, *element))
    return diagnostics


class _RawConstruct(metaclass=record, frozen=False):
    """One top-level construct as ``_parse`` reads it and ``_resolve`` checks
    it: keyword, name and the keyword's token index, then what the keyword
    admits (a supertype, an owner and ``via`` name, endpoints or members)."""

    keyword: str
    name: str
    at: int  # index of the keyword token
    supertype: str = ""
    owner: str = ""
    via: str = ""
    endpoints: list[RelationshipEndpoint] = Factory(list)
    members: list[Attribute] = Factory(list)


# The top-level keywords, in the order that messages list them, and the
# member keywords that each admits, with the kind of attribute each declares.
_MEMBER_KEYWORDS = {
    "entity": ("key", "attr", "multi"),
    "subtype": ("attr",),
    "weak": ("partial", "attr"),
    "rel": ("attr",),
}
_MEMBER_KINDS = {
    "key": AttributeKind.KEY,
    "attr": AttributeKind.SIMPLE,
    "multi": AttributeKind.MULTIVALUED,
    "partial": AttributeKind.PARTIAL_KEY,
}
# The reader's spellings of each maximum: "N" is read as "n".
_MAXIMA = {"1": "1", "n": MAX_MANY, "N": MAX_MANY}
_KEY = AttributeKind.KEY
_PARTIAL_KEY = AttributeKind.PARTIAL_KEY


class _Unexpected(Exception):
    """A syntax error, raised with its token index and its message."""


def _found(token: str) -> str:
    return repr(token or "end of input")


def _expect(tokens: list[str], i: int, wanted: str) -> int:
    if tokens[i] != wanted:
        raise _Unexpected(i, f"expected '{wanted}', found {_found(tokens[i])}")
    return i + 1


def _name(tokens: list[str], i: int, what: str, names: list[str]) -> str:
    token = tokens[i]
    if not token[:1].isalpha():
        raise _Unexpected(i, f"expected {what}, found {_found(token)}")
    names.append(token)
    return token


def _parse(tokens: list[str]
           ) -> tuple[list[_RawConstruct], list[tuple[int, str]], list[str]]:
    """Walk token strings that end in a "" sentinel, which reads as the end
    of input.  A name is any token whose first character is a letter.
    Returns the constructs, the syntax errors as (token index, message), and
    every token read as a name.  After an error the walk resumes at the first
    top-level keyword from the error's token on, but never at the failed
    construct's own first token, so each error moves the walk forward."""
    # The checks on each construct name and member are written out, not
    # calls to _name and _expect: the calls made parse_er 6-8% slower.
    constructs: list[_RawConstruct] = []
    errors: list[tuple[int, str]] = []
    # Kept for parse_er's one isalpha test, 1.3 ms over the 500 corpus texts
    # (Python 3.11): refusing a letter before a digit or '.' in _clean_tokens
    # took its 2.2 ms stray-character scan to 11 ms, or 15 ms as one pattern.
    names: list[str] = []
    i = 0
    while tokens[i]:
        keyword, start = tokens[i], i
        try:
            allowed = _MEMBER_KEYWORDS.get(keyword)
            if allowed is None:
                raise _Unexpected(i, f"expected one of {', '.join(_MEMBER_KEYWORDS)}, "
                                     f"found {keyword!r}")
            name = tokens[i + 1]
            if not name[:1].isalpha():
                raise _Unexpected(i + 1, f"expected a name after '{keyword}', "
                                         f"found {_found(name)}")
            names.append(name)
            construct = _RawConstruct(keyword, name, i)
            i += 2
            if keyword == "subtype":
                construct.supertype = _name(tokens, _expect(tokens, i, "of"),
                                            "a supertype name", names)
                i += 2
            elif keyword == "weak":
                construct.owner = _name(tokens, _expect(tokens, i, "of"),
                                        "an owner entity name", names)
                construct.via = _name(tokens, _expect(tokens, i + 2, "via"),
                                      "an identifying relationship name", names)
                i += 4
            elif keyword == "rel":
                i = _expect(tokens, i, "(")
                for close in (",", ")"):
                    participant = _name(tokens, i, "a participant name", names)
                    minimum = tokens[i + 1]
                    if minimum not in MINIMA:
                        raise _Unexpected(i + 1, "minimum participation must be "
                                                 f"0 or 1, found {minimum!r}")
                    i = _expect(tokens, i + 2, "..")
                    maximum = _MAXIMA.get(tokens[i])
                    if maximum is None:
                        raise _Unexpected(i, "maximum participation must be "
                                             f"1 or n, found {tokens[i]!r}")
                    construct.endpoints.append(RelationshipEndpoint(
                        participant, cardinality_pair(minimum, maximum)))
                    i = _expect(tokens, i + 1, close)
            i = _expect(tokens, i, "{")
            members = construct.members
            while (member := tokens[i]) != "}":
                if member not in allowed:
                    if not member:
                        raise _Unexpected(i, "unterminated block, expected '}'")
                    raise _Unexpected(i, f"expected one of {', '.join(allowed)} "
                                         f"or '}}', found {member!r}")
                name = tokens[i + 1]
                if not name[:1].isalpha():
                    raise _Unexpected(i + 1, f"expected a name after '{member}', "
                                             f"found {_found(name)}")
                if tokens[i + 2] != ";":
                    raise _Unexpected(i + 2, "expected ';', "
                                             f"found {_found(tokens[i + 2])}")
                names.append(name)
                members.append(Attribute(name, _MEMBER_KINDS[member]))
                i += 3
            constructs.append(construct)
            i += 1
        except _Unexpected as error:
            errors.append(error.args)
            i = max(error.args[0], start + 1)
            while tokens[i] and tokens[i] not in _MEMBER_KEYWORDS:
                i += 1
    return constructs, errors, names


def _resolve(constructs: list[_RawConstruct]
             ) -> tuple[ERModel | None, list[tuple[_RawConstruct, str, str]]]:
    """Check each construct for the problems the module docstring lists and
    assemble its element, in source order.  Returns the model, or None with
    every problem as (construct, rule, message)."""
    problems: list[tuple[_RawConstruct, str, str]] = []
    report = problems.append
    entity_names = {c.name for c in constructs if c.keyword == "entity"}
    participants = entity_names | {c.name for c in constructs if c.keyword == "subtype"}
    entities, subtypes, weaks, relationships = [], [], [], []

    # Global name uniqueness covers the four element kinds plus identifying
    # relationship names, which reversal regenerates as first-class names.  A
    # name taken before is reported at its construct, ahead of its other
    # problems, so the problems stay in source order.  A repeated attribute
    # is left out before a weak entity's partial keys are counted.
    taken: set[str] = set()
    for construct in constructs:
        name = construct.name
        for declared in (name, construct.via):
            if declared in taken:
                report((construct, "REF", f"name {declared!r} is already declared"))
            elif declared:
                taken.add(declared)
        unique: dict[str, Attribute] = {}
        for attribute in construct.members:
            if attribute.name in unique:
                report((construct, "REF",
                        f"attribute {attribute.name!r} declared more than once"))
            else:
                unique[attribute.name] = attribute
        attributes = tuple(unique.values())
        if construct.keyword == "entity":
            if not any(a.kind is _KEY for a in attributes):
                report((construct, "MODEL", f"entity {name!r} declares no key attribute"))
            entities.append(RegularEntityType(name, attributes))
        elif construct.keyword == "subtype":
            if construct.supertype not in entity_names:
                report((construct, "REF", f"supertype {construct.supertype!r} "
                                          "is not a regular entity type"))
            subtypes.append(Subtype(name, construct.supertype, attributes))
        elif construct.keyword == "weak":
            if construct.owner not in entity_names:
                report((construct, "REF",
                        f"owner {construct.owner!r} is not a regular entity type"))
            partials = [a for a in attributes if a.kind is _PARTIAL_KEY]
            if len(partials) != 1:
                # The model is discarded, so the weak entity is not built.
                report((construct, "MODEL", f"weak entity {name!r} needs exactly one "
                                            f"partial key, found {len(partials)}"))
            else:
                rest = tuple([a for a in attributes if a.kind is not _PARTIAL_KEY])
                weaks.append(WeakEntityType(name, construct.owner, construct.via,
                                            partials[0], rest))
        else:  # rel
            for endpoint in construct.endpoints:
                if endpoint.participant not in participants:
                    report((construct, "REF", f"participant {endpoint.participant!r} "
                                              "is not an entity type or subtype"))
            relationships.append(RelationshipType(name, tuple(construct.endpoints),
                                                  attributes))

    if problems:
        return None, problems
    return ERModel(tuple(entities), tuple(subtypes), tuple(weaks),
                   tuple(relationships)), problems


# The cheap tokenizer: bare token strings, without positions.  A comment is
# dropped unless a letter precedes its '//', where the token pattern would
# take the slashes into a name's word.  What is left may hold only the
# characters of the grammar, so its blanks are exactly the four that the
# pattern skips and its letters are ASCII; once the punctuation is spaced
# apart, str.split yields the tokens that _lex makes.  A word that _lex
# would split or flag, such as a digit glued to a name or a lone '.', stays
# one token that the grammar rejects or that is read as a name but is not
# purely alphabetic.  Only text that this path does not read clean is
# scanned with the token pattern, and only a diagnostic gets a line and a
# column.
_CLEAN_COMMENT = re.compile(r"(?<![A-Za-z])//[^\n]*")
_CLEAN_STRAY = re.compile(r"[^ \t\r\nA-Za-z0-9{}(),;.]")


def _clean_tokens(text: str) -> list[str] | None:
    if "//" in text:
        text = _CLEAN_COMMENT.sub("", text)
    if _CLEAN_STRAY.search(text):
        return None
    for mark in "{}(),;":
        text = text.replace(mark, f" {mark} ")
    return text.replace("..", " .. ").split()


def parse_er(text: str, path: str = "<er>") -> tuple[ERModel | None, list[Diagnostic]]:
    """Parse ER source text; returns ``(model, [])`` or ``(None, errors)``:
    a model never comes with a diagnostic, and every diagnostic is an error.
    ``path`` is unused: callers give the path to ``format_diagnostic``.  It
    stays while ``bench/worker.py`` passes it."""
    tokens = _clean_tokens(text)
    if tokens is not None:
        tokens.append("")
        constructs, errors, names = _parse(tokens)
        if not errors and (not names or "".join(names).isalpha()):
            model, problems = _resolve(constructs)
            if not problems:
                return model, []
    tokens, offsets, errors = _lex(text)
    constructs, syntax, _ = _parse(tokens)
    errors += [(offsets[index], "SYNTAX", message) for index, message in syntax]
    if errors:
        return None, _located(text, errors)
    model, problems = _resolve(constructs)
    return model, _located(text, [(offsets[construct.at], rule, message,
                                   f"{construct.keyword} {construct.name}")
                                  for construct, rule, message in problems])


def _block(header: str, members: list[str]) -> list[str]:
    if not members:
        return [f"{header} {{ }}"]
    return [f"{header} {{", *(f"  {line}" for line in members), "}"]


_KIND_KEYWORDS = {kind: keyword for keyword, kind in _MEMBER_KINDS.items()}


def _member_lines(attributes) -> list[str]:
    return [f"{_KIND_KEYWORDS[a.kind]} {a.name};" for a in attributes]


def emit_er(model: ERModel) -> str:
    """Render a model in canonical form: fixed construct grouping, two-space
    indent, one declaration per line, blank line between constructs."""
    blocks: list[list[str]] = []
    for entity in model.entities:
        blocks.append(_block(f"entity {entity.name}", _member_lines(entity.attributes)))
    for subtype in model.subtypes:
        blocks.append(
            _block(f"subtype {subtype.name} of {subtype.supertype}",
                   _member_lines(subtype.attributes))
        )
    for weak in model.weak_entities:
        members = _member_lines((weak.partial_key, *weak.attributes))
        blocks.append(
            _block(
                f"weak {weak.name} of {weak.owner} via {weak.identifying_relationship}",
                members,
            )
        )
    for rel in model.relationships:
        sides = ", ".join(
            f"{ep.participant} {ep.pair.min}..{ep.pair.max}" for ep in rel.endpoints
        )
        blocks.append(
            _block(f"rel {rel.name} ({sides})", _member_lines(rel.attributes))
        )
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
