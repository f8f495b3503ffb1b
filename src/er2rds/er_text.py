"""Text format for ER models.

Grammar (newline-insensitive, ``//`` line comments, UTF-8)::

    entity  <Name> { key <Attr>; [key <Attr>;]* [attr <Attr>; | multi <Attr>;]* }
    subtype <Name> of <Super> { [attr <Attr>;]* }
    weak    <Name> of <Owner> via <RelName> { partial <Attr>; [attr <Attr>;]* }
    rel     <Name> ( <P> <min>..<max> , <P> <min>..<max> ) { [attr <Attr>;]* }

Identifiers are purely alphabetic; the lexer rejects anything else at the
character-class rule (R2.5.2).  Minima are ``0`` or ``1``; maxima are ``1``
or ``n``.  Declarations inside a block may appear in any order and keep
that order through a parse and re-emit; canonical form fixes only layout.
Notation rules beyond the character class are the validator's business,
not the parser's.

Clean text is read without positions.  Text with any diagnostic is read
again by the positioned lexer and parser, so line and column stay exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import (
    MAX_MANY,
    Attribute,
    AttributeKind,
    CardinalityPair,
    Diagnostic,
    ERModel,
    RegularEntityType,
    RelationshipEndpoint,
    RelationshipType,
    Severity,
    Subtype,
    WeakEntityType,
    has_errors,
)

_TOP_KEYWORDS = ("entity", "subtype", "weak", "rel")


class _Token(NamedTuple):
    kind: str  # "name" | "number" | punctuation text | "eof"
    text: str
    line: int
    column: int


def _lex(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, column = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = length if end == -1 else end
            column += end - i
            i = end
            continue
        if ch.isalpha():
            start = i
            start_col = column
            # Swallow an entire name-like chunk so one bad name yields one
            # diagnostic rather than a token-soup of syntax errors.
            while i < length and (text[i].isalnum() or text[i] in "_-/"):
                i += 1
            chunk = text[start:i]
            column += len(chunk)
            if not chunk.isalpha():
                diagnostics.append(
                    Diagnostic(
                        "R2.5.2",
                        Severity.ERROR,
                        f"name {chunk!r} contains non-alphabetic characters",
                        line,
                        start_col,
                    )
                )
            # Tokenized either way so one bad name cannot cascade into
            # follow-on syntax errors.
            tokens.append(_Token("name", chunk, line, start_col))
            continue
        if ch.isdigit():
            start = i
            start_col = column
            while i < length and text[i].isdigit():
                i += 1
            tokens.append(_Token("number", text[start:i], line, start_col))
            column += i - start
            continue
        if text.startswith("..", i):
            tokens.append(_Token("..", "..", line, column))
            i += 2
            column += 2
            continue
        if ch in "{}(),;":
            tokens.append(_Token(ch, ch, line, column))
            i += 1
            column += 1
            continue
        diagnostics.append(
            Diagnostic(
                "SYNTAX", Severity.ERROR, f"unexpected character {ch!r}", line, column
            )
        )
        i += 1
        column += 1
    tokens.append(_Token("eof", "", line, column))
    return tokens, diagnostics


@dataclass(slots=True)
class _RawConstruct:
    keyword: str
    name: str
    line: int
    column: int
    supertype: str | None = None
    owner: str | None = None
    via: str | None = None
    endpoints: list[tuple[str, str, str]] = field(default_factory=list)
    members: list[tuple[str, str]] = field(default_factory=list)  # (keyword, name)


_MEMBER_KEYWORDS = {
    "entity": ("key", "attr", "multi"),
    "subtype": ("attr",),
    "weak": ("partial", "attr"),
    "rel": ("attr",),
}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: _Token | None = None) -> None:
        token = token or self.peek()
        self.diagnostics.append(
            Diagnostic("SYNTAX", Severity.ERROR, message, token.line, token.column)
        )

    def expect(self, kind: str, what: str) -> _Token | None:
        token = self.peek()
        if token.kind != kind:
            self.error(f"expected {what}, found {token.text or 'end of input'!r}")
            return None
        return self.advance()

    def expect_name(self, what: str) -> str | None:
        token = self.expect("name", what)
        return token.text if token else None

    def sync_to_top(self) -> None:
        while True:
            token = self.peek()
            if token.kind == "eof":
                return
            if token.kind == "name" and token.text in _TOP_KEYWORDS:
                return
            self.advance()

    def parse(self) -> list[_RawConstruct]:
        constructs: list[_RawConstruct] = []
        while self.peek().kind != "eof":
            token = self.peek()
            if token.kind != "name" or token.text not in _TOP_KEYWORDS:
                self.error(
                    f"expected one of {', '.join(_TOP_KEYWORDS)}, "
                    f"found {token.text or 'end of input'!r}"
                )
                self.advance()
                self.sync_to_top()
                continue
            construct = self.parse_construct()
            if construct is not None:
                constructs.append(construct)
            else:
                self.sync_to_top()
        return constructs

    def parse_construct(self) -> _RawConstruct | None:
        keyword_token = self.advance()
        keyword = keyword_token.text
        name = self.expect_name(f"a name after '{keyword}'")
        if name is None:
            return None
        construct = _RawConstruct(
            keyword, name, keyword_token.line, keyword_token.column
        )
        if keyword == "subtype":
            if not self.expect_keyword("of"):
                return None
            construct.supertype = self.expect_name("a supertype name")
            if construct.supertype is None:
                return None
        elif keyword == "weak":
            if not self.expect_keyword("of"):
                return None
            construct.owner = self.expect_name("an owner entity name")
            if construct.owner is None:
                return None
            if not self.expect_keyword("via"):
                return None
            construct.via = self.expect_name("an identifying relationship name")
            if construct.via is None:
                return None
        elif keyword == "rel":
            if not self.parse_endpoints(construct):
                return None
        if not self.parse_body(construct):
            return None
        return construct

    def expect_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "name" and token.text == word:
            self.advance()
            return True
        self.error(f"expected '{word}', found {token.text or 'end of input'!r}")
        return False

    def parse_endpoints(self, construct: _RawConstruct) -> bool:
        if self.expect("(", "'('") is None:
            return False
        for position in range(2):
            participant = self.expect_name("a participant name")
            if participant is None:
                return False
            pair = self.parse_pair()
            if pair is None:
                return False
            construct.endpoints.append((participant, pair[0], pair[1]))
            if position == 0 and self.expect(",", "','") is None:
                return False
        return self.expect(")", "')'") is not None

    def parse_pair(self) -> tuple[str, str] | None:
        token = self.peek()
        if token.kind != "number" or token.text not in ("0", "1"):
            self.error(f"minimum participation must be 0 or 1, found {token.text!r}")
            return None
        self.advance()
        minimum = token.text
        if self.expect("..", "'..'") is None:
            return None
        token = self.peek()
        if token.kind == "number" and token.text == "1":
            maximum = "1"
        elif token.kind == "name" and token.text in ("n", "N"):
            maximum = MAX_MANY
        else:
            self.error(f"maximum participation must be 1 or n, found {token.text!r}")
            return None
        self.advance()
        return minimum, maximum

    def parse_body(self, construct: _RawConstruct) -> bool:
        if self.expect("{", "'{'") is None:
            return False
        allowed = _MEMBER_KEYWORDS[construct.keyword]
        while True:
            token = self.peek()
            if token.kind == "}":
                self.advance()
                return True
            if token.kind == "eof":
                self.error("unterminated block, expected '}'")
                return False
            if token.kind != "name" or token.text not in allowed:
                self.error(
                    f"expected one of {', '.join(allowed)} or '}}', "
                    f"found {token.text or 'end of input'!r}"
                )
                return False
            self.advance()
            member_name = self.expect_name(f"a name after '{token.text}'")
            if member_name is None:
                return False
            if self.expect(";", "';'") is None:
                return False
            construct.members.append((token.text, member_name))
        # unreachable


_MEMBER_KINDS = {
    "key": AttributeKind.KEY,
    "attr": AttributeKind.SIMPLE,
    "multi": AttributeKind.MULTIVALUED,
    "partial": AttributeKind.PARTIAL_KEY,
}

# The parser admits only these four pairs, so every endpoint shares one.
_PAIRS = {(minimum, maximum): CardinalityPair(minimum, maximum)
          for minimum in ("0", "1") for maximum in ("1", MAX_MANY)}


def _resolve(constructs: list[_RawConstruct]) -> tuple[ERModel | None, list[Diagnostic]]:
    diagnostics: list[Diagnostic] = []

    def err(construct: _RawConstruct, rule: str, message: str) -> None:
        diagnostics.append(
            Diagnostic(rule, Severity.ERROR, message, construct.line, construct.column,
                       element=f"{construct.keyword} {construct.name}")
        )

    # Global name uniqueness covers the four element kinds plus identifying
    # relationship names, which reversal regenerates as first-class names.
    taken: set[str] = set()
    for construct in constructs:
        names = [construct.name]
        if construct.via is not None:
            names.append(construct.via)
        for name in names:
            if name in taken:
                err(construct, "REF", f"name {name!r} is already declared")
            taken.add(name)

    entity_names = {c.name for c in constructs if c.keyword == "entity"}
    subtype_names = {c.name for c in constructs if c.keyword == "subtype"}

    def attributes_of(construct: _RawConstruct) -> tuple[Attribute, ...]:
        seen: set[str] = set()
        collected: list[Attribute] = []
        for keyword, name in construct.members:
            if name in seen:
                err(construct, "REF", f"attribute {name!r} declared more than once")
                continue
            seen.add(name)
            collected.append(Attribute(name, _MEMBER_KINDS[keyword]))
        return tuple(collected)

    entities: list[RegularEntityType] = []
    subtypes: list[Subtype] = []
    weaks: list[WeakEntityType] = []
    relationships: list[RelationshipType] = []

    for construct in constructs:
        attrs = attributes_of(construct)
        if construct.keyword == "entity":
            if not any(a.kind is AttributeKind.KEY for a in attrs):
                err(construct, "MODEL",
                    f"entity {construct.name!r} declares no key attribute")
            entities.append(RegularEntityType(construct.name, attrs))
        elif construct.keyword == "subtype":
            if construct.supertype not in entity_names:
                err(construct, "REF",
                    f"supertype {construct.supertype!r} is not a regular entity type")
            subtypes.append(Subtype(construct.name, construct.supertype or "", attrs))
        elif construct.keyword == "weak":
            if construct.owner not in entity_names:
                err(construct, "REF",
                    f"owner {construct.owner!r} is not a regular entity type")
            partials = [a for a in attrs if a.kind is AttributeKind.PARTIAL_KEY]
            if len(partials) != 1:
                err(construct, "MODEL",
                    f"weak entity {construct.name!r} needs exactly one partial key, "
                    f"found {len(partials)}")
                partials = partials or [Attribute("", AttributeKind.PARTIAL_KEY)]
            rest = tuple(a for a in attrs if a.kind is not AttributeKind.PARTIAL_KEY)
            weaks.append(
                WeakEntityType(construct.name, construct.owner or "",
                               construct.via or "", partials[0], rest)
            )
        else:  # rel
            endpoints = []
            for participant, minimum, maximum in construct.endpoints:
                if participant not in entity_names and participant not in subtype_names:
                    err(construct, "REF",
                        f"participant {participant!r} is not an entity type or subtype")
                endpoints.append(
                    RelationshipEndpoint(participant, _PAIRS[minimum, maximum])
                )
            relationships.append(
                RelationshipType(construct.name, (endpoints[0], endpoints[1]), attrs)
            )

    if has_errors(diagnostics):
        return None, diagnostics
    model = ERModel(
        tuple(entities), tuple(subtypes), tuple(weaks), tuple(relationships)
    )
    return model, diagnostics


# Clean text is read as bare token strings, without positions.  A comment is
# dropped unless a letter precedes its '//', where _lex would swallow the
# slashes into a name chunk.  What is left may hold only the characters of
# the grammar, so its blanks are exactly the four that _lex skips and its
# letters are ASCII; once the punctuation is spaced apart, str.split yields
# the tokens that _lex makes.  A chunk that _lex would split or flag, such
# as a digit glued to a name or a lone '.', stays one token that no position
# of the grammar accepts.
_CLEAN_COMMENT = re.compile(r"(?<![A-Za-z])//[^\n]*")
_CLEAN_STRAY = re.compile(r"[^ \t\r\nA-Za-z0-9{}(),;.]")
_CLEAN_MEMBER_KEYWORDS = {
    keyword: frozenset(allowed) for keyword, allowed in _MEMBER_KEYWORDS.items()
}
_MINIMA = ("0", "1")
_MAXIMA = {"1": "1", "n": MAX_MANY, "N": MAX_MANY}


def _clean_tokens(text: str) -> list[str] | None:
    if "//" in text:
        text = _CLEAN_COMMENT.sub("", text)
    if _CLEAN_STRAY.search(text):
        return None
    for mark in "{}(),;":
        text = text.replace(mark, f" {mark} ")
    return text.replace("..", " .. ").split()


def _read_clean(text: str) -> ERModel | None:
    """The model of text that yields no diagnostic at all, read without
    positions; None whenever a diagnostic might arise, in which case the
    text must be read again by the positioned lexer and parser."""
    tokens = _clean_tokens(text)
    if tokens is None:
        return None
    constructs: list[_RawConstruct] = []
    names: list[str] = []  # every token that the grammar reads as a name
    i, end = 0, len(tokens)
    try:
        while i < end:
            keyword = tokens[i]
            name = tokens[i + 1]
            names.append(name)
            supertype = owner = via = None
            endpoints: list[tuple[str, str, str]] = []
            i += 2
            if keyword == "subtype":
                of, supertype = tokens[i:i + 2]
                if of != "of":
                    return None
                names.append(supertype)
                i += 2
            elif keyword == "weak":
                of, owner, via_keyword, via = tokens[i:i + 4]
                if of != "of" or via_keyword != "via":
                    return None
                names += (owner, via)
                i += 4
            elif keyword == "rel":
                (open_, near, near_min, near_dots, near_max, comma,
                 far, far_min, far_dots, far_max, close) = tokens[i:i + 11]
                if ((open_, near_dots, comma, far_dots, close) != ("(", "..", ",", "..", ")")
                        or near_min not in _MINIMA or far_min not in _MINIMA):
                    return None
                endpoints = [(near, near_min, _MAXIMA[near_max]),
                             (far, far_min, _MAXIMA[far_max])]
                names += (near, far)
                i += 11
            elif keyword != "entity":
                return None
            if tokens[i] != "{":
                return None
            if tokens[i + 1] == "}":
                pairs = []
                i += 2
            else:
                close = tokens.index("}", i + 1)
                body = tokens[i + 1:close]
                keywords, members = body[0::3], body[1::3]
                if (len(body) % 3 or body[2::3].count(";") != len(keywords)
                        or not _CLEAN_MEMBER_KEYWORDS[keyword].issuperset(keywords)):
                    return None
                names += members
                pairs = list(zip(keywords, members))
                i = close + 1
            constructs.append(_RawConstruct(keyword, name, 0, 0, supertype, owner, via,
                                            endpoints, pairs))
    except (IndexError, KeyError, ValueError):
        return None
    if names and not "".join(names).isalpha():
        return None
    model, diagnostics = _resolve(constructs)
    return None if diagnostics else model


def parse_er(text: str, path: str = "<er>") -> tuple[ERModel | None, list[Diagnostic]]:
    """Parse ER source text; returns (model, diagnostics), model None on errors."""
    model = _read_clean(text)
    if model is not None:
        return model, []
    return _parse_with_positions(text)


def _parse_with_positions(text: str) -> tuple[ERModel | None, list[Diagnostic]]:
    tokens, diagnostics = _lex(text)
    parser = _Parser(tokens)
    constructs = parser.parse()
    diagnostics.extend(parser.diagnostics)
    if has_errors(diagnostics):
        return None, diagnostics
    model, resolution = _resolve(constructs)
    diagnostics.extend(resolution)
    if model is None:
        return None, diagnostics
    return model, diagnostics


def _block(header: str, members: list[str]) -> list[str]:
    if not members:
        return [f"{header} {{ }}"]
    return [f"{header} {{", *(f"  {line}" for line in members), "}"]


_KIND_KEYWORDS = {
    AttributeKind.KEY: "key",
    AttributeKind.SIMPLE: "attr",
    AttributeKind.MULTIVALUED: "multi",
    AttributeKind.PARTIAL_KEY: "partial",
}


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
