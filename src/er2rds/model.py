"""Domain types shared by every stage of the ER-to-relational toolchain.

The ER side describes the conceptual schema: regular entity types, subtypes,
weak entity types and binary relationships, each carrying named attributes.
Cardinality is expressed as look-here (min, max) pairs: the pair written
nearest to a participant bounds how many relationship instances one of its
instances may join.  The relational side describes the produced database
schema: relations whose attributes may be underlined (primary key part),
carry a subtype prefix, or carry a bracketed foreign-key suffix recording
the relationship name and three cardinality variables.

Both sides are plain records with no I/O, made by ``record``.  The derived
operation that the rest of the pipeline leans on lives here as well:
classifying a relationship's cardinality ratio.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .errors import refuse_assignment, refuse_deletion

# Unbounded maximum in a cardinality pair; minima and maxima are kept as the
# strings "0" / "1" / "n" so they serialize without conversion.
MAX_MANY = "n"
# The participation values of the notation.
MINIMA = ("0", "1")
MAXIMA = ("1", MAX_MANY)

# Designated keys are matched on the first three letters of the entity name.
NAME_PREFIX_LEN = 3


def name_prefix(name: str) -> str:
    return name[:NAME_PREFIX_LEN].casefold()


class _lazy:
    """``functools.cached_property`` without the lock that Python 3.11 takes
    on each first read (1.4 µs a first read, against 0.4 µs here).  Not a
    field, so equality and hashing ignore it."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Factory:
    """A field default made anew for each value: ``Factory(list)`` gives each
    one its own empty list."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"


# The methods every record class shares.  Each reads what is particular to
# its class from the class: the field names from __match_args__ or
# __slots__, and the compared fields through the class's _compared getter.


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}"
                      for name in self.__match_args__ if name[0] != "_")
    return f"{self.__class__.__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        compared = self._compared
        return compared(self) == compared(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self._compared(self))


def _getstate(self) -> list:
    return [getattr(self, name) for name in self.__slots__]


def _setstate(self, state: list) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


def record(name: str, bases: tuple, namespace: dict, frozen: bool = True) -> type:
    """Make a record class from a class body: ``class C(metaclass=record)``,
    or ``class C(metaclass=record, frozen=False)`` for a mutable one.

    The annotated names are the fields, in order, as ``__match_args__``
    lists them; a default follows the annotation, and ``Factory`` makes one
    anew per value.  The constructor calls ``__post_init__`` if the body
    defines it.  A field whose name starts with ``_`` takes no part in
    ``repr``, equality or hashing.  The fields live in slots, except in a
    class that caches with ``_lazy``, which needs an instance ``__dict__``.
    The class is made once, by one ``type`` call, and compiles only its
    constructor; its other methods are the shared ones above."""
    fields = tuple(namespace.get("__annotations__", ()))
    defaults = tuple(namespace.pop(field) for field in fields if field in namespace)
    lazy = any(isinstance(member, _lazy) for member in namespace.values())
    post_init = "__post_init__" in namespace
    namespace.update(
        __match_args__=fields,
        __repr__=_repr,
        __eq__=_eq,
        __hash__=_hash if frozen else None,
        _compared=attrgetter(*(field for field in fields if field[0] != "_")),
    )
    if frozen:
        namespace.update(__setattr__=refuse_assignment, __delattr__=refuse_deletion)
    if not lazy:
        namespace.update(__slots__=fields, __getstate__=_getstate,
                         __setstate__=_setstate)
    cls = type(name, bases, namespace)

    factories = {field: default
                 for field, default in zip(fields[len(fields) - len(defaults):], defaults)
                 if isinstance(default, Factory)}
    scope = {f"_{field}": factory for field, factory in factories.items()}
    lines = [f"if {field} is _{field}: {field} = _{field}.make()" for field in factories]
    if lazy:
        lines.append(f"self.__dict__.update({', '.join(f'{f}={f}' for f in fields)})")
    elif frozen:
        # Each field is stored through its slot's __set__, bound here once:
        # with one object.__setattr__ call per field, tests/compare_speed.py
        # ran at 0.90-0.95 of this speed.
        scope.update({f"_set_{field}": getattr(cls, field).__set__ for field in fields})
        lines += [f"_set_{field}(self, {field})" for field in fields]
    else:
        lines += [f"self.{field} = {field}" for field in fields]
    if post_init:
        lines.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(fields)}):\n    " + "\n    ".join(lines), scope)
    init = scope["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


class AttributeKind(Enum):
    SIMPLE = "simple"
    KEY = "key"
    MULTIVALUED = "multi"
    PARTIAL_KEY = "partial"


# Hot loops read Enum members through these names: on Python 3.11 a read
# through the class costs about 100 ns more than a read of a plain global.
_SIMPLE = AttributeKind.SIMPLE
_KEY = AttributeKind.KEY
_MULTIVALUED = AttributeKind.MULTIVALUED


class Attribute(metaclass=record):
    """A named attribute of an entity, subtype, weak entity or relationship."""

    name: str
    kind: AttributeKind = AttributeKind.SIMPLE


class RegularEntityType(metaclass=record):
    """An entity type identified by keys of its own; ``attributes`` holds its
    keys, simple and multivalued attributes in declaration order."""

    name: str
    attributes: tuple[Attribute, ...] = ()

    @_lazy
    def _partitions(self) -> tuple[tuple[Attribute, ...], ...]:
        """Keys, simple, multivalued and name-matching keys, from one walk."""
        keys, simple, multivalued, matching = [], [], [], []
        prefix = name_prefix(self.name)
        for attr in self.attributes:
            kind = attr.kind
            if kind is _KEY:
                keys.append(attr)
                if name_prefix(attr.name) == prefix:
                    matching.append(attr)
            elif kind is _SIMPLE:
                simple.append(attr)
            elif kind is _MULTIVALUED:
                multivalued.append(attr)
        return tuple(keys), tuple(simple), tuple(multivalued), tuple(matching)

    def keys(self) -> tuple[Attribute, ...]:
        return self._partitions[0]

    def simple_attributes(self) -> tuple[Attribute, ...]:
        return self._partitions[1]

    def multivalued_attributes(self) -> tuple[Attribute, ...]:
        return self._partitions[2]


class Subtype(metaclass=record):
    """An entity subtype; carries only its intrinsic attributes."""

    name: str
    supertype: str
    attributes: tuple[Attribute, ...] = ()


class WeakEntityType(metaclass=record):
    """An entity identified by its owner's key plus a partial key of its own."""

    name: str
    owner: str
    identifying_relationship: str
    partial_key: Attribute
    attributes: tuple[Attribute, ...] = ()


class CardinalityPair(metaclass=record):
    """A look-here (min, max) participation bound; min in {0,1}, max in {1,n}."""

    min: str
    max: str


# The four pairs that the notation admits, shared by every reader.
_PAIRS = {(minimum, maximum): CardinalityPair(minimum, maximum)
          for minimum in MINIMA for maximum in MAXIMA}


def cardinality_pair(minimum: str, maximum: str) -> CardinalityPair:
    """The shared pair, or a new one for values outside the notation."""
    return _PAIRS.get((minimum, maximum)) or CardinalityPair(minimum, maximum)


class RelationshipEndpoint(metaclass=record):
    """One relationship side: the participant plus the pair written nearest it."""

    participant: str
    pair: CardinalityPair


class RelationshipType(metaclass=record):
    """A binary relationship: two endpoints in declaration order and the
    relationship's own attributes."""

    name: str
    endpoints: tuple[RelationshipEndpoint, RelationshipEndpoint]
    attributes: tuple[Attribute, ...] = ()

    def participants(self) -> tuple[str, str]:
        return (self.endpoints[0].participant, self.endpoints[1].participant)


class ERModel(metaclass=record):
    """A complete source model; the four element lists keep declaration order."""

    entities: tuple[RegularEntityType, ...] = ()
    subtypes: tuple[Subtype, ...] = ()
    weak_entities: tuple[WeakEntityType, ...] = ()
    relationships: tuple[RelationshipType, ...] = ()

    @_lazy
    def ratios(self) -> tuple[Ratio, ...]:
        """Each relationship's ratio, in declaration order, classified on
        first read; the validator, the steps and the model comparison share
        them."""
        return tuple([ratio_class(rel) for rel in self.relationships])


class RatioKind(Enum):
    ONE_TO_ONE = "1:1"
    ONE_TO_MANY = "1:N"
    MANY_TO_MANY = "N:M"


class Ratio(metaclass=record):
    """A relationship's cardinality ratio, as ``ratio_class`` derives it."""

    kind: RatioKind
    n_side: int | None = None  # endpoint index, set only for ONE_TO_MANY


# Every classification is one of these four, so each call returns a shared one.
_ONE_TO_ONE = Ratio(RatioKind.ONE_TO_ONE)
_MANY_TO_MANY = Ratio(RatioKind.MANY_TO_MANY)
_ONE_TO_MANY = (Ratio(RatioKind.ONE_TO_MANY, n_side=0),
                Ratio(RatioKind.ONE_TO_MANY, n_side=1))


def ratio_class(rel: RelationshipType) -> Ratio:
    """Classify a relationship from its two nearest pairs.

    1:1 when both maxima are 1, N:M when both are unbounded, otherwise 1:N
    with the N-side at the endpoint whose nearest maximum is 1.  Symmetric
    under endpoint swap apart from the reported index.
    """
    first = rel.endpoints[0].pair.max
    second = rel.endpoints[1].pair.max
    if first == "1" and second == "1":
        return _ONE_TO_ONE
    if first == MAX_MANY and second == MAX_MANY:
        return _MANY_TO_MANY
    return _ONE_TO_MANY[0 if first == "1" else 1]


def matching_keys(entity: RegularEntityType) -> tuple[Attribute, ...]:
    """Key attributes whose first three letters match the entity name's."""
    return entity._partitions[3]


# --------------------------------------------------------------------------
# Relational side


class FkSuffix(metaclass=record):
    """Bracketed annotation on a foreign key: relationship name plus the
    minimum at the holding side and the (min, max) of the far side."""

    relationship: str
    v2: str
    v3: str
    v4: str


class RdsAttribute(metaclass=record):
    """An attribute of a relation: underlined when part of the primary key; a
    foreign key carries a suffix, and a prefix when it points at a subtype."""

    name: str
    underlined: bool = False
    prefix: str | None = None
    suffix: FkSuffix | None = None

    def display_name(self) -> str:
        return f"{self.prefix}-{self.name}" if self.prefix else self.name


class Relation(metaclass=record, frozen=False):
    """A named relation with its attributes in order.  Unlike the model values
    it is mutable: the transformation's steps extend its attributes."""

    name: str
    attributes: list[RdsAttribute] = Factory(list)

    def pk_name(self) -> str:
        # The designated key always lands in position 1.
        return self.attributes[0].name


class RelationalSchema(metaclass=record, frozen=False):
    """An annotated relational schema: its relations in order, mutable as
    each relation is."""

    relations: list[Relation] = Factory(list)


def leading_underline_count(relation: Relation) -> int:
    count = 0
    for attr in relation.attributes:
        if not attr.underlined:
            break
        count += 1
    return count


# --------------------------------------------------------------------------
# Diagnostics


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(metaclass=record):
    """One finding about a source text or a model, tagged with a rule id."""

    rule_id: str
    severity: Severity
    message: str
    line: int | None = None
    column: int | None = None
    element: str | None = None


_ERROR = Severity.ERROR


def has_errors(diagnostics) -> bool:
    for diag in diagnostics:
        if diag.severity is _ERROR:
            return True
    return False


def format_diagnostic(diag: Diagnostic, path: str) -> str:
    location = path
    if diag.line is not None:
        location += f":{diag.line}"
        if diag.column is not None:
            location += f":{diag.column}"
    text = f"{location}: {diag.severity.value}[{diag.rule_id}]: {diag.message}"
    if diag.element:
        text += f" ({diag.element})"
    return text
