"""Seeded pseudo-random test inputs that need not be valid.

Each generator takes a ``random.Random`` and draws from it in a fixed order,
so a seed and a count name the same inputs for good; the golden files and
``compare_speed.py`` rely on that.  The readers and the gate may refuse what
these draw, which is the point:

- ``colliding_text`` and ``repeating_text``: ``.er`` texts whose names share
  three-letter prefixes, or repeat;
- ``schema_text`` and ``edited_schema_text``: ``.rds`` texts whose relations
  share prefixes, and corpus schemas with one edit;
- ``step_spec`` and ``model_spec``: models as plain tuples, with clean names
  or with names the rules refuse, that ``build_model`` turns into the model
  of any er2rds package.

The generators of valid models live in ``genmodels``, which must not import
this module (see its docstring).
"""

from __future__ import annotations

import random

from er2rds import FkSuffix, RdsAttribute, emit_rds, transform_model
from genmodels import generate_model


def _pair(rng: random.Random) -> str:
    """A participation pair of an ``.er`` text: ``0`` or ``1``, then ``1``,
    ``n`` or ``N``."""
    return f"{rng.choice('01')}..{rng.choice(('1', 'n', 'N'))}"


# Names that share three-letter prefixes.  Each construct takes a name of
# its own, but references and members draw from the whole pool, so
# resolution often reports an unknown reference, a clash or a missing key.
_COLLIDING = ("Ivory", "IvoNo", "IvoryNo", "Ivo", "Del", "Delta", "DelNo",
              "DeltaNo", "Bra", "Brave", "Bravo", "BraNo", "Ced", "Cedar",
              "CedNo", "CedarNo")


def colliding_text(rng: random.Random) -> str:
    fresh = rng.sample(_COLLIDING, len(_COLLIDING))

    def name():
        return rng.choice(_COLLIDING)

    def members(keywords):
        return " ".join(f"{rng.choice(keywords)} {name()};"
                        for _ in range(rng.randint(0, 3)))

    entities = [fresh.pop() for _ in range(rng.randint(1, 4))]
    lines = [f"entity {entity} {{ key {name()}; {members(('key', 'attr', 'multi'))} }}"
             for entity in entities]
    lines += [f"subtype {fresh.pop()} of {rng.choice(entities)} {{ {members(('attr',))} }}"
              for _ in range(rng.randint(0, 2))]
    lines += [f"weak {fresh.pop()} of {rng.choice(entities)} via {fresh.pop()} "
              f"{{ partial {name()}; {members(('attr',))} }}"
              for _ in range(rng.randint(0, 2))]
    lines += [f"rel {fresh.pop()} ({name()} {_pair(rng)}, {name()} {_pair(rng)}) "
              f"{{ {members(('attr',))} }}"
              for _ in range(rng.randint(0, 3))]
    rng.shuffle(lines)
    return "\n".join(lines)


# A smaller pool that every element, via, member and participant name is
# drawn from with replacement, so texts repeat names: a name already
# declared, an attribute declared more than once, a weak entity with zero,
# one or two partial keys, among them repeated ones.
_REPEATING = ("Ivory", "IvoNo", "Del", "DelNo", "Bra", "BraNo")


def repeating_text(rng: random.Random) -> str:
    def name():
        return rng.choice(_REPEATING)

    def members(keywords, partials=0):
        found = [f"partial {name()};" for _ in range(partials)]
        found += [f"{rng.choice(keywords)} {name()};" for _ in range(rng.randint(0, 3))]
        rng.shuffle(found)
        return " ".join(found)

    entities = [name() for _ in range(rng.randint(1, 4))]
    lines = [f"entity {entity} {{ key {name()}; {members(('key', 'attr', 'multi'))} }}"
             for entity in entities]
    lines += [f"subtype {name()} of {rng.choice(entities)} {{ {members(('attr',))} }}"
              for _ in range(rng.randint(0, 2))]
    lines += [f"weak {name()} of {rng.choice(entities)} via {name()} "
              f"{{ {members(('attr',), rng.randint(0, 2))} }}"
              for _ in range(rng.randint(0, 2))]
    lines += [f"rel {name()} ({name()} {_pair(rng)}, {name()} {_pair(rng)}) "
              f"{{ {members(('attr',))} }}"
              for _ in range(rng.randint(0, 3))]
    rng.shuffle(lines)
    return "\n".join(lines)


# Names that share three-letter prefixes.  Relations, attributes and prefixes
# all draw from them, so relations often share a key, fit a dependent shape
# beside the regular one, or fit no shape at all.
_SHARING = ("Ivory", "IvoNo", "Ivo", "Del", "DelNo", "Delta", "Bra", "BraNo",
            "Bravo")
_SUFFIX_RELATIONSHIPS = ("Grove", "Hazel", "Maple")


def schema_text(rng: random.Random) -> str:
    """One to five relations of distinct names from ``_SHARING``, each with
    0-3 leading underlined attributes (the first often sharing the
    relation's prefix), then attributes that are plain, underlined, suffixed
    or prefixed, all of distinct names."""
    def suffix():
        return (f"({rng.choice(_SUFFIX_RELATIONSHIPS)}, {rng.choice('01')}, "
                f"{rng.choice('01')}, {rng.choice('1n')})")

    forms = (lambda name: name,
             lambda name: f"_{name}_",
             lambda name: name + suffix(),
             lambda name: f"{rng.choice(_SHARING)}-{name}{suffix()}")
    lines = []
    for relation in rng.sample(_SHARING, rng.randint(1, 5)):
        lead = rng.choices(range(4), (1, 4, 4, 1))[0]
        count = lead + rng.randint(0 if lead else 1, 3)
        names = rng.sample(_SHARING, count)
        if lead and rng.random() < 0.5:
            first = rng.choice([n for n in _SHARING if n[:3] == relation[:3]])
            names = [first, *(n for n in names if n != first)][:count]
        attributes = [f"_{name}_" for name in names[:lead]]
        attributes += [rng.choices(forms, (3, 1, 3, 2))[0](name)
                       for name in names[lead:]]
        lines.append(f"{relation}[{', '.join(attributes)}]")
    return "\n".join(lines)


def edited_schema_text(rng: random.Random) -> str:
    """The schema text of a corpus model after ``transform_model``, with one
    edit: move a relation, drop a plain attribute, flip v2, v3 or v4 of a
    suffix, drop a relation, copy a foreign key into another relation,
    rename a prefix to another relation's name, or nothing."""
    schema, _ = transform_model(generate_model(rng.randrange(1_000_000)))
    relations = schema.relations
    cells = [(relation, index, attr) for relation in relations
             for index, attr in enumerate(relation.attributes)]
    plain = [cell for cell in cells if not cell[2].underlined and cell[2].suffix is None]
    suffixed = [cell for cell in cells if cell[2].suffix is not None]
    prefixed = [cell for cell in suffixed if cell[2].prefix is not None]
    edit = rng.choice(("move", "drop attribute", "flip", "drop relation",
                       "copy foreign key", "rename prefix", "none"))
    if edit == "move":
        relations.insert(rng.randrange(len(relations)),
                         relations.pop(rng.randrange(len(relations))))
    elif edit == "drop attribute" and plain:
        relation, index, _ = rng.choice(plain)
        del relation.attributes[index]
    elif edit == "flip" and suffixed:
        relation, index, attr = rng.choice(suffixed)
        field, values = rng.choice((("v2", "01"), ("v3", "01"), ("v4", "1n")))
        old = attr.suffix
        suffix = {name: getattr(old, name) for name in old.__match_args__}
        suffix[field] = values.replace(suffix[field], "")
        relation.attributes[index] = RdsAttribute(attr.name, attr.underlined,
                                                  attr.prefix, FkSuffix(**suffix))
    elif edit == "drop relation":
        del relations[rng.randrange(len(relations))]
    elif edit == "copy foreign key" and suffixed and len(relations) > 1:
        holder, _, attr = rng.choice(suffixed)
        rng.choice([r for r in relations if r is not holder]).attributes.append(attr)
    elif edit == "rename prefix" and prefixed:
        relation, index, attr = rng.choice(prefixed)
        prefix = rng.choice(relations).name
        relation.attributes[index] = RdsAttribute(attr.name, attr.underlined, prefix,
                                                  attr.suffix)
    return emit_rds(schema)


# The pairs of step_spec's and model_spec's relationships: the four of the
# notation, then three that the parser refuses.
PAIRS = (("0", "1"), ("1", "1"), ("0", "n"), ("1", "n"),
         ("2", "n"), ("1", "5"), ("0", "N"))
STEP_ENTITIES = (("Alpha", "AlpNo"), ("Bravo", "BraNo"), ("Gamma", "GamNo"))
STEP_SUBTYPES = ("Xray", "Yank")


def step_spec(rng: random.Random) -> tuple:
    """One model as plain tuples (entities, subtypes, weak entities,
    relationships), clean names only: 1-3 entities over three names, each
    with its key and at most one more attribute, 0-2 subtypes over two names
    and 0-2 relationships."""
    entities = tuple(
        (name, ((key, "key"), *[(rng.choice(("Mx", "My")), rng.choice(("simple", "multi")))
                                 for _ in range(rng.randint(0, 1))]))
        for name, key in (rng.choice(STEP_ENTITIES) for _ in range(rng.randint(1, 3))))
    subtypes = tuple((rng.choice(STEP_SUBTYPES), rng.choice(STEP_ENTITIES)[0],
                      (("Grade", "simple"),) * rng.randint(0, 1))
                     for _ in range(rng.randint(0, 2)))
    participants = [name for name, _ in STEP_ENTITIES] + list(STEP_SUBTYPES)
    relationships = tuple(
        (name, tuple((rng.choice(participants), *rng.choice(PAIRS)) for _ in range(2)), ())
        for name in ("Rel", "Tie")[:rng.randint(0, 2)])
    return entities, subtypes, (), relationships


# Names of model_spec's models: capitalized, lowercase, plural, with a
# double s, non-alphabetic; references also draw names no element declares.
DECLARED = ("Alpha", "Bravo", "Gamma", "alpha", "Bravos", "Class", "Gam_ma",
            "Delta2")
REFERENCED = DECLARED + ("Ghost", "ghosts")
ATTRIBUTES = ("AlpNo", "AlpId", "BraNo", "GamNo", "ClaNo", "DelNo", "salary",
              "Hours", "Start_Date", "Grade2", "Class")
ATTRIBUTE_KINDS = ("key", "simple", "multi")


def model_spec(rng: random.Random) -> tuple:
    """One model in the form of ``step_spec``, with names drawn from the
    pools above: 0-3 entities, 0-2 subtypes, 0-2 weak entities and 0-3
    relationships."""
    def attributes(most: int, kinds=("simple",)) -> tuple:
        return tuple((rng.choice(ATTRIBUTES), rng.choice(kinds))
                     for _ in range(rng.randint(0, most)))

    entities = tuple((rng.choice(DECLARED), attributes(3, ATTRIBUTE_KINDS))
                     for _ in range(rng.randint(0, 3)))
    subtypes = tuple((rng.choice(DECLARED), rng.choice(REFERENCED), attributes(2))
                     for _ in range(rng.randint(0, 2)))
    weak = tuple((rng.choice(DECLARED), rng.choice(REFERENCED), rng.choice(DECLARED),
                  rng.choice(ATTRIBUTES), attributes(2))
                 for _ in range(rng.randint(0, 2)))
    relationships = tuple(
        (rng.choice(DECLARED),
         tuple((rng.choice(REFERENCED), *rng.choice(PAIRS)) for _ in range(2)),
         attributes(2))
        for _ in range(rng.randint(0, 3)))
    return entities, subtypes, weak, relationships


def build_model(package, spec: tuple):
    """The ``ERModel`` of ``package``, an er2rds package, that ``spec``
    describes."""
    entities, subtypes, weak, relationships = spec

    def attributes(items: tuple) -> tuple:
        return tuple(package.Attribute(name, package.AttributeKind(kind))
                     for name, kind in items)

    return package.ERModel(
        entities=tuple(package.RegularEntityType(name, attributes(attrs))
                       for name, attrs in entities),
        subtypes=tuple(package.Subtype(name, supertype, attributes(attrs))
                       for name, supertype, attrs in subtypes),
        weak_entities=tuple(
            package.WeakEntityType(
                name, owner, identifying,
                package.Attribute(partial, package.AttributeKind.PARTIAL_KEY),
                attributes(attrs))
            for name, owner, identifying, partial, attrs in weak),
        relationships=tuple(
            package.RelationshipType(
                name,
                tuple(package.RelationshipEndpoint(
                    participant, package.CardinalityPair(minimum, maximum))
                    for participant, minimum, maximum in endpoints),
                attributes(attrs))
            for name, endpoints, attrs in relationships),
    )
