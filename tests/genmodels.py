"""Seeded pseudo-random ER models inside the supported subset.

Element names come from a pool with pairwise-distinct three-letter prefixes
so key designation and reverse classification never collide by accident,
and attribute names are globally unique within a model.  Three shape rules
keep every generated model losslessly reversible:

- a weak entity always carries at least one plain attribute, so its
  relation cannot be mistaken for a multivalued-attribute relation;
- a subtype with no attributes that ends up in no relationship receives one
  intrinsic attribute;
- a one-to-one relationship pairs a subtype with a regular entity that is
  not its own supertype (a foreign key into the subtype's relation would
  otherwise duplicate the inherited key there).

Every generated model validates with zero diagnostics; generate_model
asserts as much.

The benchmark's set-up imports this module and is timed, so it keeps only
the generators of valid models and imports nothing beyond er2rds and the
standard library.  Inputs that need not be valid, and anything built on
hypothesis or pytest, belong in ``geninputs``.
"""

from __future__ import annotations

import random
from itertools import product

from er2rds import (
    Attribute,
    AttributeKind,
    CardinalityPair,
    ERModel,
    RatioKind,
    RegularEntityType,
    RelationshipEndpoint,
    RelationshipType,
    Subtype,
    WeakEntityType,
    ratio_class,
    validate_notation,
)

ELEMENT_NAMES = (
    "Alpha", "Bravo", "Cedar", "Delta", "Ember", "Flint", "Grove", "Hazel",
    "Ivory", "Juno", "Lumen", "Maple", "Nadir", "Ocean", "Pearl", "Quartz",
    "Raven", "Sable", "Tidal", "Umber", "Vivid", "Willow", "Xenon", "Yarrow",
    "Zephyr", "Bison",
)


def _letters(index: int) -> str:
    first, second = divmod(index, 26)
    return chr(ord("A") + first) + chr(ord("a") + second)


# Role letters for scaled_model past the 676 two-letter tags: the entity,
# multivalued attribute and subtype of one index each get their own third
# letter, none of them e, m, s, l or p, the letters that follow a two-letter
# tag in that model's names.  So no three-letter prefix is shared by two
# relations, and none by a multivalued or subtype relation and a key.
_ROLE_LETTERS = ("abc", "dfg", "hij", "kno", "qrt", "uvw", "xyz")


def _role_tags(index: int) -> tuple[str, str, str]:
    """The (entity, multivalued, subtype) name tags of scaled_model's index."""
    block, rest = divmod(index, 26 * 26)
    tag = _letters(rest)
    if not block:
        return tag, tag, tag
    entity, multi, subtype = _ROLE_LETTERS[block - 1]
    return tag + entity, tag + multi, tag + subtype


class _Names:
    """Hands out names that cannot collide anywhere in one model."""

    def __init__(self, rng: random.Random):
        self.pool = list(ELEMENT_NAMES)
        rng.shuffle(self.pool)
        self.counts = {"Attr": 0, "Key": 0, "Part": 0}

    def element(self) -> str:
        return self.pool.pop()

    def _next(self, prefix: str) -> str:
        name = prefix + _letters(self.counts[prefix])
        self.counts[prefix] += 1
        return name

    def attr(self) -> Attribute:
        return Attribute(self._next("Attr"))

    def key(self) -> Attribute:
        return Attribute(self._next("Key"), AttributeKind.KEY)

    def partial(self) -> Attribute:
        return Attribute(self._next("Part"), AttributeKind.PARTIAL_KEY)


def generate_model(seed: int) -> ERModel:
    """A bounded valid model: at most 6 entities, 4 subtypes, 3 weak
    entities, 6 relationships, and 8 attributes per element."""
    rng = random.Random(seed)
    names = _Names(rng)

    entities = []
    for _ in range(rng.randint(1, 6)):
        name = names.element()
        attrs = [Attribute(name[:3] + "No", AttributeKind.KEY)]
        attrs += [names.key() for _ in range(rng.randint(0, 2))]
        attrs += [names.attr() for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.4 and names.pool:
            attrs.append(Attribute(names.element(), AttributeKind.MULTIVALUED))
        entities.append(RegularEntityType(name, tuple(attrs)))

    subtypes = []
    for _ in range(rng.randint(0, 4)):
        if not names.pool:
            break
        intrinsics = tuple(names.attr() for _ in range(rng.randint(0, 2)))
        subtypes.append(
            Subtype(names.element(), rng.choice(entities).name, intrinsics)
        )

    weaks = []
    for _ in range(rng.randint(0, 3)):
        if not names.pool:
            break
        name = names.element()
        identifying = name + "Of" if rng.random() < 0.5 else "Ident" + name
        weaks.append(
            WeakEntityType(
                name, rng.choice(entities).name, identifying, names.partial(),
                tuple(names.attr() for _ in range(rng.randint(1, 3))),
            )
        )

    relationships = []
    used_pairs: set[frozenset[str]] = set()
    one_to_one_budget = 3
    for _ in range(rng.randint(0, 6)):
        if not names.pool:
            break
        endpoints = None
        if subtypes and one_to_one_budget and rng.random() < 0.5:
            subtype = rng.choice(subtypes)
            others = [e for e in entities if e.name != subtype.supertype]
            if others:
                entity = rng.choice(others)
                pair = frozenset((subtype.name, entity.name))
                if pair in used_pairs:
                    continue
                used_pairs.add(pair)
                one_to_one_budget -= 1
                endpoints = [
                    RelationshipEndpoint(
                        subtype.name,
                        CardinalityPair(str(rng.randint(0, 1)), "1")),
                    RelationshipEndpoint(
                        entity.name,
                        CardinalityPair(str(rng.randint(0, 1)), "1")),
                ]
        if endpoints is None:
            if len(entities) < 2:
                continue
            near, far = rng.sample(entities, 2)
            pair = frozenset((near.name, far.name))
            if pair in used_pairs:
                continue
            used_pairs.add(pair)
            endpoints = [
                RelationshipEndpoint(
                    near.name, CardinalityPair(str(rng.randint(0, 1)), "1")),
                RelationshipEndpoint(
                    far.name, CardinalityPair(str(rng.randint(0, 1)), "n")),
            ]
        rng.shuffle(endpoints)
        payload = tuple(names.attr() for _ in range(rng.randint(0, 2)))
        relationships.append(
            RelationshipType(names.element(), tuple(endpoints), payload)
        )

    involved = {ep.participant for r in relationships for ep in r.endpoints}
    subtypes = [
        Subtype(s.name, s.supertype, (names.attr(),))
        if not s.attributes and s.name not in involved else s
        for s in subtypes
    ]

    model = ERModel(tuple(entities), tuple(subtypes), tuple(weaks),
                    tuple(relationships))
    assert not validate_notation(model), f"seed {seed} produced an invalid model"
    return model


def sog_configs(model: ERModel) -> list[dict[str, str]]:
    """Every combination of side choices across the model's one-to-one
    relationships; [{}] when there are none."""
    one_to_ones = [r for r in model.relationships
                   if ratio_class(r).kind is RatioKind.ONE_TO_ONE]
    sides = [[ep.participant for ep in r.endpoints] for r in one_to_ones]
    names = [r.name for r in one_to_ones]
    return [dict(zip(names, combo)) for combo in product(*sides)]


def scaled_model(n: int) -> ERModel:
    """The ROADMAP shape at even size n, 2.5·n relations: n entities, each
    with a key, an attribute and a multivalued attribute; n/2 subtypes with
    one attribute; a chain of n-1 one-to-many relationships; n/2 one-to-one
    relationships from a subtype to an entity other than its supertype.
    Sizes up to 8 * 26**2 = 5,408 are supported."""
    tags = [_role_tags(i) for i in range(n)]
    entities = tuple(
        RegularEntityType(f"{tag}ent", (
            Attribute(f"{tag}eNo", AttributeKind.KEY),
            Attribute(f"{tag}eVal"),
            Attribute(f"{multi}Multi", AttributeKind.MULTIVALUED),
        ))
        for tag, multi, _ in tags
    )
    subtypes = tuple(
        Subtype(f"{tags[j][2]}sub", entities[2 * j].name, (Attribute(f"{tags[j][2]}sVal"),))
        for j in range(n // 2)
    )
    chain = tuple(
        RelationshipType(f"{tags[i][0]}Link", (
            RelationshipEndpoint(entities[i].name, CardinalityPair("1", "n")),
            RelationshipEndpoint(entities[i + 1].name, CardinalityPair("0", "1")),
        ))
        for i in range(n - 1)
    )
    pairs = tuple(
        RelationshipType(f"{tags[j][2]}Pair", (
            RelationshipEndpoint(subtypes[j].name, CardinalityPair("0", "1")),
            RelationshipEndpoint(entities[2 * j + 1].name, CardinalityPair("1", "1")),
        ))
        for j in range(n // 2)
    )
    return ERModel(entities, subtypes, (), chain + pairs)

