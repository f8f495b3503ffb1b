"""Metamorphic properties: two runs on related inputs must agree, so no
expected output is needed.

Declaration order: shuffling each of the four element lists of an ``.er``
text changes neither the gate's verdict nor any relation's set of
attributes.  It changes the round-trip verdict only where two regular
relations own one primary key: reversal takes the first of them as the
owner of every relation keyed by that name (the README's two-owner
exception), and ``classify_relations`` warns that both own it.
"""

from __future__ import annotations

import random

from er2rds import (
    ERModel,
    TransformConfig,
    classify_relations,
    emit_er,
    forward,
    parse_er,
    run_roundtrip,
)
from geninputs import colliding_text
from genmodels import generate_model

TWO_OWNERS = "both own primary key"


def shuffled(text: str, rng: random.Random) -> str:
    """The canonical text of ``text``'s model with each of its four element
    lists shuffled."""
    model, _ = parse_er(text)
    lists = [list(model.entities), list(model.subtypes),
             list(model.weak_entities), list(model.relationships)]
    for elements in lists:
        rng.shuffle(elements)
    return emit_er(ERModel(*map(tuple, lists)))


def verdicts(text: str) -> tuple:
    """Whether the gate passes ``text``'s model, each relation's set of
    attributes, whether two regular relations own one primary key, and
    whether the model round-trips."""
    model, diagnostics = parse_er(text)
    assert model is not None and not diagnostics, text
    schema, _, _ = forward.gated_transform(model, TransformConfig())
    if schema is None:
        return False, None, False, None
    attributes = {relation.name: frozenset(relation.attributes)
                  for relation in schema.relations}
    two_owners = any(TWO_OWNERS in diag.message
                     for diag in classify_relations(schema)[2])
    return True, attributes, two_owners, run_roundtrip(model).ok


def assert_order_free(texts: list[str], seed: int) -> None:
    rng = random.Random(seed)
    for text in texts:
        gate, attributes, two_owners, round_trips = verdicts(text)
        other = verdicts(shuffled(text, rng))
        assert other[:2] == (gate, attributes), text
        if other[3] != round_trips:
            assert two_owners or other[2], text


def test_corpus_models_do_not_depend_on_declaration_order():
    assert_order_free([emit_er(generate_model(seed)) for seed in range(500)], seed=1)


def test_clean_colliding_texts_do_not_depend_on_declaration_order():
    # Names that share prefixes reach the two-owner case, but seldom: about
    # one clean text in 400, and 35 of these 3,000 texts are clean.
    rng = random.Random(703)
    texts = []
    for _ in range(3000):
        text = colliding_text(rng)
        model, _ = parse_er(text)
        if model is not None and forward.gated_transform(model, TransformConfig())[0]:
            texts.append(text)
    assert len(texts) == 35
    assert_order_free(texts, seed=2)


def test_two_owners_of_one_key_make_the_round_trip_depend_on_order():
    bravo = "entity Bravo { key Bra; }"
    brave = "entity Brave { key Bra; key Ced; multi Cedar; }"
    first, second = verdicts(f"{bravo}\n{brave}"), verdicts(f"{brave}\n{bravo}")
    assert first[:3] == second[:3]
    assert first[0] and first[2]  # both pass the gate; Bravo and Brave own Bra
    assert (first[3], second[3]) == (False, True)
