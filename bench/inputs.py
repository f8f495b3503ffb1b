"""Benchmark inputs: the op lists of each workload and their known answers.

Nothing here calls er2rds to decide what an op should produce.  Scaled models
are written as `.er` text straight from their shape, together with the `.rds`
text, relation count and foreign-key count that the shape implies.  Corpus
models come from `tests/genmodels.generate_model`; their expected relation
and foreign-key counts are read off the model's structure.  The golden model
is checked against the hand-written `tests/golden/*.rds` files.
"""

from __future__ import annotations

import os
import random
import string
from dataclasses import dataclass
from pathlib import Path

# Model sizes of the large workloads, as n in the ROADMAP shape: 2.5·n
# relations, so about 100, 200 and 400.  1,000 relations would take seconds
# per op on the parent commit, too slow to repeat.
LARGE_SIZES = (40, 80, 160)
CORPUS_MODELS = 500


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the answer it must give.

    `relations`, `entities` and `fks` describe the first schema the op's model
    transforms to; a transform records one trace event per relation created
    and one per foreign key added."""

    command: str                      # roundtrip, transform or ddl
    source: str
    relations: int
    entities: int
    fks: int
    choices: tuple[tuple[str, str], ...] = ()
    prefer_regular: bool = False
    reversible: bool = True           # roundtrip verdict
    rds: str | None = None            # expected schema text, when known
    output: str | None = None         # transform: the -o file; implies --trace

    def argv(self) -> list[str]:
        argv = [self.command, self.source]
        argv += [f"--sog-choice={rel}={side}" for rel, side in self.choices]
        if self.prefer_regular:
            argv.append("--prefer-regular")
        if self.output is not None:
            argv += ["--trace", "-o", self.output]
        return argv

    @property
    def trace_events(self) -> int:
        return self.relations + self.fks

    @property
    def ddl_foreign_keys(self) -> int:
        # every suffixed key, plus the owner reference of each subtype,
        # multivalued and weak relation
        return self.fks + self.relations - self.entities


# --------------------------------------------------------------------------
# Scaled models


@dataclass(frozen=True)
class ScaledModel:
    er: str
    rds: str
    relations: int
    entities: int
    fks: int


def _prefixes(rng: random.Random, count: int) -> list[str]:
    """Distinct three-letter name prefixes, capitalized."""
    lower = string.ascii_lowercase
    chosen: set[str] = set()
    while len(chosen) < count:
        chosen.add(rng.choice(string.ascii_uppercase) + rng.choice(lower)
                   + rng.choice(lower))
    ordered = sorted(chosen)
    rng.shuffle(ordered)
    return ordered


def scaled_model(n: int, seed: int) -> ScaledModel:
    """The ROADMAP shape at size n (even): n entities, each with a key, an attr
    and a multi; n/2 subtypes with an attr; a chain of n-1 one-to-many
    relationships; n/2 one-to-one relationships from a subtype to an entity
    other than its supertype.

    Every entity, subtype and multivalued attribute takes its own prefix, so
    reverse classification never matches a relation to the wrong owner."""
    if n < 2 or n % 2:
        raise ValueError(f"scaled model size must be even and at least 2, got {n}")
    rng = random.Random(seed * 1_000_003 + n)
    prefixes = _prefixes(rng, n + n // 2 + n)
    ent = [p + "a" for p in prefixes[:n]]
    key = [p + "No" for p in prefixes[:n]]
    val = [p + "Val" for p in prefixes[:n]]
    sub_prefixes = prefixes[n:n + n // 2]
    sub = [p + "e" for p in sub_prefixes]
    multi = [p + "i" for p in prefixes[n + n // 2:]]
    link = [p + "Link" for p in prefixes[1:n]]      # link[i] joins ent[i], ent[i+1]
    pair = [p + "Pair" for p in sub_prefixes]
    mins = lambda: rng.choice("01")
    chain = [(mins(), mins()) for _ in link]        # (min of ent[i], of ent[i+1])
    one_one = [(mins(), mins()) for _ in pair]      # (min of sub[j], of partner)

    er: list[str] = []
    for i in range(n):
        er.append(f"entity {ent[i]} {{\n  key {key[i]};\n  attr {val[i]};\n"
                  f"  multi {multi[i]};\n}}\n")
    for j in range(n // 2):
        er.append(f"subtype {sub[j]} of {ent[2 * j]} {{\n"
                  f"  attr {sub_prefixes[j]}Val;\n}}\n")
    for i, (near, far) in enumerate(chain):
        er.append(f"rel {link[i]} ({ent[i]} {near}..n, {ent[i + 1]} {far}..1) {{ }}\n")
    for j, (near, far) in enumerate(one_one):
        er.append(f"rel {pair[j]} ({sub[j]} {near}..1, {ent[2 * j + 1]} {far}..1) {{ }}\n")

    # One-to-many: the max-1 side holds the key, suffix (rel, own min, far
    # min, far max).  One-to-one: the subtype has a relation, so by default it
    # holds the partner's key.  Multivalued relations follow in entity order.
    rds: list[str] = []
    for i in range(n):
        attrs = [f"_{key[i]}_", val[i]]
        if i:
            near, far = chain[i - 1]
            attrs.append(f"{key[i - 1]}({link[i - 1]}, {far}, {near}, n)")
        rds.append(f"{ent[i]}[{', '.join(attrs)}]\n")
    for j, (near, far) in enumerate(one_one):
        rds.append(f"{sub[j]}[_{key[2 * j]}_, {sub_prefixes[j]}Val, "
                   f"{key[2 * j + 1]}({pair[j]}, {near}, {far}, 1)]\n")
    for i in range(n):
        rds.append(f"{multi[i]}[_{key[i]}_, _{multi[i]}_]\n")

    return ScaledModel("\n".join(er), "".join(rds), relations=len(rds),
                       entities=n, fks=len(link) + len(pair))


# --------------------------------------------------------------------------
# Workload op lists


def _write(path: Path, text: str) -> str:
    """Write in place, without truncating first.  Each set-up rewrites the
    same files: creating and deleting hundreds of files per set-up made
    setup_s swing by a factor of two with the state of the disk, and
    truncating to zero makes ext4 flush the file on close."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return str(path)


def large_roundtrip_ops(work: Path, seed: int, sizes=LARGE_SIZES) -> list[Op]:
    ops = []
    for n in sizes:
        m = scaled_model(n, seed)
        source = _write(work / f"scaled{n}.er", m.er)
        ops.append(Op("roundtrip", source, m.relations, m.entities, m.fks, rds=m.rds))
    return ops


def _corpus_ops(source: str, model, side_choices: list[dict[str, str]]) -> list[Op]:
    """The criterion-5 mix for one generated model: default, every
    combination of one-to-one side choices, and --prefer-regular."""
    entities = len(model.entities)
    base = (entities
            + sum(len(e.multivalued_attributes()) for e in model.entities)
            + len(model.weak_entities))
    with_attrs = {s.name for s in model.subtypes if s.attributes}
    subtypes = {s.name for s in model.subtypes}
    fks = len(model.relationships)

    def op(choices=(), prefer_regular=False) -> Op:
        # a subtype gets a relation for its attributes or when chosen as a side
        owned = with_attrs | {side for _, side in choices if side in subtypes}
        return Op("roundtrip", source, base + len(owned), entities, fks,
                  choices=choices, prefer_regular=prefer_regular)

    ops = [op()]
    ops += [op(tuple(mapping.items())) for mapping in side_choices if mapping]
    ops.append(op(prefer_regular=True))
    return ops


# Known answers beyond the generated corpus.  Both models validate clean yet
# cannot round-trip: a weak entity with no plain attribute reads back as an
# unclassifiable relation, and a multi sharing its owner's name prefix reads
# back as a second regular entity.
WEAK_WITHOUT_ATTRIBUTE = """\
entity Kappa {
  key KapNo;
  attr Height;
}

weak Lodge of Kappa via LodgeOf {
  partial Room;
}
"""
PREFIX_CLASH = "entity Ivory { key IvoNo; multi IvoryNo; }\n"


def corpus_cli_ops(work: Path, seed: int, golden: Path, count: int = CORPUS_MODELS,
                   emit_er=None) -> list[Op]:
    """The 500-model corpus drawn at this seed, then the known-answer inputs.

    `emit_er` writes each generated model to text; the traced run passes a
    timed wrapper around er2rds.emit_er."""
    from genmodels import generate_model, sog_configs
    if emit_er is None:
        from er2rds import emit_er

    ops: list[Op] = []
    for index in range(count):
        model = generate_model(seed * count + index)
        source = _write(work / f"model{index}.er", emit_er(model))
        ops += _corpus_ops(source, model, sog_configs(model))

    expected = (golden / "company.rds").read_text(encoding="utf-8")
    company = _write(work / "company.er",
                     (golden / "company.er").read_text(encoding="utf-8"))
    company_rds = _write(work / "company.rds", expected)
    variant = (golden / "company_consult_project.rds").read_text(encoding="utf-8")
    ops += [
        Op("roundtrip", company, 6, 3, 3, rds=expected),
        Op("roundtrip", company, 6, 3, 3, prefer_regular=True),
        Op("transform", company, 6, 3, 3, rds=expected,
           output=str(work / "company.out.rds")),
        Op("transform", company, 6, 3, 3, choices=(("Consult", "Project"),),
           rds=variant, output=str(work / "company_variant.out.rds")),
        Op("ddl", company_rds, 6, 3, 3),
    ]
    for name, text in (("weak", WEAK_WITHOUT_ATTRIBUTE), ("ivory", PREFIX_CLASH)):
        source = _write(work / f"{name}.er", text)
        ops += [Op("roundtrip", source, 2, 1, 0, reversible=False),
                Op("roundtrip", source, 2, 1, 0, prefer_regular=True,
                   reversible=False)]
    return ops


WORKLOADS = {
    "corpus_cli": corpus_cli_ops,
    "large_roundtrip": large_roundtrip_ops,
}
