"""Probe of the clean-model promise on random texts with colliding names.

    PYTHONPATH=src python tests/probe_clean_models.py SEED [SEED ...] [--count N]

For each seed, draws N texts (default 20,000) from ``colliding_text`` and
runs each under three modes: the default side-choice policy,
``prefer_regular`` and ``extensions``.  Counts per mode how many texts have
a parse diagnostic, how many parse but break a notation rule, how many obey
the notation but clash, and how many pass the gate; then, of the clean
ones, how many round-trip, how many do not, and what ``transform_model`` or
``run_roundtrip`` raised, by class.  A clean model that raises breaks the
promise that a model which validates clean transforms.

Pytest does not collect this file; it is a script.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from er2rds import (TransformConfig, forward, has_errors, parse_er, run_roundtrip,
                    transform_model, validate_notation)
from geninputs import colliding_text

MODES = {
    "default": TransformConfig(),
    "prefer-regular": TransformConfig(prefer_regular=True),
    "extensions": TransformConfig(extensions=True),
}
COLUMNS = ("parse errors", "notation errors", "CLASH", "clean",
           "round trip ok", "round trip failed")


def probe(model, cfg: TransformConfig, counts: Counter, raised: Counter) -> None:
    """Count one parsed model under one configuration."""
    try:
        if has_errors(validate_notation(model, allow_extensions=cfg.extensions)):
            counts["notation errors"] += 1
            return
        schema, _, _ = forward.gated_transform(model, cfg)
        if schema is None:
            counts["CLASH"] += 1
            return
        counts["clean"] += 1
        transform_model(model, cfg)
        ok = run_roundtrip(model, cfg).ok
        counts["round trip ok" if ok else "round trip failed"] += 1
    except Exception as exc:  # every raise is a finding; count it and go on
        raised[type(exc).__name__] += 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--count", type=int, default=20_000,
                        help="texts per seed (default 20,000)")
    args = parser.parse_args()
    counts = {mode: Counter() for mode in MODES}
    raised = {mode: Counter() for mode in MODES}
    for seed in args.seeds:
        rng = random.Random(seed)
        for _ in range(args.count):
            model, diagnostics = parse_er(colliding_text(rng))
            for mode, cfg in MODES.items():
                if model is None or diagnostics:
                    counts[mode]["parse errors"] += 1
                else:
                    probe(model, cfg, counts[mode], raised[mode])
    texts = len(args.seeds) * args.count
    print(f"seeds {' '.join(map(str, args.seeds))}: {texts} texts per mode")
    print(f"{'mode':<15}" + "".join(f"{column:>18}" for column in COLUMNS) + "  raised")
    for mode in MODES:
        row = "".join(f"{counts[mode][column]:>18}" for column in COLUMNS)
        by_class = ", ".join(f"{name} {n}" for name, n in sorted(raised[mode].items()))
        print(f"{mode:<15}{row}  {by_class or 'none'}")


if __name__ == "__main__":
    main()
