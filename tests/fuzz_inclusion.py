#!/usr/bin/env python3
"""Seeded fuzzing of the quick accept inside the abstract inclusion test.

    PYTHONPATH=src python3 tests/fuzz_inclusion.py [--seed N ...] [--pairs P] [--clocks C]

Each seed draws P ordered pairs of priced zones over 1 to C clocks, with
maximal constants from None and 0-4 per clock.  Half of the pairs are
independent random priced zones; the other half are a priced zone and its
``grid_oracles.weaken`` image, in either order.  On every pair it checks:

- wherever the classical test holds, the unpriced test holds and every
  cell's s-value is <= 0, computed directly and not through ``includes``:
  the implication that lets ``inclusion.includes`` accept classically;
- on pairs of at most 2 clocks, ``includes`` against the integral-point
  oracle ``grid_oracles.brute_includes``.

It prints each seed before running it and its counts after, and exits 1 at
the first violation, printing the seed and the pair.  The file has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from grid_oracles import brute_includes, random_priced_zone, weaken
from zonecost.inclusion import includes, m_cells, s_value, simple_includes, unpriced_m_inclusion

CLOCKS = ("x", "y", "z", "w")
BRUTE_MAX_CLOCKS = 2


def random_pair(rng: random.Random, max_clocks: int):
    """One (kind, a, b, M) case over 1 to ``max_clocks`` clocks."""
    clocks = CLOCKS[: rng.randint(1, max_clocks)]
    m = {c: rng.choice([None, 0, 1, 2, 3, 4]) for c in clocks}
    a = random_priced_zone(rng, clocks, 4)
    if rng.random() < 0.5:
        return "random", a, random_priced_zone(rng, clocks, 4), m
    b = weaken(rng, a)
    if rng.random() < 0.5:
        return "weaken", a, b, m
    return "weaken-reversed", b, a, m


def check(a, b, m, counts: Counter) -> str | None:
    """The first property the pair breaks, or None."""
    if simple_includes(a, b):
        counts["classical"] += 1
        if not unpriced_m_inclusion(a.zone, b.zone, m):
            return "classical inclusion without unpriced inclusion"
        for y in m_cells(a.zone, m):
            if s_value(a, b, y, m)[0] > 0:
                return f"classical inclusion with a positive s-value on cell {sorted(y)}"
    answer = includes(a, b, m)
    counts["abstract"] += answer
    if len(a.clocks) <= BRUTE_MAX_CLOCKS:
        counts["brute"] += 1
        if answer != brute_includes(a, b, m):
            return f"includes says {answer}, the integral-point oracle disagrees"
    return None


def run(seed: int, pairs: int, max_clocks: int) -> bool:
    print(f"seed {seed}: {pairs} pairs over 1-{max_clocks} clocks", flush=True)
    rng = random.Random(seed)
    counts: Counter = Counter()
    for k in range(pairs):
        kind, a, b, m = random_pair(rng, max_clocks)
        counts[kind] += 1
        broken = check(a, b, m, counts)
        if broken:
            print(f"seed {seed}, pair {k} ({kind}): {broken}\n  a = {a}\n  b = {b}\n  M = {m}")
            return False
    print(f"seed {seed}: " + ", ".join(f"{key} {counts[key]}" for key in (
        "random", "weaken", "weaken-reversed", "classical", "abstract", "brute")), flush=True)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[1], help="seeds to run, in order")
    parser.add_argument("--pairs", type=int, default=1000, help="pairs per seed")
    parser.add_argument("--clocks", type=int, default=4, choices=range(1, len(CLOCKS) + 1),
                        help="largest clock count")
    args = parser.parse_args(argv)
    ok = all(run(seed, args.pairs, args.clocks) for seed in args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
