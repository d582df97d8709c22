#!/usr/bin/env python3
"""Seeded fuzzing of the dominant-bound pieces against the loop over all facets.

    PYTHONPATH=src python3 tests/fuzz_dominant.py [--seed N ...] [--zones Z] [--clocks LO HI]

A delay, reset or facet-reduction step whose eliminated clock has a bound
implying all the others of its kind (``Zone.dominant_pivot``) builds that
bound's piece alone; otherwise it runs the loop over every facet and the
containment pass.  Each seed draws Z priced zones over LO to HI clocks
(default 4 to 8), more than the tier-1 corpus reaches.  A zone is built
around a random integral point, so it is never empty, with strict bounds,
fixed clocks and clock pairs at a fixed distance; a third of the zones are
delayed, and every eighth cost is the -oo one.  On every zone it checks:

- ``dominant_pivot`` of each clock and kind against its definition, the
  pivot of the first facet whose zone contains every other facet zone;
- ``delay_successors`` at rates -3..3, ``reset_successors`` of two random
  clock sets and ``facet_reduce`` of up to three cells: the same pieces in
  the same order, or the same ``LowerBoundViolation``, as with
  ``dominant_pivot`` answering None, so that every step takes the loop.

It prints each seed before running it and its counts after, and exits 1 at
the first mismatch, printing the seed, the zone and the call.  The file has
no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from grid_oracles import random_cost
from zonecost.dbm import Zone
from zonecost.inclusion import LowerBoundViolation, clock_preorder, facet_reduce, restrict_y
from zonecost.priced import AffineCost, PricedZone, delay_successors, reset_successors

CLOCKS = tuple("abcdefgh")
CMAX = 4


def random_wide_zone(rng: random.Random, clocks: tuple[str, ...]) -> Zone:
    """A non-empty zone holding a random integral point v: each bound lies 0-3
    above v's value, strict only when above it."""
    v = {c: rng.randint(0, CMAX) for c in clocks}
    value = {None: 0, **v}
    cons = []
    for a in (None,) + clocks:
        for b in (None,) + clocks:
            if a == b or rng.random() < 0.6:
                continue
            slack = rng.choice((0, 1, 2, 3))
            cons.append((a, b, value[a] - value[b] + slack, slack > 0 and rng.random() < 0.4))
    zone = Zone.universal(clocks).intersect(cons)
    return zone.up() if rng.random() < 1 / 3 else zone


def first_covering(facets) -> tuple[str | None, int] | None:
    for f in facets:
        if all(g.zone.subset(f.zone) for g in facets):
            return f.pivot
    return None


def outcome(call):
    f, *args = call
    try:
        return f(*args)
    except LowerBoundViolation:
        return LowerBoundViolation


def calls_of(rng: random.Random, pz: PricedZone) -> list[tuple]:
    clocks = pz.clocks
    calls = [(delay_successors, pz, rate) for rate in range(-3, 4)]
    for _ in range(2):
        calls.append((reset_successors, pz, rng.sample(clocks, rng.randint(1, len(clocks)))))
    m = {c: rng.randint(0, CMAX) for c in clocks}
    ys = clock_preorder(pz.zone, m).downward_closed_sets()
    for y in rng.sample(ys, min(3, len(ys))):
        cell = restrict_y(pz.zone, y, m)
        if not cell.is_empty:
            calls.append((facet_reduce, PricedZone(cell, pz.cost), y))
    return calls


def run(seed: int, zones: int, lo: int, hi: int) -> bool:
    print(f"seed {seed}: {zones} zones over {lo}-{hi} clocks", flush=True)
    rng = random.Random(seed)
    counts: Counter = Counter()
    dominant = Zone.dominant_pivot

    def counting(zone, axis, kind):
        pivot = dominant(zone, axis, kind)
        counts["dominant" if pivot is not None else "loop"] += 1
        return pivot

    for k in range(zones):
        clocks = CLOCKS[: rng.randint(lo, hi)]
        zone = random_wide_zone(rng, clocks)
        cost = AffineCost.bottom(clocks) if k % 8 == 7 else random_cost(rng, clocks)
        for axis in clocks:
            for kind in ("lower", "upper"):
                if zone.dominant_pivot(axis, kind) != first_covering(zone.facets(axis, kind)):
                    print(f"seed {seed}, zone {k}: dominant_pivot({axis!r}, {kind!r}) "
                          f"is not the first covering facet\n  zone = {zone}")
                    return False
        calls = calls_of(rng, PricedZone(zone, cost))
        try:
            Zone.dominant_pivot = counting
            fast = [outcome(call) for call in calls]
            Zone.dominant_pivot = lambda zone, axis, kind: None
            slow = [outcome(call) for call in calls]
        finally:
            Zone.dominant_pivot = dominant
        for call, got, want in zip(calls, fast, slow):
            counts[call[0].__name__] += 1
            if got != want:
                print(f"seed {seed}, zone {k}: {call[0].__name__}{tuple(call[1:])!r}\n"
                      f"  dominant bounds give {got}\n  the loop gives {want}")
                return False
    print(f"seed {seed}: " + ", ".join(f"{key} {counts[key]}" for key in (
        "delay_successors", "reset_successors", "facet_reduce", "dominant", "loop")), flush=True)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[1], help="seeds to run, in order")
    parser.add_argument("--zones", type=int, default=200, help="priced zones per seed")
    parser.add_argument("--clocks", type=int, nargs=2, default=[4, 8], metavar=("LO", "HI"),
                        help="smallest and largest clock count (1-8)")
    args = parser.parse_args(argv)
    lo, hi = args.clocks
    if not 1 <= lo <= hi <= len(CLOCKS):
        parser.error(f"--clocks needs 1 <= LO <= HI <= {len(CLOCKS)}")
    ok = all(run(seed, args.zones, lo, hi) for seed in args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
