#!/usr/bin/env python3
"""Seeded fuzzing of the dominant-bound pieces against the loop over all facets,
and of the delay within an invariant against the face-zone construction.

    PYTHONPATH=src python3 tests/fuzz_dominant.py [--seed N ...] [--zones Z] [--clocks LO HI]

A delay, reset or facet-reduction step whose eliminated clock has a bound
implying all the others of its kind (``Zone.dominant_pivot``) builds that
bound's piece alone; otherwise it runs the loop over every facet and the
containment pass.  Each seed draws Z priced zones over LO to HI clocks
(default 4 to 8), more than the tier-1 corpus reaches.  A zone is built
around a random integral point, so it is never empty, with strict bounds,
fixed clocks and clock pairs at a fixed distance; a third of the zones are
delayed, and every eighth cost is the -oo one.  Each zone also draws an
invariant of up to three ``<``, ``<=``, ``=`` and ``>=`` atoms, and its
delays start from the zone cut by it (no atoms when the cut is empty).  On
every zone it checks:

- ``dominant_pivot`` of each clock and kind against its definition, the
  pivot of the first facet whose zone contains every other facet zone;
- ``delay_successors`` at rates -3..3 within the invariant,
  ``reset_successors`` of two random clock sets and ``facet_reduce`` of up
  to three cells: the same pieces in the same order, or the same
  ``LowerBoundViolation``, as with ``dominant_pivot`` answering None, so
  that every step takes the loop;
- every delay call: the same pieces in the same order as
  ``grid_oracles.face_delay``, the pieces of face zones cut by the
  invariant afterwards.

It prints each seed before running it and its counts after, among them the
delay calls that found a dominant bound and those that ran the loop, and
exits 1 at the first mismatch, printing the seed, the zone and the call.  The file has
no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from grid_oracles import face_delay, random_cost, random_wide_zone
from zonecost.dbm import Zone
from zonecost.inclusion import LowerBoundViolation, clock_preorder, facet_reduce, restrict_y
from zonecost.model import Atom, guard_constraints
from zonecost.priced import AffineCost, PricedZone, delay_successors, reset_successors

CLOCKS = tuple("abcdefgh")
CMAX = 4


def random_invariant(rng: random.Random, zone: Zone) -> tuple[Zone, list]:
    """Up to three random atoms as difference constraints, with the zone cut
    by them; no atoms when a draw cuts the zone empty."""
    atoms = [Atom(rng.choice(zone.clocks), rng.choice(("<", "<=", "=", ">=")),
                  rng.randint(0, CMAX + 3)) for _ in range(rng.randint(0, 3))]
    inv = guard_constraints(atoms)
    cut = zone.intersect(inv)
    return (zone, []) if cut.is_empty else (cut, inv)


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
    inside, inv = random_invariant(rng, pz.zone)
    calls = [(delay_successors, PricedZone(inside, pz.cost), rate, inv) for rate in range(-3, 4)]
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
    current = [""]

    def counting(zone, axis, kind):
        pivot = dominant(zone, axis, kind)
        counts[current[0], "dominant" if pivot is not None else "loop"] += 1
        return pivot

    def fast_outcome(call):
        current[0] = call[0].__name__
        return outcome(call)

    for k in range(zones):
        clocks = CLOCKS[: rng.randint(lo, hi)]
        zone = random_wide_zone(rng, clocks, CMAX)
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
            fast = [fast_outcome(call) for call in calls]
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
            if call[0] is delay_successors and got != face_delay(*call[1:]):
                print(f"seed {seed}, zone {k}: delay_successors{tuple(call[1:])!r}\n"
                      f"  gives {got}\n  the face zones give {face_delay(*call[1:])}")
                return False
            counts["with an invariant"] += call[0] is delay_successors and bool(call[-1])
    delays, dom, loop = (counts["delay_successors"], counts["delay_successors", "dominant"],
                         counts["delay_successors", "loop"])
    print(f"seed {seed}: delay_successors {delays} calls ({counts['with an invariant']} with an "
          f"invariant; {dom} dominant, {loop} loop, {delays - dom - loop} with d = 0), " + ", ".join(
              f"{name} {counts[name]} calls ({counts[name, 'dominant']} dominant, "
              f"{counts[name, 'loop']} loop steps)" for name in ("reset_successors", "facet_reduce")),
          flush=True)
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
