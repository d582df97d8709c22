#!/usr/bin/env python3
"""Seeded fuzzing of witness extraction: each backward step against the LP
reference, and whole witnesses re-evaluated on random sync networks.

    PYTHONPATH=src python3 tests/fuzz_witness.py [--seed N ...] [--zones Z] [--networks K]
                                                 [--clocks LO HI]

A witness step that resets at most one clock reads its point off the reset
clock's interval (``explorer._fiber_point``); steps that reset more solve an
LP over the guarded fiber.  Each seed runs two checks:

- Z zones over LO to HI clocks (default 4 to 8), more than the tier-1
  property reaches, each built around a random integral point
  (``grid_oracles.random_wide_zone``), with the other inputs of a step from
  ``grid_oracles.random_fiber_case``: the step returns exactly the point of
  ``grid_oracles.lp_fiber_point``, the guard cut and the LP, or raises the
  same ``WitnessError``.
- K networks from ``grid_oracles.random_network``, each explored under
  every strategy, with nonnegative weights and pruning for the first half
  and signed weights under an iteration cap for the second: every witness
  run, re-evaluated by ``evaluate_run``, costs between the verdict's cost
  and that cost plus eps.

It prints each seed before running it and its counts after, among them the
witness steps by number of free clocks, and exits 1 at the first mismatch,
printing the seed and the failing case.  The file has no ``test_`` prefix,
so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction

from grid_oracles import lp_fiber_point, random_fiber_case, random_network, random_wide_zone
from zonecost import explorer
from zonecost.dbm import NEG_INF, POS_INF
from zonecost.explorer import STRATEGIES, Config, WitnessError, explore, extract_witness
from zonecost.model import compose, evaluate_run

CLOCKS = tuple("abcdefgh")
CMAX = 4
EPS = Fraction(1, 1000)
SIGNED_CAP = 100


def outcome(f, *args):
    try:
        return f(*args)
    except WitnessError:
        return WitnessError


def check_steps(seed: int, rng: random.Random, zones: int, lo: int, hi: int,
                counts: Counter) -> bool:
    for k in range(zones):
        zone = random_wide_zone(rng, CLOCKS[: rng.randint(lo, hi)], CMAX)
        case = (zone, *random_fiber_case(rng, zone, CMAX))
        want = outcome(lp_fiber_point, *case)
        got = outcome(explorer._fiber_point, *case)
        counts["step raises" if want is WitnessError else "step point"] += 1
        if got != want:
            print(f"seed {seed}, zone {k}: _fiber_point{case!r}\n"
                  f"  gives {got}\n  the LP reference gives {want}")
            return False
    return True


def check_witnesses(seed: int, rng: random.Random, networks: int, counts: Counter) -> bool:
    fiber_point = explorer._fiber_point

    def counting(zone, guard, cost, fixed, budget):
        free = len(zone.clocks) - len(fixed)
        counts[f"steps with {free if free < 2 else '2+'} free"] += 1
        return fiber_point(zone, guard, cost, fixed, budget)

    for k in range(networks):
        signed = k >= networks // 2
        a = compose(random_network(rng, nonnegative=not signed))
        for strategy in STRATEGIES:
            cfg = (Config(strategy=strategy, iteration_cap=SIGNED_CAP) if signed
                   else Config(strategy=strategy, pruning=True))
            v = explore(a, cfg)
            if v.cost in (POS_INF, NEG_INF):
                continue
            explorer._fiber_point = counting
            try:
                run = extract_witness(a, v.witness_state, EPS)
            finally:
                explorer._fiber_point = fiber_point
            counts["witnesses"] += 1
            value = evaluate_run(a, run)
            if not v.cost <= value <= v.cost + EPS:
                print(f"seed {seed}, network {k} ({strategy}): cost {v.cost}, "
                      f"witness {run!r} evaluates to {value}")
                return False
    return True


def run(seed: int, zones: int, networks: int, lo: int, hi: int) -> bool:
    print(f"seed {seed}: {zones} zones over {lo}-{hi} clocks, {networks} networks", flush=True)
    rng = random.Random(seed)
    counts: Counter = Counter()
    if not (check_steps(seed, rng, zones, lo, hi, counts)
            and check_witnesses(seed, rng, networks, counts)):
        return False
    print(f"seed {seed}: " + ", ".join(f"{name} {n}" for name, n in sorted(counts.items())),
          flush=True)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[1], help="seeds to run, in order")
    parser.add_argument("--zones", type=int, default=2000, help="witness steps per seed")
    parser.add_argument("--networks", type=int, default=40, help="networks per seed")
    parser.add_argument("--clocks", type=int, nargs=2, default=[4, 8], metavar=("LO", "HI"),
                        help="smallest and largest clock count of a step's zone (1-8)")
    args = parser.parse_args(argv)
    lo, hi = args.clocks
    if not 1 <= lo <= hi <= len(CLOCKS):
        parser.error(f"--clocks needs 1 <= LO <= HI <= {len(CLOCKS)}")
    ok = all(run(seed, args.zones, args.networks, lo, hi) for seed in args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
