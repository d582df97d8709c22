"""Seeded model generators for the three benchmark workloads.

Every generator returns model *texts* in the zonecost input format, so the
benchmark's set-up phase parses and composes them like a user would.  The
generators import nothing from the library: a change to the program cannot
alter the inputs it is measured on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

DEFAULT_SEED = 20160211


# -- landing: N planes on one runway ------------------------------------------


@dataclass(frozen=True)
class Plane:
    """One aircraft: land early in [earliest, target] or late in [target, latest].

    Landing early at time t costs ``early_rate * (target - t)`` (the plane
    waits in its early slot until the target time); landing late costs
    ``late_weight + late_rate * (t - target)``.
    """

    earliest: int
    target: int
    latest: int
    early_rate: int
    late_rate: int
    late_weight: int


SEPARATION = 1

# Plane profiles (target offset, early rate, late rate, late weight) of the
# landing models: two with N = 2, one with N = 3 and one with N = 4.  Every
# profile has two planes on the same target, so the windows contend and the
# optimum is nonzero.  The profiles are fixed so that the work of a round
# does not depend on the seed: with seeded random windows one N = 4 model
# took from 22 to 84 CPU seconds, and a second N = 3 profile whose work
# moved 10% with the plane order was dropped.
LANDING_PROFILES = (
    ((0, 2, 3, 1), (0, 2, 3, 1)),
    ((0, 1, 3, 1), (0, 3, 2, 0)),
    ((0, 2, 3, 1), (0, 2, 3, 1), (1, 1, 2, 0)),
    ((0, 2, 3, 1), (0, 2, 3, 1), (2, 1, 2, 0), (4, 1, 2, 0)),
)
LANDING_MAX_SHIFT = 3


def landing_planes(rng: random.Random, profile) -> tuple[Plane, ...]:
    """A profile's planes, shifted in time and listed in a seeded order.

    The seed moves every target by the same 0..LANDING_MAX_SHIFT time units
    (the zone graph is the same up to translation) and permutes the planes
    (the product and its edge order change, the optimum does not).  Every
    window is [target - 1, target + 1].
    """
    shift = rng.randint(0, LANDING_MAX_SHIFT)
    planes = []
    for offset, early_rate, late_rate, late_weight in profile:
        target = 2 + offset + shift
        planes.append(Plane(target - 1, target, target + 1, early_rate, late_rate, late_weight))
    rng.shuffle(planes)
    return tuple(planes)


def landing_text(planes: tuple[Plane, ...]) -> str:
    """The N-plane generalisation of ``models/als_small.wta``."""
    n = len(planes)
    out = [f"# {n} planes, one runway, separation {SEPARATION}",
           "clocks " + " ".join(f"t{i}" for i in range(1, n + 1)) + " c;"]
    for i, p in enumerate(planes, start=1):
        t = f"t{i}"
        out += [
            f"automaton plane{i}",
            f"  location appr{i} rate 0 invariant {t} <= {p.target} initial;",
            f"  location early{i} rate {p.early_rate} invariant {t} <= {p.target};",
            f"  location late{i} rate {p.late_rate} invariant {t} <= {p.latest};",
            f"  location done{i} rate 0 goal;",
            f"  edge appr{i} -> early{i} guard {t} >= {p.earliest} sync land!;",
            f"  edge appr{i} -> late{i} guard {t} = {p.target} weight {p.late_weight};",
            f"  edge early{i} -> done{i} guard {t} = {p.target};",
            f"  edge late{i} -> done{i} guard {t} <= {p.latest} sync land!;",
        ]
    out += [
        "automaton runway",
        "  location free rate 0 initial;",
        "  location busy rate 0;",
        "  edge free -> busy reset c sync land?;",
        f"  edge busy -> free guard c >= {SEPARATION};",
    ]
    return "\n".join(out) + "\n"


def landing_cost(p: Plane, t: int) -> int:
    """Cheapest cost of landing plane ``p`` at time ``t`` within its window."""
    if t <= p.target:
        return p.early_rate * (p.target - t)
    return p.late_weight + p.late_rate * (t - p.target)


def best_schedule_cost(planes: tuple[Plane, ...]) -> int | float:
    """Exact optimum by brute force over integer landing schedules.

    Guards are non-strict with integer constants and the separation
    constraints are differences, so an optimal schedule lies at an integral
    corner: searching integer landing times is exact.  +inf when no
    schedule keeps the landings ``SEPARATION`` apart.
    """
    best = math.inf
    for times in product(*[range(p.earliest, p.latest + 1) for p in planes]):
        ordered = sorted(times)
        if all(b - a >= SEPARATION for a, b in zip(ordered, ordered[1:])):
            best = min(best, sum(landing_cost(p, t) for p, t in zip(planes, times)))
    return best


def landing_models(seed: int, tiny: bool = False) -> list[tuple[str, str, int | float]]:
    """``(name, text, reference optimum)`` for each landing model."""
    rng = random.Random(f"landing/{seed}")
    out = []
    for k, profile in enumerate(LANDING_PROFILES[:1] if tiny else LANDING_PROFILES):
        planes = landing_planes(rng, profile)
        out.append((f"landing{k}_n{len(planes)}", landing_text(planes),
                    best_schedule_cost(planes)))
    return out


# -- unbounded: fig2right with the loop constant scaled up ---------------------

# Base loop constants.  The seed moves each one to the pair K-d, K+d, which
# keeps the workload's total work (quadratic in K) within a fraction of a
# percent of the base while changing every input.  Three sizes put the
# median operation inside the middle group.
UNBOUNDED_BASE_K = (20, 45, 70)
UNBOUNDED_TINY_K = (4, 6, 8)
UNBOUNDED_MAX_SHIFT = 3


def unbounded_text(k: int, rate: int) -> str:
    return (
        f"# fig2right, loop constant {k}, rate {rate}\n"
        "clocks x y;\n"
        "automaton fig2right\n"
        f"  location l0 rate {rate} initial;\n"
        f"  location done rate {rate} goal;\n"
        "  edge l0 -> l0 guard x = 1 reset x;\n"
        f"  edge l0 -> done guard y >= {k} && x = 1 weight 1;\n"
    )


def unbounded_reference(k: int, rate: int) -> int:
    """Closed form: the goal edge costs 1; time accrues only at rate 1, for K units."""
    return 1 + rate * k


def unbounded_models(seed: int, tiny: bool = False) -> list[tuple[str, str, int]]:
    rng = random.Random(f"unbounded/{seed}")
    out = []
    for base in UNBOUNDED_TINY_K if tiny else UNBOUNDED_BASE_K:
        d = rng.randint(1, UNBOUNDED_MAX_SHIFT)
        for k in (base - d, base + d):
            for rate in (0, 1):
                out.append((f"fig2right_k{k}_r{rate}", unbounded_text(k, rate),
                            unbounded_reference(k, rate)))
    return out


# -- random: small flat automata ------------------------------------------------

RANDOM_CORPUS_SIZE = 300
RANDOM_TINY_SIZE = 8


def _random_guard(rng: random.Random, clocks, cmax: int, atoms: int):
    out = []
    for _ in range(atoms):
        op = rng.choice(["<", "<=", "=", ">=", ">"])
        lo = 1 if op in ("<",) else 0
        out.append((rng.choice(clocks), op, rng.randint(lo, cmax)))
    return tuple(out)


def random_automaton(rng: random.Random, *, max_clocks: int = 3, max_locations: int = 6,
                     cmax: int = 5, wmax: int = 5):
    """One flat automaton drawn by the law of the test suite's random generator.

    The draws are made in the same order as there, so one ``random.Random``
    state gives the same automaton; the copy keeps the workload fixed when
    the tests change.  Returns ``(clocks, locations, edges)`` as plain tuples.
    """
    n_clocks = rng.randint(1, max_clocks)
    clocks = tuple(f"x{i}" for i in range(n_clocks))
    n_loc = rng.randint(2, max_locations)
    names = [f"l{i}" for i in range(n_loc)]
    goal = rng.choice(names[1:])
    locations = []
    for i, name in enumerate(names):
        inv = ()
        if rng.random() < 0.2:
            inv = ((rng.choice(clocks), "<=", rng.randint(1, cmax)),)
        locations.append((name, rng.randint(0, wmax), inv, name == goal, i == 0))
    edges = []
    backbone = [names[0]] + rng.sample(names[1:], rng.randint(0, n_loc - 2)) + [goal]
    for src, dst in zip(backbone, backbone[1:]):
        guard = _random_guard(rng, clocks, cmax, rng.randint(0, 1))
        guard = tuple(at for at in guard if at[1] != "=")
        resets = tuple(c for c in clocks if rng.random() < 0.3)
        edges.append((src, dst, guard, resets, rng.randint(0, wmax)))
    for _ in range(rng.randint(0, n_loc + 1)):
        src = rng.choice(names)
        dst = rng.choice(names)
        guard = _random_guard(rng, clocks, cmax, rng.randint(0, 2))
        resets = tuple(c for c in clocks if rng.random() < 0.3)
        edges.append((src, dst, guard, resets, rng.randint(0, wmax)))
    return clocks, locations, edges


def automaton_text(clocks, locations, edges) -> str:
    def guard_text(guard):
        return " && ".join(f"{c} {op} {k}" for c, op, k in guard)

    out = ["clocks " + " ".join(clocks) + ";", "automaton rnd"]
    for name, rate, inv, is_goal, is_initial in locations:
        line = f"  location {name} rate {rate}"
        if inv:
            line += " invariant " + guard_text(inv)
        if is_goal:
            line += " goal"
        if is_initial:
            line += " initial"
        out.append(line + ";")
    for src, dst, guard, resets, weight in edges:
        line = f"  edge {src} -> {dst}"
        if guard:
            line += " guard " + guard_text(guard)
        if resets:
            line += " reset " + ",".join(resets)
        if weight:
            line += f" weight {weight}"
        out.append(line + ";")
    return "\n".join(out) + "\n"


def random_models(seed: int, tiny: bool = False,
                  corpus_seed: int = DEFAULT_SEED) -> list[tuple[str, str, None]]:
    """The corpus drawn from ``corpus_seed``, presented in an order drawn from ``seed``.

    The run seed shuffles the order of the models and, inside each model,
    the declaration order of its clocks and locations.  None of that changes
    a model's optimum, and it keeps the round's work close to constant: the
    corpus itself is heavy-tailed (a few models out of 300 take up to a
    third of the time), so a fresh corpus per run moved the round's CPU time
    by up to 50% from seed to seed.  Edge order is kept: shuffling it moved
    the number of inclusion tests by 20%.  The reference optimum comes from
    the corner-point oracle.
    """
    law = random.Random(corpus_seed)
    order = random.Random(f"random/{seed}")
    out = []
    for i in range(RANDOM_TINY_SIZE if tiny else RANDOM_CORPUS_SIZE):
        clocks, locations, edges = random_automaton(law)
        clocks, locations, edges = list(clocks), list(locations), list(edges)
        order.shuffle(clocks)
        order.shuffle(locations)
        out.append((f"random{i}", automaton_text(clocks, locations, edges), None))
    order.shuffle(out)
    return out


GENERATORS = {
    "landing": landing_models,
    "unbounded": unbounded_models,
    "random": random_models,
}
