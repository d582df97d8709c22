"""Forward exploration of priced zones with a parameterized inclusion test.

The loop keeps the classical Waiting/Passed pair: a popped symbolic state
updates the best goal cost, is dropped when subsumed by a stored state of the
same location, and otherwise joins Passed while its successors join Waiting.
Strategies differ in the pop order.  ``best`` (the default) pops the state of
least ``mincost`` first, ties in insertion order: the minimal cost order of
Behrmann et al. (HSCC 2001).  With nonnegative weights no successor is
cheaper than its parent, so when pruning is on the loop stops at the first
popped state that cannot beat the best cost.  ``bfs`` and ``dfs`` pop in
queue and stack order; SBFS is BFS that also replaces subsumed Waiting
entries by the subsumer's successors at their queue positions.

Passed is append-only under every strategy: a stored state stays stored
when a later one includes it.  Inclusion is transitive, so whatever a stored
state covers its includer covers too; dropping it would change no answer to
"is this state included in a stored one?", and the same states are explored.
"""

from __future__ import annotations

import heapq
import itertools
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable

from .dbm import NEG_INF, POS_INF, Zone, inf_affine
from .inclusion import includes, simple_includes, uniform_bounds
from .model import Automaton, Location, Product, Run, edge_from, guard_constraints
from .priced import (
    AffineCost,
    PricedZone,
    add_weight,
    constrain,
    delay_successors,
    mincost,
    reset_successors,
)

DEFAULT_NEGATIVE_WEIGHT_CAP = 1_000_000
STRATEGIES = ("best", "bfs", "dfs", "sbfs")


class ConfigError(ValueError):
    pass


class WitnessError(RuntimeError):
    """A witness-extraction invariant failed: a bug, not a bad input."""


@dataclass(frozen=True)
class Config:
    """Exploration settings.

    A ``hint``, a known upper bound on the optimal cost, turns pruning on:
    with one set, :func:`explore` prunes by the best cost found so far and
    by the hint even when ``pruning`` is False, its default.  The CLI
    rejects ``--hint`` with ``--no-prune`` for that reason.
    """

    inclusion: str = "abstract"  # "abstract" | "simple"
    strategy: str = "best"  # one of STRATEGIES
    pruning: bool = False
    hint: Fraction | None = None
    uniform_m: bool = False
    iteration_cap: int | None = None
    time_cap: float | None = None


@dataclass
class Stats:
    added_to_waiting: int = 0
    added_to_passed: int = 0
    max_stored: int = 0
    tests: int = 0
    successful_tests: int = 0
    wall_time: float = 0.0


@dataclass
class SymbolicState:
    location: str
    pz: PricedZone
    entry: PricedZone  # pre-delay priced zone at this location (witness anchor)
    parent: "SymbolicState | None" = None
    edge_index: int | None = None


@dataclass
class Verdict:
    cost: Fraction | float  # a Fraction when finite, else POS_INF or NEG_INF
    terminated: bool
    stats: Stats
    witness_state: SymbolicState | None = None
    # stored states per location, in insertion order (append-only, see the
    # module docstring)
    passed: dict[str, list[SymbolicState]] = field(default_factory=dict)


def _arrive(loc: Location, pz: PricedZone, parent: SymbolicState | None = None,
            edge_index: int | None = None) -> list[SymbolicState]:
    """States entering ``loc`` with ``pz``: invariant, delay, invariant."""
    inv = guard_constraints(loc.invariant)
    entry = constrain(pz, inv)
    if entry is None:
        return []
    out = []
    for delayed in delay_successors(entry, loc.rate):
        settled = constrain(delayed, inv)
        if settled is not None:
            out.append(SymbolicState(loc.name, settled, entry, parent, edge_index))
    return out


def symbolic_post(a: Automaton | Product, s: SymbolicState) -> list[SymbolicState]:
    """Successors along every outgoing edge: guard, reset, weight, then arrival."""
    out: list[SymbolicState] = []
    for idx, edge in a.leaving(s.location):
        guarded = constrain(s.pz, guard_constraints(edge.guard))
        if guarded is None:
            continue
        target = a.location(edge.target)
        for piece in reset_successors(guarded, edge.resets):
            out += _arrive(target, add_weight(piece, edge.weight), s, idx)
    return out


def _initial_states(a: Automaton | Product) -> list[SymbolicState]:
    return _arrive(a.location(a.initial), PricedZone.initial(a.clocks))


def explore(
    a: Automaton | Product,
    cfg: Config = Config(),
    observer: Callable[[PricedZone, PricedZone, bool], None] | None = None,
    on_progress: Callable[[int, Fraction | float], None] | None = None,
) -> Verdict:
    """Optimal cost of reaching a goal location (Algorithm 1 style loop)."""
    if cfg.strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy '{cfg.strategy}'")
    if cfg.inclusion not in ("abstract", "simple"):
        raise ConfigError(f"unknown inclusion '{cfg.inclusion}'")
    negative = a.min_weight() < 0
    if negative and (cfg.pruning or cfg.hint is not None):
        raise ConfigError("pruning and hints are unsound with negative weights")
    cap = cfg.iteration_cap
    if negative and cap is None and cfg.time_cap is None:
        warnings.warn(
            "model has negative weights: termination is guaranteed only for "
            "cost functions with a uniform lower bound (e.g. nonnegative "
            "weights, or nonnegative cycle sums); applying a default "
            f"iteration cap of {DEFAULT_NEGATIVE_WEIGHT_CAP}",
            stacklevel=2,
        )
        cap = DEFAULT_NEGATIVE_WEIGHT_CAP

    m = a.max_constants()
    if cfg.uniform_m:
        m = uniform_bounds(m)
    abstract = cfg.inclusion == "abstract"

    # one object per zone value, so equal zones share inclusion's memo
    zones: dict[Zone, Zone] = {}

    def interned(states: list[SymbolicState]) -> list[SymbolicState]:
        for st in states:
            z = zones.setdefault(st.pz.zone, st.pz.zone)
            if z is not st.pz.zone:
                st.pz = PricedZone(z, st.pz.cost)
        return states

    stats = Stats()
    start = time.perf_counter()
    cost: int | Fraction | float = POS_INF
    best: SymbolicState | None = None
    passed: dict[str, list[SymbolicState]] = {}
    # "best" keeps a heap of (mincost, insertion number, state): the key is
    # computed once, at the push, and the number pops ties in insertion order
    # and keeps the states out of the comparison; the others keep a list
    best_first = cfg.strategy == "best"
    order = itertools.count()
    waiting: list = []

    def push(states: list[SymbolicState]) -> None:
        if not best_first:
            waiting.extend(states)
            return
        for st in states:
            heapq.heappush(waiting, (mincost(st.pz), next(order), st))

    push(interned(_initial_states(a)))
    stats.added_to_waiting = len(waiting)
    stats.max_stored = len(waiting)
    prune_enabled = cfg.pruning or cfg.hint is not None
    pops = 0
    terminated = True

    def test(x: PricedZone, y: PricedZone) -> bool:
        stats.tests += 1
        # looked up by the module's names, which the benchmark's tracer wraps
        r = includes(x, y, m) if abstract else simple_includes(x, y)
        if r:
            stats.successful_tests += 1
        if observer is not None:
            observer(x, y, r)
        return r

    while waiting:
        if cap is not None and pops >= cap:
            terminated = False
            break
        if cfg.time_cap is not None and time.perf_counter() - start > cfg.time_cap:
            terminated = False
            break
        if best_first:
            mc, _, s = heapq.heappop(waiting)
        else:
            s = waiting.pop() if cfg.strategy == "dfs" else waiting.pop(0)
            mc = mincost(s.pz)
        pops += 1
        if on_progress is not None:
            on_progress(pops, cost)
        if a.location(s.location).goal and mc < cost:
            cost = mc
            best = s
            if cost == NEG_INF:
                break  # nothing can improve on -oo
        if prune_enabled:
            # a hint is only an upper bound, so it prunes strictly; an achieved
            # cost cannot be improved by states at or above it
            if mc >= cost or (cfg.hint is not None and mc > cfg.hint):
                if best_first:
                    break  # pruning implies nonnegative weights: no later state is cheaper
                continue
        store = passed.setdefault(s.location, [])
        if any(test(s.pz, p.pz) for p in store):
            continue
        store.append(s)
        stats.added_to_passed += 1
        insert_at = None
        if cfg.strategy == "sbfs":
            kept = []
            for w in waiting:
                if w.location == s.location and test(w.pz, s.pz):
                    if insert_at is None:
                        insert_at = len(kept)
                    continue
                kept.append(w)
            waiting = kept
        successors = interned(symbolic_post(a, s))
        stats.added_to_waiting += len(successors)
        if insert_at is not None:
            waiting[insert_at:insert_at] = successors
        else:
            push(successors)
        stored = len(waiting) + stats.added_to_passed
        if stored > stats.max_stored:
            stats.max_stored = stored

    stats.wall_time = time.perf_counter() - start
    if cost not in (POS_INF, NEG_INF):
        cost = Fraction(cost)
    return Verdict(cost=cost, terminated=terminated, stats=stats,
                   witness_state=best, passed=passed)


# -- witness extraction ------------------------------------------------------------


def _pick_point(zone: Zone, cost: AffineCost,
                budget: Fraction) -> dict[str, int | Fraction]:
    """A point of the zone whose cost is within ``budget`` of the infimum.

    The LP vertex is integral and returned as is when the zone holds it;
    only a vertex on a strict bound is moved towards an interior point.
    """
    _, v = inf_affine(zone, cost.coeff_map(), cost.const)
    if v is None:
        raise WitnessError("cost must be bounded below on a witness zone")
    if zone.contains(v):
        return v
    interior = zone.sample_point()
    gap = cost.evaluate(interior) - cost.evaluate(v)
    lam = Fraction(1) if gap <= 0 else min(Fraction(1), budget / gap)
    return {c: v[c] + lam * (interior[c] - v[c]) for c in zone.clocks}


def _choose_delay(entry: PricedZone, rate: int, v: dict[str, int | Fraction],
                  budget: Fraction) -> int | Fraction:
    lo, lo_strict, hi, hi_strict = entry.zone.delay_interval(v)
    if hi is None:
        raise WitnessError("clocks are bounded below, so backward delay is bounded")
    slope = rate - entry.cost.diagonal_slope()
    want_lo = slope >= 0
    t, strict = (lo, lo_strict) if want_lo else (hi, hi_strict)
    if strict:
        room = Fraction(hi - lo) / 2  # exact even when both ends are ints
        shift = min(room, budget / (abs(slope) + 1))
        if shift <= 0:
            raise WitnessError("degenerate strict interval")
        t = t + shift if want_lo else t - shift
    return t


def _fiber_point(parent_zone: Zone, cost: AffineCost, fixed: dict[str, int | Fraction],
                 budget: Fraction) -> dict[str, int | Fraction]:
    """Cheapest-within-budget point of the zone matching ``fixed`` coordinates.

    A fractional fixed coordinate is made integral by scaling the zone by
    the denominators' lcm ``d``; with ``d == 1`` the zone and cost are used
    as they are.
    """
    d = lcm(*[f.denominator for f in fixed.values()], 1)
    zone, pick_cost = parent_zone, cost
    if d > 1:
        zone = parent_zone.scale(d)
        coeffs = {c: Fraction(k, d) for c, k in cost.coeff_map().items()}
        pick_cost = AffineCost.of(zone.clocks, coeffs, cost.const)
    constraints = []
    for c, val in fixed.items():
        iv = int(val * d)  # an int, as zone bounds are, also for an integral Fraction
        constraints.append((c, None, iv, False))
        constraints.append((None, c, -iv, False))
    fiber = zone.intersect(constraints)
    if fiber.is_empty:
        raise WitnessError("reset fiber must meet the guarded parent zone")
    w = _pick_point(fiber, pick_cost, budget)
    return w if d == 1 else {c: Fraction(w[c], d) for c in fiber.clocks}


def extract_witness(a: Automaton | Product, state: SymbolicState, eps: Fraction) -> Run:
    """A concrete run reaching the state's location within eps of its mincost.

    Delays are chosen backward along the recorded parent path by exact fiber
    minimization; strict bounds are approached to within the step budget.
    Points and delays stay integral until an interpolation off a strict
    bound, a strict delay or a fractional fiber coordinate makes a fraction;
    the run's delays are ``Fraction``s.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mincost(state.pz) == NEG_INF:
        raise ValueError("no finite witness: cost diverges to -oo")
    chain: list[SymbolicState] = []
    cur: SymbolicState | None = state
    while cur is not None:
        chain.append(cur)
        cur = cur.parent
    chain.reverse()
    budget = Fraction(eps) / (2 * len(chain) + 3)

    v = _pick_point(state.pz.zone, state.pz.cost, budget)
    delays: list[int | Fraction] = []
    for s in reversed(chain):
        rate = a.location(s.location).rate
        t = _choose_delay(s.entry, rate, v, budget)
        delays.append(t)
        u = {c: v[c] - t for c in v}
        if s.parent is None:
            if any(x != 0 for x in u.values()):
                raise WitnessError("root must rewind to the origin")
            break
        edge = edge_from(a, s.parent.location, s.edge_index)
        if edge is None:
            raise WitnessError("a state's edge must leave its parent's location")
        guarded = s.parent.pz.zone.intersect(guard_constraints(edge.guard))
        fixed = {c: u[c] for c in a.clocks if c not in edge.resets}
        v = _fiber_point(guarded, s.parent.pz.cost, fixed, budget)
    delays.reverse()
    steps = tuple(
        (Fraction(delays[i]), chain[i + 1].edge_index) for i in range(len(chain) - 1)
    )
    return Run(steps=steps, trailing_delay=Fraction(delays[-1]))
