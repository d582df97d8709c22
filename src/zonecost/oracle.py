"""Corner-point abstraction: a finite weighted graph whose shortest path cost
equals the automaton's optimal reachability cost.

Nodes are (location, region, corner): regions are the classical equivalence
classes w.r.t. per-clock maximal constants (clocks beyond their constant
carry no fractional information), corners are the integral vertices of the
region's projection onto its bounded clocks.  Delay edges step between
corners (one time unit at the location's rate), between time-successor
regions sharing a corner (zero weight), and loop on the everything-beyond-M
region; discrete edges mirror the automaton's edges on regions.

Desk-scale ground truth only; never used inside the exploration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .dbm import NEG_INF, POS_INF
from .model import Automaton, Guard, Product

ABOVE = ("above",)


class OracleCapExceeded(RuntimeError):
    """The oracle hit its state cap or its deadline before finishing."""


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() >= deadline:
        raise OracleCapExceeded("corner-point oracle ran past its deadline")


@dataclass(frozen=True)
class Region:
    """Integral parts and fractional ordering of a clock valuation class.

    ``kinds[i]`` is ('int', k), ('frac', k) or ('above',) for the i-th clock;
    ``order`` lists the groups of frac clocks by increasing fractional part.
    """

    clocks: tuple[str, ...]
    kinds: tuple[tuple, ...]
    order: tuple[tuple[int, ...], ...]

    def bounded(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.kinds) if k != ABOVE)

    def is_all_above(self) -> bool:
        return all(k == ABOVE for k in self.kinds)


Corner = tuple[tuple[int, int], ...]  # ((clock index, value), ...) over bounded clocks


@dataclass(frozen=True)
class CornerState:
    location: str
    region: Region
    corner: Corner


def region_of(v: Mapping[str, Fraction | int], clocks: Iterable[str],
              m: Mapping[str, int | None]) -> Region:
    clocks = tuple(clocks)
    kinds = []
    fracs: list[tuple[Fraction, int]] = []
    for i, c in enumerate(clocks):
        val = Fraction(v[c])
        mc = m.get(c)
        if mc is None or val > mc:
            kinds.append(ABOVE)
            continue
        k = val.numerator // val.denominator
        f = val - k
        if f == 0:
            kinds.append(("int", k))
        else:
            kinds.append(("frac", k))
            fracs.append((f, i))
    fracs.sort()
    # merge equal fractional parts into groups, increasing
    merged: list[list[int]] = []
    last_f = None
    for f, i in fracs:
        if last_f is not None and f == last_f:
            merged[-1].append(i)
        else:
            merged.append([i])
        last_f = f
    return Region(clocks, tuple(kinds), tuple(tuple(sorted(g)) for g in merged))


def initial_region(clocks: Iterable[str], m: Mapping[str, int | None]) -> Region:
    clocks = tuple(clocks)
    kinds = tuple(ABOVE if m.get(c) is None else ("int", 0) for c in clocks)
    return Region(clocks, kinds, ())


def time_successor(region: Region, m: Mapping[str, int | None]) -> Region | None:
    """The next region under delay; None on the all-beyond-M fixpoint."""
    kinds = list(region.kinds)
    ints = [i for i, k in enumerate(kinds) if k[0] == "int"]
    if ints:
        fresh = []
        for i in ints:
            k = kinds[i][1]
            if k == m[region.clocks[i]]:
                kinds[i] = ABOVE
            else:
                kinds[i] = ("frac", k)
                fresh.append(i)
        order = ((tuple(sorted(fresh)),) if fresh else ()) + region.order
        return Region(region.clocks, tuple(kinds), order)
    if region.order:
        top = region.order[-1]
        for i in top:
            kinds[i] = ("int", kinds[i][1] + 1)
        return Region(region.clocks, tuple(kinds), region.order[:-1])
    return None


def corners(region: Region) -> list[Corner]:
    """Integral vertices of the closure of the region's bounded projection."""
    base = {i: kind[1] for i, kind in enumerate(region.kinds) if kind != ABOVE}
    out = []
    # all rounded down first; the order's groups are non-empty, so the
    # len(order) + 1 corners are pairwise distinct
    for threshold in range(len(region.order), -1, -1):
        corner = dict(base)
        for group in region.order[threshold:]:
            for i in group:
                corner[i] += 1
        out.append(tuple(sorted(corner.items())))
    return out


def region_satisfies(region: Region, guard: Guard) -> bool:
    for atom in guard:
        i = region.clocks.index(atom.clock)
        kind = region.kinds[i]
        c = atom.const
        if kind == ABOVE:
            ok = atom.op in (">", ">=")
        elif kind[0] == "int":
            ok = atom.holds({atom.clock: kind[1]})
        else:
            k = kind[1]  # value in (k, k+1)
            ok = {
                "<": k + 1 <= c,
                "<=": k + 1 <= c,
                "=": False,
                ">=": k >= c,
                ">": k >= c,
            }[atom.op]
        if not ok:
            return False
    return True


def reset_region(region: Region, resets: Iterable[str],
                 m: Mapping[str, int | None]) -> Region:
    idxs = {region.clocks.index(c) for c in resets}
    kinds = list(region.kinds)
    for i in idxs:
        kinds[i] = ABOVE if m[region.clocks[i]] is None else ("int", 0)
    order = tuple(
        g2 for g2 in (tuple(i for i in g if i not in idxs) for g in region.order) if g2
    )
    return Region(region.clocks, tuple(kinds), order)


def reset_corner(corner: Corner, region_after: Region, resets_idx: set[int]) -> Corner:
    vals = dict(corner)
    # clocks beyond M keep no coordinate
    return tuple((i, 0 if i in resets_idx else vals[i]) for i in region_after.bounded())


@dataclass
class CornerGraph:
    nodes: list[CornerState]
    edges: list[tuple[int, int, int]]  # (source index, target index, weight)
    initial: int | None
    index: dict[CornerState, int]


def build_corner_point(a: Automaton | Product, m: Mapping[str, int | None] | None = None,
                       cap: int = 10 ** 6, deadline: float | None = None) -> CornerGraph:
    """The weighted corner-point graph of an automaton or a product (lazy, reachable part).

    ``deadline`` is a ``time.perf_counter()`` value; past it, or beyond ``cap``
    corner states, the construction raises :class:`OracleCapExceeded`.
    """
    if m is None:
        m = a.max_constants()
    nodes: list[CornerState] = []
    index: dict[CornerState, int] = {}
    edges: list[tuple[int, int, int]] = []

    def get(node: CornerState) -> int:
        if node not in index:
            if len(nodes) >= cap:
                raise OracleCapExceeded(f"more than {cap} corner states")
            index[node] = len(nodes)
            nodes.append(node)
            todo.append(node)
        return index[node]

    r0 = initial_region(a.clocks, m)
    init_loc = a.location(a.initial)
    graph = CornerGraph(nodes, edges, None, index)
    if not region_satisfies(r0, init_loc.invariant):
        return graph
    c0: Corner = tuple(sorted((i, 0) for i in r0.bounded()))
    todo: list[CornerState] = []
    graph.initial = get(CornerState(a.initial, r0, c0))

    while todo:
        _check_deadline(deadline)
        node = todo.pop()
        u = index[node]
        loc = a.location(node.location)
        rate = loc.rate
        reg_corners = corners(node.region)
        # unit delay between corners of the same region
        bumped = tuple(sorted((i, v + 1) for i, v in node.corner))
        if bumped != node.corner and bumped in reg_corners:
            edges.append((u, get(CornerState(node.location, node.region, bumped)), rate))
        # time diverges inside the everything-beyond-M region
        if node.region.is_all_above():
            edges.append((u, u, rate))
        # zero-delay step to the time-successor region through a shared corner
        succ = time_successor(node.region, m)
        if succ is not None and region_satisfies(succ, loc.invariant):
            keep = set(succ.bounded())
            projected = tuple((i, v) for i, v in node.corner if i in keep)
            if projected in corners(succ):
                edges.append((u, get(CornerState(node.location, succ, projected)), 0))
        # discrete edges
        for _, e in a.leaving(node.location):
            if not region_satisfies(node.region, e.guard):
                continue
            target_inv = a.location(e.target).invariant
            r2 = reset_region(node.region, e.resets, m)
            if not region_satisfies(r2, target_inv):
                continue
            idxs = {a.clocks.index(c) for c in e.resets}
            c2 = reset_corner(node.corner, r2, idxs)
            if c2 not in corners(r2):
                raise RuntimeError("reset corner must be a corner of the reset region")
            edges.append((u, get(CornerState(e.target, r2, c2)), e.weight))
    return graph


def optimal_cost_cp(graph: CornerGraph, goal_locations: frozenset[str],
                    deadline: float | None = None) -> Fraction | float:
    """Shortest-path cost from the initial corner state to any goal location.

    -oo exactly when a negative cycle lies on some init-to-goal path; +oo when
    no goal corner state is reachable.  Past ``deadline`` (a
    ``time.perf_counter()`` value) it raises :class:`OracleCapExceeded`.
    """
    if graph.initial is None:
        return POS_INF
    n = len(graph.nodes)
    goal_nodes = {i for i, node in enumerate(graph.nodes) if node.location in goal_locations}
    if not goal_nodes:
        return POS_INF
    # all stored nodes are forward-reachable by construction
    radj: dict[int, list[int]] = {}
    for u, v, _ in graph.edges:
        radj.setdefault(v, []).append(u)
    coreach = set(goal_nodes)
    stack = list(goal_nodes)
    while stack:
        v = stack.pop()
        for u in radj.get(v, ()):
            if u not in coreach:
                coreach.add(u)
                stack.append(u)
    if graph.initial not in coreach:
        return POS_INF
    sub_edges = [(u, v, w) for u, v, w in graph.edges if u in coreach and v in coreach]
    dist: dict[int, int | float] = {i: POS_INF for i in coreach}
    dist[graph.initial] = 0
    for _ in range(len(coreach) - 1):
        _check_deadline(deadline)
        changed = False
        for u, v, w in sub_edges:
            d = dist[u]
            if d != POS_INF and d + w < dist[v]:
                dist[v] = d + w
                changed = True
        if not changed:
            break
    for u, v, w in sub_edges:
        d = dist[u]
        if d != POS_INF and d + w < dist[v]:
            return NEG_INF  # relaxable after |V|-1 rounds: negative cycle on a path
    best = min((dist[g] for g in goal_nodes if g in dist), default=POS_INF)
    return Fraction(best) if best != POS_INF else POS_INF


def corner_point_cost(a: Automaton | Product, m: Mapping[str, int | None] | None = None,
                      cap: int = 10 ** 6, deadline: float | None = None) -> Fraction | float:
    graph = build_corner_point(a, m, cap, deadline)
    reached = {node.location for node in graph.nodes}
    return optimal_cost_cp(graph, frozenset(l for l in reached if a.location(l).goal), deadline)
