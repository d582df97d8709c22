"""Deciding inclusion between priced zones.

Two tests are provided: the classical one (zone containment plus pointwise
cost dominance) and the abstraction-based one parameterized by per-clock
maximal constants M.  The latter partitions each zone into cells whose clocks
are split into "still relevant" (<= M) and "beyond M" parts, eliminates the
beyond-M clocks through cost-minimizing facets, and compares the projected
cost functions cell by cell; a cell with a non-lower-bounded right-hand cost
passes outright, a non-lower-bounded left-hand cost against a bounded right
side fails outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .dbm import NEG_INF, Zone, encode, inf_affine, sup_affine
from .priced import AffineCost, PricedZone, is_lower_bounded

# Per-clock maximal constants; None encodes "never compared" (-oo).
MaxConstants = Mapping[str, int | None]


class LowerBoundViolation(ValueError):
    """A facet reduction was attempted on a non-lower-bounded cost."""


def uniform_bounds(m: MaxConstants) -> dict[str, int | None]:
    """Replace every bound by the global maximum (the coarse, total variant)."""
    finite = [v for v in m.values() if v is not None]
    if not finite:
        return dict(m)
    top = max(finite)
    return {c: top for c in m}


def restrict_y(zone: Zone, y: frozenset[str] | set[str], m: MaxConstants) -> Zone:
    """The cell of the zone that is below M exactly on Y (may be empty)."""
    constraints = []
    for x in zone.clocks:
        mx = m.get(x)
        if x in y:
            if mx is None:
                return Zone.empty(zone.clocks)
            constraints.append((x, None, mx, False))
        elif mx is not None:
            constraints.append((None, x, -mx, True))  # x > mx
    return zone.intersect(constraints)


@dataclass(frozen=True)
class ClockPreorder:
    """Reflexive-transitive relation on clocks guiding the cell enumeration."""

    clocks: tuple[str, ...]
    below: dict[str, frozenset[str]]  # below[y] = {x | x <= y}
    below_m: frozenset[str]
    above_m: frozenset[str]

    def leq(self, x: str, y: str) -> bool:
        return x in self.below[y]

    def downward_closed_sets(self) -> Iterator[frozenset[str]]:
        """All downward-closed clock sets, by increasing cardinality."""
        n = len(self.clocks)
        for r in range(n + 1):
            for combo in itertools.combinations(self.clocks, r):
                y = frozenset(combo)
                if all(self.below[c] <= y for c in combo):
                    yield y


def clock_preorder(zone: Zone, m: MaxConstants) -> ClockPreorder:
    """The least preorder compatible with the cell structure of the zone."""
    clocks = zone.clocks
    n = len(clocks) + 1
    above = set()
    below_m = set()
    for x in clocks:
        mx = m.get(x)
        if mx is None:
            above.add(x)  # every value exceeds -oo
            continue
        i = zone.idx(x)
        if zone.is_empty:
            above.add(x)
            below_m.add(x)
            continue
        if zone.m[0 * n + i] <= encode(-mx, True):  # z |= x > mx
            above.add(x)
        if zone.m[i * n + 0] <= encode(mx, False):  # z |= x <= mx
            below_m.add(x)
    rel = {(x, x) for x in clocks}
    for x in below_m:
        for y in clocks:
            rel.add((x, y))
    for y in above:
        for x in clocks:
            rel.add((x, y))
    rest = [x for x in clocks if x not in above]
    for x in rest:
        for y in rest:
            if x == y:
                continue
            bound = m[x] - m[y]  # both finite outside above_m
            if not zone.is_empty and zone.m[zone.idx(x) * n + zone.idx(y)] <= encode(bound, False):
                rel.add((x, y))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for y2, z in list(rel):
                if y == y2 and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    below = {
        y: frozenset(x for x in clocks if (x, y) in rel) for y in clocks
    }
    return ClockPreorder(clocks, below, frozenset(below_m), frozenset(above))


def m_cells(zone: Zone, m: MaxConstants) -> dict[frozenset[str], tuple[Zone, Zone]]:
    """The zone's non-empty cells under M: Y -> (cell, cell projected onto Y).

    Only downward-closed sets of the clock preorder can have non-empty cells,
    so the map holds every Y whose cell is non-empty.  The result is stored
    on the zone with a copy of M and reused while M compares equal, so each
    zone computes its cells once however many tests it takes part in.
    """
    memo = zone._cells
    if memo is not None and memo[0] == m:
        return memo[1]
    cells: dict[frozenset[str], tuple[Zone, Zone]] = {}
    if not zone.is_empty:
        for y in clock_preorder(zone, m).downward_closed_sets():
            cell = restrict_y(zone, y, m)
            if not cell.is_empty:
                cells[y] = (cell, cell.project([c for c in zone.clocks if c in y]))
    zone._cells = (dict(m), cells)
    return cells


def unpriced_m_inclusion(zone: Zone, other: Zone, m: MaxConstants) -> bool:
    """Every valuation of ``zone`` has an M-equivalent valuation in ``other``.

    Decided cell by cell through projections onto the below-M clocks.
    """
    if zone.clocks != other.clocks:
        raise ValueError("clock sets differ")
    theirs = m_cells(other, m)
    for y, (_, proj) in m_cells(zone, m).items():
        match = theirs.get(y)
        if match is None or not proj.subset(match[1]):
            return False
    return True


def facet_reduce(pz: PricedZone, y: frozenset[str] | set[str]) -> list[tuple[Zone, AffineCost]]:
    """Eliminate the beyond-M clocks of a cell through cost-minimizing facets.

    Returns pairs (zone over Y, affine cost over Y) whose pointwise minimum at
    each projected point is the infimum of the cost over the point's fiber.
    The cost must be lower-bounded on the cell.
    """
    if pz.cost.minus_infinity or not is_lower_bounded(pz):
        raise LowerBoundViolation("facet reduction needs a lower-bounded cost")
    keep = tuple(c for c in pz.clocks if c in set(y))
    pieces: list[tuple[Zone, AffineCost]] = [(pz.zone, pz.cost)]
    for x in pz.clocks:
        if x in set(y):
            continue
        nxt: list[tuple[Zone, AffineCost]] = []
        for zone, cost in pieces:
            cx = cost.coeff(x)
            kind = "lower" if cx >= 0 else "upper"
            remaining = [c for c in zone.clocks if c != x]
            for facet in zone.facets(x, kind):
                other, pivot = facet.pivot
                sub_zone = facet.zone.project(remaining)
                sub_cost = cost.substitute(x, other, pivot, drop=True)
                nxt.append((sub_zone, sub_cost))
        pieces = _dedup_pairs(nxt)
    return pieces


def _dedup_pairs(pieces: list[tuple[Zone, AffineCost]]) -> list[tuple[Zone, AffineCost]]:
    out: list[tuple[Zone, AffineCost]] = []
    for zone, cost in pieces:
        dup = False
        for z2, c2 in out:
            if zone != z2:
                continue
            diff = cost.minus(c2)
            hi, _ = sup_affine(zone, diff.coeff_map(), diff.const)
            if hi == 0:
                lo, _ = inf_affine(zone, diff.coeff_map(), diff.const)
                dup = lo == 0
            if dup:
                break
        if not dup:
            out.append((zone, cost))
    return out


def s_value(
    pz: PricedZone, other: PricedZone, y: frozenset[str] | set[str], m: MaxConstants
) -> tuple[Fraction | float, dict[str, int] | None]:
    """The per-cell supremum whose sign decides cell-wise inclusion.

    Requires the projection precondition and lower-bounded costs on both
    cells.  Returns the supremum together with an integral witness point over
    Y when finite; -oo when the left cell is empty.

    The right-hand fiber infimum is the pointwise minimum of its facet pieces
    (a convex function: pieces from different elimination chains disagree on
    overlapping domains), so the supremum is evaluated per left piece at the
    integral vertices of that piece's domain, taking the min over the right
    pieces covering each vertex.  A plain max over piece pairs would
    overestimate the supremum.
    """
    if pz.clocks != other.clocks:
        raise ValueError("clock sets differ")
    y = frozenset(y)
    mine = m_cells(pz.zone, m).get(y)
    if mine is None:
        return NEG_INF, None
    cell, proj = mine
    theirs = m_cells(other.zone, m).get(y)
    if theirs is None or not proj.subset(theirs[1]):
        raise ValueError("projection precondition violated")
    cell2 = theirs[0]
    left = facet_reduce(PricedZone(cell, pz.cost), y)
    right = [(z.closure(), c) for z, c in facet_reduce(PricedZone(cell2, other.cost), y)]
    best: Fraction | float = NEG_INF
    witness: dict[str, int] | None = None
    for fz, fc in left:
        for u0 in fz.vertices():
            covering = [c.evaluate(u0) for z, c in right if z.contains(u0)]
            if not covering:
                raise ValueError("projection precondition violated at a vertex")
            val = min(covering) - fc.evaluate(u0)
            if val > best:
                best, witness = val, u0
    return best, witness


def includes(pz: PricedZone, other: PricedZone, m: MaxConstants) -> bool:
    """The abstraction-based inclusion test between priced zones."""
    if pz.clocks != other.clocks:
        raise ValueError("clock sets differ")
    if pz.zone.is_empty:
        return True
    if not unpriced_m_inclusion(pz.zone, other.zone, m):
        return False
    left_lb = is_lower_bounded(pz)
    if not left_lb and is_lower_bounded(other):
        return False
    if other.cost.minus_infinity:
        return True
    theirs = m_cells(other.zone, m)
    for y, (cell, _) in m_cells(pz.zone, m).items():
        match = theirs.get(y)
        if match is None:  # cannot happen once the unpriced test passed
            return False
        right = PricedZone(match[0], other.cost)
        if not is_lower_bounded(right):
            continue  # an arbitrarily cheap match exists in the cell
        if pz.cost.minus_infinity or not is_lower_bounded(PricedZone(cell, pz.cost)):
            return False
        val, _ = s_value(pz, other, y, m)
        if val > 0:
            return False
    return True


def simple_includes(pz: PricedZone, other: PricedZone) -> bool:
    """Classical test: zone containment plus pointwise cost dominance."""
    if pz.clocks != other.clocks:
        raise ValueError("clock sets differ")
    if not pz.zone.subset(other.zone):
        return False
    if other.cost.minus_infinity:
        return True
    if pz.cost.minus_infinity:
        return False
    diff = other.cost.minus(pz.cost)
    hi, _ = sup_affine(pz.zone, diff.coeff_map(), diff.const)
    return hi <= 0
