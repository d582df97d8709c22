"""Deciding inclusion between priced zones.

Two tests are provided: the classical one (zone containment plus pointwise
cost dominance) and the abstraction-based one parameterized by per-clock
maximal constants M.  The latter partitions each zone into cells whose clocks
are split into "still relevant" (<= M) and "beyond M" parts, eliminates the
beyond-M clocks through cost-minimizing facets, and compares the projected
cost functions cell by cell through one per-cell value, :func:`s_value`.
It is total: a cell with a non-lower-bounded right-hand cost passes outright
(-oo), a non-lower-bounded left-hand cost against a bounded right side fails
outright (+oo).

Classical inclusion implies abstract inclusion, so the abstract test tries
the classical one first, once its unpriced half has passed, and computes
s-values only when the classical test fails (see :func:`includes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

# inf_affine, sup_affine and is_lower_bounded are not called here, but the
# benchmark's tracer wraps ``inclusion.inf_affine``, ``inclusion.sup_affine``
# and ``inclusion.is_lower_bounded`` by name, so the imports stay bound;
# facet_reduce finds an unbounded cost in its elimination, without an LP
from .dbm import NEG_INF, POS_INF, Zone, inf_affine, sup_affine  # noqa: F401
from .priced import (  # noqa: F401
    AffineCost, PricedZone, _dedup, _never_costlier, is_lower_bounded,
)

# Per-clock maximal constants; None encodes "never compared" (-oo).
MaxConstants = Mapping[str, int | None]


class LowerBoundViolation(ValueError):
    """A facet reduction met a fiber on which the cost has no lower bound."""


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

    def downward_closed_sets(self) -> list[frozenset[str]]:
        """All downward-closed clock sets, by increasing cardinality and,
        within one cardinality, in the clock order's lexicographic order.

        A down-set is the union of the ``below`` sets of its clocks, and a
        union of down-sets is one, so joining each clock's ``below`` set to
        every set found so far reaches them all, in work that follows their
        number rather than 2^n.  Joining whole ``below`` sets also covers a
        class of clocks each below the other (x <= y <= x), which no down-set
        can gain one clock at a time.
        """
        found = {frozenset()}
        for c in self.clocks:
            found |= {y | self.below[c] for y in found}
        order = {c: k for k, c in enumerate(self.clocks)}
        return sorted(found, key=lambda y: (len(y), sorted(map(order.__getitem__, y))))


def clock_preorder(zone: Zone, m: MaxConstants) -> ClockPreorder:
    """The least preorder compatible with the cell structure of the zone."""
    # x <= y when x <= M_x or y > M_y throughout the zone, or when neither is
    # > M throughout and the zone implies x - y <= M_x - M_y.  That is already
    # transitive on a canonical zone (m_xz <= m_xy + m_yz, Bengtsson & Yi
    # 2004): x - y <= M_x - M_y with y <= M_y gives x <= M_x, two difference
    # steps add up, and a clock > M throughout lies below only such clocks.
    clocks = zone.clocks
    # above: x > M_x throughout, always so when M_x is None (-oo); below_m: x <= M_x
    above = {x for x in clocks if m.get(x) is None or zone.implies(None, x, -m[x], True)}
    below_m = {x for x in clocks if m.get(x) is not None and zone.implies(x, None, m[x], False)}
    below = {
        y: frozenset(
            x for x in clocks
            if x == y or x in below_m or y in above
            or (x not in above and zone.implies(x, y, m[x] - m[y], False))
        )
        for y in clocks
    }
    return ClockPreorder(clocks, below)


def m_cells(zone: Zone, m: MaxConstants) -> dict[frozenset[str], tuple[Zone, Zone]]:
    """The zone's non-empty cells under M: Y -> (cell, cell projected onto Y),
    largest Y first.

    Only downward-closed sets of the clock preorder can have non-empty cells,
    so the map holds every Y whose cell is non-empty.  The cells come from the
    zone's memo, which builds each at most once under one M, but the map is
    new on every call, so a caller that changes it changes no later test.
    """
    memo = _memo(zone, m)
    return {y: cell for y in memo[1] if (cell := _cell(zone, memo, y)) is not None}


_UNBUILT = object()


def _memo(zone: Zone, m: MaxConstants) -> tuple[dict, dict, dict]:
    """The zone's derived data under M, kept in ``Zone._cells``: a copy of M,
    the cells of :func:`_cell`, and the reduced pieces of :func:`_reduced`.

    The cells dict has one key per candidate Y, the down-sets of
    :func:`clock_preorder`, largest first.  A projection onto more clocks
    keeps more of the zone's constraints, so in a failing unpriced test it
    is the one most likely to break inclusion, and the test tries it first.
    Each value starts as ``_UNBUILT`` and is filled on first read, so a test
    builds no cell it does not compare.

    Nothing in it refers back to the zone, so a zone never holds itself and
    is freed by reference counting: a zone that lies inside one cell, where
    ``restrict_y`` returns the zone itself, stores an equal copy as the cell.
    """
    memo = zone._cells
    if memo is not None and memo[0] == m:
        return memo
    cells: dict = {}
    if not zone.is_empty:
        ys = clock_preorder(zone, m).downward_closed_sets()
        cells = dict.fromkeys(sorted(ys, key=len, reverse=True), _UNBUILT)
    memo = zone._cells = (dict(m), cells, {})
    return memo


def _cell(zone: Zone, memo: tuple, y: frozenset[str]) -> tuple[Zone, Zone] | None:
    """The cell Y of the memo's zone and its projection onto Y, built from
    the memo's copy of M on first read; None when the cell is empty or Y is
    not a candidate."""
    entry = memo[1].get(y)
    if entry is _UNBUILT:
        cell = restrict_y(zone, y, memo[0])
        if cell is zone:
            cell = zone.project(zone.clocks)  # an equal copy
        entry = None
        if not cell.is_empty:
            entry = (cell, cell.project([c for c in zone.clocks if c in y]))
        memo[1][y] = entry
    return entry


def _reduced(
    zone: Zone, m: MaxConstants, y: frozenset[str], cost: AffineCost
) -> list[tuple[Zone, AffineCost]] | None:
    """The facet pieces of the zone's non-empty cell Y under the cost, closed,
    or None when the cost is not lower-bounded on the cell.

    Stored next to the zone's M-cells, so each (cell, cost, Y) is reduced,
    and its lower bound found, once however many tests it takes part in.
    """
    memo = _memo(zone, m)
    reduced = memo[2]
    key = (y, cost)
    if key not in reduced:
        cell = _cell(zone, memo, y)[0]
        try:
            reduced[key] = [(z.closure(), c) for z, c in facet_reduce(PricedZone(cell, cost), y)]
        except LowerBoundViolation:
            reduced[key] = None
    return reduced[key]


def unpriced_m_inclusion(zone: Zone, other: Zone, m: MaxConstants) -> bool:
    """Every valuation of ``zone`` has an M-equivalent valuation in ``other``.

    Decided cell by cell through projections onto the below-M clocks.  The
    zone's candidate Ys come largest first, the most constrained projection,
    so a failing test usually rejects on its first comparison.  Each cell is
    built when the walk first reaches it, and of the other zone only the
    cell of the same Y, none when that Y is not one of its candidates, so a
    rejecting test builds no cell it does not compare.  A zone includes
    itself, and exploration keeps one object per zone value, so identity
    answers without reading any cells.
    """
    if zone is other:
        return True
    if zone.clocks != other.clocks:
        raise ValueError("clock sets differ")
    mine = _memo(zone, m)
    theirs = _memo(other, m)
    for y in mine[1]:
        entry = _cell(zone, mine, y)
        if entry is None:
            continue
        match = _cell(other, theirs, y)
        if match is None or not entry[1].subset(match[1]):
            return False
    return True


def facet_reduce(pz: PricedZone, y: frozenset[str] | set[str]) -> list[tuple[Zone, AffineCost]]:
    """Eliminate the beyond-M clocks of a cell through cost-minimizing facets.

    Raises :class:`LowerBoundViolation` exactly when the cost's infimum over
    some fiber (the zone's points with one projection onto Y) is -oo, which
    on an M-cell, where the clocks of Y are bounded, means the cost is not
    bounded below.  Otherwise returns pairs (zone over Y, affine cost over Y)
    whose pointwise minimum at each projected point is its fiber infimum.

    After each elimination, pieces dominated by another piece (domain inside
    the other's, cost never below it there) are dropped.  That keeps the
    pointwise minimum and is sound on both sides of :func:`s_value`: a
    dominated left piece never attains the maximum of ``R - f_k``, since its
    dominator is defined wherever it is and costs no more; a dominated right
    piece lies inside its dominator's domain, so it never sets the minimum
    and never provides the only cover of a point.

    Each elimination's pieces are grouped by parent for ``priced._dedup``,
    which compares no costs between pieces of one parent: a point of the
    fiber on a lower facet ``x = other + pivot`` satisfies every lower bound
    of x, so it is the fiber's lowest point, which is the minimum when
    ``c_x >= 0``; upper facets serve ``c_x < 0`` alike.  Each piece of one
    parent is then the fiber minimum on its whole closed domain, and
    dominance between them is zone containment.

    As in ``priced.reset_successors``, a bound of x that implies all the
    others of its kind (:meth:`Zone.dominant_pivot`) has the facet that
    contains every other one and meets every fiber, so its projection is
    the closure's: that one piece, which the containment pass would keep
    alone, is built directly, with no facet zone.
    """
    if pz.cost.minus_infinity:
        raise LowerBoundViolation("facet reduction of the -oo cost")
    keep = set(y)
    pieces = [pz]
    for x in pz.clocks:
        if x in keep:
            continue
        nxt: list[list[PricedZone]] = []
        for p in pieces:
            kind = "lower" if p.cost.coeff(x) >= 0 else "upper"
            remaining = [c for c in p.clocks if c != x]
            dominant = p.zone.dominant_pivot(x, kind)
            if dominant is not None:
                nxt.append([PricedZone(p.zone.closure().project(remaining),
                                       p.cost.substitute(x, *dominant, drop=True))])
                continue
            facets = p.zone.facets(x, kind)
            if not facets:  # x >= 0 is a lower facet: x is unbounded and the cost falls
                raise LowerBoundViolation(f"the cost decreases along {x} without bound")
            nxt.append([
                PricedZone(facet.zone.project(remaining),
                           p.cost.substitute(x, *facet.pivot, drop=True))
                for facet in facets
            ])
        pieces = _dedup(nxt)
    return [(p.zone, p.cost) for p in pieces]


def s_value(
    pz: PricedZone, other: PricedZone, y: frozenset[str] | set[str], m: MaxConstants
) -> tuple[int | Fraction | float, dict[str, int] | None]:
    """The per-cell supremum whose sign decides cell-wise inclusion.

    Requires the projection precondition.  Returns the supremum together
    with an integral witness point over Y when finite.  The rules for costs
    unbounded below give no witness: -oo when the left cell is empty or the
    right cost is unbounded below on its cell, since an arbitrarily cheap
    match then exists, whatever the left cost; +oo when only the left cost
    is unbounded below.

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
    mine = _cell(pz.zone, _memo(pz.zone, m), y)
    if mine is None:
        return NEG_INF, None
    theirs = _cell(other.zone, _memo(other.zone, m), y)
    if theirs is None or not mine[1].subset(theirs[1]):
        raise ValueError("projection precondition violated")
    right = _reduced(other.zone, m, y, other.cost)
    if right is None:
        return NEG_INF, None
    left = _reduced(pz.zone, m, y, pz.cost)
    if left is None:
        return POS_INF, None
    best: int | Fraction | float = NEG_INF
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
    """The abstraction-based inclusion test between priced zones: the
    unpriced test, then a non-positive :func:`s_value` on every cell.

    The cells partition each zone, so lower-boundedness is decided per cell,
    by :func:`s_value`'s rules: a left cost unbounded below on the zone is
    unbounded below on some cell, and a right cost bounded below on the zone
    is bounded on every cell.

    Once the unpriced test passes, the classical test is a quick accept,
    since classical inclusion implies abstract inclusion.  Say Z lies in Z'
    and f' <= f on Z.  Each cell of Z lies in the same cell of Z', so the
    projections nest, and at each projected point the right fiber contains
    the left one, closed or not.  f' is nowhere higher there, so the right
    fiber infimum is at most the left one, and every s-value is <= 0.  The
    classical test costs one matrix compare and at most one LP, where the
    s-values reduce both costs cell by cell, so only the tests it leaves
    open compute them.
    """
    zone, other_zone = pz.zone, other.zone
    if zone.clocks != other_zone.clocks:
        raise ValueError("clock sets differ")
    if zone.is_empty:
        return True
    if not unpriced_m_inclusion(zone, other_zone, m):
        return False
    if other.cost.minus_infinity or simple_includes(pz, other):
        return True
    return all(s_value(pz, other, y, m)[0] <= 0 for y in _memo(zone, m)[1])


def simple_includes(pz: PricedZone, other: PricedZone) -> bool:
    """Classical test: zone containment plus pointwise cost dominance."""
    zone, other_zone = pz.zone, other.zone
    if zone.clocks != other_zone.clocks:
        raise ValueError("clock sets differ")
    return zone.is_empty or (zone.subset(other_zone) and _never_costlier(other, pz))
