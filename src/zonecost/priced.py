"""Priced zones: a zone paired with an affine cost-so-far function.

The successor operations split a priced zone into finitely many pieces whose
pointwise minimum is the exact optimal cost of the one-step image: delaying
enters the target valuation along the diagonal at the cheapest feasible time,
resetting a clock minimizes the cost over the preimage fiber through the
zone's facets.  All arithmetic is exact: zone bounds are integers, and cost
coefficients and constants are ``int``s, or ``Fraction``s only for rational
inputs, since integer rates and weights keep every delay, reset and weight
step integral.  Verdict costs and run delays, at the explorer's edge, are
``Fraction``s.  Non-lower-bounded costs are represented by a -oo sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dbm import NEG_INF, POS_INF, EmptyZoneError, Zone, inf_affine, sup_affine


@dataclass(frozen=True)
class AffineCost:
    """Affine function over clock valuations, or the -oo sentinel.

    The sentinel carries no coefficients.  Finite costs are exact: :meth:`of`
    stores integral values as ``int`` and keeps ``Fraction`` for the rest,
    and the operations below keep integer costs integral, so integer models
    never build a ``Fraction`` here.
    """

    clocks: tuple[str, ...]
    coeffs: tuple[int | Fraction, ...]
    const: int | Fraction
    minus_infinity: bool = False

    @staticmethod
    def of(clocks: Sequence[str], coeffs: Mapping[str, Fraction | int] | None = None,
           const: Fraction | int = 0) -> "AffineCost":
        cs = tuple(clocks)
        m = coeffs or {}
        unknown = sorted(set(m) - set(cs))
        if unknown:
            raise ValueError(f"coefficients on unknown clocks: {', '.join(unknown)}")
        return AffineCost(cs, tuple(_exact(m.get(c, 0)) for c in cs), _exact(const))

    @staticmethod
    def zero(clocks: Sequence[str]) -> "AffineCost":
        return AffineCost.of(clocks)

    @staticmethod
    def bottom(clocks: Sequence[str]) -> "AffineCost":
        """The MinusInfinity sentinel."""
        return AffineCost(tuple(clocks), (), 0, minus_infinity=True)

    def coeff(self, clock: str) -> int | Fraction:
        return self.coeffs[self.clocks.index(clock)]

    def coeff_map(self) -> dict[str, int | Fraction]:
        return dict(zip(self.clocks, self.coeffs))

    def evaluate(self, v: Mapping[str, Fraction | int]) -> int | Fraction | float:
        if self.minus_infinity:
            return NEG_INF
        return sum(
            (c * v[x] for x, c in zip(self.clocks, self.coeffs)), start=self.const
        )

    def add_constant(self, w: int | Fraction) -> "AffineCost":
        if self.minus_infinity:
            return self
        return AffineCost(self.clocks, self.coeffs, self.const + w)

    def diagonal_slope(self) -> int | Fraction:
        """Directional derivative along the uniform-delay direction."""
        return sum(self.coeffs)

    def shear(self, clock: str, delta: int | Fraction, anchor: int) -> "AffineCost":
        """Add ``delta * (clock - anchor)`` to the function."""
        i = self.clocks.index(clock)
        coeffs = list(self.coeffs)
        coeffs[i] += delta
        return AffineCost(self.clocks, tuple(coeffs), self.const - delta * anchor)

    def substitute(self, clock: str, other: str | None, value: int,
                   drop: bool) -> "AffineCost":
        """Substitute ``clock = value`` or ``clock = other + value``.

        With ``drop`` the clock leaves the function's domain (projection);
        otherwise its coefficient is zeroed (reset to the origin).
        """
        i = self.clocks.index(clock)
        cx = self.coeffs[i]
        if drop:
            clocks = self.clocks[:i] + self.clocks[i + 1:]
            coeffs = list(self.coeffs[:i] + self.coeffs[i + 1:])
        else:
            clocks = self.clocks
            coeffs = list(self.coeffs)
            coeffs[i] = 0
        const = self.const + cx * value
        if other is not None:
            j = clocks.index(other)
            coeffs[j] += cx
        return AffineCost(clocks, tuple(coeffs), const)

    def minus(self, other: "AffineCost") -> "AffineCost":
        if self.minus_infinity or other.minus_infinity:
            raise ValueError("cannot subtract sentinel costs")
        if self.clocks != other.clocks:
            raise ValueError("clock sets differ")
        return AffineCost(
            self.clocks,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            self.const - other.const,
        )


def _exact(x: int | Fraction) -> int | Fraction:
    """``x`` as an ``int`` when integral; a ``TypeError`` unless int or Fraction."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"costs must be int or Fraction, not {type(x).__name__}")


@dataclass(frozen=True)
class PricedZone:
    """A non-empty zone together with its optimal-cost-so-far function."""

    zone: Zone
    cost: AffineCost

    def __post_init__(self):
        if self.zone.clocks != self.cost.clocks and not self.cost.minus_infinity:
            raise ValueError("cost must be defined over the zone's clocks")

    @staticmethod
    def initial(clocks: Sequence[str]) -> "PricedZone":
        return PricedZone(Zone.origin(clocks), AffineCost.zero(clocks))

    @property
    def clocks(self) -> tuple[str, ...]:
        return self.zone.clocks


def mincost(pz: PricedZone) -> int | Fraction | float:
    """inf of the cost function over the zone; -oo for the sentinel."""
    if pz.cost.minus_infinity:
        return NEG_INF
    value, _ = inf_affine(pz.zone, pz.cost.coeff_map(), pz.cost.const)
    return value


def is_lower_bounded(pz: PricedZone) -> bool:
    return mincost(pz) != NEG_INF


def constrain(pz: PricedZone, guard: Iterable[tuple[str | None, str | None, int, bool]]):
    """Intersect the zone with constraints; None when the result is empty.

    Returns ``pz`` itself when the zone already implies every constraint.
    """
    z = pz.zone.intersect(guard)
    if z.is_empty:
        return None
    return pz if z is pz.zone else PricedZone(z, pz.cost)


def add_weight(pz: PricedZone, w: int) -> PricedZone:
    return PricedZone(pz.zone, pz.cost.add_constant(w))


def _never_costlier(q: PricedZone, p: PricedZone) -> bool:
    """q's cost is at most p's at every point of p's zone (non-empty)."""
    if q.cost.minus_infinity:
        return True
    if p.cost.minus_infinity:
        return False
    diff = q.cost.minus(p.cost)
    if not any(diff.coeffs):
        return diff.const <= 0  # the sup of a constant over a non-empty zone
    hi, _ = sup_affine(p.zone, diff.coeff_map(), diff.const)
    return hi <= 0


def _dedup(groups: list[list[PricedZone]]) -> list[PricedZone]:
    """A step's pieces, one list per parent piece, without those that never
    realize the pointwise minimum; the first is kept on ties.

    A piece q makes p redundant when p's zone lies in q's and q is never
    costlier there.  Each step of :func:`delay_successors`,
    :func:`reset_successors` and ``inclusion.facet_reduce`` gives, for one
    parent, pieces that each equal the parent's exact optimum on their whole
    closed domain, so two pieces of one parent agree wherever both are
    defined, and containment alone decides between them.  Pieces of
    different parents can disagree where their domains overlap, so between
    them the cost is compared as well, an LP per contained pair.
    """
    out: list[tuple[int, PricedZone]] = []
    for g, group in enumerate(groups):
        for p in group:
            if any(p.zone.subset(q.zone) and (h == g or _never_costlier(q, p))
                   for h, q in out):
                continue
            out = [(h, q) for h, q in out
                   if not (q.zone.subset(p.zone) and (h == g or _never_costlier(p, q)))]
            out.append((g, p))
    return [p for _, p in out]


def delay_successors(pz: PricedZone, rate: int,
                     invariant: Sequence[tuple[str | None, str | None, int, bool]] = ()
                     ) -> list[PricedZone]:
    """Pieces covering up(Z) & I whose pointwise minimum is the optimal
    delay cost, for an invariant I that Z satisfies.

    Reaching w by a delay t costs ``cost(w) + d * t`` with ``d = rate -
    slope``, the slope being the cost's along the diagonal, so the optimum
    takes the shortest delay when d > 0 and the longest when d < 0.
    Followed backward along the diagonal, a point leaves Z through a clock's
    own bound: an upper bound ``x = b`` when d > 0, a lower bound otherwise.
    Each bound gives the piece of the points that leave through it, with
    the cost sheared along x (Larsen et al., CAV 2001); Z itself leads the
    pieces of an increasing cost unless a clock is fixed in Z, which the
    bound pieces then cover.  Z satisfies I, and a delay keeps differences
    and lower bounds, so I only caps the delay: the pieces within I are the
    pieces cut by I (:meth:`Zone.up`).

    Each piece is a cut of up(Z), not built from a face.  Take d > 0 and
    w in up(Z), so w - s lies in Z for some s >= 0.  Going back from w, the
    diagonal enters closure(Z) through the clock x that maximises
    ``w_x - b_x``: at t = w_x - b_x every bounded y has ``w_y - t <= b_y``,
    and t <= s keeps the lower bounds and differences of w - s.  So x's
    piece, the points of up(Z) whose backward diagonal meets x's face, is
    ``up(Z) & {x >= b_x} & {x - y >= b_x - b_y for each bounded y}``; it
    is optimal on its whole closed domain, since any shorter delay puts x
    above b_x, and Z, at delay 0, is optimal too.  For d < 0 the diagonal
    leaves through the clock that minimises ``w_x - l_x`` over the lower
    bounds l, and x's piece is ``up(Z) & {x - y <= l_x - l_y for each y}``.
    Every piece is the optimum on its whole closed domain, so containment
    alone deduplicates them (:func:`_dedup`, one parent), and the invariant
    cuts the pieces after that pass, as cutting first can change which
    pieces it keeps.

    Often one clock's bound implies all the others (:meth:`Zone.dominant_pivot`
    of the reference clock, whose lower bounds are the clocks' upper bounds
    and whose upper bounds are their lower bounds).  Then the difference
    cuts of its piece are already implied, ``z_y - z_x <= b_y - b_x`` in
    Z for d > 0, so the piece is ``U & {x >= b_x}`` with U = up(Z) & I, and
    the containment pass would keep it alone: Z and it never contain each
    other, since the piece holds points above Z, and Z lies above x's
    bound only when x is fixed.  A fixed clock's cut holds all of Z, which
    only a dominant clock's piece contains, so a clock is fixed exactly
    when the dominant one is.  For d < 0 the dominant clock's piece is U
    itself, as every point of up(Z) goes back through x's lower bound.
    """
    zone = pz.zone
    if zone.is_empty:
        raise EmptyZoneError("delay of an empty priced zone")
    d = 0 if pz.cost.minus_infinity else rate - pz.cost.diagonal_slope()
    if d == 0:
        return [PricedZone(zone.up(invariant), pz.cost)]

    # the reference clock's lower bounds are the clocks' upper bounds
    dominant = zone.dominant_pivot(None, "lower" if d > 0 else "upper")
    if dominant is not None:
        x, value = dominant
        within = zone.up(invariant)
        if d < 0:
            return [PricedZone(within, pz.cost.shear(x, d, -value))]
        pieces = [pz] if zone.clock_bounds(x)[0] != -value else []
        piece_zone = within.intersect([(None, x, value, False)])
        if not piece_zone.is_empty:
            pieces.append(PricedZone(piece_zone, pz.cost.shear(x, d, -value)))
        return pieces

    up = zone.up()
    bounds = [(x, *zone.clock_bounds(x)) for x in zone.clocks]
    fixed = any(lower == upper for _, lower, upper in bounds)
    pieces = [pz] if d > 0 and not fixed else []
    for x, lx, ux in bounds:
        if d < 0:
            b = lx
            cut = [(x, y, lx - ly, False) for y, ly, _ in bounds if y != x]
        elif ux != POS_INF:
            b = ux
            cut = [(None, x, -ux, False)] + [
                (y, x, uy - ux, False) for y, _, uy in bounds if y != x and uy != POS_INF]
        else:
            continue
        piece_zone = up.intersect(cut)
        if not piece_zone.is_empty:
            pieces.append(PricedZone(piece_zone, pz.cost.shear(x, d, b)))
    return [p for p in (constrain(q, invariant) for q in _dedup([pieces])) if p is not None]


def reset_successors(pz: PricedZone, resets: Sequence[str]) -> list[PricedZone]:
    """Pieces covering reset(Z, Y) realizing the fiber minimum of the cost.

    Clocks are eliminated one at a time in declaration order: lower facets
    when the clock's coefficient is nonnegative, upper facets otherwise (a
    clock reset earlier is 0, so its facet is the reference clock's); a
    negative coefficient on a clock unbounded in the piece yields a -oo piece.

    Each step's pieces are grouped by parent for :func:`_dedup`.  The pieces
    of one parent are each the fiber minimum on their whole closed domain,
    so containment alone decides between them: a point of the fiber on a
    lower facet ``x = other + pivot`` satisfies every lower bound of x, so
    it is the fiber's lowest point, which is the minimum when ``c_x >= 0``;
    upper facets serve ``c_x < 0`` alike.  One parent yields either one -oo
    piece or only finite ones.

    Often one bound of x implies all the others of its kind
    (:meth:`Zone.dominant_pivot`).  Its facet then contains every other
    one, as ``z_x = z_k + p_k <= z_j + p_j <= z_x`` on facet k for lower
    bounds, so it meets every fiber: its piece is the whole image, and the
    containment pass would keep it alone.  That piece is built directly,
    with no facet zone.  A piece that equals it comes from a facet meeting
    every fiber, whose bound is dominant too, so the first dominant bound
    in :meth:`Zone.facets`' order gives the piece the pass keeps first.
    """
    if pz.zone.is_empty:
        raise EmptyZoneError("reset of an empty priced zone")
    order = [c for c in pz.clocks if c in set(resets)]
    pieces = [pz]
    for x in order:
        nxt: list[list[PricedZone]] = []
        for piece in pieces:
            group: list[PricedZone] = []
            nxt.append(group)
            image = piece.zone.reset([x])
            if piece.cost.minus_infinity:
                group.append(PricedZone(image, piece.cost))
                continue
            kind = "lower" if piece.cost.coeff(x) >= 0 else "upper"
            dominant = piece.zone.dominant_pivot(x, kind)
            if dominant is not None:
                group.append(PricedZone(image, piece.cost.substitute(x, *dominant, drop=False)))
                continue
            # x >= 0 is a lower facet, so only an unbounded fiber has none
            facets = piece.zone.facets(x, kind)
            if not facets:
                group.append(PricedZone(image, AffineCost.bottom(piece.clocks)))
                continue
            for facet in facets:
                other, pivot = facet.pivot
                piece_zone = facet.zone.reset([x]).intersect_zone(image)
                if piece_zone.is_empty:
                    continue
                cost = piece.cost.substitute(x, other, pivot, drop=False)
                group.append(PricedZone(piece_zone, cost))
        pieces = _dedup(nxt)
    return pieces
