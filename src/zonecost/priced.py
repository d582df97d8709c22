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

from .dbm import (
    INF,
    NEG_INF,
    EmptyZoneError,
    Zone,
    bound_value,
    inf_affine,
    sup_affine,
)


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


def _dominates(q: PricedZone, p: PricedZone) -> bool:
    """q makes p redundant: p's zone lies in q's with q never costlier on it."""
    return p.zone.subset(q.zone) and _never_costlier(q, p)


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


def _dedup(pieces: list[PricedZone]) -> list[PricedZone]:
    """Drop pieces that never realize the pointwise minimum (keep-first on ties).

    The pass for pieces of several parents: the steps of
    :func:`reset_successors` and ``inclusion.facet_reduce`` that start from
    two or more pieces.  Each such piece is exact only for its own parent, so
    two pieces can disagree where their domains overlap, and dominance takes
    a cost comparison, an LP per contained pair.  Steps that start from one
    priced zone use :func:`_drop_contained`.
    """
    out: list[PricedZone] = []
    for p in pieces:
        if any(_dominates(q, p) for q in out):
            continue
        out = [q for q in out if not _dominates(p, q)]
        out.append(p)
    return out


def _drop_contained(pieces: list[PricedZone]) -> list[PricedZone]:
    """:func:`_dedup` for the pieces of one parent, by zone containment alone.

    A step that starts from one priced zone gives pieces that each equal the
    step's exact optimum on their whole closed domain (see
    :func:`delay_successors`, :func:`reset_successors` and
    ``inclusion.facet_reduce``).  Two such pieces agree wherever both are
    defined, so q dominates p exactly when p's zone lies in q's, and no cost
    is compared.  Such a step yields either one -oo piece or only finite
    ones, so the sentinel never meets a finite piece here.  Of two equal
    zones the first is kept, as :func:`_dedup` keeps it.
    """
    out: list[PricedZone] = []
    for p in pieces:
        if any(p.zone.subset(q.zone) for q in out):
            continue
        out = [q for q in out if not q.zone.subset(p.zone)]
        out.append(p)
    return out


def delay_successors(pz: PricedZone, rate: int) -> list[PricedZone]:
    """Pieces covering up(Z) whose pointwise minimum is the optimal delay cost.

    Reaching w by a delay t costs ``cost(w) + d * t`` with ``d = rate -
    slope``, the slope being the cost's along the diagonal, so the optimum
    takes the shortest delay when d > 0 and the longest when d < 0.
    Followed backward along the diagonal, a point leaves Z through a clock's
    own bound: an upper bound ``x = b`` when d > 0, a lower bound otherwise.
    Each bound gives the piece ``up(closure(Z) & {x = b}) & up(Z)`` with the
    cost sheared along x (Larsen et al., CAV 2001); Z itself leads the pieces
    of an increasing cost unless a clock is fixed in Z, which the bound
    pieces then cover.

    Every piece is the optimum on its whole closed domain, so containment
    alone deduplicates them (:func:`_drop_contained`).  For d > 0 the point
    on the face x = b is the first point of closure(Z) met going back along
    the diagonal, because any shorter delay puts x above b, so the sheared
    cost is the optimum; Z itself, at delay 0, is optimal too.  For d < 0
    the same argument holds with lower bounds.  Equal faces give equal
    pieces, so a face equal to an earlier one is skipped before its piece
    is built.
    """
    zone = pz.zone
    if zone.is_empty:
        raise EmptyZoneError("delay of an empty priced zone")
    up = zone.up()
    d = 0 if pz.cost.minus_infinity else rate - pz.cost.diagonal_slope()
    if d == 0:
        return [PricedZone(up, pz.cost)]

    n = len(zone.clocks) + 1
    closed = zone.closure()
    pieces: list[PricedZone] = []
    faces: set[Zone] = set()
    fixed = False
    for x in zone.clocks:
        i = zone.idx(x)
        e_up, e_lo = zone.m[i * n], zone.m[i]  # x <= ub, -x <= -lb
        fixed = fixed or (e_up < INF and bound_value(e_up) == -bound_value(e_lo))
        e = e_up if d > 0 else e_lo
        if e >= INF:
            continue
        b = bound_value(e) if d > 0 else -bound_value(e)
        face = closed.intersect([(x, None, b, False), (None, x, -b, False)])
        if face in faces:
            continue
        faces.add(face)
        piece_zone = face.up().intersect_zone(up)
        if not piece_zone.is_empty:
            pieces.append(PricedZone(piece_zone, pz.cost.shear(x, d, b)))
    if d > 0 and not fixed:
        pieces.insert(0, pz)
    return _drop_contained(pieces)


def reset_successors(pz: PricedZone, resets: Sequence[str]) -> list[PricedZone]:
    """Pieces covering reset(Z, Y) realizing the fiber minimum of the cost.

    Clocks are eliminated one at a time in declaration order: lower facets
    when the clock's coefficient is nonnegative, upper facets otherwise,
    skipping facets through a clock already reset; a negative coefficient
    on a clock unbounded in the piece yields a -oo piece.

    A step that starts from one piece gives pieces that are each the fiber
    minimum on their whole closed domain, so containment alone deduplicates
    them (:func:`_drop_contained`).  A point of the fiber on a lower facet
    ``x = other + pivot`` satisfies every lower bound of x, so it is the
    fiber's lowest point, which is the minimum when ``c_x >= 0``; upper
    facets serve ``c_x < 0`` alike.  Such a step yields either one -oo piece
    or only finite ones.  A step that starts from several pieces uses
    :func:`_dedup`, since pieces of different parents can disagree where
    their domains overlap.
    """
    if pz.zone.is_empty:
        raise EmptyZoneError("reset of an empty priced zone")
    order = [c for c in pz.clocks if c in set(resets)]
    pieces = [pz]
    for k, x in enumerate(order):
        nxt: list[PricedZone] = []
        for piece in pieces:
            image = piece.zone.reset([x])
            if piece.cost.minus_infinity:
                nxt.append(PricedZone(image, piece.cost))
                continue
            cx = piece.cost.coeff(x)
            # x >= 0 is a lower facet, so only an unbounded fiber has none
            facets = piece.zone.facets(x, "lower" if cx >= 0 else "upper")
            if not facets:
                nxt.append(PricedZone(image, AffineCost.bottom(piece.clocks)))
                continue
            for facet in facets:
                other, pivot = facet.pivot
                # a clock reset earlier is 0 here, so its facet repeats the
                # reference clock's, which comes first and wins the dedup
                if other in order[:k]:
                    continue
                piece_zone = facet.zone.reset([x]).intersect_zone(image)
                if piece_zone.is_empty:
                    continue
                cost = piece.cost.substitute(x, other, pivot, drop=False)
                nxt.append(PricedZone(piece_zone, cost))
        pieces = _drop_contained(nxt) if len(pieces) == 1 else _dedup(nxt)
    return pieces
