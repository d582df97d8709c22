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
    """Intersect the zone with constraints; None when the result is empty."""
    z = pz.zone.intersect(guard)
    if z.is_empty:
        return None
    return PricedZone(z, pz.cost)


def add_weight(pz: PricedZone, w: int) -> PricedZone:
    return PricedZone(pz.zone, pz.cost.add_constant(w))


def _dominates(q: PricedZone, p: PricedZone) -> bool:
    """q makes p redundant: p's zone lies in q's with q never costlier on it."""
    if not p.zone.subset(q.zone):
        return False
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
    """Drop pieces that never realize the pointwise minimum (keep-first on ties)."""
    out: list[PricedZone] = []
    for p in pieces:
        if any(_dominates(q, p) for q in out):
            continue
        out = [q for q in out if not _dominates(p, q)]
        out.append(p)
    return out


def delay_successors(pz: PricedZone, rate: int) -> list[PricedZone]:
    """Pieces covering up(Z) whose pointwise minimum is the optimal delay cost.

    The entry time along the diagonal is minimal when ``rate`` exceeds the
    cost's diagonal slope (stay as late as possible on upper facets) and
    maximal otherwise (ride down to lower facets); diagonal constraints are
    delay-invariant and never pivot.
    """
    zone = pz.zone
    if zone.is_empty:
        raise EmptyZoneError("delay of an empty priced zone")
    up = zone.up()
    if pz.cost.minus_infinity:
        return [PricedZone(up, pz.cost)]
    d = rate - pz.cost.diagonal_slope()
    if d == 0:
        return [PricedZone(up, pz.cost)]

    n = len(zone.clocks) + 1
    pieces: list[PricedZone] = []
    if d > 0:
        on_facet = False
        for x in zone.clocks:
            i = zone.idx(x)
            e_up = zone.m[i * n + 0]
            if e_up >= INF:
                continue
            ub = bound_value(e_up)
            lb = -bound_value(zone.m[0 * n + i])
            if ub == lb:
                on_facet = True  # the cylinder piece already covers Z exactly
            for facet in zone.facets(x, "upper"):
                other, pivot = facet.pivot
                if other is not None:
                    continue  # only individual upper bounds block the diagonal
                piece_zone = facet.zone.up().intersect_zone(up)
                if piece_zone.is_empty:
                    continue
                cost = pz.cost.shear(x, d, pivot)
                pieces.append(PricedZone(piece_zone, cost))
        if not on_facet:
            pieces.insert(0, pz)
    else:
        for x in zone.clocks:
            for facet in zone.facets(x, "lower"):
                other, pivot = facet.pivot
                if other is not None:
                    continue
                piece_zone = facet.zone.up().intersect_zone(up)
                if piece_zone.is_empty:
                    continue
                cost = pz.cost.shear(x, d, pivot)
                pieces.append(PricedZone(piece_zone, cost))
    return _dedup(pieces)


def _clock_unbounded(zone: Zone, clock: str) -> bool:
    """No finite upper entry at all: every fiber along the clock is a half-line."""
    n = len(zone.clocks) + 1
    i = zone.idx(clock)
    return all(zone.m[i * n + j] >= INF for j in range(n) if j != i)


def reset_successors(pz: PricedZone, resets: Sequence[str]) -> list[PricedZone]:
    """Pieces covering reset(Z, Y) realizing the fiber minimum of the cost.

    Clocks are eliminated one at a time in declaration order: lower facets
    when the clock's coefficient is nonnegative, upper facets otherwise; a
    negative coefficient on a clock unbounded in the piece yields a -oo piece.
    """
    if pz.zone.is_empty:
        raise EmptyZoneError("reset of an empty priced zone")
    order = [c for c in pz.clocks if c in set(resets)]
    pieces = [pz]
    for x in order:
        nxt: list[PricedZone] = []
        for piece in pieces:
            image = piece.zone.reset([x])
            if piece.cost.minus_infinity:
                nxt.append(PricedZone(image, piece.cost))
                continue
            cx = piece.cost.coeff(x)
            if cx < 0 and _clock_unbounded(piece.zone, x):
                nxt.append(PricedZone(image, AffineCost.bottom(piece.clocks)))
                continue
            kind = "lower" if cx >= 0 else "upper"
            for facet in piece.zone.facets(x, kind):
                other, pivot = facet.pivot
                piece_zone = facet.zone.reset([x]).intersect_zone(image)
                if piece_zone.is_empty:
                    continue
                cost = piece.cost.substitute(x, other, pivot, drop=False)
                nxt.append(PricedZone(piece_zone, cost))
        pieces = _dedup(nxt)
    return pieces
