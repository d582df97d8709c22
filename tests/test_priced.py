from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from grid_oracles import fiber_min, random_cost, random_point, random_zone
from zonecost.dbm import INF, NEG_INF, Zone, bound_value
from zonecost.priced import (
    AffineCost,
    PricedZone,
    add_weight,
    constrain,
    delay_successors,
    is_lower_bounded,
    mincost,
    reset_successors,
)

XY = ("x", "y")


def fig4_priced(const=0, coeffs=None) -> PricedZone:
    z = Zone.from_constraints(
        XY, [(None, "y", -1, False), ("x", "y", 0, False), ("y", "x", 2, False)]
    )
    return PricedZone(z, AffineCost.of(XY, coeffs or {}, const))


def test_evaluate():
    assert AffineCost.zero(XY).evaluate({"x": 3, "y": 4}) == 0
    assert AffineCost.of(("x",), {"x": 5}).evaluate({"x": F(1, 10)}) == F(1, 2)
    assert AffineCost.of(XY, {"x": 1, "y": 1}).evaluate({"x": 2, "y": 3}) == 5
    assert AffineCost.bottom(XY).evaluate({"x": 0, "y": 0}) == NEG_INF


def test_of_keeps_integral_values_as_int():
    cost = AffineCost.of(XY, {"x": F(4, 2), "y": F(1, 2)}, F(6, 3))
    assert type(cost.coeff("x")) is int and cost.coeff("x") == 2
    assert cost.coeff("y") == F(1, 2)
    assert type(cost.const) is int and cost.const == 2
    with pytest.raises(TypeError):
        AffineCost.of(XY, {"x": 0.1})
    with pytest.raises(TypeError):
        AffineCost.of(XY, {}, 0.5)


def test_mincost():
    assert mincost(PricedZone.initial(XY)) == 0
    halfline = Zone.from_constraints(("x",), [])
    assert mincost(PricedZone(halfline, AffineCost.of(("x",), {"x": -1}))) == NEG_INF
    seg = Zone.from_constraints(("x",), [(None, "x", -1, False), ("x", None, 2, False)])
    assert mincost(PricedZone(seg, AffineCost.of(("x",), {"x": 2}, 1))) == 3


def test_is_lower_bounded():
    assert is_lower_bounded(fig4_priced(7))
    halfline = Zone.from_constraints(("x",), [])
    assert not is_lower_bounded(PricedZone(halfline, AffineCost.of(("x",), {"x": -1})))
    # along the only recession ray (1,1) the derivative of 2x - y is positive
    assert is_lower_bounded(fig4_priced(0, {"x": 2, "y": -1}))


def test_constrain():
    pz = fig4_priced(3)
    assert constrain(pz, []) == pz
    origin = PricedZone.initial(XY)
    assert constrain(origin, [(None, "x", -1, False)]) is None
    cell = constrain(pz, [("x", None, 2, False), ("y", None, 3, False)])
    assert cell is not None and cell.cost == pz.cost


def test_add_weight():
    pz = fig4_priced(0)
    assert add_weight(pz, 0) == pz
    assert add_weight(pz, 7).cost.const == 7
    bot = PricedZone(pz.zone, AffineCost.bottom(XY))
    assert add_weight(bot, 5).cost.minus_infinity


def test_delay_origin_rate5_single_piece():
    pieces = delay_successors(PricedZone.initial(XY), 5)
    assert len(pieces) == 1
    (p,) = pieces
    assert p.zone == Zone.origin(XY).up()
    assert p.cost.coeff_map() == {"x": F(5), "y": F(0)}
    assert p.cost.const == 0


def test_delay_rate_equals_slope_single_piece():
    pz = fig4_priced(1, {"x": 2, "y": 3})
    pieces = delay_successors(pz, 5)
    assert len(pieces) == 1
    assert pieces[0].zone == pz.zone.up()
    assert pieces[0].cost == pz.cost


def test_delay_negative_rate_lower_facet():
    pz = PricedZone(Zone.origin(("x",)), AffineCost.zero(("x",)))
    pieces = delay_successors(pz, -1)
    assert len(pieces) == 1
    (p,) = pieces
    assert p.zone == Zone.from_constraints(("x",), [])
    assert p.cost.coeff_map() == {"x": F(-1)}
    assert not is_lower_bounded(p)


def _delay_cost_oracle(pz: PricedZone, rate: int, w: dict) -> F | float:
    """inf over backward diagonal entries, from the zone's raw bounds."""
    zone, cost = pz.zone, pz.cost
    n = len(zone.clocks) + 1
    lo, hi = F(0), None
    for c in zone.clocks:
        i = zone.idx(c)
        e = zone.m[i * n + 0]
        if e < INF:
            lo = max(lo, w[c] - bound_value(e))
        e = zone.m[0 * n + i]
        hi_c = w[c] + bound_value(e)
        hi = hi_c if hi is None else min(hi, hi_c)
    if hi is None or lo > hi:
        return float("inf")
    slope = F(rate) - cost.diagonal_slope()
    t = lo if slope >= 0 else hi
    return cost.evaluate({c: w[c] - t for c in zone.clocks}) + t * rate


def test_delay_pieces_cover_and_minimize():
    rng = random.Random(2024)
    for _ in range(40):
        zone = random_zone(rng, XY, 3)
        pz = PricedZone(zone, random_cost(rng, XY))
        rate = rng.randint(-4, 4)
        pieces = delay_successors(pz, rate)
        assert all(not p.zone.is_empty for p in pieces)
        up = zone.up()
        for _ in range(8):
            v = random_point(rng, zone)
            t = F(rng.randint(0, 8), 3)
            w = {c: v[c] + t for c in XY}
            assert up.contains(w)
            vals = [
                p.cost.evaluate(w) for p in pieces if p.zone.contains(w)
            ]
            assert vals, "piece cover misses a reachable point"
            assert min(vals) == _delay_cost_oracle(pz, rate, w)


def test_delay_mincost_monotone_for_nonnegative_rates():
    rng = random.Random(77)
    for _ in range(25):
        zone = random_zone(rng, XY, 3)
        pz = PricedZone(zone, random_cost(rng, XY))
        if not is_lower_bounded(pz):
            continue
        for rate in (0, 1, 3):
            for p in delay_successors(pz, rate):
                assert mincost(p) >= mincost(pz)


def test_reset_lower_facet():
    seg = Zone.from_constraints(("x",), [(None, "x", -1, False), ("x", None, 2, False)])
    pieces = reset_successors(PricedZone(seg, AffineCost.of(("x",), {"x": 2}, 1)), ["x"])
    assert len(pieces) == 1
    assert pieces[0].zone == Zone.origin(("x",))
    assert pieces[0].cost.coeff_map() == {"x": F(0)}
    assert pieces[0].cost.const == 3


def test_reset_upper_facet():
    seg = Zone.from_constraints(("x",), [(None, "x", -1, False), ("x", None, 2, False)])
    pieces = reset_successors(PricedZone(seg, AffineCost.of(("x",), {"x": -2}, 1)), ["x"])
    assert len(pieces) == 1
    assert pieces[0].cost.const == -3


def test_reset_unbounded_negative_gives_bottom():
    halfline = Zone.from_constraints(("x",), [(None, "x", -1, False)])
    pieces = reset_successors(PricedZone(halfline, AffineCost.of(("x",), {"x": -2}, 1)), ["x"])
    assert len(pieces) == 1
    assert pieces[0].cost.minus_infinity
    assert pieces[0].zone == Zone.origin(("x",))


def test_reset_pieces_realize_fiber_minimum():
    rng = random.Random(99)
    for _ in range(40):
        zone = random_zone(rng, XY, 3)
        pz = PricedZone(zone, random_cost(rng, XY))
        resets = rng.choice([("x",), ("y",), ("x", "y")])
        pieces = reset_successors(pz, resets)
        image = zone.reset(list(resets))
        assert all(not p.zone.is_empty for p in pieces)
        for _ in range(8):
            v = random_point(rng, zone)
            w = {c: (F(0) if c in resets else v[c]) for c in XY}
            assert image.contains(w)
            vals = []
            bottom = False
            for p in pieces:
                if p.zone.contains(w):
                    if p.cost.minus_infinity:
                        bottom = True
                    else:
                        vals.append(p.cost.evaluate(w))
            fixed = {c: v[c] for c in XY if c not in resets}
            want = fiber_min(zone, pz.cost, fixed, closed=True)
            if bottom:
                assert want == NEG_INF
            else:
                assert vals and min(vals) == want


def test_delay_empty_zone_raises():
    from zonecost.dbm import EmptyZoneError

    with pytest.raises(EmptyZoneError):
        delay_successors(PricedZone(Zone.empty(("x",)), AffineCost.zero(("x",))), 0)
