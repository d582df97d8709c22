from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from grid_oracles import (
    all_facets, all_pairs_dedup, fiber_min, random_cost, random_point, random_zone,
)
from zonecost import inclusion, priced
from zonecost.dbm import INF, NEG_INF, Zone, bound_value
from zonecost.inclusion import LowerBoundViolation, clock_preorder, facet_reduce, restrict_y
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
XYZ = ("x", "y", "z")


def fig4_priced(const=0, coeffs=None) -> PricedZone:
    z = Zone.from_constraints(
        XY, [(None, "y", -1, False), ("x", "y", 0, False), ("y", "x", 2, False)]
    )
    return PricedZone(z, AffineCost.of(XY, coeffs or {}, const))


def without_dominant_bounds(monkeypatch):
    """Make every elimination and delay take the loop over all facets, as if
    no bound implied the others."""
    monkeypatch.setattr(Zone, "dominant_pivot", lambda zone, axis, kind: None)


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


def test_of_rejects_coefficients_on_unknown_clocks():
    with pytest.raises(ValueError, match="unknown clocks: y$"):
        AffineCost.of(("x",), {"y": 1})
    with pytest.raises(ValueError, match="unknown clocks: w, z$"):
        AffineCost.of(XY, {"x": 1, "z": 2, "w": 0})


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
    assert constrain(pz, []) is pz
    # the zone already implies y >= 1 and x - y <= 0
    assert constrain(pz, [(None, "y", -1, False), ("x", "y", 0, False)]) is pz
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


def _check_delay_pieces(rng: random.Random, pz: PricedZone, rate: int, points: int):
    """The pieces are non-empty and cover up(Z), each point at the oracle cost."""
    pieces = delay_successors(pz, rate)
    assert all(not p.zone.is_empty for p in pieces)
    up = pz.zone.up()
    for _ in range(points):
        v = random_point(rng, pz.zone)
        t = F(rng.randint(0, 8), 3)
        w = {c: v[c] + t for c in pz.clocks}
        assert up.contains(w)
        vals = [
            p.cost.evaluate(w) for p in pieces if p.zone.contains(w)
        ]
        assert vals, "piece cover misses a reachable point"
        assert min(vals) == _delay_cost_oracle(pz, rate, w)
    return pieces


def test_delay_pieces_cover_and_minimize():
    rng = random.Random(2024)
    for k in range(80):
        clocks = XY if k < 40 else XYZ
        zone = random_zone(rng, clocks, 3)
        pz = PricedZone(zone, random_cost(rng, clocks))
        if k % 8 == 7:
            pz = PricedZone(zone, AffineCost.bottom(clocks))
        _check_delay_pieces(rng, pz, rng.randint(-4, 4), 8)


def test_delay_pivots_on_clock_bounds_not_facets(monkeypatch):
    def no_facets(self, axis, kind):
        raise AssertionError("delay pivots on each clock's own bound")

    monkeypatch.setattr(Zone, "facets", no_facets)
    rng = random.Random(1703)
    for k in range(48):
        clocks = ("w", "x", "y", "z")[: 1 + k % 4]
        pz = PricedZone(random_zone(rng, clocks, 3), random_cost(rng, clocks))
        for rate in range(-3, 4):
            _check_delay_pieces(rng, pz, rate, 2)


def test_delay_fixed_clock_drops_the_zone_piece(monkeypatch):
    # x = 2 in Z, so the piece of x's upper bound covers Z exactly and Z is
    # not even a candidate piece for the loop's containment pass
    without_dominant_bounds(monkeypatch)
    compared = []
    subset = Zone.subset
    monkeypatch.setattr(
        Zone, "subset", lambda a, b: compared.extend((a, b)) or subset(a, b)
    )
    zone = Zone.from_constraints(
        XY, [("x", None, 2, False), (None, "x", -2, False), ("y", None, 3, False)]
    )
    pz = PricedZone(zone, AffineCost.of(XY, {"x": 1, "y": 1}, 1))
    pieces = _check_delay_pieces(random.Random(11), pz, 5, 30)  # rate 5 > slope 2
    assert compared
    assert pz not in pieces and zone not in compared


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
    # x is bounded through the diagonal x - y <= 2 alone: every fiber ends
    diagonal = Zone.from_constraints(XY, [("x", "y", 2, False)])
    pieces = reset_successors(PricedZone(diagonal, AffineCost.of(XY, {"x": -1})), ["x"])
    assert len(pieces) == 1
    assert not pieces[0].cost.minus_infinity
    assert pieces[0].cost == AffineCost.of(XY, {"y": -1}, -2)
    assert pieces[0].zone == Zone.from_constraints(XY, [("x", None, 0, False)])


def test_reset_skips_facets_through_a_clock_reset_earlier(monkeypatch):
    # x is reset first, so y's lower facet y - x = 0 is the zone of y = 0:
    # Zone.facets offers only the first, while both lower facets of x are
    without_dominant_bounds(monkeypatch)
    offered, used = [], []
    facets, substitute = Zone.facets, AffineCost.substitute

    def recording_facets(zone, axis, kind):
        found = facets(zone, axis, kind)
        offered.extend((axis, f.pivot) for f in found)
        return found

    def recording_substitute(cost, clock, other, value, drop):
        used.append((clock, (other, value)))
        return substitute(cost, clock, other, value, drop)

    monkeypatch.setattr(Zone, "facets", recording_facets)
    monkeypatch.setattr(AffineCost, "substitute", recording_substitute)
    zone = Zone.from_constraints(
        XY, [(None, "x", -1, False), ("x", None, 3, False), ("y", None, 2, False)]
    )
    pz = PricedZone(zone, AffineCost.of(XY, {"x": 1, "y": 1}))
    pieces = reset_successors(pz, ["x", "y"])
    assert pieces == [PricedZone(Zone.origin(XY), AffineCost.of(XY, {}, 1))]
    assert ("y", ("x", 0)) not in offered
    assert offered == [("x", (None, 1)), ("x", ("y", -1)), ("y", (None, 0))]
    assert used == [("x", (None, 1)), ("x", ("y", -1)), ("y", (None, 0))]


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


def _one_parent_zone(rng: random.Random, clocks: tuple[str, ...]) -> Zone:
    """A random zone, often with a zero-cycle class (x - y fixed) or a fixed clock."""
    while True:
        extra = []
        if len(clocks) > 1 and rng.random() < 0.3:
            a, b = rng.sample(clocks, 2)
            k = rng.randint(-2, 2)
            extra += [(a, b, k, False), (b, a, -k, False)]
        if rng.random() < 0.3:
            c, v = rng.choice(clocks), rng.randint(0, 3)
            extra += [(c, None, v, False), (None, c, -v, False)]
        zone = random_zone(rng, clocks, 4).intersect(extra)
        if not zone.is_empty:
            return zone


def _outcome(call):
    f, *args = call
    try:
        return f(*args)
    except LowerBoundViolation:
        return LowerBoundViolation


def _one_parent_calls(rng: random.Random) -> list[tuple]:
    """Delay at rates -4..4, two resets and a facet reduction of every cell,
    on 160 priced zones of 1-4 clocks, every eighth with the -oo cost."""
    calls = []
    for k in range(160):
        clocks = ("w", "x", "y", "z")[: 1 + k % 4]
        zone = _one_parent_zone(rng, clocks)
        cost = AffineCost.bottom(clocks) if k % 8 == 7 else random_cost(rng, clocks)
        pz = PricedZone(zone, cost)
        calls += [(delay_successors, pz, rate) for rate in range(-4, 5)]
        for _ in range(2):
            resets = rng.sample(clocks, rng.randint(1, min(3, len(clocks))))
            calls.append((reset_successors, pz, resets))
        m = {c: rng.randint(0, 4) for c in clocks}
        for y in clock_preorder(zone, m).downward_closed_sets():
            cell = restrict_y(zone, y, m)
            if not cell.is_empty:
                calls.append((facet_reduce, PricedZone(cell, cost), y))
    return calls


def test_one_parent_steps_match_the_cost_comparing_pass(monkeypatch):
    # _dedup compares no costs between pieces of one parent: delay and every
    # reset or facet-reduction step that starts from one piece deduplicate by
    # containment alone.  With the all-pairs cost-comparing pass in its place
    # every call returns the same pieces in the same order.  The loop over
    # all facets is what drops pieces, so no bound is taken as dominant
    without_dominant_bounds(monkeypatch)
    calls = _one_parent_calls(random.Random(20261019))
    # the pieces one-parent steps drop by containment alone, and the steps
    # whose pieces come from several parents
    dropped, several = Counter(), Counter()
    current = []
    dedup = priced._dedup

    def counting_dedup(groups):
        kept = dedup(groups)
        if len(groups) == 1:
            dropped[current[-1]] += len(groups[0]) - len(kept)
        else:
            several[current[-1]] += 1
        return kept

    monkeypatch.setattr(priced, "_dedup", counting_dedup)
    monkeypatch.setattr(inclusion, "_dedup", counting_dedup)
    got = []
    for call in calls:
        current.append(call[0])
        got.append(_outcome(call))

    def reference(groups):
        return all_pairs_dedup([p for group in groups for p in group])

    monkeypatch.setattr(priced, "_dedup", reference)
    monkeypatch.setattr(inclusion, "_dedup", reference)
    assert [_outcome(call) for call in calls] == got
    assert min(dropped[f] for f in (delay_successors, reset_successors, facet_reduce)) >= 100, (
        dropped)
    assert several[delay_successors] == 0, several
    assert min(several[f] for f in (reset_successors, facet_reduce)) >= 10, several


def test_dominant_bounds_give_the_pieces_of_the_loop(monkeypatch):
    # a bound implying every other of its kind has the facet (or delay face)
    # that contains all the others, so its one piece is all that the loop
    # over every facet and the containment pass keep: each call returns the
    # same pieces in the same order, or raises the same LowerBoundViolation,
    # when the query never finds a dominant bound
    calls = _one_parent_calls(random.Random(20261019))
    dominant = Zone.dominant_pivot
    # per function, the steps that found a dominant bound and those that did not
    found = Counter()
    current = []

    def counting(zone, axis, kind):
        pivot = dominant(zone, axis, kind)
        found[current[-1], pivot is not None] += 1
        return pivot

    monkeypatch.setattr(Zone, "dominant_pivot", counting)
    got = []
    for call in calls:
        current.append(call[0])
        got.append(_outcome(call))
    without_dominant_bounds(monkeypatch)
    assert [_outcome(call) for call in calls] == got
    assert got.count(LowerBoundViolation) >= 10
    assert min(found[f, taken] for f in (delay_successors, reset_successors, facet_reduce)
               for taken in (True, False)) >= 50, found


def test_facet_callers_match_the_facets_with_repeats(monkeypatch):
    # no caller is offered a facet zone twice, and with every tight entry's
    # facet offered, repeats included, each call returns the same result:
    # equal facet zones of one parent give equal pieces and _dedup keeps the
    # first, and vertices collect points in a set.  Only the loop over all
    # facets is offered them, so no bound is taken as dominant
    without_dominant_bounds(monkeypatch)
    rng = random.Random(20261021)
    calls = []
    for k in range(160):
        clocks = ("w", "x", "y", "z")[: 1 + k % 4]
        zone = _one_parent_zone(rng, clocks)
        cost = AffineCost.bottom(clocks) if k % 8 == 7 else random_cost(rng, clocks)
        pz = PricedZone(zone, cost)
        for _ in range(2):
            resets = rng.sample(clocks, rng.randint(1, min(3, len(clocks))))
            calls.append((reset_successors, pz, resets))
        m = {c: rng.randint(0, 4) for c in clocks}
        for y in clock_preorder(zone, m).downward_closed_sets():
            cell = restrict_y(zone, y, m)
            if not cell.is_empty:
                calls.append((facet_reduce, PricedZone(cell, cost), y))
        bounded = zone.intersect([(c, None, 6, False) for c in clocks])
        if not bounded.is_empty:
            calls.append((Zone.vertices, bounded))
    facets = Zone.facets

    def distinct_facets(zone, axis, kind):
        found = facets(zone, axis, kind)
        assert len({f.zone for f in found}) == len(found)
        return found

    monkeypatch.setattr(Zone, "facets", distinct_facets)
    got = [_outcome(call) for call in calls]
    # the calls whose facets, offered with repeats, hold two equal zones
    repeated = Counter()
    current = []

    def reference_facets(zone, axis, kind):
        found = all_facets(zone, axis, kind)
        repeated[current[-1]] += len({f.zone for f in found}) < len(found)
        return found

    monkeypatch.setattr(Zone, "facets", reference_facets)
    for call, expected in zip(calls, got):
        current.append(call[0])
        assert _outcome(call) == expected, call
    # vertices facets a quotient without zero-cycle classes, where no draw
    # here repeats a facet zone
    assert min(repeated[f] for f in (reset_successors, facet_reduce)) >= 50, repeated


def test_delay_empty_zone_raises():
    from zonecost.dbm import EmptyZoneError

    with pytest.raises(EmptyZoneError):
        delay_successors(PricedZone(Zone.empty(("x",)), AffineCost.zero(("x",))), 0)
