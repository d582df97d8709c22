from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from grid_oracles import brute_includes, random_priced_zone, random_zone
from zonecost.dbm import NEG_INF, Zone
from zonecost.inclusion import (
    LowerBoundViolation,
    clock_preorder,
    facet_reduce,
    includes,
    restrict_y,
    s_value,
    simple_includes,
    uniform_bounds,
    unpriced_m_inclusion,
)
from zonecost.priced import AffineCost, PricedZone

XY = ("x", "y")
M4 = {"x": 2, "y": 3}


def fig4_zone() -> Zone:
    return Zone.from_constraints(
        XY, [(None, "y", -1, False), ("x", "y", 0, False), ("y", "x", 2, False)]
    )


def priced(zone, coeffs=None, const=0) -> PricedZone:
    return PricedZone(zone, AffineCost.of(zone.clocks, coeffs or {}, const))


# -- cells -------------------------------------------------------------------


def test_restrict_y_fig4_all_four_cells_nonempty():
    z = fig4_zone()
    for y in [frozenset(), {"x"}, {"y"}, {"x", "y"}]:
        assert not restrict_y(z, frozenset(y), M4).is_empty


def test_restrict_y_cells_partition():
    rng = random.Random(17)
    import itertools

    for _ in range(20):
        z = random_zone(rng, XY, 3)
        m = {"x": rng.randint(0, 3), "y": rng.randint(0, 3)}
        from grid_oracles import random_point

        for _ in range(10):
            v = random_point(rng, z)
            members = [
                frozenset(y)
                for y in itertools.chain.from_iterable(
                    itertools.combinations(XY, r) for r in range(3)
                )
                if restrict_y(z, frozenset(y), m).contains(v)
            ]
            assert len(members) == 1
            assert members[0] == frozenset(c for c in XY if v[c] <= m[c])


def test_restrict_y_empty_inside_bound():
    z = Zone.origin(XY)
    assert restrict_y(z, frozenset(), M4).is_empty


def test_restrict_y_never_compared_clock():
    z = Zone.universal(XY)
    m = {"x": 1, "y": None}
    assert restrict_y(z, frozenset({"y"}), m).is_empty
    assert not restrict_y(z, frozenset({"x"}), m).is_empty


# -- clock preorder ------------------------------------------------------------


def test_preorder_fig4_only_reflexive():
    pre = clock_preorder(fig4_zone(), M4)
    assert pre.leq("x", "x") and pre.leq("y", "y")
    assert not pre.leq("x", "y") and not pre.leq("y", "x")
    assert pre.below_m == frozenset() and pre.above_m == frozenset()


def test_preorder_rule1_below_m():
    z = Zone.from_constraints(XY, [("x", None, 1, False)])
    pre = clock_preorder(z, {"x": 2, "y": 3})
    assert pre.leq("x", "y")
    assert "x" in pre.below_m


def test_preorder_uniform_total_on_reset_generated_zone():
    # zones from reset-only automata never cross the diagonal
    z = Zone.from_constraints(XY, [("x", "y", 0, False)])  # x <= y
    pre = clock_preorder(z, uniform_bounds({"x": 2, "y": 3}))
    assert pre.leq("x", "y") or pre.leq("y", "x")
    ys = list(pre.downward_closed_sets())
    assert len(ys) <= len(XY) + 1


def test_downward_closed_sets_counts():
    pre = clock_preorder(fig4_zone(), M4)
    assert [sorted(y) for y in pre.downward_closed_sets()] == [[], ["x"], ["y"], ["x", "y"]]
    chain = clock_preorder(Zone.from_constraints(XY, [("x", None, 2, False)]), M4)
    assert [sorted(y) for y in chain.downward_closed_sets()] == [[], ["x"], ["x", "y"]]


def test_downward_closed_sets_cover_all_nonempty_cells():
    rng = random.Random(23)
    import itertools

    for _ in range(40):
        z = random_zone(rng, XY, 3)
        m = {"x": rng.randint(0, 3), "y": rng.randint(0, 3)}
        yielded = set(clock_preorder(z, m).downward_closed_sets())
        for y in itertools.chain.from_iterable(
            itertools.combinations(XY, r) for r in range(3)
        ):
            if not restrict_y(z, frozenset(y), m).is_empty:
                assert frozenset(y) in yielded


# -- unpriced inclusion ----------------------------------------------------------


def test_unpriced_reflexive():
    z = fig4_zone()
    assert unpriced_m_inclusion(z, z, M4)


def test_unpriced_fig2right_consecutive_families():
    # bands x <= 1 && n <= y - x <= n + 1 for consecutive n at and beyond M(y)
    m = {"x": 1, "y": 10}

    def band(n):
        return Zone.from_constraints(
            XY, [("x", None, 1, False), ("y", "x", n + 1, False), ("x", "y", -n, False)]
        )

    for n in (11, 12, 15):
        assert unpriced_m_inclusion(band(n), band(n - 1), m)
    assert not unpriced_m_inclusion(band(9), band(8), m)


def test_unpriced_above_bound_point():
    z1 = Zone.from_constraints(("x",), [("x", None, 0, False)])
    z2 = Zone.from_constraints(("x",), [(None, "x", -3, False), ("x", None, 3, False)])
    m = {"x": 2}
    assert not unpriced_m_inclusion(z1, z2, m)
    assert unpriced_m_inclusion(z2, z1, m) is False


# -- facet reduction --------------------------------------------------------------


def test_facet_reduce_identity_when_nothing_to_eliminate():
    cell = restrict_y(fig4_zone(), frozenset(XY), M4)
    pz = priced(cell, {"x": 1, "y": 1})
    assert facet_reduce(pz, frozenset(XY)) == [(cell, pz.cost)]


def test_facet_reduce_one_clock_to_constant():
    z = Zone.from_constraints(("x",), [(None, "x", -2, True)])  # 2 < x
    pieces = facet_reduce(priced(z, {"x": 1}), frozenset())
    assert len(pieces) == 1
    zone, cost = pieces[0]
    assert zone.clocks == ()
    assert cost.const == 2 and not cost.coeffs


def test_facet_reduce_fig4a_strip():
    # cell with x <= 2 and y > 3: the fiber infimum of x + y realizes x + 3
    cell = restrict_y(fig4_zone(), frozenset({"x"}), M4)
    pieces = facet_reduce(priced(cell, {"x": 1, "y": 1}), frozenset({"x"}))
    closed = [(z.closure(), c) for z, c in pieces]
    for num in range(4, 9):  # sample x over the strip projection (1, 2]
        u = {"x": F(num, 4)}
        vals = [c.evaluate(u) for z, c in closed if z.contains(u)]
        assert vals and min(vals) == u["x"] + 3


def test_facet_reduce_requires_lower_bounded():
    z = Zone.from_constraints(("x",), [(None, "x", -3, True)])
    with pytest.raises(LowerBoundViolation):
        facet_reduce(priced(z, {"x": -1}), frozenset())


# -- S values -----------------------------------------------------------------------


def test_s_value_self_zero():
    z = fig4_zone()
    pz = priced(z, {"x": 1, "y": 1}, 2)
    for y in [frozenset(), frozenset({"x"}), frozenset({"y"}), frozenset(XY)]:
        val, _ = s_value(pz, pz, y, M4)
        assert val == 0


def test_s_value_fig4a():
    z = fig4_zone()
    a = priced(z, {}, 5)
    b = priced(z, {"x": 1, "y": 1})
    vals = {}
    for y in clock_preorder(z, M4).downward_closed_sets():
        vals[frozenset(y)] = s_value(a, b, y, M4)
    assert max(v for v, _ in vals.values()) == 0
    assert vals[frozenset(XY)] == (0, {"x": 2, "y": 3})


def test_s_value_fig4b():
    z = fig4_zone()
    a = priced(z, {}, 1)
    b = priced(z, {"x": 2, "y": -1})
    vals = {}
    for y in clock_preorder(z, M4).downward_closed_sets():
        vals[frozenset(y)] = s_value(a, b, y, M4)
    assert max(v for v, _ in vals.values()) == 1
    assert vals[frozenset(XY)] == (1, {"x": 2, "y": 2})


def test_s_value_empty_cell():
    z = Zone.origin(XY)
    pz = priced(z)
    assert s_value(pz, pz, frozenset(), M4)[0] == NEG_INF


# -- the decision procedures ---------------------------------------------------------


def test_includes_fig4():
    z = fig4_zone()
    assert includes(priced(z, {}, 5), priced(z, {"x": 1, "y": 1}), M4)
    assert not includes(priced(z, {}, 1), priced(z, {"x": 2, "y": -1}), M4)


def test_includes_relaxation_rules():
    half = Zone.from_constraints(("x",), [])
    seg = Zone.from_constraints(("x",), [("x", None, 3, False)])
    down = priced(half, {"x": -1})  # not lower-bounded
    flat = priced(half, {}, 0)
    assert not includes(down, flat, {"x": 2})
    assert includes(flat, down, {"x": 2})  # arbitrarily cheap matches exist
    assert includes(down, down, {"x": 2})
    bot = PricedZone(half, AffineCost.bottom(("x",)))
    assert includes(down, bot, {"x": 2})
    assert not includes(bot, flat, {"x": 2})
    # lower-bounded but pointwise worse: an ordinary cell comparison, not relaxation
    assert not includes(priced(seg, {"x": -1}), flat, {"x": 2})


def test_simple_includes_basics():
    z = fig4_zone()
    pz = priced(z, {"x": 1}, 1)
    assert simple_includes(pz, pz)
    bigger = priced(Zone.from_constraints(XY, [(None, "y", -1, False)]), {"x": 1}, 0)
    assert simple_includes(pz, bigger)
    assert not simple_includes(bigger, pz)


def test_simple_includes_fig2right_incomparable():
    m = {"x": 1, "y": 10}

    def band(n):
        return Zone.from_constraints(
            XY, [("x", None, 1, False), ("y", "x", n + 1, False), ("x", "y", -n, False)]
        )

    a, b = priced(band(12)), priced(band(11))
    assert not simple_includes(a, b)
    assert not simple_includes(b, a)
    assert includes(a, b, m)


def test_simple_implies_abstract_random():
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        a = random_priced_zone(rng, XY, 4)
        b = random_priced_zone(rng, XY, 4)
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        if simple_includes(a, b):
            checked += 1
            assert includes(a, b, m)
    assert checked >= 10


def test_includes_matches_brute_oracle_directed():
    cases = []
    z = fig4_zone()
    cases.append((priced(z, {}, 5), priced(z, {"x": 1, "y": 1}), M4, True))
    cases.append((priced(z, {}, 1), priced(z, {"x": 2, "y": -1}), M4, False))
    seg = Zone.from_constraints(("x",), [("x", None, 2, False)])
    half = Zone.from_constraints(("x",), [])
    cases.append((priced(seg), priced(half), {"x": 2}, True))
    cases.append((priced(half), priced(seg), {"x": 2}, False))
    for a, b, m, want in cases:
        assert includes(a, b, m) == want
        assert brute_includes(a, b, m) == want


def test_includes_uniform_bound_is_underapproximation():
    rng = random.Random(47)
    for _ in range(60):
        a = random_priced_zone(rng, XY, 4)
        b = random_priced_zone(rng, XY, 4)
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        if includes(a, b, uniform_bounds(m)):
            assert includes(a, b, m)


def test_includes_transitive_on_weakened_chains():
    rng = random.Random(53)
    from grid_oracles import weaken

    for _ in range(60):
        a = random_priced_zone(rng, XY, 4)
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        b = weaken(rng, a)
        c = weaken(rng, b)
        assert includes(a, b, m)
        assert includes(b, c, m)
        assert includes(a, c, m)


def test_includes_mismatched_clocks_raises():
    with pytest.raises(ValueError):
        includes(priced(Zone.origin(("x",))), priced(Zone.origin(("y",))), {"x": 1, "y": 1})


# -- memoized derived data ---------------------------------------------------------


def _fresh(pz: PricedZone) -> PricedZone:
    return PricedZone(Zone(pz.zone.clocks, pz.zone.m), pz.cost)


def test_cell_memo_follows_m_by_value():
    # every answer changes from one M to the next, so a memo keyed on the
    # identity of M, or holding M itself rather than a copy, answers stale
    a = priced(Zone.from_constraints(
        XY, [("x", None, 2, False), (None, "x", -2, False), ("y", None, 3, False)]
    ), {"x": 2, "y": 2}, 1)
    b = priced(Zone.from_constraints(
        XY, [(None, "x", -1, False), ("y", "x", 0, False), ("x", "y", 2, False)]
    ), {"y": 1}, 3)
    ys = [frozenset(), frozenset({"x"}), frozenset({"y"}), frozenset(XY)]

    def answers(p, q, m):
        return (unpriced_m_inclusion(p.zone, q.zone, m), includes(p, q, m),
                [s_value(p, p, y, m)[0] for y in ys])

    per_clock = {"x": 1, "y": 3}
    uniform = uniform_bounds(per_clock)
    seen = []
    for step in range(3):
        if step == 2:
            uniform["y"] = 0
        m = per_clock if step == 0 else uniform
        got = answers(a, b, m)
        assert got == answers(_fresh(a), _fresh(b), m)
        seen.append(got)
    assert seen[0] != seen[1] != seen[2]


def test_cell_memo_invisible_to_eq_hash_repr():
    z = fig4_zone()
    pz = priced(z, {"x": 1, "y": -1}, 2)
    twin = _fresh(pz).zone
    before = (repr(z), hash(z))
    includes(pz, pz, M4)
    assert z._cells is not None and twin._cells is None
    assert (repr(z), hash(z)) == before
    assert z == twin and hash(z) == hash(twin) and repr(z) == repr(twin)
