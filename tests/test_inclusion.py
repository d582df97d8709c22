from __future__ import annotations

import gc
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import _bench_workloads, load_automaton
from grid_oracles import (
    _cell,
    brute_includes,
    combination_down_sets,
    eager_m_cells,
    fiber_min,
    random_point,
    random_priced_zone,
    random_zone,
    weaken,
)
from zonecost import inclusion, priced as priced_mod
from zonecost.dbm import INF, NEG_INF, POS_INF, Zone, bound_is_strict, bound_value, sup_affine
from zonecost.explorer import Config, explore
from zonecost.inclusion import (
    ClockPreorder,
    LowerBoundViolation,
    clock_preorder,
    facet_reduce,
    includes,
    m_cells,
    restrict_y,
    s_value,
    simple_includes,
    uniform_bounds,
    unpriced_m_inclusion,
)
from zonecost.model import compose, parse_model
from zonecost.priced import AffineCost, PricedZone, is_lower_bounded

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
    assert pre.below == {"x": frozenset({"x"}), "y": frozenset({"y"})}


def test_preorder_rule1_below_m():
    z = Zone.from_constraints(XY, [("x", None, 1, False)])
    pre = clock_preorder(z, {"x": 2, "y": 3})
    # x <= M_x throughout, so x lies below every clock
    assert pre.below == {"x": frozenset({"x"}), "y": frozenset(XY)}


def test_preorder_uniform_total_on_reset_generated_zone():
    # zones from reset-only automata never cross the diagonal
    z = Zone.from_constraints(XY, [("x", "y", 0, False)])  # x <= y
    pre = clock_preorder(z, uniform_bounds({"x": 2, "y": 3}))
    assert "x" in pre.below["y"] or "y" in pre.below["x"]
    ys = list(pre.downward_closed_sets())
    assert len(ys) <= len(XY) + 1


def _one_step_preorder(z: Zone, m: dict) -> dict[str, frozenset[str]]:
    # the transitive closure of the one-step rules, each decided by emptiness
    # of the zone conjoined with the rule's negation
    clocks = z.clocks
    below_m = {x for x in clocks if m[x] is not None
               and z.intersect([(None, x, -m[x], True)]).is_empty}  # never x > M_x
    above = {x for x in clocks if m[x] is None
             or z.intersect([(x, None, m[x], False)]).is_empty}  # never x <= M_x
    rel = {(x, y) for x in clocks for y in clocks
           if x == y or x in below_m or y in above
           or (x not in above and y not in above
               and z.intersect([(y, x, m[y] - m[x], True)]).is_empty)}
    for k, i, j in itertools.product(clocks, repeat=3):  # Warshall, k outermost
        if (i, k) in rel and (k, j) in rel:
            rel.add((i, j))
    return {y: frozenset(x for x in clocks if (x, y) in rel) for y in clocks}


def test_preorder_is_closure_of_one_step_rules():
    rng = random.Random(20261109)
    names = ("x", "y", "z", "w")
    seen = Counter()
    for _ in range(400):
        clocks = names[: rng.randint(1, 4)]
        if rng.random() < 0.08:
            z = Zone.empty(clocks)
        else:
            z = random_zone(rng, clocks, 3)
            for _ in range(rng.randint(0, 2)):  # equalities x = c and x - y = c
                a, b = rng.choice(clocks), rng.choice((None,) + clocks)
                c = rng.randint(-2, 3) if b is not None else rng.randint(0, 3)
                eq = z.intersect([(a, b, c, False), (b, a, -c, False)])
                z = z if eq.is_empty else eq
        m = {c: None if rng.random() < 0.15 else rng.randint(0, 3) for c in clocks}
        pre = clock_preorder(z, m)
        assert pre.below == _one_step_preorder(z, m)
        for x, y, w in itertools.product(clocks, repeat=3):
            if x in pre.below[y] and y in pre.below[w]:
                assert x in pre.below[w]
        n = len(clocks) + 1
        pairs = [] if z.is_empty else [
            (z.m[i * n + j], z.m[j * n + i]) for i, j in itertools.combinations(range(n), 2)
        ]
        seen["empty"] += z.is_empty
        seen["strict"] += any(e < INF and bound_is_strict(e) for pair in pairs for e in pair)
        seen["equality"] += any(
            e < INF and r < INF and bound_value(e) + bound_value(r) == 0 for e, r in pairs
        )
        seen["unknown"] += None in m.values()
        seen["partial"] += any(1 < len(b) < len(clocks) for b in pre.below.values())
    assert min(seen.values()) >= 25, seen


def test_downward_closed_sets_counts():
    pre = clock_preorder(fig4_zone(), M4)
    assert [sorted(y) for y in pre.downward_closed_sets()] == [[], ["x"], ["y"], ["x", "y"]]
    chain = clock_preorder(Zone.from_constraints(XY, [("x", None, 2, False)]), M4)
    assert [sorted(y) for y in chain.downward_closed_sets()] == [[], ["x"], ["x", "y"]]
    # both clocks above M throughout: one class x <= y <= x, which no
    # down-set reaches by adding one clock at a time
    above = Zone.from_constraints(XY, [(None, "x", -3, False), (None, "y", -4, False)])
    both = clock_preorder(above, M4)
    assert [sorted(y) for y in both.downward_closed_sets()] == [[], ["x", "y"]]


def _random_preorder(rng: random.Random, clocks: tuple[str, ...]) -> ClockPreorder:
    # a random relation, closed reflexively and transitively (Warshall)
    p = rng.random() / 2
    rel = {(x, y) for x in clocks for y in clocks if x == y or rng.random() < p}
    for k, i, j in itertools.product(clocks, repeat=3):
        if (i, k) in rel and (k, j) in rel:
            rel.add((i, j))
    return ClockPreorder(clocks, {y: frozenset(x for x in clocks if (x, y) in rel) for y in clocks})


def test_downward_closed_sets_match_combination_reference_random():
    # the construction against the 2^n subset loop it replaced: the same
    # list in the same order, on preorders with and without classes
    rng = random.Random(20261019)
    names = ("a", "b", "c", "d", "e", "f", "g")
    seen = Counter()
    for _ in range(1500):
        clocks = names[: rng.randint(1, 7)]
        pre = _random_preorder(rng, clocks)
        assert pre.downward_closed_sets() == combination_down_sets(pre), pre
        seen["class"] += any(
            x != y and x in pre.below[y] and y in pre.below[x] for x in clocks for y in clocks
        )
        seen["seven"] += len(clocks) == 7
    assert seen["class"] >= 300 and seen["seven"] >= 150, seen


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


def _unpriced_reference(zone: Zone, other: Zone, m: dict) -> bool:
    # no memo and no preorder: every Y, down-set or not, from the cell itself
    clocks = zone.clocks
    for r in range(len(clocks) + 1):
        for combo in itertools.combinations(clocks, r):
            y = frozenset(combo)
            mine = _cell(zone, y, m)
            if mine.is_empty:
                continue
            theirs = _cell(other, y, m)
            if theirs.is_empty:
                return False
            keep = [c for c in clocks if c in y]
            if any(a > b for a, b in zip(mine.project(keep).m, theirs.project(keep).m)):
                return False
    return True


def test_unpriced_matches_memo_free_reference_random():
    rng = random.Random(1515)
    seen = Counter()
    for _ in range(400):
        clocks = ("x", "y", "z", "w")[: rng.randint(1, 4)]
        p, q = random_zone(rng, clocks, 4), random_zone(rng, clocks, 4)
        if rng.random() < 1 / 3:
            p, q = p.up(), q.up()
        m = {c: rng.choice([None, 0, 1, 2, 3]) for c in clocks}
        for a, b in ((p, q), (q, p)):
            want = _unpriced_reference(a, b, m)
            assert unpriced_m_inclusion(a, b, m) is want, (a, b, m)
            seen[want] += 1
        twin = Zone(p.clocks, p.m)
        assert _unpriced_reference(p, p, m)
        assert unpriced_m_inclusion(p, p, m)
        assert unpriced_m_inclusion(p, twin, m) and unpriced_m_inclusion(twin, p, m)
    assert seen[True] and seen[False]


def test_unpriced_rejects_on_the_most_constrained_cell(monkeypatch):
    # cells come largest Y first, so a failing test on fig2right rejects on
    # its first projection compare, and a zone against itself needs none
    unpriced, subset = inclusion.unpriced_m_inclusion, Zone.subset
    counts = Counter()
    inside = [False]

    def counting_unpriced(zone, other, m):
        counts["tests"] += 1
        inside[0] = True
        try:
            return unpriced(zone, other, m)
        finally:
            inside[0] = False

    def counting_subset(self, other):
        counts["compares"] += inside[0]
        return subset(self, other)

    monkeypatch.setattr(inclusion, "unpriced_m_inclusion", counting_unpriced)
    monkeypatch.setattr(Zone, "subset", counting_subset)
    explore(load_automaton("fig2right"), Config())
    assert counts["tests"]
    assert 0 < counts["compares"] <= counts["tests"], counts


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
    with pytest.raises(LowerBoundViolation):
        facet_reduce(PricedZone(z, AffineCost.bottom(z.clocks)), frozenset(z.clocks))


def test_facet_reduce_raises_exactly_on_unbounded_fibers():
    # raises iff the fiber infimum is -oo, which holds at every point of the
    # projection or at none; otherwise the pieces give the fiber infimum
    rng = random.Random(20261110)
    clocks = ("x", "y", "z")
    grid = [F(k, 2) for k in range(0, 8)]
    seen = Counter()
    for _ in range(80):
        pz = random_priced_zone(rng, clocks[: rng.randint(1, 3)], 3)
        y = frozenset(c for c in pz.clocks if rng.random() < 0.5)
        ydims = [c for c in pz.clocks if c in y]
        point = random_point(rng, pz.zone)
        unbounded = fiber_min(pz.zone, pz.cost, {c: point[c] for c in ydims}) == NEG_INF
        try:
            closed = [(z.closure(), c) for z, c in facet_reduce(pz, y)]
        except LowerBoundViolation:
            closed = None
        assert (closed is None) == unbounded
        for grid_point in itertools.product(grid, repeat=len(ydims)):
            u = dict(zip(ydims, grid_point))
            want = fiber_min(pz.zone, pz.cost, u)
            if closed is None:
                assert want in (None, NEG_INF)
            else:
                covering = [c.evaluate(u) for z, c in closed if z.contains(u)]
                assert (min(covering) if covering else None) == want
        seen["raised" if closed is None else "reduced"] += 1
        seen["raised, not bounded below"] += closed is None and not is_lower_bounded(pz)
        seen["reduced, not bounded below"] += closed is not None and not is_lower_bounded(pz)
    assert min(seen.values()) >= 5, seen


def test_facet_reduce_raises_on_m_cells_exactly_when_unbounded_below():
    rng = random.Random(20261111)
    clocks = ("x", "y", "z")
    seen = Counter()
    for _ in range(60):
        pz = random_priced_zone(rng, clocks[: rng.randint(1, 3)], 4)
        m = {c: rng.randint(0, 3) for c in pz.clocks}
        for y, (cell, _) in m_cells(pz.zone, m).items():
            priced_cell = PricedZone(cell, pz.cost)
            try:
                facet_reduce(priced_cell, y)
                raised = False
            except LowerBoundViolation:
                raised = True
            assert raised == (not is_lower_bounded(priced_cell))
            seen[raised] += 1
    assert seen[True] >= 20 and seen[False] >= 20, seen


def test_facet_reduce_pieces_are_fiber_min_and_undominated():
    # the pieces' pointwise minimum is the exact fiber infimum at every
    # integral and half-integral projected point, and no piece is dominated
    rng = random.Random(20261021)
    clocks = ("x", "y", "z")
    grid = [F(k, 2) for k in range(0, 8)]
    reduced = several = 0
    for _ in range(60):
        pz = random_priced_zone(rng, clocks[: rng.randint(2, 3)], 3)
        if not is_lower_bounded(pz):
            continue
        y = frozenset(c for c in pz.clocks if rng.random() < 0.5)
        pieces = facet_reduce(pz, y)
        closed = [(z.closure(), c) for z, c in pieces]
        ydims = [c for c in pz.clocks if c in y]
        for point in itertools.product(grid, repeat=len(ydims)):
            u = dict(zip(ydims, point))
            want = fiber_min(pz.zone, pz.cost, u)
            covering = [c.evaluate(u) for z, c in closed if z.contains(u)]
            assert (min(covering) if covering else None) == want
        for (zp, cp), (zq, cq) in itertools.permutations(pieces, 2):
            if zp.subset(zq):
                diff = cq.minus(cp)
                assert sup_affine(zp, diff.coeff_map(), diff.const)[0] > 0
        reduced += len(y) < len(pz.clocks)
        several += len(pieces) > 1
    assert reduced >= 20 and several >= 3


def test_s_value_witness_attains_value():
    rng = random.Random(20261022)
    checked = 0
    for _ in range(80):
        a = random_priced_zone(rng, XY, 3)
        b = weaken(rng, a)
        m = {"x": rng.randint(0, 3), "y": rng.randint(0, 3)}
        theirs = m_cells(b.zone, m)
        for y, (cell, proj) in m_cells(a.zone, m).items():
            cell2 = theirs[y][0]
            if not (is_lower_bounded(PricedZone(cell, a.cost))
                    and is_lower_bounded(PricedZone(cell2, b.cost))):
                continue
            val, wit = s_value(a, b, y, m)
            assert proj.closure().contains(wit)
            left = fiber_min(cell, a.cost, wit)
            right = fiber_min(cell2, b.cost, wit)
            assert val == right - left
            checked += 1
    assert checked >= 60


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


def test_s_value_is_total_on_costs_unbounded_below():
    # x >= 3 lies in the one cell Y = {} under M = {x: 2}, where -x has no
    # lower bound: an unbounded right side passes whatever the left side,
    # an unbounded left side against a bounded right side fails
    z = Zone.from_constraints(("x",), [(None, "x", -3, False)])
    m = {"x": 2}
    unb, flat = priced(z, {"x": -1}), priced(z)
    assert s_value(flat, unb, frozenset(), m) == (NEG_INF, None)
    assert s_value(unb, flat, frozenset(), m) == (POS_INF, None)
    assert not includes(unb, flat, m)
    assert includes(flat, unb, m)


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
    # an empty zone is included whatever the costs, as in the abstract test
    empty = priced(Zone.empty(XY), {}, 5)
    assert simple_includes(empty, pz) and includes(empty, pz, {"x": 2, "y": 2})


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
    # includes(pz, pz, M4) is decided by the classical quick accept, which
    # reads no cell, so the s-values are asked for directly
    for y in m_cells(z, M4):
        s_value(pz, pz, y, M4)
    assert z._cells is not None and twin._cells is None
    reduced = z._cells[2]
    assert any(pieces is not None for pieces in reduced.values())
    assert (repr(z), hash(z)) == before
    assert z == twin and hash(z) == hash(twin) and repr(z) == repr(twin)


def test_priced_cells_reduced_once(monkeypatch):
    # each (cell, cost, Y) is reduced once however many tests the cell takes
    # part in, and the reductions find lower bounds without any mincost LP
    reductions: Counter = Counter()
    bounds: Counter = Counter()
    held = []  # keeps every counted zone alive, so no id is reused
    facet_reduce_orig, mincost_orig = inclusion.facet_reduce, priced_mod.mincost

    def counting_facet_reduce(pz, y):
        held.append(pz.zone)
        reductions[id(pz.zone), pz.cost, frozenset(y)] += 1
        return facet_reduce_orig(pz, y)

    def counting_mincost(pz):
        held.append(pz.zone)
        bounds[id(pz.zone), pz.cost] += 1
        return mincost_orig(pz)

    monkeypatch.setattr(inclusion, "facet_reduce", counting_facet_reduce)
    monkeypatch.setattr(priced_mod, "mincost", counting_mincost)
    # on als_small the classical quick accept decides every successful test,
    # so the model here is als_hold, where it leaves some of them open
    verdict = explore(load_automaton("als_hold"), Config())
    assert verdict.stats.tests >= 20
    assert len(reductions) >= 20 and not bounds
    assert max(reductions.values()) == 1


def test_cell_map_built_once_per_zone_value(monkeypatch):
    # explore keeps one Zone object per zone value, so equal zones share the
    # memo and each value's M-cells are built once per exploration
    preorder = inclusion.clock_preorder
    builds: Counter = Counter()

    def counting_preorder(zone, m):
        builds[zone] += 1
        return preorder(zone, m)

    monkeypatch.setattr(inclusion, "clock_preorder", counting_preorder)
    for name in ("als_small", "als_hold", "fig7"):
        builds.clear()
        explore(load_automaton(name), Config())
        assert builds, name
        assert max(builds.values()) == 1, (name, sum(builds.values()), len(builds))


def test_cells_built_on_demand_match_the_eager_reference_random():
    # m_cells gives every non-empty cell, largest Y first, whether the memo
    # is fresh, already partly filled by unpriced tests, or was last filled
    # under another M
    rng = random.Random(2020)
    partial = 0

    def check(zone, m):
        got, want = m_cells(zone, m), eager_m_cells(zone, m)
        assert list(got.items()) == list(want.items()), (zone, m)

    for _ in range(1000):
        clocks = ("x", "y", "z", "w", "v")[: rng.randint(1, 5)]
        p, q = random_zone(rng, clocks, 4), random_zone(rng, clocks, 4)
        if rng.random() < 1 / 3:
            p, q = p.up(), q.up()
        m = {c: rng.choice([None, 0, 1, 2, 3, 4]) for c in clocks}
        m2 = {c: rng.choice([None, 0, 1, 2, 3, 4]) for c in clocks}
        check(Zone(p.clocks, p.m), m)
        unpriced_m_inclusion(p, q, m)
        unpriced_m_inclusion(q, p, m)
        partial += any(e is inclusion._UNBUILT for e in p._cells[1].values())
        check(p, m)
        check(q, m)
        check(p, m2)
        check(p, m)
    assert partial >= 100, partial


# answers of includes on the 500 random pairs of test_c05, bit k (from the
# left) for pair k, as the all-at-once cell loop gave them on fresh zones
C05_ANSWERS = int(
    "40828a008101c000004000120200020003000050002006100000062000040020802520a8020"
    "08a202838020000800000040a0122168716000004010010408", 16)


def _c05_pairs():
    """The 500 random (a, b, M) triples of test_c05, on fresh zones."""
    rng = random.Random(777)
    for _ in range(500):
        a = random_priced_zone(rng, XY, 4)
        b = random_priced_zone(rng, XY, 4)
        m = {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}
        yield a, b, m


def test_includes_keeps_its_answers_on_the_c05_pairs():
    # each pair is tested after the reverse unpriced test has built some of
    # the cells of both zones
    bits = 0
    for a, b, m in _c05_pairs():
        unpriced_m_inclusion(b.zone, a.zone, m)
        bits = 2 * bits + includes(a, b, m)
    assert bits == C05_ANSWERS


def test_includes_is_the_unpriced_test_and_every_s_value_nonpositive():
    held = 0
    for a, b, m in _c05_pairs():
        if unpriced_m_inclusion(a.zone, b.zone, m):
            want = all(s_value(a, b, y, m)[0] <= 0 for y in m_cells(a.zone, m))
            assert includes(a, b, m) == want, (a, b, m)
            held += 1
    assert held >= 50, held


def test_classical_inclusion_implies_the_unpriced_test_and_nonpositive_s_values():
    # the quick accept of includes is sound: wherever the classical test
    # holds, so do the unpriced test and a non-positive s-value on every cell,
    # computed here directly rather than through includes
    rng = random.Random(2027)
    pairs = [("c05", a, b, m) for a, b, m in _c05_pairs()]
    for _ in range(1000):
        clocks = ("x", "y", "z")[: rng.randint(1, 3)]
        a = random_priced_zone(rng, clocks, 4)
        m = {c: rng.choice([None, 0, 1, 2, 3, 4]) for c in clocks}
        pairs.append(("weaken", a, weaken(rng, a), m))
    accepted: Counter = Counter()
    for source, a, b, m in pairs:
        if simple_includes(a, b):
            accepted[source] += 1
            assert unpriced_m_inclusion(a.zone, b.zone, m), (a, b, m)
            assert all(s_value(a, b, y, m)[0] <= 0 for y in m_cells(a.zone, m)), (a, b, m)
    # weaken's pairs pass the classical test by construction
    assert accepted["c05"] >= 10 and accepted["weaken"] == 1000, accepted


def test_classical_quick_accept_decides_every_successful_test_on_als_small(monkeypatch):
    # every successful abstract test of als_small also passes the classical
    # test, so no cost is reduced, and the optimum is unchanged
    calls = [0]
    facet_reduce_orig = inclusion.facet_reduce

    def counting_facet_reduce(pz, y):
        calls[0] += 1
        return facet_reduce_orig(pz, y)

    monkeypatch.setattr(inclusion, "facet_reduce", counting_facet_reduce)
    verdict = explore(load_automaton("als_small"), Config())
    assert verdict.cost == 2 and verdict.stats.successful_tests > 0
    assert calls[0] == 0


def test_inclusion_implies_no_lower_mincost_on_the_c05_pairs():
    # the lemma a ⊑ b implies mincost(b) <= mincost(a) holds for both tests:
    # an included zone is never cheaper than the zone that includes it
    held = Counter()
    for a, b, m in _c05_pairs():
        for name, r in (("abstract", includes(a, b, m)), ("simple", simple_includes(a, b))):
            if r:
                held[name] += 1
                assert priced_mod.mincost(b) <= priced_mod.mincost(a), (name, a, b, m)
    assert held["abstract"] > 0 and held["simple"] > 0, held


def test_rejecting_tests_build_one_cell_per_stored_state(monkeypatch):
    # on fig2right with loop constant 70 every test rejects on its first
    # projection compare, which reads one cell of each zone, so no zone
    # builds its other cells
    build = inclusion.restrict_y
    built = [0]

    def counting_restrict_y(zone, y, m):
        built[0] += 1
        return build(zone, y, m)

    monkeypatch.setattr(inclusion, "restrict_y", counting_restrict_y)
    a = compose(parse_model(_bench_workloads().unbounded_text(70, 1)))
    verdict = explore(a, Config(pruning=True))
    assert verdict.cost == 71 and verdict.stats.tests == 2485
    assert 0 < built[0] <= verdict.stats.added_to_passed == 71, built


def _box(bound):
    return Zone.from_constraints(XY, [("x", None, bound, False), ("y", None, bound, False)])


def test_m_cells_returns_a_new_map_on_each_call():
    # the map is the caller's: emptying it must not empty the cells that the
    # priced check walks, which would leave it nothing to compare
    cheap, dear = priced(_box(5)), priced(_box(6), const=100)
    assert not includes(cheap, dear, M4)
    m_cells(cheap.zone, M4).clear()
    assert not includes(cheap, dear, M4)
    first, again = m_cells(cheap.zone, M4), m_cells(cheap.zone, M4)
    assert first and first == again and first is not again


def test_successful_test_builds_only_the_right_cells_it_compares(monkeypatch):
    # small lies inside big's cell {x, y}, so a successful test compares
    # only that cell of big and leaves big's other cells unbuilt
    build = inclusion.restrict_y
    built = []

    def recording_restrict_y(zone, y, m):
        built.append((zone, y))
        return build(zone, y, m)

    monkeypatch.setattr(inclusion, "restrict_y", recording_restrict_y)
    small, big = priced(_box(1), const=5), priced(_box(6))
    assert includes(small, big, M4)
    assert [y for zone, y in built if zone is big.zone] == [frozenset(XY)]
    assert any(e is inclusion._UNBUILT for e in big.zone._cells[1].values())


def test_exploration_leaves_no_reference_cycles():
    # derived data stored on zones refers to nothing that refers back, so
    # every zone is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for name in ("als_small", "fig2right"):
            explore(load_automaton(name), Config())
            assert gc.collect() == 0, name
    finally:
        gc.enable()
