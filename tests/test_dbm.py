from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from grid_oracles import (
    all_facets,
    closed_zone,
    fm_minimize,
    random_point,
    random_zone,
    tree_vertices,
    zone_constraints,
)
from zonecost import dbm
from zonecost.dbm import (
    INF,
    POS_INF,
    EmptyZoneError,
    UnboundedZoneError,
    Zone,
    bound_is_strict,
    bound_value,
    encode,
    inf_affine,
    sup_affine,
)
from zonecost.inclusion import restrict_y

XY = ("x", "y")


def entry(z: Zone, a: str | None, b: str | None) -> int:
    """The encoded bound on ``a - b`` (None = reference clock)."""
    n = len(z.clocks) + 1
    return z.m[(0 if a is None else z.idx(a)) * n + (0 if b is None else z.idx(b))]


def fig4_zone() -> Zone:
    # x >= 0, y >= 1, x <= y, y <= x + 2
    return Zone.from_constraints(
        XY, [(None, "y", -1, False), ("x", "y", 0, False), ("y", "x", 2, False)]
    )


def fig4_cell() -> Zone:
    return fig4_zone().intersect([("x", None, 2, False), ("y", None, 3, False)])


def test_canonicalize_unconstrained_identity():
    z = Zone.universal(XY)
    assert closed_zone(z.clocks, z.m) == z


def test_canonicalize_derives_transitive_bound():
    z = Zone.from_constraints(XY, [("x", None, 2, False), ("y", "x", 1, False)])
    assert entry(z, "y", None) == encode(3, False)


def test_canonicalize_detects_contradiction():
    z = Zone.from_constraints(("x",), [("x", None, 1, False), (None, "x", -2, False)])
    assert z.is_empty


def test_canonicalize_idempotent_random():
    rng = random.Random(1)
    for _ in range(50):
        z = random_zone(rng, XY, 4)
        assert closed_zone(z.clocks, z.m) == z


def test_intersect_origin():
    z = Zone.universal(XY).intersect(
        [("x", None, 0, False), (None, "x", 0, False), ("y", None, 0, False), (None, "y", 0, False)]
    )
    assert z == Zone.origin(XY)


def test_intersect_fig4_cell_nonempty():
    cell = fig4_cell()
    assert not cell.is_empty
    assert entry(cell, "x", None) == encode(2, False)
    assert entry(cell, "y", None) == encode(3, False)


def test_intersect_empty_absorbs():
    empty = Zone.from_constraints(("x",), [("x", None, 0, True)])  # x < 0
    assert empty.is_empty
    assert empty.intersect([("x", None, 5, False)]).is_empty


def test_emptiness_read_off_the_matrix():
    # however an empty zone arises, it is one value: empty, equal, hashed
    # and printed alike, with the matrix of Zone.empty
    for k in range(4):
        c = ("x", "y", "z")[:k]
        contradiction = list(Zone.universal(c).m)
        if k:
            contradiction[k * (k + 1)] = encode(1, False)  # z <= 1
            contradiction[k] = encode(-2, False)  # z >= 2
        else:
            contradiction[0] = encode(-1, False)  # 0 - 0 <= -1
        empties = [
            Zone.empty(c),
            closed_zone(c, contradiction),
            Zone(c, Zone.empty(c).m),
            Zone.universal(c).intersect([(c[-1] if c else None, None, -1, False)]),
            Zone.empty(c + ("w",)).project(c),
        ]
        assert all(z.is_empty for z in empties), k
        assert len({z.m for z in empties}) == 1, k
        assert all(z == empties[0] for z in empties), k
        assert len({hash(z) for z in empties}) == 1, k
        assert len({repr(z) for z in empties}) == 1, k
        for z in (Zone.universal(c), Zone.origin(c), Zone(c, Zone.origin(c).m)):
            assert not z.is_empty and z != empties[0], k


def test_unknown_clock_raises():
    z = fig4_zone()
    with pytest.raises(ValueError):
        z.intersect([("q", None, 1, False)])
    with pytest.raises(ValueError):
        z.intersect([(None, "q", 1, False)])
    with pytest.raises(ValueError):
        z.idx("q")


def random_constraints(rng: random.Random, z: Zone, k: int) -> list:
    """``k`` constraints on z's clocks, strict or not; some contradict z."""
    names = (None,) + z.clocks
    out = []
    for _ in range(k):
        a, b = rng.sample(names, 2)
        back = entry(z, b, a)
        if back < INF and rng.random() < 0.25:
            out.append((a, b, -bound_value(back), True))  # a - b < -(b - a)
        else:
            out.append((a, b, rng.randint(-4, 4), rng.random() < 0.4))
    return out


def test_intersections_match_full_closure_random():
    # references: the entrywise min of the raw bounds, closed by Floyd-Warshall
    rng = random.Random(20261018)
    outcomes = {"unchanged": 0, "tightened": 0, "empty": 0}
    for _ in range(300):
        clocks = ("v", "w", "x", "y", "z")[: rng.randint(1, 5)]
        n = len(clocks) + 1
        a, b = random_zone(rng, clocks, 4), random_zone(rng, clocks, 4)
        cons = random_constraints(rng, a, rng.randint(1, 4))
        raw = list(a.m)
        for p, q, value, strict in cons:
            k = (0 if p is None else a.idx(p)) * n + (0 if q is None else a.idx(q))
            raw[k] = min(raw[k], encode(value, strict))
        got, want = a.intersect(cons), closed_zone(a.clocks, raw)
        assert (got.m, got.is_empty) == (want.m, want.is_empty)
        assert (got is a) == (raw == list(a.m))
        outcomes["empty" if got.is_empty else "unchanged" if got is a else "tightened"] += 1
        got = a.intersect_zone(b)
        want = closed_zone(a.clocks, [min(x, y) for x, y in zip(a.m, b.m)])
        assert (got.m, got.is_empty) == (want.m, want.is_empty)
        outcomes["empty" if got.is_empty else "unchanged" if got is a else "tightened"] += 1
    assert min(outcomes.values()) >= 30


def test_intersections_never_rerun_full_closure(monkeypatch):
    def full_closure(mat, n):
        raise AssertionError("intersection of canonical zones ran a full closure")

    monkeypatch.setattr(dbm, "_close", full_closure)
    z, cell = fig4_zone(), fig4_cell()
    assert entry(z.intersect([("x", None, 1, True)]), "y", None) == encode(3, True)
    assert z.intersect([("x", "y", -3, False)]).is_empty
    assert z.intersect_zone(cell) == cell
    assert {f.pivot for f in z.facets("y", "lower")} == {(None, 1), ("x", 0)}
    assert restrict_y(z, frozenset({"x"}), {"x": 1, "y": 1}).contains({"x": 1, "y": F(3, 2)})


def test_up_origin_is_diagonal():
    up = Zone.origin(XY).up()
    assert entry(up, "x", "y") == encode(0, False)
    assert entry(up, "y", "x") == encode(0, False)
    assert entry(up, "x", None) >= INF
    assert up.contains({"x": F(7, 2), "y": F(7, 2)})
    assert not up.contains({"x": 1, "y": 2})


def test_up_one_clock_interval():
    z = Zone.from_constraints(("x",), [(None, "x", -1, False), ("x", None, 2, False)])
    up = z.up()
    assert entry(up, None, "x") == encode(-1, False)
    assert entry(up, "x", None) >= INF


def test_up_empty():
    assert Zone.empty(("x",)).up().is_empty


def test_reset_point():
    z = Zone.from_constraints(
        XY,
        [("x", None, 3, False), (None, "x", -3, False), ("x", "y", 0, False), ("y", "x", 0, False)],
    )
    r = z.reset(["y"])
    assert r.contains({"x": 3, "y": 0})
    assert entry(r, "y", None) == encode(0, False)
    assert entry(r, None, "x") == encode(-3, False)


def test_reset_empty_set_is_identity():
    z = fig4_zone()
    assert z.reset([]) == z


def test_reset_sample_membership_both_ways():
    # {1 <= x <= 2, y = x} reset x  ->  {x = 0, 1 <= y <= 2}
    z = Zone.from_constraints(
        XY,
        [(None, "x", -1, False), ("x", None, 2, False), ("x", "y", 0, False), ("y", "x", 0, False)],
    )
    r = z.reset(["x"])
    for k in range(0, 9):
        yv = F(k, 4)
        expected = 1 <= yv <= 2
        assert r.contains({"x": 0, "y": yv}) == expected
    assert not r.contains({"x": F(1, 2), "y": 1})


def test_contains_int_and_fraction_points_agree():
    rng = random.Random(13)
    for _ in range(40):
        z = random_zone(rng, XY, 3)
        for xv in range(-1, 5):
            for yv in range(-1, 5):
                want = z.contains({"x": F(xv), "y": F(yv)})
                assert z.contains({"x": xv, "y": yv}) == want


def test_project_origin():
    assert Zone.origin(XY).project(["x"]) == Zone.origin(("x",))


def test_project_fig4_to_x_sample_points():
    p = fig4_zone().project(["x"])
    for k in range(0, 20):
        assert p.contains({"x": F(k, 3)})
    assert p == Zone.universal(("x",))


def test_project_all_clocks_identity():
    z = fig4_cell()
    assert z.project(list(XY)) == z


def test_closure_weakens_strict():
    z = Zone.from_constraints(("x",), [("x", None, 1, True)])
    assert entry(z, "x", None) == encode(1, True)
    assert entry(z.closure(), "x", None) == encode(1, False)


def test_closure_identity_on_closed():
    z = fig4_cell()
    assert z.closure() == z


def test_closure_empty():
    assert Zone.empty(XY).closure().is_empty


def test_facets_single_lower():
    z = Zone.from_constraints(("x",), [(None, "x", -1, False), ("x", None, 2, False)])
    fs = z.facets("x", "lower")
    assert len(fs) == 1
    assert fs[0].pivot == (None, 1)
    assert fs[0].zone.contains({"x": 1})


def test_facets_fig4_lower_wrt_y():
    fs = fig4_zone().facets("y", "lower")
    pivots = {f.pivot for f in fs}
    assert pivots == {(None, 1), ("x", 0)}
    for f in fs:
        assert not f.zone.is_empty


def test_facets_upper_unbounded_empty():
    z = Zone.from_constraints(("x",), [(None, "x", 0, False)])
    assert z.facets("x", "upper") == []


def test_facet_cylinders_cover_zone():
    # every facet zone is non-empty, and moving a point of the zone along the
    # axis (down for lower facets, up for upper ones) reaches a facet
    rng = random.Random(7)
    for _ in range(25):
        z = random_zone(rng, XY, 4)
        for axis in XY:
            points = [random_point(rng, z) for _ in range(10)]
            for kind, sign in (("lower", 1), ("upper", -1)):
                facets = z.facets(axis, kind)
                assert all(not f.zone.is_empty for f in facets)
                if not facets:  # only an axis unbounded above has none
                    assert kind == "upper"
                    continue
                for v in points:
                    covered = False
                    for f in facets:
                        other, pivot = f.pivot
                        target = pivot if other is None else v[other] + pivot
                        if sign * (v[axis] - target) < 0:
                            continue
                        w = dict(v)
                        w[axis] = target
                        if f.zone.contains(w):
                            covered = True
                            break
                    assert covered


def test_facets_are_the_reference_facets_without_repeats():
    # each distinct facet zone once (first is pairwise distinct), with the
    # first pivot the reference loop offers for it; the draws with repeats
    # include fixed clocks, zero-cycle classes and strict bounds
    def fixed(z, i, j):
        n = len(z.clocks) + 1
        return bound_value(z.m[i * n + j]) + bound_value(z.m[j * n + i]) == 0

    rng = random.Random(20261021)
    repeats = Counter()
    for k in range(240):
        clocks = ("w", "x", "y", "z")[: 1 + k % 4]
        z = lower_dimensional_zone(rng, clocks, 3) if k % 2 else random_zone(rng, clocks, 4)
        n = len(clocks) + 1
        for axis in clocks:
            for kind in ("lower", "upper"):
                reference = all_facets(z, axis, kind)
                first = []
                for f in reference:
                    if all(g.zone != f.zone for g in first):
                        first.append(f)
                got = z.facets(axis, kind)
                assert got == first, (z, axis, kind)
                if len(got) < len(reference):
                    repeats["repeats"] += 1
                    repeats["fixed clock"] += any(fixed(z, 0, j) for j in range(1, n))
                    repeats["zero-cycle class"] += any(
                        fixed(z, i, j) for i in range(1, n) for j in range(i + 1, n)
                    )
                    repeats["strict"] += any(bound_is_strict(e) for e in z.m if e < INF)
    assert min(repeats.values()) >= 30, repeats


def test_dominant_pivot_is_the_first_facet_containing_the_others():
    # for a clock, the pivot of the first facet whose zone contains every
    # other facet zone, None when no facet does; for the reference clock,
    # the same over the faces closure & {x = b} that delay builds from the
    # clocks' upper bounds (lower kind) or lower bounds (upper kind), whose
    # pivot x - 0 = b reads (x, -b) from the reference clock's side
    def first_covering(candidates):
        for zone, pivot in candidates:
            if all(other.subset(zone) for other, _ in candidates):
                return pivot
        return None

    rng = random.Random(20261023)
    found = Counter()
    for k in range(240):
        clocks = ("w", "x", "y", "z")[: 1 + k % 4]
        z = lower_dimensional_zone(rng, clocks, 3) if k % 2 else random_zone(rng, clocks, 4)
        closed = z.closure()
        for kind in ("lower", "upper"):
            for axis in clocks:
                want = first_covering([(f.zone, f.pivot) for f in z.facets(axis, kind)])
                assert z.dominant_pivot(axis, kind) == want, (z, axis, kind)
                found[kind, want is not None] += 1
            faces = []
            for x in clocks:
                lower, upper = z.clock_bounds(x)
                b = upper if kind == "lower" else lower
                if b != POS_INF:
                    face = closed.intersect([(x, None, b, False), (None, x, -b, False)])
                    faces.append((face, (x, -b)))
            want = first_covering(faces)
            assert z.dominant_pivot(None, kind) == want, (z, kind)
            found["reference", kind, want is not None] += 1
    assert len(found) == 8 and min(found.values()) >= 20, found


def test_sup_affine_fig4_values():
    cell = fig4_cell()
    assert sup_affine(cell, {"x": F(1), "y": F(1)}) == (F(5), {"x": 2, "y": 3})
    assert sup_affine(cell, {"x": F(2), "y": F(-1)}) == (F(2), {"x": 2, "y": 2})
    val, wit = sup_affine(fig4_zone(), {"x": F(1), "y": F(1)})
    assert val == float("inf") and wit is None


def test_sup_affine_constant():
    val, _ = sup_affine(fig4_zone(), {}, F(9, 2))
    assert val == F(9, 2)


def test_sup_affine_empty_zone_raises():
    with pytest.raises(EmptyZoneError):
        sup_affine(Zone.empty(("x",)), {"x": F(1)})


def test_inf_affine_fig4_cell():
    # independent check: minimize 2x - y by brute vertex inspection below
    val, wit = inf_affine(fig4_cell(), {"x": F(2), "y": F(-1)})
    assert val == F(-2)
    assert wit == {"x": 0, "y": 2}


def test_inf_affine_basics():
    assert inf_affine(fig4_zone(), {}, F(0))[0] == 0
    z = Zone.from_constraints(("x",), [])
    assert inf_affine(z, {"x": F(-1)})[0] == float("-inf")


def test_sup_inf_match_fm_oracle_random():
    rng = random.Random(42)
    infinite = 0
    for _ in range(90):
        clocks = ("x", "y", "z")[: rng.randint(1, 3)]
        z = random_zone(rng, clocks, 4)
        coeffs = {c: F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for c in clocks}
        const = F(rng.randint(-5, 5), rng.choice((1, 7)))
        # sup f = -inf(-f), so both directions reduce to the FM minimizer
        for optimize, sign in ((inf_affine, 1), (sup_affine, -1)):
            got, wit = optimize(z, coeffs, const)
            objective = {c: sign * k for c, k in coeffs.items()}
            want = fm_minimize(objective, sign * const, zone_constraints(z), list(clocks))
            assert want is not None
            assert got == sign * want
            if wit is None:
                assert got in (float("inf"), float("-inf"))
                infinite += 1
                continue
            assert all(type(wit[c]) is int for c in clocks)
            assert z.closure().contains(wit)
            assert const + sum(coeffs[c] * wit[c] for c in clocks) == got
    assert infinite > 0


def test_vertices_point():
    z = Zone.from_constraints(("x",), [("x", None, 0, False)])
    assert z.vertices() == [{"x": 0}]


def test_vertices_fig4_cell():
    vs = fig4_cell().vertices()
    expected = [
        {"x": 0, "y": 1},
        {"x": 0, "y": 2},
        {"x": 1, "y": 1},
        {"x": 1, "y": 3},
        {"x": 2, "y": 2},
        {"x": 2, "y": 3},
    ]
    assert vs == sorted(expected, key=lambda v: (v["x"], v["y"]))


def test_vertices_unit_square():
    z = Zone.from_constraints(XY, [("x", None, 1, False), ("y", None, 1, False)])
    assert len(z.vertices()) == 4


def test_vertices_unbounded_raises():
    with pytest.raises(UnboundedZoneError):
        fig4_zone().vertices()


def test_vertices_brute_force_agreement():
    rng = random.Random(11)
    for _ in range(20):
        z = random_zone(rng, XY, 3).intersect(
            [("x", None, 3, False), ("y", None, 3, False)]
        )
        if z.is_empty:
            continue
        got = {tuple(sorted(v.items())) for v in z.vertices()}
        closed = z.closure()
        brute = set()
        pts = [F(k, 2) for k in range(-2, 9)]
        for xv in range(0, 4):
            for yv in range(0, 4):
                v = {"x": F(xv), "y": F(yv)}
                if not closed.contains(v):
                    continue
                # v is a vertex iff it is not the midpoint of two zone points
                extreme = True
                for dx in pts:
                    for dy in pts:
                        if dx == 0 and dy == 0:
                            continue
                        p = {"x": v["x"] + dx, "y": v["y"] + dy}
                        q = {"x": v["x"] - dx, "y": v["y"] - dy}
                        if closed.contains(p) and closed.contains(q):
                            extreme = False
                            break
                    if not extreme:
                        break
                if extreme:
                    brute.add(tuple(sorted(v.items())))
        assert got == brute  # Fraction(k) hashes like k, so the sets compare directly


def lower_dimensional_zone(rng: random.Random, clocks: tuple[str, ...], cmax: int) -> Zone:
    """A non-empty zone inside [0, cmax]^n, often with equalities ``x = c``,
    diagonals ``x - y = c`` or pinned to a single point."""
    while True:
        if rng.random() < 0.15:
            point = {c: rng.randint(0, cmax) for c in clocks}
            cons = [(c, None, point[c], False) for c in clocks]
            cons += [(None, c, -point[c], False) for c in clocks]
        else:
            cons = [(c, None, cmax, False) for c in clocks]
            for c in clocks:
                if rng.random() < 0.3:
                    v = rng.randint(0, cmax)
                    cons += [(c, None, v, False), (None, c, -v, False)]
                elif rng.random() < 0.5:
                    cons.append((None, c, -rng.randint(0, cmax), rng.random() < 0.3))
            for a in clocks:
                for b in clocks:
                    if a < b and rng.random() < 0.35:
                        v = rng.randint(-cmax, cmax)
                        cons.append((a, b, v, False))
                        if rng.random() < 0.6:
                            cons.append((b, a, -v, False))
                    elif a != b and rng.random() < 0.2:
                        cons.append((a, b, rng.randint(-cmax, cmax), rng.random() < 0.3))
        z = Zone.universal(clocks).intersect(cons)
        if not z.is_empty:
            return z


def brute_vertices(z: Zone, cmax: int) -> set[tuple[int, ...]]:
    """The integral points of the closure that are not midpoints of two others.

    An integral point of an integral closed DBM is not a vertex iff it is the
    midpoint of closure points ``v - d`` and ``v + d`` with every d_i in
    {-1/2, 0, 1/2}: bounds tight at v force d to be constant across the
    clocks they join (0 on the reference clock's class), and every other
    bound has slack at least 1.
    """
    closed = z.closure()
    n = len(z.clocks)
    half = (F(-1, 2), F(0), F(1, 2))
    # d and -d test the same pair, so keep the d whose first nonzero is > 0
    steps = [
        d for d in itertools.product(half, repeat=n)
        if any(d) and next(x for x in d if x) > 0
    ]
    out = set()
    for v in itertools.product(range(cmax + 1), repeat=n):
        if not closed.contains(dict(zip(z.clocks, v))):
            continue
        if not any(
            closed.contains({c: v[k] + d[k] for k, c in enumerate(z.clocks)})
            and closed.contains({c: v[k] - d[k] for k, c in enumerate(z.clocks)})
            for d in steps
        ):
            out.add(v)
    return out


def merges_a_class(z: Zone) -> bool:
    """The closure fixes some node at a constant offset from another."""
    n = len(z.clocks) + 1
    return any(
        bound_value(z.m[i * n + j]) + bound_value(z.m[j * n + i]) == 0
        for i in range(n) for j in range(i + 1, n)
    )


def test_vertices_lower_dimensional_brute_force():
    rng = random.Random(20261019)
    merged = 0
    for _ in range(80):
        clocks = ("w", "x", "y", "z")[: rng.randint(1, 4)]
        z = lower_dimensional_zone(rng, clocks, 3)
        got = {tuple(v[c] for c in clocks) for v in z.vertices()}
        assert got == brute_vertices(z, 3), z
        merged += merges_a_class(z)
    assert merged >= 40  # most draws take the quotient path


def full_dimensional_zone(rng: random.Random, clocks: tuple[str, ...], cmax: int) -> Zone:
    """The cube [0, cmax]^n cut by diagonal bounds, some strict, with no
    clock fixed relative to another: the quotient keeps every clock."""
    while True:
        cons = [(c, None, cmax, False) for c in clocks]
        for _ in range(rng.randint(1, len(clocks) + 2)):
            a, b = rng.sample(clocks, 2)
            cons.append((a, b, rng.randint(0, cmax - 1), rng.random() < 0.3))
        z = Zone.universal(clocks).intersect(cons)
        if not z.is_empty and not merges_a_class(z):
            return z


def test_vertices_quotient_matches_plain_enumeration():
    # the spanning-tree enumeration over all clocks is the reference
    rng = random.Random(20261020)
    merged = 0
    for _ in range(300):
        clocks = ("v", "w", "x", "y", "z")[: rng.randint(1, 5)]
        z = lower_dimensional_zone(rng, clocks, 4)
        plain = tree_vertices(z.m, len(clocks) + 1)  # (0, clock values...)
        assert {(0,) + tuple(v[c] for c in clocks) for v in z.vertices()} == plain
        merged += merges_a_class(z)
    assert 100 <= merged <= 280  # zones with and without merged classes
    for k in range(10):
        clocks = ("v", "w", "x", "y", "z")[: 4 + k % 2]
        z = full_dimensional_zone(rng, clocks, 3)
        vs = z.vertices()
        assert {(0,) + tuple(v[c] for c in clocks) for v in vs} == tree_vertices(
            z.m, len(clocks) + 1
        )
        assert len(vs) > len(clocks)  # a full-dimensional polytope


def test_sup_equals_max_over_vertices_when_bounded():
    rng = random.Random(5)
    for clocks, rounds in ((XY, 30), (("w", "x", "y", "z"), 15)):
        for _ in range(rounds):
            z = random_zone(rng, clocks, 3).intersect(
                [(c, None, 4, False) for c in clocks]
            )
            if z.is_empty:
                continue
            coeffs = {c: F(rng.randint(-3, 3)) for c in clocks}
            val, wit = sup_affine(z, coeffs)
            best = max(sum(coeffs[c] * v[c] for c in clocks) for v in z.vertices())
            assert val == best
            assert wit is not None and z.closure().contains({c: F(wit[c]) for c in clocks})


def test_zone_subset():
    z1 = Zone.from_constraints(("x",), [("x", None, 1, False)])
    z2 = Zone.from_constraints(("x",), [("x", None, 2, False)])
    assert z1.subset(z1)
    assert Zone.empty(("x",)).subset(z1)
    assert z1.subset(z2)
    assert not z2.subset(z1)

    # the encoded order (m,<) < (m,<=) < (m+1,<) < +oo, on upper and lower
    # bounds alike
    def x(*cons):
        return Zone.from_constraints(("x",), cons)

    below_2, upto_2 = x(("x", None, 2, True)), x(("x", None, 2, False))
    below_3 = x(("x", None, 3, True))
    assert below_2.subset(upto_2) and not upto_2.subset(below_2)
    assert upto_2.subset(below_3) and not below_3.subset(upto_2)
    above_2, from_2 = x((None, "x", -2, True)), x((None, "x", -2, False))
    assert above_2.subset(from_2) and not from_2.subset(above_2)
    universal = Zone.universal(("x",))
    assert upto_2.subset(universal) and not universal.subset(upto_2)
    assert from_2.subset(universal) and not universal.subset(from_2)
    # two-clock difference bounds, finite against INF
    diag = Zone.from_constraints(XY, [("x", "y", 0, True)])
    assert diag.subset(Zone.universal(XY)) and not Zone.universal(XY).subset(diag)


def test_zone_subset_empty_on_either_side():
    empty = Zone.empty(("x",))
    # x >= 5 has m_0x below every entry of the empty matrix, so only the
    # emptiness check, not the entrywise order, puts the empty zone inside it
    from_5 = Zone.from_constraints(("x",), [(None, "x", -5, False)])
    assert min(from_5.m) < min(empty.m)
    assert empty.subset(from_5) and not from_5.subset(empty)
    assert empty.subset(empty)
    assert empty.subset(Zone.universal(("x",))) and not Zone.universal(("x",)).subset(empty)


def test_zone_subset_different_clocks_raise():
    with pytest.raises(ValueError):
        Zone.universal(("x",)).subset(Zone.universal(("y",)))
    with pytest.raises(ValueError):
        Zone.universal(XY).subset(Zone.universal(("y", "x")))
    with pytest.raises(ValueError):
        Zone.empty(("x",)).subset(Zone.empty(XY))


def test_up_reset_monotone():
    rng = random.Random(13)
    for _ in range(25):
        za = random_zone(rng, XY, 3)
        zb = za.intersect([("x", None, rng.randint(0, 3), False)])
        if zb.is_empty:
            continue
        assert zb.subset(za)
        assert zb.up().subset(za.up())
        assert zb.reset(["x"]).subset(za.reset(["x"]))


def test_operations_return_canonical_zones():
    rng = random.Random(29)
    for _ in range(25):
        z = random_zone(rng, XY, 3)
        derived_zones = (
            z.up(),
            z.reset(["y"]),
            z.project(["x"]),
            z.closure(),
            z.intersect([("x", "y", rng.randint(-2, 2), True), ("y", None, 2, False)]),
            z.intersect_zone(random_zone(rng, XY, 3)),
        )
        for derived in derived_zones:
            assert closed_zone(derived.clocks, derived.m) == derived


def test_scale():
    z = fig4_cell()
    s = z.scale(3)
    assert s.contains({"x": 6, "y": 9})
    assert not s.contains({"x": 7, "y": 9})
    assert z.scale(1) == z


# -- sup_affine: closed forms against the min-cost flow ------------------------


def _shaped_coeffs(rng: random.Random, clocks: tuple[str, ...], shape: str, rational: bool):
    """Coefficients of one objective shape; ``rational`` draws Fractions."""

    def rate(lo: int, hi: int):
        k = rng.randint(lo, hi)
        return F(k, rng.choice((1, 2, 3))) if rational else k

    zero = F(0) if rational else 0
    coeffs = {c: zero for c in clocks if rng.random() < 0.5}  # explicit zeros
    if shape == "nonpositive":
        coeffs.update({c: rate(-4, 0) for c in rng.sample(clocks, rng.randint(0, len(clocks)))})
    elif shape == "nonnegative":
        coeffs.update({c: rate(0, 4) for c in clocks if rng.random() < 0.6})
        coeffs[rng.choice(clocks)] = rate(1, 4)
    elif shape == "difference":
        a, b = rng.sample(clocks, 2)
        coeffs[a] = rate(1, 4)
        coeffs[b] = -coeffs[a]
    else:  # mixed signs, not a difference
        a, b = rng.sample(clocks, 2)
        coeffs[a], coeffs[b] = rate(1, 4), rate(-4, -1)
        if coeffs[a] == -coeffs[b]:
            coeffs[a] += 1
    return coeffs


def test_sup_affine_closed_forms_match_flow_and_fm_oracle():
    rng = random.Random(20261019)
    seen = {"nonpositive": 0, "nonnegative": 0, "difference": 0, "mixed": 0}
    infinite = 0
    for _ in range(600):
        clocks = ("u", "v", "w", "x", "y", "z")[: rng.randint(1, 6)]
        z = random_zone(rng, clocks, 4)
        if rng.random() < 0.33:
            z = z.up()
        shapes = ("nonpositive", "nonnegative", "difference", "mixed")
        shape = rng.choice(shapes if len(clocks) > 1 else shapes[:2])
        coeffs = _shaped_coeffs(rng, clocks, shape, rng.random() < 0.5)
        const = rng.choice((rng.randint(-5, 5), F(rng.randint(-5, 5), rng.choice((1, 7)))))
        got = sup_affine(z, coeffs, const)
        want = dbm._sup_flow(z, coeffs, const)
        assert got == want and type(got[0]) is type(want[0]), (z, coeffs, const)
        if len(clocks) <= 3:  # Fourier-Motzkin stays cheap up to three clocks
            neg = {c: -k for c, k in coeffs.items()}
            assert got[0] == -fm_minimize(neg, -const, zone_constraints(z), list(clocks))
        seen[shape] += 1
        infinite += got[1] is None
    assert min(seen.values()) > 75 and infinite > 25


def test_sup_affine_closed_forms_hand_cases(monkeypatch):
    flows = []
    flow = dbm._sup_flow
    monkeypatch.setattr(dbm, "_sup_flow", lambda *a: flows.append(a) or flow(*a))
    z = fig4_cell()  # x in [0, 2], y in [1, 3], x <= y <= x + 2
    # all-zero coefficients: the constant at the closure's least point
    value, witness = sup_affine(z, {"x": 0, "y": F(0)}, 3)
    assert (value, type(value), witness) == (3, int, {"x": 0, "y": 1})
    # integral Fraction rates give an int value, as the flow's scale of 1 does
    value, witness = sup_affine(z, {"x": F(2)})
    assert (value, type(value), witness) == (4, int, {"x": 2, "y": 2})
    # a difference with m_xy infinite: y is bounded, x is not
    up = Zone.from_constraints(XY, [("y", None, 1, False)])
    assert sup_affine(up, {"x": 1, "y": -1}) == (POS_INF, None)
    # x - y <= 2 is tight on a face whose least point has x = 2 and, through
    # x - z <= 1, z = 1, while the zone's least point is the origin
    xyz = ("x", "y", "z")
    box = Zone.from_constraints(
        xyz,
        [(c, None, 3, False) for c in xyz] + [("x", "y", 2, False), ("x", "z", 1, False)],
    )
    assert sup_affine(box, {"x": F(1, 2), "y": F(-1, 2)}) == (1, {"x": 2, "y": 0, "z": 1})
    assert sup_affine(box, {}) == (0, {"x": 0, "y": 0, "z": 0})
    assert flows == []
    # a mixed-sign objective that is not a difference still reaches the flow
    assert sup_affine(z, {"x": 2, "y": -1}) == (2, {"x": 2, "y": 2})
    assert len(flows) == 1


def test_zone_queries_match_their_definitions_random():
    # implies, clock_bounds and delay_interval against intersection, the LP
    # and membership, on zones with strict bounds and fixed clocks
    rng = random.Random(20261022)
    clocks = ("x", "y", "z")
    nodes = (None,) + clocks
    step = F(1, 1000)
    for k in range(120):
        z = lower_dimensional_zone(rng, clocks, 3) if k % 2 else random_zone(rng, clocks, 4)
        for a in nodes:
            for b in nodes:
                for value in range(-5, 6):
                    for strict in (False, True):
                        negated = z.intersect([(b, a, -value, not strict)])
                        assert z.implies(a, b, value, strict) == negated.is_empty, (k, a, b)
        for c in clocks:
            lower, upper = z.clock_bounds(c)
            assert lower == inf_affine(z, {c: 1})[0] == -sup_affine(z, {c: -1})[0], (k, c)
            assert upper == sup_affine(z, {c: 1})[0] == -inf_affine(z, {c: -1})[0], (k, c)
        assert z.contains(z.sample_point()), k
        v = random_point(rng, z.up())
        lo, lo_strict, hi, hi_strict = z.delay_interval(v)

        def inside(t):
            return z.contains({c: v[c] - t for c in clocks})

        assert 0 <= lo <= hi and (lo < hi or not (lo_strict or hi_strict)), k
        assert inside(lo) == (not lo_strict) and inside(hi) == (not hi_strict), k
        if lo < hi:
            assert inside(lo + (hi - lo) * step) and inside(hi - (hi - lo) * step), k
        assert not inside(hi + step), k
        assert lo == 0 or not inside(lo - step), k


def test_zone_queries_on_the_empty_zone():
    # the empty zone implies every constraint, as its intersection with the
    # negated one is empty, and has no bounds, delays or dominant bounds
    z = Zone.empty(XY)
    assert all(
        z.implies(a, b, value, strict) and z.intersect([(b, a, -value, not strict)]).is_empty
        for a in (None, "x", "y") for b in (None, "x", "y")
        for value in (-3, 0, 3) for strict in (False, True)
    )
    with pytest.raises(EmptyZoneError):
        z.clock_bounds("x")
    with pytest.raises(EmptyZoneError):
        z.delay_interval({"x": 1, "y": 2})
    # like its facets, an empty zone has no dominant bound to ask for
    for axis in (None, "x"):
        with pytest.raises(EmptyZoneError):
            z.dominant_pivot(axis, "lower")


def test_sample_point_stays_exact_with_large_constants():
    # an unbounded clock feeds a diagonal bound near 2**55: the midpoints
    # must stay Fractions, as floats would round the point out of the zone
    big = 2 ** 55
    z = Zone.from_constraints(("x", "y", "z"), [
        ("y", "x", big + 2, False), ("y", None, 4 * big, False),
        ("z", "y", 1, False), ("y", "z", -1, False),
    ])
    v = z.sample_point()
    assert all(type(val) is F for val in v.values()), v
    assert z.contains(v), v
