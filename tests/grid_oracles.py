"""Independent oracles and random generators for the test suite.

Everything here avoids the library's facet/preorder machinery on purpose:
linear programs are solved by exact Fourier-Motzkin elimination over
rationals, inclusion is decided from integral points and fiber minimization,
delay/reset costs are recomputed from first principles on sampled points,
vertices come from spanning trees of tight constraints, and a network's
product is listed location by location.  The exception is
:func:`eager_m_cells`: the library's own all-at-once cell loop, kept as the
reference for the cells that ``inclusion`` now builds on demand.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from zonecost.dbm import INF, NEG_INF, Zone, _close, bound_is_strict, bound_value
from zonecost.inclusion import clock_preorder, restrict_y
from zonecost.model import Atom, Automaton, Edge, Location, Network
from zonecost.priced import AffineCost, PricedZone

# Constraints are (coeffs: dict var -> Fraction, rhs: Fraction, strict: bool),
# meaning  sum(coeffs[v] * v) <= rhs  (or < rhs).
Constraint = tuple[dict, Fraction, bool]


def closed_zone(clocks: Sequence[str], raw: Sequence[int]) -> Zone:
    """The zone of a raw (not necessarily canonical) matrix, closed by
    Floyd-Warshall, the reference for the library's canonical-by-construction
    operations: :meth:`Zone.empty` when the bounds are inconsistent."""
    mat = list(raw)
    if _close(mat, len(clocks) + 1):
        return Zone.empty(clocks)
    return Zone(clocks, mat)


def zone_constraints(zone: Zone, *, closed: bool = False) -> list[Constraint]:
    n = len(zone.clocks) + 1
    names = (None,) + zone.clocks
    out: list[Constraint] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = zone.m[i * n + j]
            if e >= INF:
                continue
            coeffs = {}
            if names[i] is not None:
                coeffs[names[i]] = Fraction(1)
            if names[j] is not None:
                coeffs[names[j]] = coeffs.get(names[j], Fraction(0)) - 1
            strict = bound_is_strict(e) and not closed
            out.append((coeffs, Fraction(bound_value(e)), strict))
    return out


def _eliminate(constraints: list[Constraint], var: str) -> list[Constraint] | None:
    uppers, lowers, rest = [], [], []
    for coeffs, rhs, strict in constraints:
        a = coeffs.get(var, Fraction(0))
        if a > 0:
            uppers.append((coeffs, rhs, strict, a))
        elif a < 0:
            lowers.append((coeffs, rhs, strict, a))
        else:
            rest.append((coeffs, rhs, strict))
    for cu, ru, su, au in uppers:
        for cl, rl, sl, al in lowers:
            # (-al) * upper + au * lower cancels var
            coeffs = {}
            for v, a in cu.items():
                if v != var:
                    coeffs[v] = coeffs.get(v, Fraction(0)) + (-al) * a
            for v, a in cl.items():
                if v != var:
                    coeffs[v] = coeffs.get(v, Fraction(0)) + au * a
            coeffs = {v: a for v, a in coeffs.items() if a != 0}
            rest.append((coeffs, (-al) * ru + au * rl, su or sl))
    feasible = _drop_trivial(rest)
    return feasible


def _drop_trivial(constraints: list[Constraint]) -> list[Constraint] | None:
    out = []
    for coeffs, rhs, strict in constraints:
        if not coeffs:
            if rhs < 0 or (rhs == 0 and strict):
                return None  # infeasible
            continue
        out.append((coeffs, rhs, strict))
    return out


def fm_minimize(objective: dict, const: Fraction, constraints: list[Constraint],
                variables: list[str]):
    """Exact infimum of an affine objective subject to linear constraints.

    Returns a Fraction, -inf when unbounded below, or None when infeasible.
    """
    sys_ = [(dict(c), Fraction(r), s) for c, r, s in constraints]
    t = "__obj__"
    up = {v: a for v, a in objective.items() if a != 0}
    up[t] = Fraction(-1)
    lo = {v: -a for v, a in objective.items() if a != 0}
    lo[t] = Fraction(1)
    sys_.append((up, Fraction(0), False))  # obj - t <= 0
    sys_.append((lo, Fraction(0), False))  # t - obj <= 0
    cur: list[Constraint] | None = sys_
    for v in variables:
        cur = _eliminate(cur, v)
        if cur is None:
            return None
    best = None
    for coeffs, rhs, strict in cur:
        a = coeffs.get(t, Fraction(0))
        if a < 0:  # -a*t <= rhs  =>  t >= rhs / a
            bound = rhs / a
            if best is None or bound > best:
                best = bound
    if best is None:
        return NEG_INF
    return best + const


def fiber_min(zone: Zone, cost: AffineCost, fixed: dict[str, Fraction], *,
              closed: bool = True):
    """inf of the cost over the zone's fiber at the given coordinates."""
    cons = zone_constraints(zone, closed=closed)
    for c, val in fixed.items():
        cons.append(({c: Fraction(1)}, Fraction(val), False))
        cons.append(({c: Fraction(-1)}, -Fraction(val), False))
    free = [c for c in zone.clocks]
    return fm_minimize(cost.coeff_map(), cost.const, cons, free)


def fiber_feasible(zone: Zone, fixed: dict[str, Fraction], *, closed: bool = False) -> bool:
    cons = zone_constraints(zone, closed=closed)
    for c, val in fixed.items():
        cons.append(({c: Fraction(1)}, Fraction(val), False))
        cons.append(({c: Fraction(-1)}, -Fraction(val), False))
    return fm_minimize({}, Fraction(0), cons, list(zone.clocks)) is not None


def _cell(zone: Zone, y: frozenset, m: dict) -> Zone:
    cons = []
    for x in zone.clocks:
        mx = m.get(x)
        if x in y:
            if mx is None:
                return Zone.empty(zone.clocks)
            cons.append((x, None, mx, False))
        elif mx is not None:
            cons.append((None, x, -mx, True))
    return zone.intersect(cons)


def _lattice(upper: int):
    vals = []
    for k in range(upper + 1):
        vals.append(Fraction(k))
        if k < upper:
            vals.append(Fraction(3 * k + 1, 3))
            vals.append(Fraction(3 * k + 2, 3))
    return vals


def brute_includes(pz: PricedZone, other: PricedZone, m: dict) -> bool:
    """Ground-truth inclusion: integral points plus exact fiber minimization."""
    clocks = pz.clocks
    for subset in itertools.chain.from_iterable(
        itertools.combinations(clocks, r) for r in range(len(clocks) + 1)
    ):
        y = frozenset(subset)
        cell = _cell(pz.zone, y, m)
        if cell.is_empty:
            continue
        cell2 = _cell(other.zone, y, m)
        ydims = [c for c in clocks if c in y]
        # matching requirement: every projected point must have a counterpart
        grids = [_lattice(m[c]) for c in ydims]
        for point in itertools.product(*grids):
            u = dict(zip(ydims, point))
            if fiber_feasible(cell, u) and not fiber_feasible(cell2, u):
                return False
        if cell2.is_empty:
            return False  # non-empty cell with nothing to match
        # cost requirement on integral points of the closed cell
        int_grids = [range(m[c] + 1) for c in ydims]
        for point in itertools.product(*int_grids):
            u = {c: Fraction(v) for c, v in zip(ydims, point)}
            if not fiber_feasible(cell, u, closed=True):
                continue
            if other.cost.minus_infinity:
                continue
            m_right = fiber_min(cell2, other.cost, u)
            if m_right is None:
                return False  # no counterpart even in the closure
            if m_right == NEG_INF:
                continue
            if pz.cost.minus_infinity:
                return False
            m_left = fiber_min(cell, pz.cost, u)
            assert m_left is not None
            if m_left == NEG_INF:
                return False
            if m_right - m_left > 0:
                return False
    return True


def tree_vertices(mat: Sequence[int], n: int) -> set[tuple[int, ...]]:
    """Vertices of the closure of a bounded canonical DBM, as the values of
    nodes 0..n-1 (node 0 is the reference clock, always 0).

    A vertex is pinned by a spanning tree of tight constraints rooted at 0:
    attach one unassigned node at a time through any finite bound, then keep
    the complete assignments that satisfy every bound.
    """
    found: set[tuple[int, ...]] = set()
    seen: set[frozenset[tuple[int, int]]] = set()
    stack: list[dict[int, int]] = [{0: 0}]
    while stack:
        values = stack.pop()
        key = frozenset(values.items())
        if key in seen:
            continue
        seen.add(key)
        if len(values) == n:
            vals = [values[i] for i in range(n)]
            if all(
                mat[a * n + b] >= INF or vals[a] - vals[b] <= bound_value(mat[a * n + b])
                for a in range(n)
                for b in range(n)
            ):
                found.add(tuple(vals))
            continue
        for i in range(n):
            if i in values:
                continue
            for j, vj in values.items():
                e = mat[i * n + j]
                if e < INF:
                    stack.append({**values, i: vj + bound_value(e)})
                e = mat[j * n + i]
                if e < INF:
                    stack.append({**values, i: vj - bound_value(e)})
    return found


def combination_down_sets(pre) -> list[frozenset[str]]:
    """The down-sets of a :class:`ClockPreorder` from all 2^n clock subsets,
    by cardinality and then in the clock order: the enumeration that
    ``downward_closed_sets`` replaced, kept as its reference."""
    return [
        frozenset(combo)
        for r in range(len(pre.clocks) + 1)
        for combo in itertools.combinations(pre.clocks, r)
        if all(pre.below[c] <= frozenset(combo) for c in combo)
    ]


def eager_m_cells(zone: Zone, m: dict) -> dict[frozenset[str], tuple[Zone, Zone]]:
    """Every non-empty M-cell of the zone with its projection onto Y, largest
    Y first, all built at once and stored nowhere: the loop that
    ``inclusion.m_cells`` ran before it built cells on demand, kept as its
    reference."""
    cells = {}
    if not zone.is_empty:
        ys = clock_preorder(zone, m).downward_closed_sets()
        for y in sorted(ys, key=len, reverse=True):
            cell = restrict_y(zone, y, m)
            if not cell.is_empty:
                cells[y] = (cell, cell.project([c for c in zone.clocks if c in y]))
    return cells


# -- random generation -------------------------------------------------------------


def random_zone(rng: random.Random, clocks: tuple[str, ...], cmax: int) -> Zone:
    while True:
        cons = []
        for c in clocks:
            if rng.random() < 0.8:
                cons.append((None, c, -rng.randint(0, cmax), rng.random() < 0.3))
            if rng.random() < 0.6:
                cons.append((c, None, rng.randint(0, cmax), rng.random() < 0.3))
        for a in clocks:
            for b in clocks:
                if a != b and rng.random() < 0.4:
                    cons.append((a, b, rng.randint(-cmax, cmax), rng.random() < 0.3))
        z = Zone.universal(clocks).intersect(cons)
        if not z.is_empty:
            return z


def random_cost(rng: random.Random, clocks: tuple[str, ...]) -> AffineCost:
    coeffs = {}
    for c in clocks:
        k = rng.randint(-3, 3)
        if rng.random() < 0.2:
            coeffs[c] = Fraction(k, 2)
        else:
            coeffs[c] = Fraction(k)
    return AffineCost.of(clocks, coeffs, Fraction(rng.randint(-5, 5)))


def random_priced_zone(rng: random.Random, clocks: tuple[str, ...], cmax: int) -> PricedZone:
    return PricedZone(random_zone(rng, clocks, cmax), random_cost(rng, clocks))


def weaken(rng: random.Random, pz: PricedZone) -> PricedZone:
    """A priced zone subsuming the given one by construction.

    The zone only grows (bounds are relaxed) and the cost only drops
    pointwise on the nonnegative orthant, so the classical inclusion test
    already accepts the pair.
    """
    from zonecost.dbm import LE_ZERO, encode

    z = pz.zone
    n = len(z.clocks) + 1
    mat = list(z.m)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = mat[i * n + j]
            if e >= INF or rng.random() >= 0.3:
                continue
            e2 = INF if rng.random() < 0.4 else encode(
                bound_value(e) + rng.randint(1, 3), False
            )
            if i == 0:
                e2 = min(e2, LE_ZERO)
            mat[i * n + j] = max(e, e2)
    zone = closed_zone(z.clocks, mat)
    if pz.cost.minus_infinity:
        return PricedZone(zone, pz.cost)
    coeffs = {
        c: k - Fraction(rng.randint(0, 2), 2) for c, k in pz.cost.coeff_map().items()
    }
    const = pz.cost.const - rng.randint(0, 3)
    return PricedZone(zone, AffineCost.of(z.clocks, coeffs, const))


def random_point(rng: random.Random, zone: Zone) -> dict[str, Fraction]:
    """A random rational point of a non-empty zone (greedy interval sampling)."""
    n = len(zone.clocks) + 1
    vals: list[Fraction | None] = [Fraction(0)] + [None] * len(zone.clocks)
    order = list(range(1, n))
    rng.shuffle(order)
    for i in order:
        lo, hi = Fraction(0), None
        lo_strict = hi_strict = False
        for j in range(n):
            if vals[j] is None:
                continue
            e = zone.m[i * n + j]
            if e < INF:
                cand = vals[j] + bound_value(e)
                if hi is None or cand < hi or (cand == hi and bound_is_strict(e)):
                    hi, hi_strict = cand, bound_is_strict(e)
            e = zone.m[j * n + i]
            if e < INF:
                cand = vals[j] - bound_value(e)
                if cand > lo or (cand == lo and bound_is_strict(e)):
                    lo, lo_strict = cand, bound_is_strict(e)
        if hi is None:
            hi = lo + rng.randint(1, 3)
            hi_strict = False
        if lo == hi:
            vals[i] = lo
        else:
            q = Fraction(rng.randint(1, 6), 7)
            vals[i] = lo + (hi - lo) * q
    point = {c: vals[zone.idx(c)] for c in zone.clocks}
    assert zone.contains(point)
    return point


def _random_guard(rng: random.Random, clocks, cmax: int, atoms: int):
    out = []
    for _ in range(atoms):
        op = rng.choice(["<", "<=", "=", ">=", ">"])
        lo = 1 if op in ("<",) else 0
        out.append(Atom(rng.choice(clocks), op, rng.randint(lo, cmax)))
    return tuple(out)


def random_automaton(rng: random.Random, *, max_clocks: int = 3, max_locations: int = 6,
                     cmax: int = 5, wmax: int = 5) -> Automaton:
    n_clocks = rng.randint(1, max_clocks)
    clocks = tuple(f"x{i}" for i in range(n_clocks))
    n_loc = rng.randint(2, max_locations)
    names = [f"l{i}" for i in range(n_loc)]
    goal = rng.choice(names[1:])
    locations = []
    for i, name in enumerate(names):
        inv = ()
        if rng.random() < 0.2:
            inv = (Atom(rng.choice(clocks), "<=", rng.randint(1, cmax)),)
        locations.append(
            Location(name, rng.randint(0, wmax), inv, goal=name == goal, initial=i == 0)
        )
    edges = []
    # a backbone path toward the goal keeps most instances satisfiable
    backbone = [names[0]] + rng.sample(names[1:], rng.randint(0, n_loc - 2)) + [goal]
    for src, dst in zip(backbone, backbone[1:]):
        guard = _random_guard(rng, clocks, cmax, rng.randint(0, 1))
        guard = tuple(at for at in guard if at.op not in ("=",))  # keep it passable
        resets = tuple(c for c in clocks if rng.random() < 0.3)
        edges.append(Edge(src, dst, guard, resets, rng.randint(0, wmax)))
    n_extra = rng.randint(0, n_loc + 1)
    for _ in range(n_extra):
        src = rng.choice(names)
        dst = rng.choice(names)
        guard = _random_guard(rng, clocks, cmax, rng.randint(0, 2))
        resets = tuple(c for c in clocks if rng.random() < 0.3)
        edges.append(Edge(src, dst, guard, resets, rng.randint(0, wmax)))
    return Automaton("rnd", clocks, tuple(locations), tuple(edges))


def random_network(rng: random.Random, *, nonnegative: bool = False, cmax: int = 3,
                   wmax: int = 3) -> Network:
    """2-4 components of 1-3 locations, one clock each, on channels ``a`` and ``b``.

    A channel may be sent and received within one component as well as
    across components; every channel gets both polarities somewhere.  Rates
    and weights are drawn from [-wmax, wmax], or from [0, wmax] when
    ``nonnegative``.
    """
    low = 0 if nonnegative else -wmax
    n = rng.randint(2, 4)
    clocks = tuple(f"x{i}" for i in range(n))
    comps = []
    for i in range(n):
        names = [f"p{i}_{k}" for k in range(rng.randint(1, 3))]
        goals = set(rng.sample(names, rng.randint(0, 1)))
        locations = []
        for k, name in enumerate(names):
            inv = ()
            if rng.random() < 0.3:
                inv = (Atom(clocks[i], "<=", rng.randint(1, cmax)),)
            locations.append(Location(name, rng.randint(low, wmax), inv,
                                      goal=name in goals, initial=k == 0))
        edges = []
        for _ in range(rng.randint(1, 4)):
            sync = None
            if rng.random() < 0.6:
                sync = (rng.choice("ab"), rng.choice("!?"))
            edges.append(Edge(
                rng.choice(names), rng.choice(names),
                _random_guard(rng, (clocks[i],), cmax, rng.randint(0, 1)),
                (clocks[i],) if rng.random() < 0.4 else (),
                rng.randint(low, wmax), sync,
            ))
        comps.append([f"c{i}", locations, edges])
    polarities: dict[str, set[str]] = {}
    for _, _, edges in comps:
        for e in edges:
            if e.sync is not None:
                polarities.setdefault(e.sync[0], set()).add(e.sync[1])
    for chan, pols in sorted(polarities.items()):
        for pol in sorted({"!", "?"} - pols):
            _, locations, edges = rng.choice(comps)
            edges.append(Edge(rng.choice(locations).name, rng.choice(locations).name,
                              weight=rng.randint(low, wmax), sync=(chan, pol)))
    return Network(
        tuple(Automaton(name, clocks, tuple(locations), tuple(edges))
              for name, locations, edges in comps),
        clocks,
    )


def eager_product(network: Network) -> Automaton:
    """The network's whole product, location by location in ``itertools.product``
    order: the reference for ``model.Product``."""
    comps = network.automata
    designated = [i for i, a in enumerate(comps) if a.goal_locations]
    locations = []
    edges = []
    for combo in itertools.product(*[a.locations for a in comps]):
        names = [l.name for l in combo]
        src = ",".join(names)
        locations.append(
            Location(
                name=src,
                rate=sum(l.rate for l in combo),
                invariant=tuple(at for l in combo for at in l.invariant),
                goal=bool(designated)
                and all(combo[i].goal for i in designated),
                initial=all(l.initial for l in combo),
            )
        )
        for i, a in enumerate(comps):
            for _, e in a.leaving(names[i]):
                if e.sync is None:
                    dst = names.copy()
                    dst[i] = e.target
                    edges.append(Edge(src, ",".join(dst), e.guard, e.resets, e.weight))
                elif e.sync[1] == "!":
                    for j, b in enumerate(comps):
                        if j == i:
                            continue
                        for _, f in b.leaving(names[j]):
                            if f.sync != (e.sync[0], "?"):
                                continue
                            dst = names.copy()
                            dst[i] = e.target
                            dst[j] = f.target
                            edges.append(
                                Edge(
                                    src,
                                    ",".join(dst),
                                    e.guard + f.guard,
                                    tuple(dict.fromkeys(e.resets + f.resets)),
                                    e.weight + f.weight,
                                )
                            )
    return Automaton(
        name=",".join(a.name for a in comps),
        clocks=network.clocks,
        locations=tuple(locations),
        edges=tuple(edges),
    )
