"""Difference bound matrices over clock valuations.

A zone is a conjunction of constraints ``a - b <= m`` / ``a - b < m`` where
``a`` and ``b`` range over the clocks plus the constant reference clock 0.
Zones are kept in canonical (shortest-path closed) form at all times, which
makes emptiness, inclusion and facet extraction entrywise operations.

Bounds are encoded as single integers ``2*value + (0 if strict else 1)`` so
that the natural integer order coincides with the bound order
``(m,<) < (m,<=) < (m+1,<)`` and bound addition stays branch-free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

INF_VALUE = 1 << 60
INF = INF_VALUE << 1  # encoded +oo, conventionally strict

NEG_INF = float("-inf")
POS_INF = float("inf")


class EmptyZoneError(ValueError):
    """Raised when an operation requires a non-empty zone."""


class UnboundedZoneError(ValueError):
    """Raised when an operation requires a bounded zone."""


def encode(value: int, strict: bool) -> int:
    return (value << 1) | (0 if strict else 1)


def bound_value(enc: int) -> int:
    return enc >> 1


def bound_is_strict(enc: int) -> bool:
    return not (enc & 1)


def bound_add(a: int, b: int) -> int:
    if a >= INF or b >= INF:
        return INF
    return (((a >> 1) + (b >> 1)) << 1) | (a & b & 1)


LE_ZERO = encode(0, False)
EMPTY_ENTRY = encode(-1, False)  # every entry of an empty zone's matrix


@dataclass(frozen=True)
class Facet:
    """A boundary zone obtained by turning one tight constraint into an equality.

    ``pivot`` is ``(other, value)`` with ``other`` a clock name or None for the
    reference clock: the facet satisfies ``axis = value`` (other None) or
    ``axis - other = value``, for the axis passed to :meth:`Zone.facets`.
    """

    zone: "Zone"
    pivot: tuple[str | None, int]


class Zone:
    """A canonical DBM over an ordered clock set (reference clock at index 0).

    The constructor takes a canonical matrix as it is, checking only its
    size: every operation below keeps its result canonical, and any other
    matrix is built through :meth:`from_constraints` or :meth:`intersect`.

    A zone is a value: ``==`` and ``hash`` read only the clocks and the
    matrix.  A negative diagonal marks the empty zone, and every operation
    gives it the matrix of :meth:`empty`.
    """

    # _empty caches the diagonal's sign for the hot paths; _cells memoizes
    # inclusion's derived data under one M as (copy of M, cells built on
    # demand, reduced pieces of the priced cells, map of the non-empty
    # cells), ignored by ==, hash and repr
    __slots__ = ("clocks", "m", "_empty", "_cells")

    def __init__(self, clocks: Sequence[str], m: Sequence[int]):
        self.clocks = tuple(clocks)
        self.m = tuple(m)
        if len(self.m) != (len(self.clocks) + 1) ** 2:
            raise ValueError("matrix size does not match clock count")
        self._empty = self.m[0] < LE_ZERO
        self._cells = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def universal(clocks: Sequence[str]) -> "Zone":
        n = len(clocks) + 1
        mat = [INF] * (n * n)
        for i in range(n):
            mat[i * n + i] = LE_ZERO
            mat[0 * n + i] = LE_ZERO  # clocks are nonnegative
        return Zone(clocks, mat)

    @staticmethod
    def origin(clocks: Sequence[str]) -> "Zone":
        n = len(clocks) + 1
        mat = [LE_ZERO] * (n * n)
        return Zone(clocks, mat)

    @staticmethod
    def from_constraints(
        clocks: Sequence[str],
        constraints: Iterable[tuple[str | None, str | None, int, bool]],
    ) -> "Zone":
        """Build a zone from constraints ``a - b (<|<=) value`` (None = reference)."""
        return Zone.universal(clocks).intersect(constraints)

    # -- basic accessors ---------------------------------------------------

    def idx(self, clock: str) -> int:
        return self.clocks.index(clock) + 1

    def entry(self, i: int, j: int) -> int:
        return self.m[i * (len(self.clocks) + 1) + j]

    @property
    def is_empty(self) -> bool:
        return self._empty

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Zone)
            and self.clocks == other.clocks
            and self.m == other.m
        )

    def __hash__(self) -> int:
        return hash((self.clocks, self.m))

    def __repr__(self) -> str:
        if self._empty:
            return f"Zone(empty over {self.clocks})"
        parts = []
        n = len(self.clocks) + 1
        names = ("0",) + self.clocks
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                e = self.m[i * n + j]
                if e >= INF:
                    continue
                op = "<" if bound_is_strict(e) else "<="
                parts.append(f"{names[i]}-{names[j]}{op}{bound_value(e)}")
        return "Zone(" + " & ".join(parts) + ")"

    # -- operations --------------------------------------------------------

    def intersect(self, constraints: Iterable[tuple[str | None, str | None, int, bool]]) -> "Zone":
        """Conjoin difference constraints ``a - b (<|<=) value``.

        Returns ``self`` when no constraint is stricter than the zone.
        """
        if self._empty:
            return self
        n = len(self.clocks) + 1
        index = self.clocks.index
        return self._conjoin(
            (
                (0 if a is None else index(a) + 1) * n + (0 if b is None else index(b) + 1),
                encode(value, strict),
            )
            for a, b, value, strict in constraints
        )

    def intersect_zone(self, other: "Zone") -> "Zone":
        if self.clocks != other.clocks:
            raise ValueError("clock sets differ")
        if self._empty or other._empty:
            return self if self._empty else other
        return self._conjoin(enumerate(other.m))

    def _conjoin(self, bounds: Iterable[tuple[int, int]]) -> "Zone":
        """Tighten by encoded bounds given as (flat matrix index, bound), each
        only if stricter than the partly tightened matrix, so implied bounds
        cost nothing."""
        n = len(self.clocks) + 1
        mat = self.m
        for k, e in bounds:
            if e < mat[k]:
                if mat is self.m:
                    mat = list(mat)
                i, j = divmod(k, n)
                if _tighten(mat, n, i, j, e):
                    return Zone.empty(self.clocks)
        if mat is self.m:
            return self
        return Zone(self.clocks, mat)

    def up(self) -> "Zone":
        """Delay closure: drop individual upper bounds (stays canonical)."""
        if self._empty:
            return self
        n = len(self.clocks) + 1
        mat = list(self.m)
        for i in range(1, n):
            mat[i * n + 0] = INF
        return Zone(self.clocks, mat)

    def reset(self, resets: Sequence[str]) -> "Zone":
        """Set the given clocks to 0 (image, not precondition)."""
        if self._empty or not resets:
            return self
        n = len(self.clocks) + 1
        mat = list(self.m)
        for clock in resets:
            x = self.idx(clock)
            for j in range(n):
                mat[x * n + j] = mat[0 * n + j]
                mat[j * n + x] = mat[j * n + 0]
            mat[x * n + x] = LE_ZERO
        return Zone(self.clocks, mat)

    def project(self, keep: Sequence[str]) -> "Zone":
        """Existentially eliminate all clocks outside ``keep``."""
        keep_set = set(keep)
        if not keep_set.issubset(self.clocks):
            raise ValueError("projection clocks must be a subset")
        keep_t = tuple(c for c in self.clocks if c in keep_set)
        if self._empty:
            return Zone.empty(keep_t)
        n = len(self.clocks) + 1
        sel = [0] + [k for k, c in enumerate(self.clocks, 1) if c in keep_set]
        mat = [self.m[i * n + j] for i in sel for j in sel]
        return Zone(keep_t, mat)

    def closure(self) -> "Zone":
        """Weaken every strict bound; the topological closure for non-empty zones."""
        if self._empty:
            return self
        mat = [e if e >= INF else (e | 1) for e in self.m]
        return Zone(self.clocks, mat)

    def scale(self, factor: int) -> "Zone":
        """The zone of ``factor * v`` for ``v`` in the zone (integer factor >= 1)."""
        if factor < 1:
            raise ValueError("scale factor must be positive")
        if self._empty or factor == 1:
            return self
        mat = [
            e if e >= INF else encode(bound_value(e) * factor, bound_is_strict(e))
            for e in self.m
        ]
        return Zone(self.clocks, mat)

    @staticmethod
    def empty(clocks: Sequence[str]) -> "Zone":
        return Zone(clocks, [EMPTY_ENTRY] * (len(clocks) + 1) ** 2)

    def subset(self, other: "Zone") -> bool:
        """Entrywise comparison of canonical forms."""
        if self.clocks != other.clocks:
            raise ValueError("clock sets differ")
        if self._empty:
            return True
        if other._empty:
            return False
        # one C-level pass that stops at the first entry out of order
        return all(map(operator.le, self.m, other.m))

    def contains(self, v: Mapping[str, Fraction | int]) -> bool:
        """Exact membership test of a rational valuation."""
        if self._empty:
            return False
        n = len(self.clocks) + 1
        # int and Fraction coordinates mix exactly; no conversion needed
        vals = [0] + [v[c] for c in self.clocks]
        for i in range(n):
            for j in range(n):
                e = self.m[i * n + j]
                if e >= INF:
                    continue
                d = vals[i] - vals[j]
                if bound_is_strict(e):
                    if not d < bound_value(e):
                        return False
                elif not d <= bound_value(e):
                    return False
        return True

    def sample_point(self) -> dict[str, Fraction]:
        """Some rational valuation inside the zone (strict bounds respected)."""
        if self._empty:
            raise EmptyZoneError("cannot sample an empty zone")
        n = len(self.clocks) + 1
        vals: list[Fraction | None] = [Fraction(0)] + [None] * len(self.clocks)
        for i in range(1, n):
            lo, lo_strict = Fraction(0), False
            hi, hi_strict = None, False
            for j in range(n):
                if vals[j] is None:
                    continue
                e_up = self.m[i * n + j]  # v_i - v_j <= e_up
                if e_up < INF:
                    cand = vals[j] + bound_value(e_up)
                    if hi is None or cand < hi or (cand == hi and bound_is_strict(e_up)):
                        hi, hi_strict = cand, bound_is_strict(e_up)
                e_lo = self.m[j * n + i]  # v_j - v_i <= e_lo
                if e_lo < INF:
                    cand = vals[j] - bound_value(e_lo)
                    if cand > lo or (cand == lo and bound_is_strict(e_lo)):
                        lo, lo_strict = cand, bound_is_strict(e_lo)
            if hi is None:
                vals[i] = lo + 1
            elif lo == hi:
                vals[i] = lo
            else:
                vals[i] = (lo + hi) / 2
        return {c: vals[k] for k, c in enumerate(self.clocks, 1)}

    # -- facets --------------------------------------------------------------

    def facets(self, axis: str, kind: str) -> list[Facet]:
        """Simple facets of closure(self) w.r.t. ``axis``.

        Lower facets come from tight bounds ``axis >= n`` / ``axis - y >= m``,
        upper facets from ``axis <= n`` / ``axis - y <= m``.  One facet per
        finite canonical entry; every returned facet zone is non-empty.
        """
        if kind not in ("lower", "upper"):
            raise ValueError("kind must be 'lower' or 'upper'")
        if self._empty:
            raise EmptyZoneError("facets of an empty zone")
        closed = self.closure()
        n = len(self.clocks) + 1
        x = self.idx(axis)
        out: list[Facet] = []
        others: list[tuple[str | None, int]] = [(None, 0)] + [
            (c, k) for k, c in enumerate(self.clocks, 1) if c != axis
        ]
        for other, j in others:
            if kind == "lower":
                e = closed.m[j * n + x]  # v_j - v_x <= m  <=>  x - j >= -m
                if e >= INF:
                    continue
                pivot_value = -bound_value(e)
                extra = [(axis, other, pivot_value, False)]
            else:
                e = closed.m[x * n + j]  # v_x - v_j <= m
                if e >= INF:
                    continue
                pivot_value = bound_value(e)
                extra = [(other, axis, -pivot_value, False)]
            # a tight bound of a non-empty closed canonical DBM is attained
            out.append(Facet(closed.intersect(extra), (other, pivot_value)))
        return out

    # -- vertices --------------------------------------------------------------

    def vertices(self) -> list[dict[str, int]]:
        """All vertices of the closure polyhedron (requires a bounded closure).

        Nodes that the closure fixes at a constant offset from an earlier node
        (``m_ij + m_ji = 0``, the reference clock included) form one class,
        the zero-cycle classes of the minimal-constraint form (Larsen et al.,
        RTSS 1997).  The closure is affinely the polyhedron of the class
        representatives, whose DBM is a submatrix of a canonical DBM and so
        canonical; its vertices are expanded by the offsets.

        A vertex is pinned by tight bounds, so it lies on a lower or an upper
        facet of the quotient's first clock x, and a vertex of a face is a
        vertex of the polyhedron.  The vertices are therefore those of x's
        distinct facet zones: project x away, recurse, and lift each point by
        the facet's ``x = other + value``.  A quotient without clocks has the
        one vertex at the origin, and one with a single clock is an interval
        whose two bounds are its vertices.
        """
        if self._empty:
            raise EmptyZoneError("vertices of an empty zone")
        n = len(self.clocks) + 1
        m = self.m
        for i in range(1, n):
            if m[i * n + 0] >= INF:
                raise UnboundedZoneError("vertex enumeration needs a bounded zone")
        reps: list[int] = []  # one node per class, the reference clock first
        # node i sits at x_reps[at[i]] + offset[i]; in a canonical DBM zero
        # cycles are transitive, so comparing with representatives suffices
        at = [0] * n
        offset = [0] * n
        for i in range(n):
            for k, r in enumerate(reps):
                ir, ri = m[i * n + r], m[r * n + i]
                if ir < INF and ri < INF and bound_value(ir) + bound_value(ri) == 0:
                    at[i], offset[i] = k, bound_value(ir)
                    break
            else:
                at[i] = len(reps)
                reps.append(i)
        if len(reps) == 1:
            points = {(0,)}
        elif len(reps) == 2:
            r = reps[1]
            points = {(0, -bound_value(m[r])), (0, bound_value(m[r * n]))}
        else:
            quotient = Zone(
                [self.clocks[r - 1] for r in reps[1:]],
                [m[a * n + b] for a in reps for b in reps],
            )
            x, rest = quotient.clocks[0], quotient.clocks[1:]
            points = set()
            faces = set()
            for facet in quotient.facets(x, "lower") + quotient.facets(x, "upper"):
                if facet.zone in faces:
                    continue
                faces.add(facet.zone)
                other, value = facet.pivot
                for v in facet.zone.project(rest).vertices():
                    lifted = value + (0 if other is None else v[other])
                    points.add((0, lifted, *(v[c] for c in rest)))
        found = {tuple(p[at[i]] + offset[i] for i in range(n)) for p in points}
        return [
            {c: p[k] for k, c in enumerate(self.clocks, 1)} for p in sorted(found)
        ]


def _close(mat: list[int], n: int) -> bool:
    """Floyd-Warshall closure in place; returns True when inconsistent.

    No library path calls it: zones are canonical by construction, and
    intersections tighten with :func:`_tighten`.  It stays bound here as the
    tests' reference closure and because the benchmark's tracer counts
    ``dbm._close`` by name.
    """
    for i in range(n):
        ii = mat[i * n + i]
        if ii < LE_ZERO:
            return True
        mat[i * n + i] = LE_ZERO
    for k in range(n):
        kn = k * n
        for i in range(n):
            ik = mat[i * n + k]
            if ik >= INF:
                continue
            row = i * n
            for j in range(n):
                d = bound_add(ik, mat[kn + j])
                if d < mat[row + j]:
                    mat[row + j] = d
    for i in range(n):
        if mat[i * n + i] < LE_ZERO:
            return True
    return False


def _tighten(mat: list[int], n: int, i: int, j: int, e: int) -> bool:
    """Conjoin ``x_i - x_j <= e`` to a canonical matrix in place in O(n^2);
    returns True when the result is empty (Bengtsson & Yi 2004).

    A new shortest path a -> b uses the new arc i -> j at most once, so it is
    a -> i, then the arc, then j -> b; a = i, b = j sets the arc itself, as
    the diagonal is zero.  Once the emptiness check has passed, no entry of
    column i or row j can shrink, so the pass can update the matrix in place.
    """
    if bound_add(mat[j * n + i], e) < LE_ZERO:
        return True
    row = mat[j * n : j * n + n]
    for a in range(n):
        ae = bound_add(mat[a * n + i], e)
        if ae >= INF:
            continue
        base = a * n
        for b in range(n):
            d = bound_add(ae, row[b])
            if d < mat[base + b]:
                mat[base + b] = d
    return False


# -- affine optimization over zones ------------------------------------------


def sup_affine(
    zone: Zone, coeffs: Mapping[str, int | Fraction], const: int | Fraction = 0
) -> tuple[int | Fraction | float, dict[str, int] | None]:
    """Supremum of an affine function over the closure of a non-empty zone.

    Returns ``(value, witness)``; the witness is the least point of the
    optimal face, an integral point of the closure, or None when the
    supremum is +oo.  The value is an ``int`` when the coefficients and
    constant are integral.

    In a canonical DBM each entry m_ij is already the shortest i -> j
    distance (Bengtsson & Yi 2004), so three shapes of objective are read
    off the matrix, strictness ignored; lower_k = -m_0k is clock k's lower
    bound:

    - all c_k <= 0, all zero included: the value is sum c_k * lower_k, at
      the closure's least point.
    - all c_k >= 0, some positive: each clock p with c_p > 0 sits at its
      upper bound m_p0, and a DBM polyhedron attains these together since
      it is closed under componentwise max; +oo when one is infinite.
    - c * (x_a - x_b) with c > 0: the value is c * m_ab, +oo when m_ab is
      infinite.

    In the last two the optimal face adds x_p - x_s >= m_ps for each p with
    c_p > 0, where s is 0, or b for a difference: arcs s -> p of weight
    -m_ps.  Its least point is the negated shortest distances from 0, and
    as the new arcs all leave s no shortest path takes two of them, so
    coordinate k is max(lower_k, max_p m_ps - m_0s - m_pk).

    Every other objective goes to the min-cost-flow dual, :func:`_sup_flow`.
    """
    if zone.is_empty:
        raise EmptyZoneError("sup over an empty zone")
    n = len(zone.clocks) + 1
    m = zone.m
    rates = [0] + [coeffs.get(c, 0) for c in zone.clocks]  # by node
    pos = [k for k in range(1, n) if rates[k] > 0]
    neg = [k for k in range(1, n) if rates[k] < 0]
    if pos and neg and not (len(pos) == len(neg) == 1 and rates[pos[0]] == -rates[neg[0]]):
        return _sup_flow(zone, coeffs, const)
    # the least point; row 0 is finite since clocks are nonnegative
    point = [-bound_value(e) for e in m[:n]]
    if pos:
        s = neg[0] if neg else 0
        lower_s = point[s]  # read before the loop below raises point[b]
        total = 0
        for p in pos:
            e = m[p * n + s]
            if e >= INF:
                return POS_INF, None
            total += rates[p] * bound_value(e)
            top = bound_value(e) + lower_s
            row = p * n
            for k in range(1, n):
                e = m[row + k]
                if e < INF and top - bound_value(e) > point[k]:
                    point[k] = top - bound_value(e)
    else:
        total = sum(rates[k] * point[k] for k in neg)
    if type(total) is Fraction and all(rates[k].denominator == 1 for k in pos + neg):
        total = total.numerator  # integral rates give an int, as in the flow
    return const + total, {c: point[k] for k, c in enumerate(zone.clocks, 1)}


def _sup_flow(
    zone: Zone, coeffs: Mapping[str, int | Fraction], const: int | Fraction
) -> tuple[int | Fraction | float, dict[str, int] | None]:
    """:func:`sup_affine` over any non-empty zone by the min-cost-flow dual.

    The dual of ``max c.x s.t. x_i - x_j <= m_ij`` is an uncapacitated
    transshipment: clock k supplies ``c_k`` units (scaled to integers), the
    reference clock 0 balances them, and arc i -> j costs ``m_ij`` per unit.
    Successive shortest paths either strand some supply, so the dual is
    infeasible and the sup is +oo, or route all of it at minimum cost, which
    is the sup.  The negated shortest distances from 0 in the final residual
    graph satisfy every bound and keep every bound that carries flow tight,
    so by complementary slackness they are an optimal integral vertex: the
    least point of the optimal face.
    """
    n = len(zone.clocks) + 1
    rates = [coeffs.get(c, 0) for c in zone.clocks]
    scale = lcm(1, *(r.denominator for r in rates))
    supply = [0] + [r.numerator * (scale // r.denominator) for r in rates]
    supply[0] = -sum(supply)
    # the sup over the closure ignores strictness
    arcs = [
        (i, j, bound_value(zone.m[i * n + j]))
        for i in range(n)
        for j in range(n)
        if i != j and zone.m[i * n + j] < INF
    ]
    flow = [0] * len(arcs)
    total = 0
    while any(s > 0 for s in supply):
        dist, pred = _residual_distances(
            n, arcs, flow, [k for k in range(n) if supply[k] > 0]
        )
        sinks = [k for k in range(n) if supply[k] < 0 and dist[k] is not None]
        if not sinks:
            return POS_INF, None
        t = min(sinks, key=dist.__getitem__)
        path = []
        source = t
        while pred[source] is not None:
            a, d = pred[source]
            path.append((a, d))
            source = arcs[a][0] if d > 0 else arcs[a][1]
        amount = min(supply[source], -supply[t], *(flow[a] for a, d in path if d < 0))
        for a, d in path:
            flow[a] += d * amount
        supply[source] -= amount
        supply[t] += amount
        total += amount * dist[t]
    # clocks are nonnegative (row 0 is finite), so 0 reaches every node
    dist, _ = _residual_distances(n, arcs, flow, [0])
    point = {c: -dist[k] for k, c in enumerate(zone.clocks, 1)}
    return const + (total if scale == 1 else Fraction(total, scale)), point


def inf_affine(
    zone: Zone, coeffs: Mapping[str, int | Fraction], const: int | Fraction = 0
) -> tuple[int | Fraction | float, dict[str, int] | None]:
    """Infimum counterpart of :func:`sup_affine`; -oo when unbounded below."""
    neg = {c: -v for c, v in coeffs.items()}
    value, point = sup_affine(zone, neg, -const)
    if value == POS_INF:
        return NEG_INF, None
    return -value, point


def _residual_distances(
    n: int, arcs: list[tuple[int, int, int]], flow: list[int], roots: list[int]
) -> tuple[list[int | None], list[tuple[int, int] | None]]:
    """Bellman-Ford from ``roots`` (at distance 0) over the residual graph.

    Arc ``a = (i, j, w)`` is residual forward (i -> j, cost w) always and
    backward (j -> i, cost -w) while it carries flow; the residual graph of
    an optimal partial flow has no negative cycle.  Returns each node's
    distance (None when unreachable) and the arc reaching it as ``(a, +1)``
    or ``(a, -1)``, None for the roots.
    """
    dist: list[int | None] = [None] * n
    pred: list[tuple[int, int] | None] = [None] * n
    for r in roots:
        dist[r] = 0
    for _ in range(n):
        changed = False
        for a, (i, j, w) in enumerate(arcs):
            di = dist[i]
            if di is not None and (dist[j] is None or di + w < dist[j]):
                dist[j], pred[j], changed = di + w, (a, 1), True
            dj = dist[j]
            if flow[a] and dj is not None and (dist[i] is None or dj - w < dist[i]):
                dist[i], pred[i], changed = dj - w, (a, -1), True
        if not changed:
            break
    return dist, pred
