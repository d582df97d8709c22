"""Weighted timed automata: data model, textual format, composition, runs.

The textual format is line oriented ('#' starts a comment):

    clocks x y;
    automaton NAME
      location NAME rate INT [invariant GUARD] [goal] [initial];
      edge SRC -> DST [guard GUARD] [reset x,y] [weight INT] [sync chan! | chan?];

with GUARD ::= atom (&& atom)* and atom ::= clock (< | <= | = | >= | >) NAT.
Networks synchronize through binary channel handshakes.  ``compose`` returns
their synchronous product as a view that composes a product location, and
the moves leaving it, only when an exploration asks for them.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType
from typing import Collection, Iterable

from .dbm import INF_VALUE

OPS = MappingProxyType(
    {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "=": operator.eq})

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*$")
_ATOM = re.compile(r"([A-Za-z_][A-Za-z0-9_.]*)\s*(<=|>=|<|>|=)\s*(-?\d+)$")


class ModelError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RunError(ValueError):
    def __init__(self, message: str, step: int):
        self.step = step
        super().__init__(f"step {step}: {message}")


@dataclass(frozen=True)
class Atom:
    clock: str
    op: str  # one of OPS
    const: int

    def __post_init__(self):
        if self.op not in OPS:
            raise ModelError(f"unknown comparison '{self.op}' in guard atom")
        if type(self.const) is not int or self.const < 0:
            raise ModelError(f"guard constant must be a natural number, got {self.const!r}")

    def holds(self, v) -> bool:
        return OPS[self.op](v[self.clock], self.const)

    def constraints(self) -> list[tuple[str | None, str | None, int, bool]]:
        """The pair of difference constraints the atom contributes."""
        out = []
        if self.op in ("<", "<="):
            out.append((self.clock, None, self.const, self.op == "<"))
        elif self.op in (">", ">="):
            out.append((None, self.clock, -self.const, self.op == ">"))
        else:
            out.append((self.clock, None, self.const, False))
            out.append((None, self.clock, -self.const, False))
        return out

    def __str__(self) -> str:
        return f"{self.clock} {self.op} {self.const}"


Guard = tuple[Atom, ...]


def guard_constraints(guard: Guard) -> list[tuple[str | None, str | None, int, bool]]:
    return [c for atom in guard for c in atom.constraints()]


def _check_guard(guard: Guard, clocks: Collection[str]) -> None:
    for atom in guard:
        if atom.clock not in clocks:
            raise ModelError(f"unknown clock '{atom.clock}'")
        # a DBM's emptiness test sums up to n + 1 bounds; the sum must stay below +oo
        if (len(clocks) + 1) * atom.const >= INF_VALUE:
            raise ModelError(
                f"guard constant {atom.const} too large: (clocks + 1) * c must be < 2**60")


def _check_edge(edge: Edge, clocks: Collection[str], locations: Collection[str]) -> None:
    for loc in (edge.source, edge.target):
        if loc not in locations:
            raise ModelError(f"unknown location '{loc}'")
    _check_guard(edge.guard, clocks)
    for c in edge.resets:
        if c not in clocks:
            raise ModelError(f"unknown clock '{c}' in reset")
    if edge.sync is not None and edge.sync[1] not in ("!", "?"):
        raise ModelError(f"sync polarity {edge.sync[1]!r} on channel '{edge.sync[0]}' "
                         "is neither '!' nor '?'")


@dataclass(frozen=True)
class Location:
    name: str
    rate: int
    invariant: Guard = ()
    goal: bool = False
    initial: bool = False


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    guard: Guard = ()
    resets: tuple[str, ...] = ()
    weight: int = 0
    sync: tuple[str, str] | None = None  # (channel, "!" or "?")


@dataclass(frozen=True)
class Automaton:
    name: str
    clocks: tuple[str, ...]
    locations: tuple[Location, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        initials = [l.name for l in self.locations if l.initial]
        if len(initials) != 1:
            raise ModelError(f"automaton {self.name}: needs exactly one initial location")
        if not self.clocks:
            raise ModelError(f"automaton {self.name}: needs at least one clock")
        if len(set(self.clocks)) != len(self.clocks):
            raise ModelError(f"automaton {self.name}: duplicate clock names")
        if len(self._by_name) != len(self.locations):
            raise ModelError(f"automaton {self.name}: duplicate location names")
        for l in self.locations:
            _check_guard(l.invariant, self.clocks)
        for e in self.edges:
            _check_edge(e, self.clocks, self._by_name)

    @property
    def initial(self) -> str:
        return next(l.name for l in self.locations if l.initial)

    @property
    def goal_locations(self) -> frozenset[str]:
        return frozenset(l.name for l in self.locations if l.goal)

    @cached_property
    def _by_name(self) -> dict[str, Location]:
        return {l.name: l for l in self.locations}

    @cached_property
    def _out_edges(self) -> dict[str, tuple[tuple[int, Edge], ...]]:
        out: dict[str, list[tuple[int, Edge]]] = {}
        for i, e in enumerate(self.edges):
            out.setdefault(e.source, []).append((i, e))
        return {name: tuple(pairs) for name, pairs in out.items()}

    def location(self, name: str) -> Location:
        return self._by_name[name]

    def leaving(self, name: str) -> tuple[tuple[int, Edge], ...]:
        """The (index, edge) pairs whose source is ``name``, in index order."""
        return self._out_edges.get(name, ())

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def min_weight(self) -> int:
        rates = [l.rate for l in self.locations]
        weights = [e.weight for e in self.edges]
        return min(rates + weights, default=0)

    @cached_property
    def _max_constants(self) -> dict[str, int | None]:
        return _largest_constants(
            self.clocks,
            [l.invariant for l in self.locations] + [e.guard for e in self.edges],
        )

    def max_constants(self) -> dict[str, int | None]:
        """Largest constant each clock is compared against; None when never compared."""
        return dict(self._max_constants)


@dataclass(frozen=True)
class Network:
    automata: tuple[Automaton, ...]
    clocks: tuple[str, ...]

    def __post_init__(self):
        if not self.automata:
            raise ModelError("network needs at least one automaton")
        owner: dict[str, int] = {}
        polarity: dict[str, set[str]] = {}
        for i, a in enumerate(self.automata):
            # product zones are over the network's clocks: check each component against them
            if a.clocks != self.clocks:
                raise ModelError(f"automaton {a.name}: clocks {a.clocks} are not the network's")
            # the product names a location vector by joining its names with ','
            for l in a.locations:
                if "," in l.name:
                    raise ModelError(f"automaton {a.name}: location name '{l.name}' contains ','")
            used = {atom.clock for l in a.locations for atom in l.invariant}
            for e in a.edges:
                used.update(atom.clock for atom in e.guard)
                used.update(e.resets)
                if e.sync is not None:
                    polarity.setdefault(e.sync[0], set()).add(e.sync[1])
            for c in sorted(used):
                if owner.setdefault(c, i) != i:
                    other = self.automata[owner[c]].name
                    raise ModelError(f"clock '{c}' used by both '{other}' and '{a.name}'")
        for chan, pols in polarity.items():
            if pols != {"!", "?"}:
                raise ModelError(f"channel '{chan}' has no matching {'?' if pols == {'!'} else '!'}-edge")

    @property
    def channels(self) -> frozenset[str]:
        return frozenset(
            e.sync[0] for a in self.automata for e in a.edges if e.sync is not None
        )


@dataclass(frozen=True)
class Run:
    """Strictly alternating delay/edge moves plus an optional trailing delay."""

    steps: tuple[tuple[Fraction, int], ...]  # (delay, edge index)
    trailing_delay: Fraction = Fraction(0)


# -- parsing ------------------------------------------------------------------


def _parse_guard(text: str) -> Guard:
    atoms = []
    for raw in text.split("&&"):
        part = raw.strip()
        m = _ATOM.match(part)
        if not m:
            raise ModelError(f"malformed guard atom '{part}'")
        atoms.append(Atom(m.group(1), m.group(2), int(m.group(3))))
    return tuple(atoms)


def _statements(text: str) -> Iterable[tuple[int, str]]:
    """Yield ';'-terminated statements (or bare 'automaton NAME' headers)."""
    pending: list[str] = []
    start = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("automaton") and not pending:
            yield lineno, line
            continue
        if start is None:
            start = lineno
        pending.append(line)
        if line.endswith(";"):
            yield start, " ".join(pending)[:-1].strip()
            pending, start = [], None
    if pending:
        raise ModelError("unterminated statement (missing ';')", start)


def parse_model(text: str) -> Network:
    """Parse the textual model format into a validated network.

    The model's rules are the constructors'; the parser checks each statement
    with ``_check_guard`` / ``_check_edge`` as it reads it, to name its line.
    """
    clocks: list[str] = []
    automata: list[Automaton] = []
    current: dict | None = None

    def finish():
        nonlocal current
        if current is None:
            return
        automata.append(
            Automaton(
                name=current["name"],
                clocks=tuple(clocks),
                locations=tuple(current["locations"].values()),
                edges=tuple(current["edges"]),
            )
        )
        current = None

    for lineno, stmt in _statements(text):
        words = stmt.split()
        head = words[0]
        if head == "automaton":
            if len(words) != 2 or not _NAME.match(words[1]):
                raise ModelError("expected 'automaton NAME'", lineno)
            finish()  # an automaton's own errors, like the network's, name no line
            current = {"name": words[1], "locations": {}, "edges": []}
            continue
        try:
            if head == "clocks":
                if clocks:
                    raise ModelError("duplicate clocks declaration")
                for c in words[1:]:
                    if not _NAME.match(c):
                        raise ModelError(f"bad clock name '{c}'")
                    if c in clocks:
                        raise ModelError(f"duplicate clock '{c}'")
                    clocks.append(c)
                if not clocks:
                    raise ModelError("empty clocks declaration")
            elif head == "location":
                if current is None:
                    raise ModelError("location outside an automaton")
                m = re.match(
                    r"location\s+(\w[\w.]*)\s+rate\s+(-?\d+)"
                    r"(?:\s+invariant\s+(.*?))?"
                    r"(\s+goal)?(\s+initial)?$",
                    stmt,
                )
                if not m:
                    raise ModelError(f"malformed location statement '{stmt}'")
                name, rate, inv, goal, initial = m.groups()
                if name in current["locations"]:
                    raise ModelError(f"duplicate location '{name}'")
                invariant = _parse_guard(inv) if inv else ()
                _check_guard(invariant, clocks)
                current["locations"][name] = Location(
                    name, int(rate), invariant, goal is not None, initial is not None)
            elif head == "edge":
                if current is None:
                    raise ModelError("edge outside an automaton")
                m = re.match(
                    r"edge\s+(\w[\w.]*)\s*->\s*(\w[\w.]*)"
                    r"(?:\s+guard\s+(.*?))?"
                    r"(?:\s+reset\s+([\w.,\s]*?))?"
                    r"(?:\s+weight\s+(-?\d+))?"
                    r"(?:\s+sync\s+(\w[\w.]*[!?]))?$",
                    stmt,
                )
                if not m:
                    raise ModelError(f"malformed edge statement '{stmt}'")
                src, dst, guard_s, resets_s, weight_s, sync_s = m.groups()
                edge = Edge(
                    src, dst, _parse_guard(guard_s) if guard_s else (),
                    tuple(r.strip() for r in (resets_s or "").split(",") if r.strip()),
                    int(weight_s) if weight_s else 0,
                    (sync_s[:-1], sync_s[-1]) if sync_s else None,
                )
                _check_edge(edge, clocks, current["locations"])
                current["edges"].append(edge)
            else:
                raise ModelError(f"unknown statement '{head}'")
        except ModelError as exc:
            raise ModelError(str(exc), lineno) from None
    finish()
    if not automata:
        raise ModelError("no automaton declared", 1)
    return Network(tuple(automata), tuple(clocks))


def serialize_model(network: Network) -> str:
    """Deterministic textual form; parse(serialize(n)) == n."""
    out = ["clocks " + " ".join(network.clocks) + ";"]
    for a in network.automata:
        out.append(f"automaton {a.name}")
        for l in a.locations:
            parts = [f"  location {l.name} rate {l.rate}"]
            if l.invariant:
                parts.append("invariant " + " && ".join(str(at) for at in l.invariant))
            if l.goal:
                parts.append("goal")
            if l.initial:
                parts.append("initial")
            out.append(" ".join(parts) + ";")
        for e in a.edges:
            parts = [f"  edge {e.source} -> {e.target}"]
            if e.guard:
                parts.append("guard " + " && ".join(str(at) for at in e.guard))
            if e.resets:
                parts.append("reset " + ",".join(e.resets))
            if e.weight:
                parts.append(f"weight {e.weight}")
            if e.sync:
                parts.append(f"sync {e.sync[0]}{e.sync[1]}")
            out.append(" ".join(parts) + ";")
    return "\n".join(out) + "\n"


# -- composition ----------------------------------------------------------------

# The moves of a product location (l_1, ..., l_k) number
#     deg = sum_i internal_i(l_i) + sum_c sum_{i != j} send_i(l_i, c) * recv_j(l_j, c)
#         = sum_i d_i(l_i) + sum_c S_c * R_c,
# with d_i = internal_i - sum_c send_i * recv_i, S_c = sum_i send_i(l_i, c) and
# R_c = sum_i recv_i(l_i, c).  So the moves from a set of location vectors add
# up from its moments (count, sum of d, sum of S_c, sum of R_c, sum of S_c*R_c),
# and the moments of a Cartesian product of two sets follow from theirs.


def _union(m1, m2):
    """Moments of the disjoint union of two sets of location vectors."""
    return (m1[0] + m2[0], m1[1] + m2[1], tuple(map(operator.add, m1[2], m2[2])),
            tuple(map(operator.add, m1[3], m2[3])), tuple(map(operator.add, m1[4], m2[4])))


def _join(m1, m2):
    """Moments of every vector of one set followed by every vector of another."""
    n1, d1, s1, r1, q1 = m1
    n2, d2, s2, r2, q2 = m2
    return (
        n1 * n2,
        d1 * n2 + n1 * d2,
        tuple(a * n2 + n1 * b for a, b in zip(s1, s2)),
        tuple(a * n2 + n1 * b for a, b in zip(r1, r2)),
        tuple(qa * n2 + sa * rb + ra * sb + n1 * qb
              for qa, sa, ra, qb, sb, rb in zip(q1, s1, r1, q2, s2, r2)),
    )


def _moves_of(m) -> int:
    """The number of moves leaving the location vectors with moments ``m``."""
    return m[1] + sum(m[4])


class Product:
    """The synchronous product of a network, composed one location at a time.

    A product location is a vector of component locations, named by joining
    their names with ','.  It carries the summed rates and the conjoined
    invariants; it is a goal when every component that declares goal
    locations sits on one.  Its moves are each component's internal edges,
    and each !-edge paired with every matching ?-edge of another component
    (guards conjoined, resets merged, weights added).  Every question an
    exploration asks is answered from the components and memoised here, so
    only the locations a search reaches are composed.

    Edge indices are those of the product listed in full: location vectors in
    ``itertools.product`` order (the last component varies fastest), and from
    each, component by component, its edges in declaration order, each
    !-edge followed by its ?-partners (partner components in order).  The
    moments above give the number of moves before a vector without listing
    them.  ``locations``, ``edges`` and ``goal_locations`` list the whole
    product; they are built on first access.
    """

    def __init__(self, network: Network):
        comps = network.automata
        self.network = network
        self.clocks = network.clocks
        self.initial = ",".join(a.initial for a in comps)
        self._index = [{l.name: x for x, l in enumerate(a.locations)} for a in comps]
        self._designated = [i for i, a in enumerate(comps) if a.goal_locations]
        self._location_memo: dict[str, Location] = {}
        self._moves: dict[str, tuple[tuple[int, Edge], ...]] = {}
        channel = {c: k for k, c in enumerate(sorted(network.channels))}
        zero = (0,) * len(channel)
        self._unit = (1, 0, zero, zero, zero)
        # _single[p][x]: the moments of location x of component p on its own;
        # _tail[p][x]: of the vectors over components p, p+1, ... whose first
        # entry is one of component p's locations numbered below x
        self._single = []
        for a in comps:
            row = []
            for l in a.locations:
                internal, send, recv = 0, [0] * len(channel), [0] * len(channel)
                for _, e in a.leaving(l.name):
                    if e.sync is None:
                        internal += 1
                    else:
                        (send if e.sync[1] == "!" else recv)[channel[e.sync[0]]] += 1
                pairs = tuple(map(operator.mul, send, recv))
                row.append((1, internal - sum(pairs), tuple(send), tuple(recv), pairs))
            self._single.append(row)
        self._tail = []
        later = self._unit
        for row in reversed(self._single):
            below = [(0, 0, zero, zero, zero)]
            for m in row:
                below.append(_union(below[-1], m))
            self._tail.append([_join(m, later) for m in below])
            later = self._tail[-1][-1]
        self._tail.reverse()
        self.edge_count = _moves_of(later)

    def _split(self, name: str) -> list[str]:
        parts = name.split(",")
        if len(parts) != len(self._index):
            raise KeyError(name)
        return parts

    def location(self, name: str) -> Location:
        loc = self._location_memo.get(name)
        if loc is None:
            combo = [a.location(part) for a, part in
                     zip(self.network.automata, self._split(name))]
            loc = self._location_memo[name] = Location(
                name=name,
                rate=sum(l.rate for l in combo),
                invariant=tuple(at for l in combo for at in l.invariant),
                goal=bool(self._designated)
                and all(combo[i].goal for i in self._designated),
                initial=all(l.initial for l in combo),
            )
        return loc

    def leaving(self, name: str) -> tuple[tuple[int, Edge], ...]:
        """The (index, move) pairs whose source is ``name``, in index order."""
        moves = self._moves.get(name)
        if moves is None:
            names = self._split(name)
            # the vectors listed before this one: for each p, those that agree
            # with it before p and sit at a location numbered lower at p
            first, before = 0, self._unit
            for p, part in enumerate(names):
                x = self._index[p][part]
                first += _moves_of(_join(before, self._tail[p][x]))
                before = _join(before, self._single[p][x])
            moves = self._moves[name] = tuple(enumerate(self._moves_from(names), first))
        return moves

    def _moves_from(self, names: list[str]) -> Iterable[Edge]:
        """The moves leaving the location vector ``names``, in index order."""
        src = ",".join(names)
        comps = self.network.automata
        for i, a in enumerate(comps):
            for _, e in a.leaving(names[i]):
                if e.sync is None:
                    dst = names.copy()
                    dst[i] = e.target
                    yield Edge(src, ",".join(dst), e.guard, e.resets, e.weight)
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
                            yield Edge(
                                src,
                                ",".join(dst),
                                e.guard + f.guard,
                                tuple(dict.fromkeys(e.resets + f.resets)),
                                e.weight + f.weight,
                            )

    def _paired(self) -> Iterable[tuple[int, Edge]]:
        """Every (component, edge) whose edge takes part in some product edge."""
        comps = self.network.automata
        polarities: dict[str, set[tuple[int, str]]] = {}
        for i, a in enumerate(comps):
            for e in a.edges:
                if e.sync is not None:
                    polarities.setdefault(e.sync[0], set()).add((i, e.sync[1]))
        for i, a in enumerate(comps):
            for e in a.edges:
                if e.sync is None or any(
                    j != i and pol != e.sync[1] for j, pol in polarities[e.sync[0]]
                ):
                    yield i, e

    @cached_property
    def _min_weight(self) -> int:
        cheapest: dict[tuple[int, str, str], int] = {}
        weights = []
        for i, e in self._paired():
            if e.sync is None:
                weights.append(e.weight)
            else:
                key = (i, *e.sync)
                cheapest[key] = min(cheapest.get(key, e.weight), e.weight)
        weights += [
            w + v
            for (i, c, pol), w in cheapest.items() if pol == "!"
            for (j, d, qol), v in cheapest.items() if qol == "?" and d == c and j != i
        ]
        rate = sum(min(l.rate for l in a.locations) for a in self.network.automata)
        return min([rate] + weights)

    def min_weight(self) -> int:
        """Least rate or weight over the whole product, reachable or not."""
        return self._min_weight

    @cached_property
    def _max_constants(self) -> dict[str, int | None]:
        return _largest_constants(
            self.clocks,
            [l.invariant for a in self.network.automata for l in a.locations]
            + [e.guard for _, e in self._paired()],
        )

    def max_constants(self) -> dict[str, int | None]:
        """Largest constant each clock is compared against; None when never compared."""
        return dict(self._max_constants)

    def _vectors(self) -> Iterable[list[str]]:
        """Every location vector, in index order."""
        for combo in itertools.product(*[a.locations for a in self.network.automata]):
            yield [l.name for l in combo]

    @cached_property
    def locations(self) -> tuple[Location, ...]:
        return tuple(self.location(",".join(names)) for names in self._vectors())

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for names in self._vectors() for e in self._moves_from(names))

    @cached_property
    def goal_locations(self) -> frozenset[str]:
        return frozenset(l.name for l in self.locations if l.goal)


def compose(network: Network) -> Automaton | Product:
    """The network's synchronous product, as a :class:`Product` view.

    A single automaton without channels is its own product and is returned
    as it is.
    """
    if len(network.automata) == 1 and not network.channels:
        return network.automata[0]
    return Product(network)


# -- maximal constants and run evaluation -----------------------------------------


def _largest_constants(clocks: Iterable[str], guards: Iterable[Guard]) -> dict[str, int | None]:
    m: dict[str, int | None] = {c: None for c in clocks}
    for guard in guards:
        for atom in guard:
            cur = m[atom.clock]
            if cur is None or atom.const > cur:
                m[atom.clock] = atom.const
    return m


def edge_from(a: Automaton | Product, source: str, index: int) -> Edge | None:
    """The edge numbered ``index`` among those leaving ``source``, if it is one."""
    return next((e for i, e in a.leaving(source) if i == index), None)


def evaluate_run(a: Automaton | Product, run: Run) -> Fraction:
    """Exact cost of a run, validating guards and invariants stepwise."""
    v = {c: Fraction(0) for c in a.clocks}
    loc = a.location(a.initial)
    cost = Fraction(0)

    def check_invariant(step: int):
        for atom in loc.invariant:
            if not atom.holds(v):
                raise RunError(f"invariant {atom} violated at {loc.name}", step)

    check_invariant(0)
    for i, (delay, edge_index) in enumerate(run.steps, start=1):
        if delay < 0:
            raise RunError("negative delay", i)
        for c in v:
            v[c] += delay
        check_invariant(i)
        cost += delay * loc.rate
        if edge_index not in range(a.edge_count):
            raise RunError(f"no edge {edge_index}", i)
        edge = edge_from(a, loc.name, edge_index)
        if edge is None:
            raise RunError(f"edge {edge_index} does not leave {loc.name}", i)
        for atom in edge.guard:
            if not atom.holds(v):
                raise RunError(f"guard {atom} violated", i)
        for c in edge.resets:
            v[c] = Fraction(0)
        cost += edge.weight
        loc = a.location(edge.target)
        check_invariant(i)
    if run.trailing_delay < 0:
        raise RunError("negative delay", len(run.steps) + 1)
    for c in v:
        v[c] += run.trailing_delay
    check_invariant(len(run.steps) + 1)
    cost += run.trailing_delay * loc.rate
    return cost
