"""Weighted timed automata: data model, textual format, composition, runs.

The textual format is line oriented ('#' starts a comment):

    clocks x y;
    automaton NAME
      location NAME rate INT [invariant GUARD] [goal] [initial];
      edge SRC -> DST [guard GUARD] [reset x,y] [weight INT] [sync chan! | chan?];

with GUARD ::= atom (&& atom)* and atom ::= clock (< | <= | = | >= | >) NAT.
Networks synchronize through binary channel handshakes and are flattened into
a single automaton before exploration.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

OPS = ("<=", ">=", "<", ">", "=")

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*$")


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

    def holds(self, v) -> bool:
        x = v[self.clock]
        return {
            "<": x < self.const,
            "<=": x <= self.const,
            "=": x == self.const,
            ">=": x >= self.const,
            ">": x > self.const,
        }[self.op]

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

    @property
    def initial(self) -> str:
        return next(l.name for l in self.locations if l.initial)

    @property
    def goal_locations(self) -> frozenset[str]:
        return frozenset(l.name for l in self.locations if l.goal)

    def location(self, name: str) -> Location:
        for l in self.locations:
            if l.name == name:
                return l
        raise KeyError(name)

    def min_weight(self) -> int:
        rates = [l.rate for l in self.locations]
        weights = [e.weight for e in self.edges]
        return min(rates + weights, default=0)


@dataclass(frozen=True)
class Network:
    automata: tuple[Automaton, ...]
    clocks: tuple[str, ...]

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


def _parse_guard(text: str, clocks: set[str], line: int) -> Guard:
    atoms = []
    for raw in text.split("&&"):
        part = raw.strip()
        m = re.match(r"([A-Za-z_][A-Za-z0-9_.]*)\s*(<=|>=|<|>|=)\s*(-?\d+)$", part)
        if not m:
            raise ModelError(f"malformed guard atom '{part}'", line)
        clock, op, const = m.group(1), m.group(2), int(m.group(3))
        if clock not in clocks:
            raise ModelError(f"unknown clock '{clock}'", line)
        if const < 0:
            raise ModelError(f"guard constant must be a natural number, got {const}", line)
        atoms.append(Atom(clock, op, const))
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
    """Parse the textual model format into a validated network."""
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
                locations=tuple(current["locations"]),
                edges=tuple(current["edges"]),
            )
        )
        current = None

    clock_set: set[str] = set()
    for lineno, stmt in _statements(text):
        words = stmt.split()
        head = words[0]
        if head == "clocks":
            if clocks:
                raise ModelError("duplicate clocks declaration", lineno)
            for c in words[1:]:
                if not _NAME.match(c):
                    raise ModelError(f"bad clock name '{c}'", lineno)
                if c in clock_set:
                    raise ModelError(f"duplicate clock '{c}'", lineno)
                clocks.append(c)
                clock_set.add(c)
            if not clocks:
                raise ModelError("empty clocks declaration", lineno)
        elif head == "automaton":
            if len(words) != 2 or not _NAME.match(words[1]):
                raise ModelError("expected 'automaton NAME'", lineno)
            finish()
            current = {"name": words[1], "locations": [], "edges": [], "line": lineno}
        elif head == "location":
            if current is None:
                raise ModelError("location outside an automaton", lineno)
            m = re.match(
                r"location\s+(\w[\w.]*)\s+rate\s+(-?\d+)"
                r"(?:\s+invariant\s+(.*?))?"
                r"(\s+goal)?(\s+initial)?$",
                stmt,
            )
            if not m:
                raise ModelError(f"malformed location statement '{stmt}'", lineno)
            name, rate, inv, goal, initial = m.groups()
            if any(l.name == name for l in current["locations"]):
                raise ModelError(f"duplicate location '{name}'", lineno)
            invariant = _parse_guard(inv, clock_set, lineno) if inv else ()
            current["locations"].append(
                Location(name, int(rate), invariant, goal is not None, initial is not None)
            )
        elif head == "edge":
            if current is None:
                raise ModelError("edge outside an automaton", lineno)
            m = re.match(
                r"edge\s+(\w[\w.]*)\s*->\s*(\w[\w.]*)"
                r"(?:\s+guard\s+(.*?))?"
                r"(?:\s+reset\s+([\w.,\s]*?))?"
                r"(?:\s+weight\s+(-?\d+))?"
                r"(?:\s+sync\s+(\w[\w.]*[!?]))?$",
                stmt,
            )
            if not m:
                raise ModelError(f"malformed edge statement '{stmt}'", lineno)
            src, dst, guard_s, resets_s, weight_s, sync_s = m.groups()
            names = {l.name for l in current["locations"]}
            for loc in (src, dst):
                if loc not in names:
                    raise ModelError(f"unknown location '{loc}'", lineno)
            guard = _parse_guard(guard_s, clock_set, lineno) if guard_s else ()
            resets: tuple[str, ...] = ()
            if resets_s:
                resets = tuple(r.strip() for r in resets_s.split(",") if r.strip())
                for r in resets:
                    if r not in clock_set:
                        raise ModelError(f"unknown clock '{r}' in reset", lineno)
            sync = None
            if sync_s:
                sync = (sync_s[:-1], sync_s[-1])
            current["edges"].append(
                Edge(src, dst, guard, resets, int(weight_s) if weight_s else 0, sync)
            )
        else:
            raise ModelError(f"unknown statement '{head}'", lineno)
    finish()
    if not automata:
        raise ModelError("no automaton declared", 1)

    network = Network(tuple(automata), tuple(clocks))
    _validate_network(network)
    return network


def _clocks_used(a: Automaton) -> set[str]:
    used: set[str] = set()
    for l in a.locations:
        used.update(atom.clock for atom in l.invariant)
    for e in a.edges:
        used.update(atom.clock for atom in e.guard)
        used.update(e.resets)
    return used


def _validate_network(network: Network) -> None:
    owner: dict[str, str] = {}
    for a in network.automata:
        for c in _clocks_used(a):
            if c in owner and owner[c] != a.name:
                raise ModelError(
                    f"clock '{c}' used by both '{owner[c]}' and '{a.name}'"
                )
            owner[c] = a.name
    polarity: dict[str, set[str]] = {}
    for a in network.automata:
        for e in a.edges:
            if e.sync is not None:
                polarity.setdefault(e.sync[0], set()).add(e.sync[1])
    for chan, pols in polarity.items():
        if pols != {"!", "?"}:
            raise ModelError(f"channel '{chan}' has no matching {'?' if pols == {'!'} else '!'}-edge")


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


def compose(network: Network) -> Automaton:
    """Flatten a network into its synchronous product automaton.

    Location tuples carry summed rates and conjoined invariants; internal
    edges interleave; each !-edge pairs with every matching ?-edge of another
    component (weights added).  A product location is a goal when every
    component that declares goal locations sits on one.
    """
    if len(network.automata) == 1 and not network.channels:
        return network.automata[0]
    comps = network.automata
    designated = [i for i, a in enumerate(comps) if a.goal_locations]
    locations = []
    for combo in itertools.product(*[a.locations for a in comps]):
        name = ",".join(l.name for l in combo)
        invariant = tuple(at for l in combo for at in l.invariant)
        locations.append(
            Location(
                name=name,
                rate=sum(l.rate for l in combo),
                invariant=invariant,
                goal=bool(designated)
                and all(combo[i].goal for i in designated),
                initial=all(l.initial for l in combo),
            )
        )
    edges = []
    for combo in itertools.product(*[a.locations for a in comps]):
        src = ",".join(l.name for l in combo)
        for i, a in enumerate(comps):
            for e in a.edges:
                if e.source != combo[i].name:
                    continue
                if e.sync is None:
                    names = [l.name for l in combo]
                    names[i] = e.target
                    edges.append(
                        Edge(src, ",".join(names), e.guard, e.resets, e.weight)
                    )
                elif e.sync[1] == "!":
                    chan = e.sync[0]
                    for j, b in enumerate(comps):
                        if j == i:
                            continue
                        for f in b.edges:
                            if f.sync != (chan, "?") or f.source != combo[j].name:
                                continue
                            names = [l.name for l in combo]
                            names[i] = e.target
                            names[j] = f.target
                            edges.append(
                                Edge(
                                    src,
                                    ",".join(names),
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


# -- maximal constants and run evaluation -----------------------------------------


def max_constants(a: Automaton) -> dict[str, int | None]:
    """Largest constant each clock is compared against; None when never compared."""
    m: dict[str, int | None] = {c: None for c in a.clocks}

    def scan(guard: Guard):
        for atom in guard:
            cur = m[atom.clock]
            if cur is None or atom.const > cur:
                m[atom.clock] = atom.const

    for l in a.locations:
        scan(l.invariant)
    for e in a.edges:
        scan(e.guard)
    return m


def evaluate_run(a: Automaton, run: Run) -> Fraction:
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
        if edge_index not in range(len(a.edges)):
            raise RunError(f"no edge {edge_index}", i)
        edge = a.edges[edge_index]
        if edge.source != loc.name:
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
