#!/usr/bin/env python3
"""Benchmark of optimal-cost reachability over priced zones.

    python3 bench/run.py --workload {landing,unbounded,random} \
        [--seed N] [--corpus-seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository: the library is imported from
``src/``.  The run generates the workload's models from the seeds, times
set-up (``parse_model`` + ``compose`` of every model text), then repeats
whole rounds of operations for ``--seconds`` seconds.  An operation is one
model explored under one inclusion test plus the extraction of an
eps-optimal witness, eps = 1/1000: what ``zonecost MODEL --witness 1/1000``
spends after set-up.  Times are CPU time of this single-threaded process,
scaled to a reference machine speed (see ``Speed``).  After timing, every
verdict is checked against a reference computed apart from the explorer,
and the last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
rounds, then one round with spans around every layer's public functions, and
reports the per-layer metrics plus the tracing overhead; the spans are
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own generators)

EPS = Fraction(1, 1000)
# Set-up is timed in samples of at least SETUP_SAMPLE_S CPU seconds (whole
# passes), for SETUP_BUDGET_S in all and no fewer than SETUP_MIN_SAMPLES; the
# median of many samples shrugs off bursts of load from other processes.
SETUP_SAMPLE_S = 0.05
SETUP_BUDGET_S = 1.5
SETUP_MIN_SAMPLES = 15
# Rule for the classical pass of the random workload: a model whose classical
# exploration does not finish within this many pops is left out of that pass
# (the classical test may diverge; that divergence is the paper's point).
CLASSICAL_SCREEN_POPS = 400
# Speed calibration: CAL_SLICES slices of a fixed kernel are timed before an
# operation or set-up sample whenever CAL_EVERY_S CPU seconds have passed
# since the last ones; CAL_REFERENCE_S is one slice at the reference speed.
# A time is scaled by the median of the CAL_WINDOW slices before it and the
# CAL_WINDOW after it.
CAL_REFERENCE_S = 0.004
CAL_EVERY_S = 0.5
CAL_SLICES = 3
CAL_WINDOW = 6


def load_library():
    """Import ``zonecost`` from the checkout's ``src/``; exit 2 when absent."""
    src = ROOT / "src"
    if not (src / "zonecost" / "__init__.py").is_file():
        print(f"error: no zonecost sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import zonecost
    return zonecost


def calibration_slice() -> None:
    """Fixed work: shortest paths over a small list matrix, then Fraction arithmetic."""
    n = 8
    m = [[0 if i == j else (i * 7 + j * 3) % 11 + 1 for j in range(n)] for i in range(n)]
    for _ in range(40):
        for k in range(n):
            rk = m[k]
            for i in range(n):
                row, mik = m[i], m[i][k]
                for j in range(n):
                    d = mik + rk[j]
                    if d < row[j]:
                        row[j] = d
    for i in range(1, 300):
        a, b = Fraction(i, i + 3), Fraction(i + 1, i + 5)
        if a * b - a > b:
            m[0][0] += 1


class Speed:
    """The machine's speed during one run, from calibration slices.

    On a shared machine the speed of one process drifts by 10-40% within
    tens of seconds, and a fixed pure-Python kernel drifts with it
    (correlation 0.95 between 15 s window medians).  Slices are spread over
    set-up and every round; a CPU time measured at slice count ``mark``
    times ``factor(mark)`` is seconds at the speed where a slice takes
    CAL_REFERENCE_S.
    """

    def __init__(self):
        self.slices = array("d")
        self._last = -math.inf

    def point(self) -> None:
        for _ in range(CAL_SLICES):
            t0 = time.process_time()
            calibration_slice()
            self.slices.append(time.process_time() - t0)
        self._last = time.process_time()

    def maybe_point(self) -> None:
        if time.process_time() - self._last >= CAL_EVERY_S:
            self.point()

    def factor(self, mark: int) -> float:
        window = self.slices[max(0, mark - CAL_WINDOW):mark + CAL_WINDOW]
        return CAL_REFERENCE_S / statistics.median(window)


@dataclass
class Operation:
    model: str
    inclusion: str
    automaton: object
    config: object


@dataclass
class Outcome:
    seconds: float  # CPU
    wall: float
    mark: int  # calibration slices taken before the operation
    cost: object = None
    terminated: bool = False
    witness_cost: Fraction | None = None
    error: str | None = None
    stats: dict = field(default_factory=dict)

    def key(self):
        return (self.cost, self.terminated, self.witness_cost, self.error)


class Rounds:
    """The first round's outcomes plus the times and calibration marks of every round.

    Later rounds keep only their times, after their verdicts are compared
    with the first round's, so memory does not grow with the round count.
    """

    def __init__(self):
        self.first: list[Outcome] = []
        self.cpu: list[array] = []
        self.wall: list[array] = []
        self.marks: list[array] = []
        self.agree = True

    def add(self, outcomes: list[Outcome], ops: list[Operation]) -> None:
        if not self.first:
            self.first = outcomes
        for op, o, f in zip(ops, outcomes, self.first):
            if o.key() != f.key():
                self.agree = False
                print(f"nondeterministic: {op.model}/{op.inclusion}", file=sys.stderr)
        self.cpu.append(array("d", (o.seconds for o in outcomes)))
        self.wall.append(array("d", (o.wall for o in outcomes)))
        self.marks.append(array("i", (o.mark for o in outcomes)))

    def scaled(self, speed: Speed) -> list[list[float]]:
        """Per round, the operations' CPU seconds at the reference speed."""
        return [[t * speed.factor(m) for t, m in zip(ts, ms)]
                for ts, ms in zip(self.cpu, self.marks)]


class Bench:
    def __init__(self, zc, workload: str, seed: int, tiny: bool = False,
                 corpus_seed: int = workloads.DEFAULT_SEED):
        self.zc = zc
        self.workload = workload
        self.seed = seed
        extra = {"corpus_seed": corpus_seed} if workload == "random" else {}
        self.models = workloads.GENERATORS[workload](seed, tiny=tiny, **extra)
        self.texts = [text for _, text, _ in self.models]
        self.references = {name: ref for name, _, ref in self.models}
        self.automata: dict[str, object] = {}
        self.ops: list[Operation] = []
        self.left_out: list[str] = []
        self.speed = Speed()

    # -- set-up --------------------------------------------------------------

    def setup_pass(self, tracer=None) -> list:
        zc = self.zc
        if tracer is None:
            return [zc.compose(zc.parse_model(t)) for t in self.texts]
        return [tracer.call("model.compose", zc.compose,
                            tracer.call("model.parse", zc.parse_model, t))
                for t in self.texts]

    def measure_setup(self) -> float:
        """Median seconds of one set-up pass over every model text, at the reference speed."""
        t0 = time.process_time()
        automata = self.setup_pass()
        first = max(time.process_time() - t0, 1e-6)
        self.automata = {name: a for (name, _, _), a in zip(self.models, automata)}
        passes = math.ceil(SETUP_SAMPLE_S / first)
        samples = []
        for _ in range(max(SETUP_MIN_SAMPLES, round(SETUP_BUDGET_S / (passes * first)))):
            self.speed.maybe_point()
            mark = len(self.speed.slices)
            t0 = time.process_time()
            for _ in range(passes):
                self.setup_pass()
            samples.append(((time.process_time() - t0) / passes, mark))
        self.speed.point()
        return statistics.median(t * self.speed.factor(m) for t, m in samples)

    def plan(self) -> None:
        """The round's operations; the random workload also screens its classical pass."""
        inclusions = ("abstract", "simple") if self.workload == "random" else ("abstract",)
        for name, a in self.automata.items():
            # the CLI's default: prune iff no weight is negative
            prune = a.min_weight() >= 0
            for inc in inclusions:
                if inc == "simple":
                    screen = self.zc.Config(inclusion=inc, pruning=prune,
                                            iteration_cap=CLASSICAL_SCREEN_POPS)
                    if not self.zc.explore(a, screen).terminated:
                        self.left_out.append(name)
                        continue
                self.ops.append(Operation(name, inc, a, self.zc.Config(inclusion=inc, pruning=prune)))

    # -- operations ------------------------------------------------------------

    def run_op(self, op: Operation, on_progress=None) -> Outcome:
        zc = self.zc
        mark = len(self.speed.slices)
        w0, t0 = time.perf_counter(), time.process_time()
        try:
            v = zc.explore(op.automaton, op.config, on_progress=on_progress)
            run = None
            if v.witness_state is not None and v.cost not in (zc.dbm.POS_INF, zc.dbm.NEG_INF):
                run = zc.extract_witness(op.automaton, v.witness_state, EPS)
            t1, w1 = time.process_time(), time.perf_counter()
        except Exception:  # an operation that raises is a failed operation
            t1, w1 = time.process_time(), time.perf_counter()
            return Outcome(t1 - t0, w1 - w0, mark, error=traceback.format_exc(limit=3))
        wc = zc.evaluate_run(op.automaton, run) if run is not None else None
        s = v.stats
        return Outcome(t1 - t0, w1 - w0, mark, v.cost, v.terminated, wc, stats={
            "passed": s.added_to_passed, "waiting_added": s.added_to_waiting,
            "max_stored": s.max_stored, "tests": s.tests,
            "successful_tests": s.successful_tests})

    def run_round(self) -> list[Outcome]:
        outcomes = []
        for op in self.ops:
            self.speed.maybe_point()
            outcomes.append(self.run_op(op))
        return outcomes

    def run_rounds(self, seconds: float) -> Rounds:
        """Whole rounds until ``seconds`` of wall time have passed (at least one)."""
        rounds = Rounds()
        start = time.perf_counter()
        while not rounds.cpu or time.perf_counter() - start < seconds:
            rounds.add(self.run_round(), self.ops)
        self.speed.point()
        return rounds

    # -- checks ----------------------------------------------------------------

    def reference(self, op: Operation):
        ref = self.references[op.model]
        if ref is None:  # random corpus: the corner-point oracle
            ref = self.zc.corner_point_cost(op.automaton)
            self.references[op.model] = ref
        return ref

    def check(self, outcomes: list[Outcome]) -> set[int]:
        """Indices of the operations that failed."""
        failed: set[int] = set()
        costs: dict[str, set] = {}
        for i, (op, o) in enumerate(zip(self.ops, outcomes)):
            problem = self.problem(op, o)
            if problem:
                failed.add(i)
                print(f"failed: {op.model}/{op.inclusion}: {problem}", file=sys.stderr)
            costs.setdefault(op.model, set()).add(o.cost)
        for i, op in enumerate(self.ops):
            if len(costs[op.model]) > 1 and i not in failed:
                failed.add(i)
                print(f"failed: {op.model}: abstract and classical costs differ", file=sys.stderr)
        return failed

    def problem(self, op: Operation, o: Outcome) -> str | None:
        if o.error is not None:
            return o.error
        if not o.terminated:
            return "exploration did not terminate"
        try:
            ref = self.reference(op)
        except Exception:
            return "reference failed: " + traceback.format_exc(limit=3)
        if o.cost != ref:
            return f"cost {o.cost} differs from reference {ref}"
        if isinstance(o.cost, Fraction):
            if o.witness_cost is None:
                return "finite cost without a witness"
            if not o.cost <= o.witness_cost <= o.cost + EPS:
                return f"witness costs {o.witness_cost}, outside [{o.cost}, {o.cost} + {EPS}]"
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(setup_s: float, scaled: list[list[float]]) -> dict:
    per_op = [statistics.median(times) for times in zip(*scaled)]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "solve_s": {"value": statistics.median(sum(r) for r in scaled), "unit": "s"},
        "verdict_p50_ms": {"value": statistics.median(per_op) * 1000, "unit": "ms"},
    }


def per_layer(bench: Bench, tracer, setup_traced: dict, traced: list[Outcome],
              untraced_s: float, pops: int) -> dict:
    """Layer metrics of the traced round, in unscaled CPU and span seconds."""
    t = tracer.totals()
    c = tracer.counts

    def span(name, key="s"):
        return t.get(name, {}).get(key, 0)

    stats = [o.stats for o in traced]
    tests = sum(s.get("tests", 0) for s in stats)
    successful = sum(s.get("successful_tests", 0) for s in stats)
    unpriced = span("inclusion.unpriced", "calls")
    traced_s = sum(o.seconds for o in traced)
    values = {
        "model.parse_s": (setup_traced["model.parse"], "s"),
        "model.compose_s": (setup_traced["model.compose"], "s"),
        "model.product_locations": (sum(len(a.locations) for a in bench.automata.values()), "count"),
        "model.product_edges": (sum(len(a.edges) for a in bench.automata.values()), "count"),
        "explorer.pops": (pops, "count"),
        "explorer.passed": (sum(s.get("passed", 0) for s in stats), "count"),
        "explorer.waiting_added": (sum(s.get("waiting_added", 0) for s in stats), "count"),
        "explorer.max_stored": (max((s.get("max_stored", 0) for s in stats), default=0), "count"),
        "explorer.tests": (tests, "count"),
        "explorer.successful_tests": (successful, "count"),
        "explorer.test_success_ratio": (successful / tests if tests else 0.0, "ratio"),
        "explorer.self_s": (span("explorer.explore", "self_s"), "s"),
        "explorer.post_calls": (span("explorer.post", "calls"), "count"),
        "explorer.post_s": (span("explorer.post"), "s"),
        "explorer.post_self_s": (span("explorer.post", "self_s"), "s"),
        "explorer.edges_scanned": (c["explorer.edges_scanned"], "count"),
        "explorer.successors": (c["explorer.successors"], "count"),
        "explorer.witness_calls": (span("explorer.witness", "calls"), "count"),
        "explorer.witness_s": (span("explorer.witness"), "s"),
        "priced.delay_calls": (span("priced.delay", "calls"), "count"),
        "priced.delay_s": (span("priced.delay"), "s"),
        "priced.reset_calls": (span("priced.reset", "calls"), "count"),
        "priced.reset_s": (span("priced.reset"), "s"),
        "priced.pieces": (c["priced.pieces"], "count"),
        "priced.mincost_calls": (span("priced.mincost", "calls"), "count"),
        "priced.mincost_s": (span("priced.mincost"), "s"),
        "inclusion.abstract_calls": (span("inclusion.abstract", "calls"), "count"),
        "inclusion.abstract_s": (span("inclusion.abstract"), "s"),
        "inclusion.simple_calls": (span("inclusion.simple", "calls"), "count"),
        "inclusion.simple_s": (span("inclusion.simple"), "s"),
        "inclusion.unpriced_calls": (unpriced, "count"),
        "inclusion.unpriced_s": (span("inclusion.unpriced"), "s"),
        "inclusion.unpriced_reject_ratio": (
            c["inclusion.unpriced_rejects"] / unpriced if unpriced else 0.0, "ratio"),
        "inclusion.cells": (c["inclusion.cells"], "count"),
        "inclusion.preorder_calls": (c["inclusion.preorder_calls"], "count"),
        "inclusion.lower_bound_calls": (c["inclusion.lower_bound_calls"], "count"),
        "inclusion.facet_reduce_calls": (span("inclusion.facet_reduce", "calls"), "count"),
        "inclusion.facet_reduce_s": (span("inclusion.facet_reduce"), "s"),
        "inclusion.s_value_calls": (span("inclusion.s_value", "calls"), "count"),
        "inclusion.s_value_s": (span("inclusion.s_value"), "s"),
        "dbm.lp_calls": (span("dbm.lp", "calls"), "count"),
        "dbm.lp_s": (span("dbm.lp"), "s"),
        "dbm.lp_unbounded": (c["dbm.lp_unbounded"], "count"),
        "dbm.facets_calls": (c["dbm.facets_calls"], "count"),
        "dbm.intersect_calls": (span("dbm.intersect", "calls"), "count"),
        "dbm.intersect_s": (span("dbm.intersect"), "s"),
        "dbm.closures": (c["dbm.closures"], "count"),
        "trace.untraced_solve_s": (untraced_s, "s"),
        "trace.traced_solve_s": (traced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_round(bench: Bench, tracer) -> tuple[list[Outcome], int]:
    """One round with every layer boundary spanned; returns outcomes and pops."""
    zc = bench.zc
    pops = 0

    def on_progress(popped, cost):
        nonlocal pops
        pops += 1

    explore, witness = zc.explore, zc.extract_witness
    zc.explore = tracer.span("explorer.explore", explore)
    zc.extract_witness = tracer.span("explorer.witness", witness)
    try:
        with tracer:
            outcomes = [bench.run_op(op, on_progress) for op in bench.ops]
    finally:
        zc.explore, zc.extract_witness = explore, witness
    return outcomes, pops


def write_rounds(path: Path, bench: Bench, rounds: Rounds) -> None:
    """Per operation: its verdict and stats, and its CPU and wall seconds in every round."""
    path.parent.mkdir(parents=True, exist_ok=True)
    scaled = rounds.scaled(bench.speed)
    ops = [{"model": op.model, "inclusion": op.inclusion, "cost": str(o.cost),
            "cpu_seconds": [r[i] for r in rounds.cpu],
            "scaled_seconds": [r[i] for r in scaled],
            "wall_seconds": [r[i] for r in rounds.wall], **o.stats}
           for i, (op, o) in enumerate(zip(bench.ops, rounds.first))]
    with path.open("w", encoding="utf-8") as f:
        json.dump({"workload": bench.workload, "seed": bench.seed,
                   "calibration_slices": bench.speed.slices.tolist(),
                   "left_out_of_classical": bench.left_out, "operations": ops}, f, indent=1)


def main(argv=None, *, tiny: bool = False) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                   help="run seed: shifts, permutations and orders of the inputs")
    p.add_argument("--corpus-seed", type=int, default=workloads.DEFAULT_SEED,
                   help="seed of the random workload's corpus")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    zc = load_library()
    bench = Bench(zc, args.workload, args.seed, tiny=tiny, corpus_seed=args.corpus_seed)
    setup_s = bench.measure_setup()
    bench.plan()
    if bench.left_out:
        print(f"left out of the classical pass: {', '.join(bench.left_out)}", file=sys.stderr)

    if args.trace:
        from tracing import Tracer  # imports zonecost, so only after load_library

        rounds = bench.run_rounds(args.seconds / 2)
        untraced_s = statistics.median(sum(r) for r in rounds.cpu)
        tracer = Tracer()
        with tracer:
            bench.setup_pass(tracer)
        setup_traced = {k: v["s"] for k, v in tracer.totals().items()}
        traced, pops = traced_round(bench, tracer)
        rounds.add(traced, bench.ops)
        metrics = per_layer(bench, tracer, setup_traced, traced, untraced_s, pops)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        rounds = bench.run_rounds(args.seconds)
        rss = peak_rss_mb()  # before the checks, whose oracle graphs would count
        metrics = end_to_end(setup_s, rounds.scaled(bench.speed))
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    failed = bench.check(rounds.first)

    write_rounds(OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json", bench, rounds)
    print(json.dumps({
        "correct": rounds.agree,
        "attempted": len(rounds.cpu) * len(bench.ops),
        "failed": len(rounds.cpu) * len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
