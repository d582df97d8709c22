"""Command-line front end: parse, compose, explore, report.

Exit codes: 0 success (including cap/timeout with terminated=false), 1 model
parse errors, 2 invalid option values or option conflicts.  Stats mirror the
usual benchmark counters (waiting/passed insertions, peak storage, inclusion
tests) so different runs can be compared directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .dbm import NEG_INF, POS_INF
from .explorer import STRATEGIES, Config, ConfigError, Verdict, explore, extract_witness
from .model import ModelError, compose, edge_from, evaluate_run, parse_model
from .oracle import OracleCapExceeded, corner_point_cost


def _number(kind, low=None, *, strict=False):
    """An argparse type: ``kind(text)``, at least ``low`` (above it if strict)."""
    def parse(text: str):
        try:
            value = kind(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
        if low is not None and not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"{text} is not {'>' if strict else '>='} {low}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zonecost",
        description="Optimal-cost reachability for weighted timed automata",
    )
    p.add_argument("model", type=Path, help="model file (textual .wta format)")
    p.add_argument("--inclusion", choices=["abstract", "simple"], default="abstract")
    p.add_argument("--strategy", choices=STRATEGIES, default=Config.strategy,
                   help="Waiting order: best pops the least mincost first (default: %(default)s)")
    p.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="prune states that cannot beat the best cost so far "
        "(default: enabled iff all weights are nonnegative)",
    )
    p.add_argument("--hint", type=_number(Fraction), default=None,
                   help="known cost bound used for pruning; conflicts with --no-prune")
    p.add_argument("--uniform-m", action="store_true",
                   help="use one global maximal constant for all clocks")
    p.add_argument("--cap", type=_number(int, 0), default=None, help="iteration cap")
    p.add_argument("--timeout", type=_number(float, 0), default=None,
                   help="time cap in seconds for the exploration, and again for --oracle")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the corner-point abstraction")
    p.add_argument("--witness", type=_number(Fraction, 0, strict=True), default=None,
                   metavar="EPS",
                   help="extract an EPS-optimal run when the cost is finite")
    p.add_argument("--stats", choices=["text", "json"], default="text")
    p.add_argument("--progress", action="store_true",
                   help="emit 'progress cost=<value> popped=<n>' lines on stderr")
    return p


def _cost_str(cost) -> str:
    if cost == POS_INF:
        return "inf"
    if cost == NEG_INF:
        return "-inf"
    return str(Fraction(cost))


def _stats_payload(verdict: Verdict) -> dict:
    s = verdict.stats
    return {
        "added_to_waiting": s.added_to_waiting,
        "added_to_passed": s.added_to_passed,
        "max_stored": s.max_stored,
        "tests": s.tests,
        "successful_tests": s.successful_tests,
        "wall_time_ms": s.wall_time * 1000.0,
        "cost": _cost_str(verdict.cost),
        "terminated": verdict.terminated,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.prune is False and args.hint is not None:
        print("error: --hint prunes, so it conflicts with --no-prune", file=sys.stderr)
        return 2
    try:
        text = args.model.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.model}: {exc}", file=sys.stderr)
        return 1
    try:
        network = parse_model(text)
        automaton = compose(network)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    nonneg = automaton.min_weight() >= 0
    prune = args.prune if args.prune is not None else nonneg
    cfg = Config(
        inclusion=args.inclusion,
        strategy=args.strategy,
        pruning=prune,
        hint=args.hint,
        uniform_m=args.uniform_m,
        iteration_cap=args.cap,
        time_cap=args.timeout,
    )

    def on_progress(popped: int, cost) -> None:
        if popped % 500 == 0:
            print(f"progress cost={_cost_str(cost)} popped={popped}", file=sys.stderr)

    try:
        verdict = explore(
            automaton, cfg, on_progress=on_progress if args.progress else None
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report: dict = {"stats": _stats_payload(verdict)}
    if args.witness is not None:
        if verdict.witness_state is not None and verdict.cost not in (POS_INF, NEG_INF):
            run = extract_witness(automaton, verdict.witness_state, args.witness)
            # evaluate_run first: it checks that each edge leaves its step's location
            cost = evaluate_run(automaton, run)
            edges, location = [], automaton.initial
            for _, i in run.steps:
                e = edge_from(automaton, location, i)
                edges.append(f"{e.source}->{e.target}#{i}")
                location = e.target
            report["witness"] = {
                "delays": [str(d) for d, _ in run.steps] + [str(run.trailing_delay)],
                "edges": edges,
                "cost": str(cost),
            }
        else:
            report["witness"] = None
    if args.oracle:
        try:
            deadline = (
                None if args.timeout is None else time.perf_counter() + args.timeout
            )
            oracle_cost = corner_point_cost(automaton, deadline=deadline)
            report["oracle"] = {
                "cost": _cost_str(oracle_cost),
                "agrees": oracle_cost == verdict.cost,
            }
        except OracleCapExceeded as exc:
            report["oracle"] = {"cost": None, "agrees": None, "error": str(exc)}

    if args.stats == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        s = report["stats"]
        print(f"cost             {s['cost']}")
        print(f"terminated       {str(s['terminated']).lower()}")
        print(f"added to waiting {s['added_to_waiting']}")
        print(f"added to passed  {s['added_to_passed']}")
        print(f"max stored       {s['max_stored']}")
        print(f"tests            {s['tests']}")
        print(f"successful tests {s['successful_tests']}")
        print(f"wall time        {s['wall_time_ms']:.1f} ms")
        if "witness" in report:
            if report["witness"] is None:
                print("witness          (none: cost not finite)")
            else:
                w = report["witness"]
                trace = " ".join(
                    f"delay {d}; {e};" for d, e in zip(w["delays"], w["edges"])
                )
                print(f"witness          {trace} delay {w['delays'][-1]}")
                print(f"witness cost     {w['cost']}")
        if "oracle" in report:
            o = report["oracle"]
            if o["cost"] is None:
                print(f"oracle           skipped: {o['error']}")
            else:
                print(f"oracle cost      {o['cost']}")
                print(f"oracle agrees    {str(o['agrees']).lower()}")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
